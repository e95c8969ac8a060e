"""Self-tests of the benchmark's own arithmetic.

Usage (from the repository root)::

    python3 bench/selftest.py

Covers the percentile and quartile code, self time from nested spans, the
import-time parser and the computed sampler counts.  Needs neither numpy
nor rayprod.
"""

from __future__ import annotations

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import import_layers, parse_importtime, percentile, spread  # noqa: E402
from tracing import Span, chain_flops, layer_metrics, self_times, uniform_doubles  # noqa: E402


class Percentile(unittest.TestCase):
    def test_matches_linear_interpolation(self):
        values = [15, 20, 35, 40, 50]
        # numpy.percentile(values, q) with the default 'linear' method
        for q, expected in ((0, 15), (25, 20), (40, 29), (50, 35), (90, 46), (100, 50)):
            self.assertAlmostEqual(percentile(values, q), expected)

    def test_order_does_not_matter(self):
        self.assertEqual(percentile([3, 1, 2], 50), 2)

    def test_p75_of_one_to_forty(self):
        # Ten of 1..40 lie beyond 30.25, the p75 of this sample.
        values = list(range(1, 41))
        self.assertAlmostEqual(percentile(values, 75), 30.25)
        self.assertEqual(sum(v > percentile(values, 75) for v in values), 10)

    def test_single_value_and_bad_input(self):
        self.assertEqual(percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1, 2], 101)


class Spread(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        # statistics.quantiles, exclusive method: q1 = 2.75, q3 = 8.25
        self.assertAlmostEqual(spread(values), (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread([2.0, 2.0, 2.0, 2.0]), 0.0)

    def test_scale_free(self):
        values = [0.9, 1.0, 1.1, 1.05, 0.95]
        self.assertAlmostEqual(spread(values), spread([10 * v for v in values]))
        self.assertAlmostEqual(spread(values), (1.075 - 0.925) / statistics.median(values))


def _span(id, name, start, end, parent=None, **attrs):
    return Span(id, name, parent, 0, start, end, attrs)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            _span(0, "cli.main", 0.0, 10.0),
            _span(1, "gamma_laguerre.cdf_inverse", 1.0, 5.0, parent=0),
            _span(2, "gamma_laguerre.cdf", 1.5, 2.0, parent=1),
            _span(3, "gamma_laguerre.cdf", 3.0, 4.0, parent=1),
            _span(4, "montecarlo.sample_frobenius", 6.0, 9.0, parent=0),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(own[1], 4.0 - 1.5)
        self.assertAlmostEqual(own[2], 0.5)
        self.assertAlmostEqual(own[4], 3.0)
        # self times of a tree add up to the root's duration
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 4.0, parent=0),
                 _span(2, "c", 3.0, 6.0, parent=0), _span(3, "d", 5.0, 5.5, parent=0)]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 5.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, "a", 2.0, 4.0), _span(1, "b", 3.0, 9.0, parent=0)]
        self.assertAlmostEqual(self_times(spans)[0], 1.0)

    def test_layer_metrics_from_spans(self):
        spans = [
            _span(0, "gamma_laguerre.cdf_inverse", 0.0, 1.0),
            _span(1, "gamma_laguerre.cdf", 0.1, 0.2, parent=0, points=1),
            _span(2, "gamma_laguerre.cdf", 0.3, 0.4, parent=0, points=1),
            _span(3, "gamma_laguerre.cdf", 2.0, 2.5, points=201),
            _span(4, "montecarlo.sample_frobenius", 3.0, 5.0, dims=[2, 4], count=1000),
        ]
        m = layer_metrics(spans, ["2x4", "4x4"], 123)
        self.assertEqual(m["gamma_laguerre.cdf.calls"], 3)
        self.assertEqual(m["gamma_laguerre.cdf.points"], 203)
        self.assertEqual(m["gamma_laguerre.cdf_inverse.cdf_evals_per_call"], 2.0)
        self.assertAlmostEqual(m["gamma_laguerre.cdf_inverse.self_s"], 0.8)
        self.assertAlmostEqual(m["gamma_laguerre.cdf.self_s"], 0.7)
        self.assertEqual(m["montecarlo.draws_per_s.2x4"], 500.0)
        self.assertEqual(m["montecarlo.draws_per_s.4x4"], 0.0)
        self.assertEqual(m["montecarlo.uniform_bytes"], 1000 * 16 * 8)
        self.assertEqual(m["cli.output_bytes"], 123)
        self.assertEqual(m["moments.entries"], 0)


class Counts(unittest.TestCase):
    def test_uniform_doubles_are_block_aligned(self):
        self.assertEqual(uniform_doubles((2, 4)), 16)  # 2*8 doubles, already aligned
        self.assertEqual(uniform_doubles((1, 1)), 4)  # 2 doubles, rounded up to 4
        self.assertEqual(uniform_doubles((2, 7, 8, 4)), 2 * (14 + 56 + 32))

    def test_chain_flops(self):
        self.assertEqual(chain_flops((2, 4)), 8 * 4 * 2)  # norm only
        self.assertEqual(chain_flops((2, 7, 8, 4)),
                         8 * 8 * 7 * 2 + 8 * 4 * 8 * 2 + 8 * 4 * 2)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       575 |        575 |     rayprod.errors
import time:      1761 |      83344 |     numpy
import time:      1159 |     266965 |     scipy.special
import time:      2273 |     839999 |     scipy.stats
import time:      5996 |     845994 |   rayprod.montecarlo
import time:        10 |         10 |     numpy
import time:       867 |    1237524 | rayprod
"""


class ImportTime(unittest.TestCase):
    def test_parse_keeps_first_entry(self):
        table = parse_importtime(IMPORTTIME)
        self.assertEqual(table["numpy"], (1761, 83344))
        self.assertEqual(table["rayprod"], (867, 1237524))
        self.assertNotIn("imported package", table)

    def test_layers(self):
        layers = import_layers(parse_importtime(IMPORTTIME))
        self.assertAlmostEqual(layers["import.numpy_s"], 0.083344)
        self.assertAlmostEqual(layers["import.scipy_stats_s"], 0.839999)
        self.assertAlmostEqual(layers["import.rayprod_self_s"], (575 + 5996 + 867) / 1e6)


if __name__ == "__main__":
    unittest.main()
