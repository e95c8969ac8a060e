"""Gamma-Laguerre CDF model against a seeded Monte-Carlo simulation.

Matching more moments tightens the fit: the pure two-moment Gamma base
(q = 2) is visibly off for a two-cluster channel, the q = 6 correction
series tracks the empirical CDF to about a percent.  For a single-factor
channel the model is the exact distribution, not an approximation.
"""

import math

import numpy as np

import rayprod as rp


def gamma_cdf(a: int, x: float) -> float:
    """Gamma(a) CDF at an integer shape: the Poisson tail e^-x sum_{j>=a} x^j / j!."""
    term = math.exp(-x) * x**a / math.factorial(a)
    total, j = 0.0, a
    while total + term != total:
        total += term
        j += 1
        term *= x / j
    return total


config = rp.ChannelConfig((2, 6, 8, 4))
samples = rp.sample_frobenius(config, 200_000, seed=0)
ecdf = rp.Ecdf(samples.values)
xs = np.sort(samples.values)
ranks = np.arange(1, xs.size + 1) / xs.size

print(f"dims {config}, {samples.count} seeded draws")
for q in (2, 6):
    model = rp.fit(rp.moment_set(config, q))
    reg = rp.cdf(model, xs)[1]
    sup = np.max(np.abs(reg - ranks))
    print(f"  q = {q}: alpha {model.alpha:8.4f}  beta {model.beta:8.3f}  "
          f"sup |model - ecdf| = {sup:.4f}")

model = rp.fit(rp.moment_set(config, 6))
print("\nselected points of the q = 6 fit:")
print(f"{'x':>10} {'model':>10} {'ecdf':>10}")
for p in (0.05, 0.25, 0.5, 0.75, 0.95):
    x = rp.cdf_inverse(model, p)
    print(f"{x:10.1f} {rp.cdf(model, x)[1]:10.4f} {ecdf(x):10.4f}")

print("\nsingle factor (conventional MIMO): the fit is exact.")
single = rp.ChannelConfig((2, 4))
model1 = rp.fit(rp.moment_set(single, 6))
grid = np.linspace(0.0, model1.mean + 8 * model1.std, 9)
raw = rp.cdf(model1, grid)[0]
exact = np.array([gamma_cdf(8, x) for x in grid])
print(f"  dims {single}: alpha = {model1.alpha}, beta = {model1.beta}, "
      f"max |raw - Gamma CDF| = {np.max(np.abs(raw - exact)):.2e}")
