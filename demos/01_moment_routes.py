"""Moments of the product-channel energy X = ||H_n ... H_1||_F^2.

Three independent routes compute E[X^m]: the exact partition sum, the
character sum over the partitions of m (the closed form, m <= 12), and the
coefficient extraction from the MGF determinant.  All three are exact, so
they agree bit for bit, and the cheap leading-order term takes over as the
number of clusters grows.
"""

import rayprod as rp

config = rp.ChannelConfig((2, 3, 4))
print(f"channel dims {config} (transmit, cluster, receive)")
print(f"{'m':>2} {'exact':>16} {'closed form':>16} {'mgf series':>16} {'leading order':>16}")
mgf = rp.mgf_moments(config, 6)
for m in range(1, 7):
    print(f"{m:>2} {rp.exact_moment(config, m):16.6g} "
          f"{rp.closed_form_moment(config, m):16.6g} "
          f"{mgf[m]:16.6g} {rp.leading_order_moment(config, m):16.6g}")

print("\nThe eigenvalue law only depends on the multiset of dimensions,")
print("so any ordering of the dims gives identical moments:")
for dims in [(2, 3, 4), (4, 3, 2), (3, 2, 4)]:
    print(f"  dims {dims}: E[X^3] = {rp.exact_moment(rp.ChannelConfig(dims), 3):.6f}")

print("\nLeading-order term against the exact value at m = 4, more and more")
print("clusters of 8 scatterers between 2 transmit and the last cluster:")
for clusters in range(2, 6):
    c = rp.ChannelConfig((2,) + (8,) * clusters)
    ratio = rp.exact_moment(c, 4) / rp.leading_order_moment(c, 4)
    print(f"  {str(c):>16}: exact / leading = {ratio:.4f}")
print("the ratio approaches one monotonically, but the cheap term is never")
print("fitted: moment_set takes the exact character sum only, up to order 12,")
print("and the partition sum cross-checks it:")
ms = rp.moment_set(config, 6)
same = all(v == rp.exact_moment(config, m) for m, v in enumerate(ms.values, start=1))
print(f"  dims {config}: equal to the partition sum: {same}")
