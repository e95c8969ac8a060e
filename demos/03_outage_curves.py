"""Outage probability and outage capacity of OSTBC transmission.

Desk-scale version of the reference experiments (the `rayprod reproduce`
subcommand emits the full curve bundles as CSV):

* adding clusters degrades the outage capacity at practical outage levels,
  and the outage curves for different cluster counts cross;
* at high SNR the outage-capacity slope is fixed by the code rate, so more
  transmit antennas (lower-rate codes) eventually lose.
"""

import math

import numpy as np

import rayprod as rp

print("outage probability vs rate, K0 = Kn = 4, clusters of 8, 0 dB, R = 3/4")
scheme = rp.ostbc_catalog(4)
z = np.linspace(0.1, 1.6, 7)
header = "  ".join(f"z={zi:4.2f}" for zi in z)
print(f"{'dims':>14}  {header}")
curves = {}
for clusters in range(0, 4):
    config = rp.ChannelConfig((4,) + (8,) * clusters + (4,))
    model = rp.fit(rp.moment_set(config, 6))
    p = rp.outage_probability(model, scheme, config, 1.0, z)
    curves[clusters] = p
    print(f"{str(config):>14}  " + "  ".join(f"{pi:6.4f}" for pi in p))
print("small z: more clusters -> higher outage; large z: the order flips.")

print("\n5%-outage capacity vs transmit SNR, dims [K0, 7, 8, 4]")
snrs = [0.0, 10.0, 20.0, 30.0, 40.0]
print(f"{'K0':>3} {'R':>4} " + " ".join(f"{s:7.0f}dB" for s in snrs) + "   slope[nats/dB]")
for k0 in (2, 4, 8):
    scheme = rp.ostbc_catalog(k0)
    config = rp.ChannelConfig((k0, 7, 8, 4))
    model = rp.fit(rp.moment_set(config, 6))
    caps = rp.outage_capacity(model, scheme, config, rp.db_to_linear(np.array(snrs)), 0.05)
    slope = (caps[-1] - caps[-2]) / 10.0
    print(f"{k0:>3} {str(scheme.rate):>4} "
          + " ".join(f"{c:9.3f}" for c in caps)
          + f"   {slope:.4f} (R ln10/10 = {float(scheme.rate) * math.log(10) / 10:.4f})")
print("the Alamouti pair (K0=2, R=1) wins at 40 dB despite fewer antennas.")
