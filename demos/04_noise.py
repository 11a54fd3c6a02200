"""Noise on a transfer chain: one dephasing kick, and independent baths.

Shows the closed-form averaged fidelity against its bounds across kick
times, then the bath-coupled chain in its weak and strong coupling regimes.
"""

import numpy as np

from pstchain import (BathSpec, analytic_chain, bath_model, bath_transfer_amplitude,
                      certify_pst, dephasing_avg_fidelity)

spec = analytic_chain(6)
t0 = certify_pst(spec).t0

print("dephasing kick (p = 0.05) at different times during the transfer")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    rep = dephasing_avg_fidelity(spec, 0.05, frac * t0)
    print(f"  t = {frac:.2f} t0: <F> = {rep.avg_fidelity:.6f} "
          f"(bounds {rep.lower_bound:.6f} .. {rep.upper_bound:.6f})")
print("  mid-transfer kicks hurt most: the excitation is spread out then")

print("\nbath levels vs the closed form, G = 2")
model = bath_model(BathSpec(chain=spec, coupling=2.0))
# the chain plus one bath spin per site, each coupled with G, as a dense 2N matrix
n = spec.n
op = np.zeros((2 * n, 2 * n))
op[np.arange(n), np.arange(n)] = spec.fields
op[np.arange(n - 1), np.arange(1, n)] = op[np.arange(1, n), np.arange(n - 1)] = spec.couplings
op[np.arange(n), n + np.arange(n)] = op[n + np.arange(n), np.arange(n)] = 2.0
print("  max |spectrum - closed form| =",
      float(np.max(np.abs(np.linalg.eigvalsh(op) - model.energies))))

times = np.linspace(0.0, 2.0 * t0, 1501)
print("\nweak coupling G = 0.01: correction is quadratic in G")
weak = bath_transfer_amplitude(BathSpec(chain=spec, coupling=0.01), times)
print(f"  max |gamma' - gamma| = {weak.max_weak_deviation:.3e}")

print("strong coupling G = 50 J_max: transfer at half speed, modulated by cos(Gt)")
g = 50.0 * max(spec.couplings)
strong = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g), times)
print(f"  max |gamma' - cos(Gt) gamma(t/2)| = {strong.max_strong_deviation:.4f}")
