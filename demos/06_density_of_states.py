"""
Vibrational density of states by Chebyshev moments
==================================================

Exact and trace-estimated Chebyshev moments of the network matrix,
smoothed by the Jackson kernel, against the plain eigenvalue histogram.
The model's A is a sparse CSR array: the spectral bound and the probe
recurrence cost its nonzeros per matvec, while the exact moments densify
it for their eigensolve.
"""
import numpy as np

from gnmqsim import observables as obs
from gnmqsim.network import build_gnm
from gnmqsim.structure import load_bundled_structure

gnm = build_gnm(load_bundled_structure())
alpha = obs.spectral_bound(gnm.A)
print(f"spectral bound alpha = {alpha:.4f}")

exact = obs.chebyshev_moments_exact(gnm.A, alpha, order=100)
sto = obs.chebyshev_moments_stochastic(gnm.A, alpha, order=100,
                                       probes=400, seed=1)
worst = np.abs(sto.moments - exact.moments).max()
print(f"stochastic vs exact moments (400 probes): worst |diff| {worst:.4f}")

# Jackson damping suppresses the Gibbs ringing a truncated series has
curve = obs.reconstruct_dos(exact, n_points=2001, kernel="jackson")
print(f"density min {curve.values.min():.2e} "
      "(jackson keeps it nonnegative)")

lam = gnm.eigenpairs[0]
for order in (10, 100, 1024):
    mom = obs.chebyshev_moments_exact(gnm.A, alpha, order)
    rep = obs.dos_histogram_l1(lam, mom, bins=40)
    print(f"order {order:5d}: L1 vs 40-bin histogram = {rep['l1']:.3f}")
print("more moments, sharper kernel, smaller L1")
