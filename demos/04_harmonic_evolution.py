"""
Unitary harmonic evolution
==========================

Positions and velocities of a harmonic network are packed into one
complex state vector whose Schrodinger evolution under a Hermitian
embedding reproduces Newtonian dynamics exactly. Total energy is read
off the (conserved) state norm.
"""
import numpy as np

from gnmqsim import dynamics as dyn
from gnmqsim import stateprep as sp
from gnmqsim.network import build_gnm
from gnmqsim.structure import synthetic_chain

chain = build_gnm(synthetic_chain(5))      # 5 beads, nearest neighbours
emb = dyn.embed(chain)
H = emb.operator                           # sparse, B's nonzeros twice
print(f"embedding: {H.shape[0]} dims, {H.nnz} nonzeros, Hermitian "
      f"{(H != H.conj().T).nnz == 0}")

# stretch the middle bond and release from rest
u0 = np.array([0.0, 0.0, 0.5, -0.5, 0.0])
state = sp.encode_initial_conditions(chain, u0, np.zeros(5))
print(f"initial energy {state.energy:.6f}")

for t in (0.0, 5.0, 25.0, 100.0):
    psi = dyn.evolve_harmonic(emb, state.psi, t)
    u, v = dyn.decode_state(chain, psi, state.energy)
    y = np.sqrt(chain.masses) * u
    yd = np.sqrt(chain.masses) * v
    E = 0.5 * (yd @ yd + y @ chain.A @ y)
    drift = abs(E - state.energy) / state.energy
    print(f"t = {t:6.1f}  u = {np.array2string(u, precision=3)}  "
          f"energy drift {drift:.1e}")

# a constant pull on the ends, handled by the driven propagator
hist = dyn.evolve_inhomogeneous(chain, u0, np.zeros(5),
                                force=lambda t: [0.2, 0, 0, 0, -0.2],
                                T=10.0, n_steps=2000)
print(f"driven run: {len(hist.times)} snapshots, "
      f"final |u| = {np.linalg.norm(hist.displacements[-1]):.4f}")
