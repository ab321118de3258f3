"""
Elastic network models from a C-alpha structure
===============================================

Build the isotropic (per-residue) and anisotropic (per-coordinate)
network models for the bundled 46-residue protein and look at their
spectra. The mass-weighted stiffness A is stored sparse (one CSR array
with the contact graph's nonzeros); `eigenpairs` is its cached full
eigensolve, while `low_modes` takes a partial one (the zero-mode count,
then a shift-invert Lanczos solve) and never reads `eigenpairs`.
"""
import numpy as np

from gnmqsim.network import build_anm, build_gnm
from gnmqsim.observables import low_modes
from gnmqsim.structure import load_bundled_structure

protein = load_bundled_structure()
print(f"{protein.n_atoms} residues, first label {protein.labels[0]}")

# isotropic model: one degree of freedom per residue, 7 A cutoff
gnm = build_gnm(protein, cutoff=7.0, spring=1.0)
lam = gnm.eigenpairs[0]
print(f"GNM: {gnm.n_edges} springs, spectrum [{lam[0]:.2e}, {lam[-1]:.3f}]")

# the softest internal motions dominate thermal fluctuations
modes = low_modes(gnm, k=4)
print(f"rigid modes: {modes.n_zero_modes}")
for w2, vec in zip(modes.eigenvalues, modes.modes.T):
    print(f"  omega^2 = {w2:8.4f}  participation = {1/np.sum(vec**4):6.1f}")

# anisotropic model: 3N coordinates, longer 13 A cutoff
anm = build_anm(protein, cutoff=13.0)
lam3 = anm.eigenpairs[0]
print(f"ANM: {anm.n_dof} dof, {np.sum(lam3 < 1e-8)} zero modes (expect 6)")
