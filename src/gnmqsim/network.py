"""Elastic network models: the contact test, K/A/B assembly and factorization.

Two flavors are built from a structure and a distance cutoff:

* scalar per-site model ("gnm"): K is the graph Laplacian of the contact
  network, one degree of freedom per site;
* vector per-site model ("anm"): K is the 3N x 3N Hessian assembled from
  rank-one super-elements -spring * (d d^T) / |d|^2 per contact.

`within_cutoff` is the one contact test (the connectivity store uses it
too). One vectorised assembly builds K, the mass-weighted stiffness
A = M^{-1/2} K M^{-1/2} and its incidence-style factor B with B B^T = A
for both flavors, which downstream modules embed into a Hamiltonian.
K is dense. A is stored only as a sparse CSR array with the contact
graph's sparsity (`eigenpairs`, the one eigensolve, densifies it; every
other reader multiplies by it), and B only as a sparse CSC array, filled
from the contact arrays, with 2 nonzeros per contact for GNM and at most
6 for ANM. Neither holds explicit zeros.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse
from scipy.spatial.distance import cdist

from .errors import NumericalError
from .structure import DEFAULT_ANM_CUTOFF, DEFAULT_GNM_CUTOFF, ProteinStructure

ZERO_MODE_RTOL = 1e-8


@dataclass(frozen=True)
class NetworkModel:
    """A quadratic network model K together with its mass-weighted factors.

    kind   : "gnm" (scalar site DOF) or "anm" (3 DOF per site)
    K      : (n, n) stiffness matrix
    masses : (n,) mass per degree of freedom
    A      : mass-weighted stiffness M^{-1/2} K M^{-1/2}, a scipy.sparse
             csr_array holding no explicit zeros; A.toarray() equals
             mass_weight(K, masses) bit for bit
    B      : (n, n_edges) factor with B @ B.T == A, a scipy.sparse
             csc_array holding no explicit zeros (an exactly-zero ANM
             direction component is not stored)
    edges  : (e, 2) integer contact pairs i < j in lexicographic order, one
             per column of B, each of stiffness `spring` (empty for
             `model_from_matrices`)
    """

    kind: str
    K: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    A: scipy.sparse.csr_array = field(repr=False)
    B: scipy.sparse.csc_array = field(repr=False)
    edges: np.ndarray = field(repr=False)
    cutoff: float = 0.0
    spring: float = 1.0

    @property
    def n_dof(self) -> int:
        return self.K.shape[0]

    @property
    def n_edges(self) -> int:
        return self.B.shape[1]

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh(A) computed once: ascending eigenvalues and orthonormal
        eigenvectors, both read-only, for every route in A's modes. The
        one place A is densified."""
        lam, vecs = np.linalg.eigh(self.A.toarray())
        lam.flags.writeable = vecs.flags.writeable = False
        return lam, vecs

    @cached_property
    def zero_modes(self) -> np.ndarray:
        """The one zero-mode rule, as a read-only mask over `eigenpairs`:
        lam <= ZERO_MODE_RTOL * max(lam_max, 0), so every mode is a zero
        mode when lam_max <= 0."""
        lam = self.eigenpairs[0]
        zero = lam <= ZERO_MODE_RTOL * max(lam[-1], 0.0)
        zero.flags.writeable = False
        return zero


def within_cutoff(a: np.ndarray, b: np.ndarray, cutoff: float) -> np.ndarray:
    """Contact test: (len(a), len(b)) mask of |a_i - b_j| <= cutoff.

    Distances come from scipy's Euclidean kernel (shared by cdist and
    pdist), so every caller decides a pair at the cutoff boundary alike.
    """
    return cdist(a, b) <= cutoff


def _contact_edges(structure: ProteinStructure, cutoff: float,
                   allow_coincident: bool):
    """Contacts i < j in lexicographic order, d = x_i - x_j and d . d."""
    pos = structure.positions
    i, j = np.nonzero(np.triu(within_cutoff(pos, pos, cutoff), 1))
    d = pos[i] - pos[j]
    dd = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    same = np.flatnonzero(dd == 0.0)
    if same.size:
        pair = f"atoms {i[same[0]]} and {j[same[0]]} coincide"
        if same.size > 1:
            pair += f" (and {same.size - 1} more pairs)"
        if not allow_coincident:
            raise NumericalError(f"{pair}; contact direction undefined")
        warnings.warn(f"{pair}; treated as connected", stacklevel=3)
    return i, j, d, dd


def _assemble(kind: str, structure: ProteinStructure, i, j, d, dd,
              cutoff: float, spring: float) -> NetworkModel:
    """K, A and B of contacts (i, j) with (e, k) directions d, dd = d . d.

    GNM is k = 1 with d = 1; ANM is k = 3 with d = x_i - x_j. Contact c adds
    b = -(d d^T)/dd to K's (i, j) and (j, i) blocks and -b to (i, i) and
    (j, j), scattered in contact order so sums round as a contact loop's.
    K is built at unit spring and scaled once. Column c of B holds
    sqrt(spring / m) * d/|d| in site i's rows and its negative in j's;
    B is filled from those (row, column, value) triplets and A from the
    dense mass-weighted K, exact zeros dropped from both.
    """
    n, (e, k) = structure.n_atoms, d.shape
    off = np.arange(k)
    block = -(d[:, :, None] * d[:, None, :]) / dd[:, None, None]
    rows = k * np.stack([i, j, i, j], axis=1)[:, :, None, None] + off[:, None]
    cols = k * np.stack([j, i, i, j], axis=1)[:, :, None, None] + off
    K = np.zeros((k * n, k * n))
    np.add.at(K, (rows, cols), np.stack([block, block, -block, -block], axis=1))
    K = spring * K
    masses = np.repeat(structure.masses, k)
    A = scipy.sparse.csr_array(mass_weight(K, masses))
    scale = np.sqrt(spring / structure.masses)[:, None]
    unit = d / np.sqrt(dd)[:, None]
    vals = np.stack([scale[i] * unit, -scale[j] * unit], axis=1)
    c, end, comp = np.nonzero(vals)  # (contact, site i or j, component)
    B = scipy.sparse.csc_array(
        (vals[c, end, comp], (k * np.column_stack([i, j])[c, end] + comp, c)),
        shape=(k * n, e))
    return NetworkModel(kind=kind, K=K, masses=masses, A=A, B=B,
                        edges=np.column_stack([i, j]), cutoff=cutoff,
                        spring=spring)


def build_gnm(structure: ProteinStructure, cutoff: float = DEFAULT_GNM_CUTOFF,
              spring: float = 1.0) -> NetworkModel:
    """Scalar contact-network model (graph Laplacian times spring).

    Off-diagonal K[i, j] = -spring for pairs within `cutoff`; diagonal
    entries make each row sum to zero. The Laplacian is assembled from
    unit contacts and scaled once, so row sums vanish exactly for unit
    springs. Coincident atoms stay connected, with a warning.
    """
    i, j, _, _ = _contact_edges(structure, cutoff, allow_coincident=True)
    one = np.ones((i.size, 1))
    return _assemble("gnm", structure, i, j, one, one[:, 0], cutoff, spring)


def build_anm(structure: ProteinStructure, cutoff: float = DEFAULT_ANM_CUTOFF,
              spring: float = 1.0) -> NetworkModel:
    """Anisotropic model: 3N x 3N Hessian of rank-one contact super-elements.

    Each contact (i, j) contributes -spring * (d d^T)/|d|^2 to the (i, j)
    off-diagonal 3x3 block, d = x_i - x_j; diagonal blocks accumulate the
    negated off-diagonal sums. Coincident atoms are an error here because
    the contact direction is undefined.
    """
    i, j, d, dd = _contact_edges(structure, cutoff, allow_coincident=False)
    return _assemble("anm", structure, i, j, d, dd, cutoff, spring)


def mass_weight(K: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """A = M^{-1/2} K M^{-1/2} for diagonal mass matrix, elementwise form."""
    inv_sqrt = 1.0 / np.sqrt(np.asarray(masses, dtype=float))
    return K * np.outer(inv_sqrt, inv_sqrt)


def condition_diagnostics(model: NetworkModel) -> dict:
    """Spectral diagnostics of A: extreme eigenvalues, zero modes, kappa.

    Read from the model's cached eigenpairs and zero-mode mask; kappa is
    the ratio of the largest to the smallest nonzero eigenvalue.
    """
    lam = model.eigenpairs[0]
    lam_max, nonzero = float(lam[-1]), lam[~model.zero_modes]
    if not nonzero.size:  # lam_max <= 0
        return {"lambda_max": lam_max, "lambda_min_nonzero": 0.0,
                "kappa": np.inf, "n_zero_modes": model.n_dof}
    return {
        "lambda_max": lam_max,
        "lambda_min_nonzero": float(nonzero[0]),
        "kappa": lam_max / float(nonzero[0]),
        "n_zero_modes": int(model.n_dof - nonzero.size),
    }


def model_from_matrices(K: np.ndarray, masses: np.ndarray,
                        kind: str = "custom") -> NetworkModel:
    """Wrap explicit symmetric PSD K and masses as a NetworkModel.

    The factor B is recovered from the eigendecomposition of A (columns
    scaled by sqrt of the nonzero eigenvalues), so B B^T = A still holds;
    A and B are stored as CSR and CSC arrays like the assembled ones.
    Intended for hand-built test systems and control problems.
    """
    K = np.asarray(K, dtype=float)
    masses = np.asarray(masses, dtype=float)
    A = mass_weight(K, masses)
    evals, vecs = np.linalg.eigh(A)
    if evals.size and evals[0] < -1e-10 * max(evals[-1], 1.0):
        raise NumericalError(f"K is not positive semidefinite (min eig {evals[0]:g})")
    keep = evals > ZERO_MODE_RTOL * max(evals[-1], 0.0)
    B = scipy.sparse.csc_array(vecs[:, keep] * np.sqrt(evals[keep]))
    return NetworkModel(kind=kind, K=K, masses=masses,
                        A=scipy.sparse.csr_array(A), B=B,
                        edges=np.empty((0, 2), dtype=np.intp),
                        cutoff=0.0, spring=1.0)


def export_matrix_market(matrix: np.ndarray, path, comment: str = "") -> None:
    """Write a matrix to Matrix Market format (sparse coordinate layout)."""
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(matrix), comment=comment)


def import_matrix_market(path) -> np.ndarray:
    mat = scipy.io.mmread(str(path))
    return np.asarray(mat.todense() if scipy.sparse.issparse(mat) else mat, dtype=float)
