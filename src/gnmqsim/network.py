"""Elastic network models: the contact test, K/A/B assembly and factorization.

Two flavors are built from a structure and a distance cutoff:

* scalar per-site model ("gnm"): K is the graph Laplacian of the contact
  network, one degree of freedom per site;
* vector per-site model ("anm"): K is the 3N x 3N Hessian assembled from
  rank-one super-elements -spring * (d d^T) / |d|^2 per contact.

`within_cutoff` is the one contact test: the squares of the x, y and z
differences summed in that order, then the square root, so a pair at the
cutoff boundary is decided alike everywhere. The network build takes its
candidate pairs from a cell grid and decides each with the same kernel;
the connectivity store builds from that search and edits on that grid's
cell side. One vectorised assembly builds K, the mass-weighted stiffness
A = M^{-1/2} K M^{-1/2} and its incidence-style factor B with B B^T = A
for both flavors, which downstream modules embed into a Hamiltonian.
K is dense. A is stored only as a sparse CSR array with the contact
graph's sparsity, and B only as a sparse CSC array, filled from the
contact arrays, with 2 nonzeros per contact for GNM and at most 6 for
ANM; neither holds explicit zeros. A model caches one answer to each
question about A's extremes: `lambda_max` by Lanczos; `shifted_factor`,
the one sparse LDL^T of A - tau I (A symmetric PSD), whose pivots count
the zero modes and which `zero_space` and `lowest_eigenpairs` solve with;
`eigenpairs`, the dense eigh, for the routes that read every mode.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import NumericalError
from .structure import DEFAULT_ANM_CUTOFF, DEFAULT_GNM_CUTOFF, ProteinStructure

ZERO_MODE_RTOL = 1e-8
_LANCZOS_SEED = 0x1A2C
_ZERO_SWEEPS = 100


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
        eigenvectors, both read-only, for the routes that read every mode of
        A (the dynamics, H's `spectrum`, `zero_modes`) and for the sizes
        ARPACK cannot take. It is the one reader here that densifies A."""
        lam, vecs = np.linalg.eigh(self.A.toarray())
        lam.flags.writeable = vecs.flags.writeable = False
        return lam, vecs

    @cached_property
    def lambda_max(self) -> float:
        """A's largest eigenvalue by Lanczos (ARPACK), or from `eigenpairs`
        when n <= 2 or A is zero (no pair for ARPACK or no start)."""
        if self.n_dof <= 2 or self.A.nnz == 0:
            return float(self.eigenpairs[0][-1])
        return float(_arpack(self.A, 1, _start(self.n_dof)[:, 0], which="LA")[0][0])

    @cached_property
    def shifted_factor(self):
        """The one sparse LDL^T of A - tau I, tau = ZERO_MODE_RTOL * lambda_max,
        A assumed symmetric PSD: SuperLU in a symmetric order with the pivots
        kept on the diagonal, so U = D L^T. Such a factor of an indefinite
        matrix has no stability guarantee, so a pivot off the diagonal, or
        exactly 0, is a NumericalError, with no dense fallback."""
        from scipy.sparse.linalg import splu
        n, tau = self.n_dof, ZERO_MODE_RTOL * self.lambda_max
        where = f"LDL^T of A - tau I (n = {n}, tau = {tau:.6g})"
        try:
            lu = splu(scipy.sparse.csc_matrix(self.A - tau * scipy.sparse.identity(n)),
                      permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        except RuntimeError:  # SuperLU's "Factor is exactly singular"
            raise NumericalError(f"{where}: a pivot is exactly 0") from None
        off = lu.perm_c[lu.perm_r != lu.perm_c]
        if off.size:
            raise NumericalError(f"{where}: pivot {off.min()} left the diagonal")
        return lu

    @cached_property
    def zero_count(self) -> int:
        """z, A's eigenvalues at or below tau (the `zero_modes` rule), exactly by
        Sylvester's law of inertia: `shifted_factor`'s pivots <= 0; n, with no
        factor, when lambda_max <= 0 (A has no contact)."""
        if self.lambda_max <= 0.0:
            return self.n_dof
        return int(np.count_nonzero(self.shifted_factor.U.diagonal() <= 0.0))

    @cached_property
    def zero_space(self) -> tuple[float, int, np.ndarray]:
        """(lambda_max, z, Z) once, without eigh(A): z is `zero_count`, Z the
        read-only orthonormal basis of those modes, from `_zero_basis`, or
        from `eigenpairs` if z >= n - 1."""
        n_zero = self.zero_count
        basis = (self.eigenpairs[1][:, :n_zero] if n_zero >= self.n_dof - 1
                 else _zero_basis(self, n_zero))
        basis.flags.writeable = False
        return self.lambda_max, n_zero, basis

    @cached_property
    def zero_modes(self) -> np.ndarray:
        """The one zero-mode rule, as a read-only mask over `eigenpairs`:
        lam <= ZERO_MODE_RTOL * max(lam_max, 0), so every mode is a zero
        mode when lam_max <= 0."""
        lam = self.eigenpairs[0]
        zero = lam <= ZERO_MODE_RTOL * max(lam[-1], 0.0)
        zero.flags.writeable = False
        return zero


def _start(n: int, width: int = 1) -> np.ndarray:
    """(n, width) counter-based normals: deterministic start vectors for the
    solves below (a +/-1 vector can lie in A's null space)."""
    from .stateprep import standard_normals
    return standard_normals(_LANCZOS_SEED, 0, n * width).reshape(width, n).T


def _arpack(A, count: int, v0: np.ndarray, **how):
    """eigsh(A, count, **how); ARPACK's failure is a NumericalError."""
    from scipy.sparse.linalg import ArpackError, eigsh  # only these solves need it
    try:
        return eigsh(A, count, v0=v0, **how)
    except ArpackError as exc:
        raise NumericalError(f"eigsh for {count} pairs of a {A.shape} matrix: {exc}") from None


def _zero_basis(model: NetworkModel, n_zero: int) -> np.ndarray:
    """Orthonormal basis of A's n_zero eigenvectors at or below tau (see
    `zero_count`) by block inverse iteration with `shifted_factor`, which
    sees a cluster of equal eigenvalues (each component's rigid motions) at
    once, where one Lanczos vector sees one of them. (A - tau I)^-1 ranks
    modes by |lambda - tau|, so a mode just above tau outranks a zero mode:
    the block is 8 columns wider, each sweep ends in a Rayleigh-Ritz step,
    and the n_zero lowest Ritz residuals must reach 1e-13 * lambda_max and
    stop halving."""
    if n_zero == 0:
        return np.empty((model.n_dof, 0))
    A, n, solve, last = model.A, model.n_dof, model.shifted_factor.solve, np.inf
    v = _start(n, min(n, n_zero + 8))
    for _ in range(_ZERO_SWEEPS):
        v = np.linalg.qr(solve(v))[0]
        theta, rotation = np.linalg.eigh(v.T @ (A @ v))
        v = v @ rotation
        low = v[:, :n_zero]
        resid = np.linalg.norm(A @ low - low * theta[:n_zero], axis=0).max()
        if resid <= 1e-13 * model.lambda_max and resid >= last / 2:
            return low.copy()
        last = resid
    raise NumericalError(f"zero-mode basis: {_ZERO_SWEEPS} sweeps of inverse "
                         f"iteration leave a residual of {resid:.3e}")


def lowest_eigenpairs(model: NetworkModel, count: int):
    """The `count` smallest eigenpairs of A, ascending, each vector signed so
    its largest-magnitude entry (the lowest index on ties) is positive: Z of
    `zero_space` with its Rayleigh quotients, then one shift-invert Lanczos
    solve (ARPACK) at sigma = +tau on `shifted_factor`, Z projected out of the
    operator so it ranks the rest, all above tau, by lambda; from `eigenpairs`
    if count >= n - 1. NumericalError unless they hold exactly z zero modes."""
    from scipy.sparse.linalg import LinearOperator
    lam_max, n_zero, zero = model.zero_space
    n, tau = model.n_dof, ZERO_MODE_RTOL * lam_max
    if count >= n - 1:  # beyond ARPACK
        lam, vecs = (a[..., :count] for a in model.eigenpairs)
    else:
        solve = model.shifted_factor.solve

        def deflate(x):
            return x - zero @ (zero.T @ x)

        op = LinearOperator((n, n), lambda x: deflate(solve(deflate(x))), dtype=float)
        w, u = _arpack(model.A, count - n_zero, deflate(_start(n)[:, 0]), sigma=tau,
                       which="LM", OPinv=op)
        order = np.argsort(w, kind="stable")
        lam = np.concatenate([np.einsum("ij,ij->j", zero, model.A @ zero), w[order]])
        vecs = np.hstack([zero, u[:, order]])
    found = np.count_nonzero(lam <= ZERO_MODE_RTOL * max(lam_max, 0.0))
    if found != n_zero:
        raise NumericalError(f"the eigensolve found {found} zero modes, the "
                             f"inertia count of A is {n_zero}")
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(count)]
    return lam.copy(), vecs * np.where(peak < 0.0, -1.0, 1.0)


def _distance(d: np.ndarray) -> np.ndarray:
    """|d| over the last axis of (..., 3) differences: squares added in x, y,
    z order, then the square root. This is scipy cdist's arithmetic, bit for
    bit; a dot product (np.linalg.norm of one vector) can round a boundary
    pair apart."""
    return np.sqrt((d[..., 0] ** 2 + d[..., 1] ** 2) + d[..., 2] ** 2)


def within_cutoff(a: np.ndarray, b: np.ndarray, cutoff: float) -> np.ndarray:
    """Contact test: (len(a), len(b)) mask of |a_i - b_j| <= cutoff.

    a and b are (n, 3) coordinate arrays; distances come from `_distance`,
    so every caller decides a pair at the cutoff boundary alike.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _distance(a[:, None, :] - b[None, :, :]) <= cutoff


# a cell's key packs its three integer coordinates, each below 2**20 in
# magnitude, at strides of 2**21: distinct cells get distinct keys, and a
# neighbour is a fixed step away. _FORWARD holds (0, 0, 0) and the 13 cell
# offsets after it in lexicographic order, as key steps: together they
# visit each pair of neighbouring cells once.
_STRIDES = np.array([1 << 42, 1 << 21, 1], dtype=np.int64)
_FORWARD = (np.array([o for o in np.ndindex(3, 3, 3) if o >= (1, 1, 1)]) - 1
            ) @ _STRIDES


def _cell_side(cutoff: float, pos: np.ndarray) -> float:
    """Grid cell side for a contact search: `cutoff` widened by 2**-19 of
    (cutoff + the largest coordinate), far more than the rounding of the
    difference, distance and division, so no contact lands two cells apart."""
    return cutoff + (cutoff + np.abs(pos).max(initial=0.0)) / 2**19


def _candidate_pairs(pos: np.ndarray, cutoff: float):
    """Pairs (i, j), i != j, each unordered pair once, that contain every
    pair within `cutoff`: each atom with the later atoms of its own cell
    and every atom of its 13 forward neighbour cells.

    Cells have side `_cell_side(cutoff, pos)`; no atom is 2**19 cells from
    the origin, so every cell and its neighbours fit the packed key.
    """
    n = len(pos)
    key = np.floor(pos / _cell_side(cutoff, pos)).astype(np.int64) @ _STRIDES
    order = np.argsort(key, kind="stable")
    key = key[order]
    cells = key[:, None] + _FORWARD
    lo = np.searchsorted(key, cells, side="left")
    lo[:, 0] = np.arange(1, n + 1)  # own cell: the atoms after this one
    counts = np.searchsorted(key, cells, side="right") - lo
    flat = counts.ravel()
    start = np.repeat(lo.ravel() - np.cumsum(flat) + flat, flat)
    return (np.repeat(order, counts.sum(axis=1)),
            order[start + np.arange(flat.sum())])


def _contact_edges(structure: ProteinStructure, cutoff: float,
                   allow_coincident: bool, stacklevel: int = 3):
    """Contacts i < j in lexicographic order, d = x_i - x_j and d . d; a
    coincident pair warns `stacklevel` frames up, at the public caller."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    pos, n = structure.positions, structure.n_atoms
    a, b = _candidate_pairs(pos, cutoff)
    near = _distance(np.take(pos, a, axis=0) - np.take(pos, b, axis=0)) <= cutoff
    a, b = a[near], b[near]
    i, j = np.divmod(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n)
    d = np.take(pos, i, axis=0) - np.take(pos, j, axis=0)
    dd = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    same = np.flatnonzero(dd == 0.0)
    if same.size:
        pair = f"atoms {i[same[0]]} and {j[same[0]]} coincide"
        if same.size > 1:
            pair += f" (and {same.size - 1} more pairs)"
        if not allow_coincident:
            raise NumericalError(f"{pair}; contact direction undefined")
        warnings.warn(f"{pair}; treated as connected", stacklevel=stacklevel)
    return i, j, d, dd


def _assemble(kind: str, structure: ProteinStructure, i, j, d, dd,
              cutoff: float, spring: float) -> NetworkModel:
    """K, A and B of contacts (i, j) with (e, k) directions d, dd = d . d.

    GNM is k = 1 with d = 1; ANM is k = 3 with d = x_i - x_j. Contact c adds
    b = -(d d^T)/dd to K's (i, j) and (j, i) blocks and -b to (i, i) and
    (j, j), summed in contact order so sums round as a contact loop's.
    K is built at unit spring and scaled once. Column c of B holds
    sqrt(spring / m) * d/|d| in site i's rows and its negative in j's;
    B is filled from those (row, column, value) triplets and A from K's
    nonzeros in `mass_weight`'s elementwise form, exact zeros dropped.
    """
    if not (np.isfinite(spring) and spring > 0):
        raise ValueError(f"spring must be finite and > 0, got {spring!r}")
    n, (e, k) = structure.n_atoms, d.shape
    off = np.arange(k)
    block = -(d[:, :, None] * d[:, None, :]) / dd[:, None, None]
    rows = k * np.stack([i, j, i, j], axis=1)[:, :, None, None] + off[:, None]
    cols = k * np.stack([j, i, i, j], axis=1)[:, :, None, None] + off
    # bincount sums each entry's values in contact order, as np.add.at does
    K = np.bincount((rows * (k * n) + cols).ravel(),
                    np.stack([block, block, -block, -block], axis=1).ravel(),
                    (k * n) ** 2).reshape(k * n, k * n).astype(float, copy=False)
    K *= spring   # (bincount counts in int64 when there are no contacts)
    masses = np.repeat(structure.masses, k)
    inv_sqrt = 1.0 / np.sqrt(masses)
    # row-major, int32 indices, as a CSR fill of the dense K gives them
    r, c = np.divmod(np.flatnonzero(K != 0), k * n)
    indptr = np.r_[0, np.bincount(r, minlength=k * n).cumsum()].astype(np.int32)
    A = scipy.sparse.csr_array((K[r, c] * (inv_sqrt[r] * inv_sqrt[c]), c.astype(np.int32),
                                indptr), shape=K.shape)
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
    """Spectral diagnostics of A: lambda_max and the zero-mode count z of
    `zero_space`, the smallest nonzero eigenvalue from `lowest_eigenpairs`,
    and kappa, their ratio (inf when every mode is a zero mode)."""
    lam_max, n_zero, _ = model.zero_space
    lam_min = 0.0 if n_zero == model.n_dof else float(
        lowest_eigenpairs(model, n_zero + 1)[0][-1])
    return {"lambda_max": lam_max, "lambda_min_nonzero": lam_min,
            "kappa": lam_max / lam_min if lam_min else np.inf,
            "n_zero_modes": n_zero}


def model_from_matrices(K: np.ndarray, masses: np.ndarray,
                        kind: str = "custom") -> NetworkModel:
    """Wrap explicit symmetric PSD K and masses as a NetworkModel.

    K must be square and symmetric to 1e-12 * max(1, max |K|), and the
    masses one finite value > 0 per row (ValueError); K must be PSD
    (NumericalError). The factor B is recovered from the eigendecomposition
    of A (columns scaled by sqrt of the nonzero eigenvalues), so B B^T = A;
    A and B are stored as CSR and CSC arrays like the assembled ones.
    Intended for hand-built test systems and control problems.
    """
    K = np.asarray(K, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be a square matrix, got shape {K.shape}")
    asym = np.abs(K - K.T).max(initial=0.0)
    tol = 1e-12 * max(1.0, np.abs(K).max(initial=0.0))
    if not asym <= tol:  # a NaN fails too
        raise ValueError(f"K must be finite and symmetric to {tol:.3g}, "
                         f"got max |K - K^T| = {asym:.3g}")
    if masses.shape != (len(K),):
        raise ValueError(f"masses must have shape ({len(K)},), got {masses.shape}")
    bad = masses[~(np.isfinite(masses) & (masses > 0))]
    if bad.size:
        raise ValueError(f"masses must be finite and > 0, got {bad[0]:g}")
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
    import scipy.io  # only the Matrix Market functions need it
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(matrix), comment=comment)
