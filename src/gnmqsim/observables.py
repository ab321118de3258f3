"""Read-out stage: energies, low modes, spectral density, displacement stats.

The density of states is reconstructed with the kernel polynomial method:
Chebyshev moments mu_k = Tr(T_k(X))/N of the rescaled matrix X = H/alpha,
by one recurrence run either exactly on the eigenvalues of X (spectral
sums) or stochastically on Rademacher probes (Hutchinson estimator), then
resummed with Jackson damping. The recurrence builds T_k z only up to
k = ceil(K/2) and takes the moments up to order K from the doubling
identities T_{2k} = 2 T_k^2 - T_0 and T_{2k+1} = 2 T_{k+1} T_k - T_1, so
order K costs ceil(K/2) products of the probe block. alpha, 1.01 times the
spectral radius, keeps the rescaled spectrum and |mu_k| inside [-1, 1]; it
comes from `spectral_bound`'s Lanczos solve, or in `gnmqsim dos` from the
spectrum. The bound and the probe recurrence only multiply by the matrix,
dense or scipy.sparse, at the cost of its nonzeros per matvec: a model's A
is a CSR array with the contact graph's sparsity, and `gnmqsim dos` runs
the probes on the embedding's sparse H (built from the model's sparse B)
and takes the exact moments from its spectrum, read from A's eigenpairs.

Low modes and displacement statistics read the model's cached `zero_space`
(lambda_max, the zero-mode count z and basis Z), never eigh(A): `low_modes`
takes k pairs past Z from `lowest_eigenpairs`, each signed so its largest-
magnitude entry (the lowest index on ties) is positive; for any masses,
kT*pinv(K) = kT((K + W W^T)^-1 - W W^T), W orthonormal, spanning M^{-1/2} Z.
This module imports scipy.linalg only in `displacement_stats` (dpotrf, dpotri).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import NumericalError
from .network import NetworkModel, _arpack, _start, lowest_eigenpairs
from .stateprep import EncodedState, rademacher

MODE_RESIDUAL_RTOL = 1e-9
BOUND_MARGIN = 0.01  # alpha = (1 + BOUND_MARGIN) * the spectral radius


def kinetic_potential(state, energy: float | None = None,
                      n_dof: int | None = None) -> dict:
    """Split the encoded energy: E*|velocity block|^2 and E*|i B^T y block|^2.

    Accepts an EncodedState, or a raw vector together with energy and the
    block split index.
    """
    if isinstance(state, EncodedState):
        psi, energy, n_dof = state.psi, state.energy, state.n_dof
    else:
        if energy is None or n_dof is None:
            raise ValueError("raw vectors need energy and n_dof")
        psi = np.asarray(state, dtype=complex)
    kinetic = energy * float(np.linalg.norm(psi[:n_dof]) ** 2)
    potential = energy * float(np.linalg.norm(psi[n_dof:]) ** 2)
    return {"kinetic": kinetic, "potential": potential}


def energy_from_displacement(model: NetworkModel, u, v) -> float:
    """Total mechanical energy (ydot.ydot + y.A.y)/2 in mass-weighted form."""
    y = np.sqrt(model.masses) * np.asarray(u, dtype=float)
    ydot = np.sqrt(model.masses) * np.asarray(v, dtype=float)
    return float(0.5 * (ydot @ ydot + y @ (model.A @ y)))


@dataclass(frozen=True)
class ModeSet:
    """Smallest nonzero eigenpairs of the mass-weighted stiffness A, in
    ascending order; each mode's largest-magnitude entry (the lowest index
    on ties) is positive. matrix_norm is max(lambda_max, 0)."""

    eigenvalues: np.ndarray
    modes: np.ndarray  # columns are unit eigenvectors
    n_zero_modes: int
    matrix_norm: float

    def overlap(self, vec) -> float:
        """|cosine| of vec (mass-weighted coordinates) with the lowest mode."""
        vec = np.asarray(vec, dtype=float)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("cannot take the overlap of a zero vector")
        return float(abs(self.modes[:, 0] @ vec) / norm)


def low_modes(model: NetworkModel, k: int) -> ModeSet:
    """k smallest nonzero eigenpairs of A: the k + z lowest pairs of
    `lowest_eigenpairs` without the model's z zero modes, residual-checked."""
    if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
            or not 0 < k < model.n_dof):
        raise ValueError(f"k must be an integer, 0 < k < {model.n_dof}, got {k!r}")
    a_norm, n_zero = max(model.zero_space[0], 0.0), model.zero_space[1]
    if k > model.n_dof - n_zero:
        raise ValueError(f"only {model.n_dof - n_zero} nonzero modes available")
    lam, vecs = lowest_eigenpairs(model, k + n_zero)
    eigenvalues, modes = lam[n_zero:], vecs[:, n_zero:]
    residual = np.linalg.norm(model.A @ modes - modes * eigenvalues, axis=0)
    tol = MODE_RESIDUAL_RTOL * max(a_norm, 1e-300)
    worst = int(np.argmax(residual))
    if not residual[worst] <= tol:  # a NaN residual fails too
        raise NumericalError(
            f"eigenpair residual above tolerance: mode {worst} (eigenpair "
            f"{n_zero + worst}) has residual {residual[worst]:.3e} > {tol:.3e}")
    return ModeSet(eigenvalues=eigenvalues, modes=modes, n_zero_modes=n_zero,
                   matrix_norm=a_norm)


def spectral_bound(matrix) -> float:
    """(1 + BOUND_MARGIN)|theta|, theta the largest-magnitude Ritz value of one
    Lanczos solve from `lambda_max`'s start; M dense or sparse, only multiplied.
    Assuming Lanczos found the extreme eigenvalue, the radius is at most |theta|
    + r, r = ||M x - theta x|| (Weinstein), so r > BOUND_MARGIN |theta| is a
    NumericalError. n <= 2 takes eigvalsh; a zero matrix gives 0.0."""
    if len(matrix.shape) != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"spectral_bound needs a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n <= 2:
        dense = matrix.toarray() if scipy.sparse.issparse(matrix) else matrix
        return (1 + BOUND_MARGIN) * float(np.abs(np.linalg.eigvalsh(dense)).max(initial=0.0))
    if not abs(matrix).max():
        return 0.0  # ARPACK stops at the zero Krylov vector
    (theta,), x = _arpack(matrix, 1, _start(n)[:, 0], which="LM")
    r = np.linalg.norm(matrix @ x[:, 0] - theta * x[:, 0])
    if not r <= BOUND_MARGIN * abs(theta):  # a NaN residual fails too
        raise NumericalError(f"spectral bound of the {n}x{n} matrix not certified: theta "
                             f"= {theta:.6g} has residual r = {r:.3e} > {BOUND_MARGIN} |theta|")
    return (1 + BOUND_MARGIN) * float(abs(theta))


def _check_scale(alpha: float, order: int) -> None:
    """Reject an alpha that is not finite and > 0, or an order that is not
    a nonnegative integer, before any moment is computed."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or order < 0):
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")


def _moment_estimates(apply, z, order: int) -> np.ndarray:
    """Per-column estimates z.T_k(X)z/N for k = 0..order, z of shape (N, p).

    apply(v) computes X v. T_j z is built up to j = ceil(order/2), one
    product each, and the doubling identities (Weisse et al., Rev. Mod.
    Phys. 78, 275, 2006, sec. II.D) give mu_{2j} = 2<T_j z, T_j z>/N - mu_0
    and mu_{2j-1} = 2<T_j z, T_{j-1} z>/N - mu_1.
    """
    n = z.shape[0]
    est = np.empty((order + 1, z.shape[1]))
    est[0] = np.einsum("ip,ip->p", z, z) / n
    if order == 0:
        return est
    t_prev, t_cur = z, apply(z)
    est[1] = np.einsum("ip,ip->p", z, t_cur) / n
    for j in range(1, (order + 1) // 2 + 1):
        if j > 1:
            step = apply(t_cur)
            step *= 2.0
            step -= t_prev
            t_prev, t_cur = t_cur, step
            est[2 * j - 1] = 2.0 * np.einsum("ip,ip->p", t_cur, t_prev) / n - est[1]
        if 2 * j <= order:
            est[2 * j] = 2.0 * np.einsum("ip,ip->p", t_cur, t_cur) / n - est[0]
    return est


@dataclass(frozen=True)
class MomentSet:
    """Chebyshev moments of a rescaled symmetric matrix."""

    alpha: float
    moments: np.ndarray
    method: str  # "exact" or "stochastic"
    stderr: np.ndarray | None = None
    probes: int = 0

    def __post_init__(self):
        bad = np.flatnonzero(~np.isfinite(self.moments))
        if bad.size:
            k = int(bad[0])
            raise NumericalError(f"moment mu_{k} = {self.moments[k]} is not "
                                 f"finite (alpha = {self.alpha!r})")
        if abs(self.moments[0] - 1.0) > 1e-9:
            raise NumericalError(f"mu_0 = {self.moments[0]!r} must equal 1")
        k = int(np.argmax(np.abs(self.moments)))
        if abs(self.moments[k]) > 1.0 + 1e-9:
            raise NumericalError(
                f"moments escaped [-1, 1]: alpha too small: |mu_{k}| = "
                f"{abs(self.moments[k]):.6g} is the largest (alpha = {self.alpha!r})")

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    @classmethod
    def from_spectrum(cls, eigenvalues: np.ndarray, alpha: float,
                      order: int) -> MomentSet:
        """Exact moments mu_k = mean_j T_k(lambda_j/alpha) of a full spectrum.

        The probe recurrence of `chebyshev_moments_stochastic` with X
        diagonal: one all-ones column, multiplied elementwise by the
        eigenvalues. An eigenvalue beyond alpha makes T_k grow and is
        rejected by the |mu_k| <= 1 check as alpha too small.
        """
        _check_scale(alpha, order)
        x = (np.asarray(eigenvalues, dtype=float) / alpha)[:, None]
        moments = _moment_estimates(lambda v: x * v, np.ones_like(x), order)[:, 0]
        return cls(alpha=float(alpha), moments=moments, method="exact")


def chebyshev_moments_exact(matrix, alpha: float, order: int) -> MomentSet:
    """mu_k = Tr(T_k(matrix/alpha))/N of a symmetric matrix, from eigvalsh.

    matrix is a dense array or a scipy.sparse matrix; eigvalsh needs it
    dense, so sparse input (such as a model's A) is densified here.
    """
    if scipy.sparse.issparse(matrix):
        matrix = matrix.toarray()
    return MomentSet.from_spectrum(np.linalg.eigvalsh(matrix), alpha, order)


def chebyshev_moments_stochastic(matrix, alpha: float, order: int,
                                 probes: int, seed: int) -> MomentSet:
    """Hutchinson moment estimates over Rademacher probes, with stderr.

    Probe p draws its entries from the counter window [p*N, (p+1)*N), so
    estimates are reproducible and independent of probe batching. matrix
    is a dense array or a scipy.sparse matrix (the recurrence only
    multiplies the probe block by matrix/alpha); a sparse H costs its
    nonzeros per probe block product, a dense one N^2, and order K takes
    ceil(K/2) such products. The mean and stderr are over per-probe
    estimates.
    """
    n = matrix.shape[0]
    _check_scale(alpha, order)
    if probes < 1:
        raise ValueError("need at least one probe")
    x = matrix / alpha
    # probe p's entries come from counters [p*n, (p+1)*n): one batched draw,
    # C-contiguous, as a CSR product is several times slower on the .T view
    z = np.ascontiguousarray(rademacher(seed, 0, probes * n).reshape(probes, n).T)
    # row 0 is z.z/n, exactly 1 per probe
    est = _moment_estimates(lambda v: x @ v, z, order)
    moments = est.mean(axis=1)
    if probes > 1:
        stderr = est.std(axis=1, ddof=1) / math.sqrt(probes)
    else:
        stderr = np.zeros(order + 1)
    return MomentSet(alpha=float(alpha), moments=moments, method="stochastic",
                     stderr=stderr, probes=probes)


def jackson_coefficients(order: int) -> np.ndarray:
    """Jackson damping factors g_0..g_K (g_0 = 1, positive kernel)."""
    kk = np.arange(order + 1)
    big = order + 1
    return ((big - kk) * np.cos(np.pi * kk / big)
            + np.sin(np.pi * kk / big) / np.tan(np.pi / big)) / big


def dirichlet_coefficients(order: int) -> np.ndarray:
    """Undamped (truncation-only) factors: all ones."""
    return np.ones(order + 1)


def _series_coefficients(moments: MomentSet, kernel: str) -> np.ndarray:
    """Kernel-damped series coefficients: g_0 mu_0, then 2 g_k mu_k."""
    if kernel == "jackson":
        g = jackson_coefficients(moments.order)
    elif kernel == "dirichlet":
        g = dirichlet_coefficients(moments.order)
    else:
        raise ValueError("kernel must be 'jackson' or 'dirichlet'")
    coeffs = 2.0 * g * moments.moments
    coeffs[0] *= 0.5
    return coeffs


@dataclass(frozen=True)
class DosCurve:
    """KPM spectral density on a physical-axis grid."""

    grid: np.ndarray
    values: np.ndarray
    kernel: str
    alpha: float

    def integral(self) -> float:
        """Trapezoid rule over the grid, scipy's `integrate.trapezoid` exactly."""
        y = self.values
        return float(np.sum(np.diff(self.grid) * (y[1:] + y[:-1]) / 2.0))


def reconstruct_dos(moments: MomentSet, grid: np.ndarray | None = None,
                    kernel: str = "jackson",
                    n_points: int = 2001) -> DosCurve:
    """Resummed density on the physical axis (1/alpha Jacobian included).

    The default grid is uniform on (-alpha, alpha) with the endpoints
    pulled in, avoiding the 1/sqrt(1 - x^2) edge poles.
    """
    coeffs = _series_coefficients(moments, kernel)
    alpha = moments.alpha
    if grid is None:
        grid = np.linspace(-alpha, alpha, n_points + 2)[1:-1]
    else:
        grid = np.asarray(grid, dtype=float)
        if np.any(np.abs(grid) >= alpha):
            raise ValueError("grid must lie strictly inside (-alpha, alpha)")
    x = grid / alpha
    series = np.polynomial.chebyshev.chebval(x, coeffs)
    values = series / (np.pi * np.sqrt(1.0 - x * x)) / alpha
    if kernel == "jackson":
        values = np.clip(values, 0.0, None)  # floor float dust, kernel is PSD
    return DosCurve(grid=grid, values=values, kernel=kernel, alpha=alpha)


def dos_bin_masses(moments: MomentSet, edges: np.ndarray,
                   kernel: str = "jackson") -> np.ndarray:
    """Exact integrals of the resummed density over consecutive edges.

    Under x = cos(theta) each series term integrates in closed form
    (T_k picks up sin(k theta)/k), so the masses are exact for the
    truncated series at any order: no quadrature grid to undersample the
    kernel peaks. Edges must be ascending and within [-alpha, alpha].
    """
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly ascending")
    if np.any(np.abs(edges) > moments.alpha):
        raise ValueError("edges must lie within [-alpha, alpha]")
    c = _series_coefficients(moments, kernel)
    theta = np.arccos(np.clip(edges / moments.alpha, -1.0, 1.0))
    k = np.arange(1, moments.order + 1)
    anti = -(c[0] * theta + np.sin(np.outer(theta, k)) @ (c[1:] / k)) / np.pi
    return np.diff(anti)


def dos_histogram_l1(eigenvalues: np.ndarray, moments: MomentSet,
                     bins: int = 40) -> dict:
    """L1 distance between the KPM density and an eigenvalue histogram.

    The histogram's outermost edges coincide with the extreme eigenvalues,
    whose kernel peaks straddle them; the comparison therefore partitions
    the whole spectral domain by the bins - 1 interior edges, extending the
    two end bins to +-alpha so no mass is truncated. Bin masses come from
    the closed-form integrals; both binned densities are normalized before
    the distance is taken, so it is scale-free in [0, 2].
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    counts, edges = np.histogram(eigenvalues, bins=bins)
    widths = np.diff(edges)
    hist_density = counts / counts.sum() / widths
    part = np.concatenate([[-moments.alpha], edges[1:-1], [moments.alpha]])
    masses = dos_bin_masses(moments, part)
    kpm_density = masses / masses.sum() / widths
    l1 = float(np.sum(np.abs(hist_density - kpm_density) * widths))
    return {"l1": l1, "edges": edges, "hist_density": hist_density,
            "kpm_density": kpm_density}


def displacement_stats(model: NetworkModel, kT: float) -> dict:
    """Equilibrium correlations kT*pinv(K) and per-site RMSD.

    The pseudo-inverse excludes zero modes (rigid motions carry no
    restoring force and have no equilibrium variance); masses do not enter
    equilibrium statistics. K's null space is M^{-1/2} Z, Z the model's zero
    basis; with W its orthonormal QR factor, (K + W W^T)^-1 - W W^T comes
    from dpotrf and dpotri, mirrored from the lower triangle.
    """
    from scipy.linalg import lapack
    if not (math.isfinite(kT) and kT >= 0):
        raise ValueError(f"kT must be finite and nonnegative, got {kT!r}")
    null = np.linalg.qr(model.zero_space[2] / np.sqrt(model.masses)[:, None])[0]
    proj = null @ null.T
    factor, info = lapack.dpotrf(model.K + proj, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"K + W W^T has no Cholesky factor (LAPACK info "
                             f"{info}): W misses a zero mode of K")
    correlation = np.tril(lapack.dpotri(factor, lower=1)[0] - proj)
    correlation += np.tril(correlation, -1).T
    correlation *= kT
    var = np.clip(np.diag(correlation), 0.0, None)
    site = var.reshape(-1, 3).sum(axis=1) if model.kind == "anm" else var
    return {"correlation": correlation, "rmsd": np.sqrt(site),
            "rmsd_per_dof": np.sqrt(var)}
