"""LQR feedback control of the damped network dynamics.

The controlled system is M u'' + Gamma u' + K u = f with a quadratic cost
on displacements and forces.  In first-order form z = (u, v), v = u':

    z' = A z + B f,   A = [[0, I], [-M^-1 K, -M^-1 Gamma]],   B = [[0], [M^-1]]

Costs use the symmetric 1/2 convention throughout,

    J = 1/2 u(T)^T S u(T) + 1/2 int_0^T (u^T Q u + f^T R f) dt,

so the optimal cost equals 1/2 z0^T P z0 where P solves the Riccati
equation (the 1/2 factors cancel inside the equation itself).

When the mass-weighted weights are diagonal in A's eigenbasis (unit
masses, scalar damping, Q = K, R = r I and S = 0 are), the 2n-state problem
splits into n 2-state problems, one per mode (independent modal-space
control, Meirovitch & Baruh, J. Guid. Control 5(1), 1982), solved, stored
and simulated as a `ModeLaw` with no 2n x 2n array: a stationary mode's
Riccati root in closed form, a finite horizon by one exponential of each
mode's Hamiltonian, stepped back from the terminal weight.  A's zero modes
are clamped to lam = 0, so a rigid mode without cost gets exactly P = 0.
Any other problem is solved in the 2n-state form: the stationary law by
the Hamiltonian Schur method (Laub, IEEE TAC 24(6), 1979) in the full
space, the finite law by the same step map.  Both step maps split a grid
interval into 2, 4, ... substeps until the exponential's 1-norm is at most
STEP_NORM_BOUND, and store only the grid points.  Nothing is retried: a
failed step or certificate, or a non-finite finite-horizon law, raises
NumericalError naming the quantity and its value, or the mode (state row)
and the grid step.  scipy.linalg is imported in the routines that use it
(the Schur solve, the step maps and the held-gain exponentials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .network import NetworkModel, mass_weight
from .stateprep import _integer

# CARE residual acceptance, relative to ||Q|| in the first-order form.
RESIDUAL_RTOL = 1e-8
# symmetric-part defect above this fraction of ||P|| marks a failed solve
_SYM_RTOL = 1e-6


def _as_weight(value, n: int, name: str, positive: bool, bounds=None) -> np.ndarray:
    """Normalize a scalar or matrix weight to a symmetric (n, n) array; a
    scalar c is checked as c itself, the one eigenvalue of c I, a matrix by
    `bounds` when given (the least and largest eigenvalue of a congruent
    matrix), else by its own eigenvalues."""
    if value is None:
        return np.zeros((n, n))
    if np.isscalar(value):
        mat = float(value) * np.eye(n)
    else:
        mat = np.asarray(value, dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"{name} must be scalar or ({n}, {n}), got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, abs(mat).max())):
        raise ValueError(f"{name} must be symmetric")
    mat = 0.5 * (mat + mat.T)
    if bounds is None:
        bounds = (float(value),) * 2 if np.isscalar(value) else np.linalg.eigvalsh(mat)[[0, -1]]
    lo, hi = bounds
    scale = max(abs(lo), abs(hi), 1.0)
    if positive and lo <= 1e-12 * scale:
        raise ValueError(f"{name} must be positive definite (min eig {lo:g})")
    if not positive and lo < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semidefinite (min eig {lo:g})")
    return mat


@dataclass(frozen=True)
class ControlProblem:
    """LQR problem data for a network model.

    gamma   : damping, scalar (gamma * I) or an (n, n) symmetric matrix
    Q       : displacement cost weight, PSD; defaults to the stiffness K,
              so the reported energy series is the potential energy
    R       : force cost weight, PD; scalar r means r * I (default 1e-2)
    S       : terminal displacement weight, PSD; defaults to zero
    horizon : math.inf for the algebraic (stationary) problem, or a
              finite T > 0 for the backward Riccati integration
    """

    model: NetworkModel
    gamma: float | np.ndarray = 0.0
    Q: np.ndarray | float | None = None
    R: np.ndarray | float = 1e-2
    S: np.ndarray | float | None = None
    horizon: float = math.inf

    def __post_init__(self):
        n = self.model.n_dof
        # K is congruent to A, so A's cached eigenvalues decide whether it is PSD
        q, bounds = (self.Q, None) if self.Q is not None else (
            self.model.K, self.model.eigenpairs[0][[0, -1]])
        object.__setattr__(self, "Q", _as_weight(q, n, "Q", False, bounds))
        object.__setattr__(self, "R", _as_weight(self.R, n, "R", positive=True))
        object.__setattr__(self, "S", _as_weight(self.S, n, "S", positive=False))
        if np.isscalar(self.gamma):
            if not (math.isfinite(self.gamma) and self.gamma >= 0):
                raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
            object.__setattr__(self, "gamma", float(self.gamma))
        else:
            gam = np.asarray(self.gamma, dtype=float)
            if gam.shape != (n, n) or not (np.isfinite(gam).all() and np.allclose(gam, gam.T)):
                raise ValueError("matrix gamma must be finite and symmetric (n, n)")
            object.__setattr__(self, "gamma", gam)
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive or math.inf")

    @property
    def n_dof(self) -> int:
        return self.model.n_dof

    @property
    def is_finite_horizon(self) -> bool:
        return math.isfinite(self.horizon)

    def damping_matrix(self) -> np.ndarray:
        if np.isscalar(self.gamma):
            return self.gamma * np.eye(self.n_dof)
        return np.asarray(self.gamma)

    def state_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """First-order (A, B) with z = (u, v)."""
        n = self.n_dof
        inv_m = 1.0 / self.model.masses
        A = np.zeros((2 * n, 2 * n))
        A[:n, n:] = np.eye(n)
        A[n:, :n] = -inv_m[:, None] * self.model.K
        A[n:, n:] = -inv_m[:, None] * self.damping_matrix()
        B = np.zeros((2 * n, n))
        B[n:, :] = np.diag(inv_m)
        return A, B

    def state_cost(self) -> np.ndarray:
        """Cost weight on z = (u, v): displacements only."""
        n = self.n_dof
        Qz = np.zeros((2 * n, 2 * n))
        Qz[:n, :n] = self.Q
        return Qz


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback f(t) = -G z(t) with its Riccati certificate.

    gain     : (n, 2n) matrix G = R^-1 B^T P at t = 0
    riccati  : (2n, 2n) symmetric P (value function Hessian at t = 0)
    residual : Frobenius norm of the algebraic Riccati defect of P
    closed_loop : A - B G
    times, gains : present for finite-horizon laws, the grid of the
        backward integration and the gain at each grid time
    A `ModeLaw` holds a law per mode of A and builds these on read.
    """

    gain: np.ndarray = field(repr=False)
    riccati: np.ndarray = field(repr=False)
    residual: float
    closed_loop: np.ndarray = field(repr=False)
    times: np.ndarray | None = field(default=None, repr=False)
    gains: np.ndarray | None = field(default=None, repr=False)

    def gain_at(self, t: float) -> np.ndarray:
        """Gain at time t (linear interpolation on the stored grid)."""
        return self.gain if self.times is None else _interpolate(self.times, self.gains, t)


def _interpolate(ts: np.ndarray, schedule: np.ndarray, t):
    """schedule's linear interpolant on the grid ts at time(s) t, held at
    the grid's ends; exact at grid points and past the ends."""
    idx = np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2)
    frac = np.clip((t - ts[idx]) / (ts[idx + 1] - ts[idx]), 0.0, 1.0)[..., None, None]
    return (1.0 - frac) * schedule[idx] + frac * schedule[idx + 1]


class ModeLaw(FeedbackLaw):
    """A law held in A's modes, A = V diag(lam) V^T: mode k has coordinate
    eta_k = (cobasis^T u)_k, cobasis = M^1/2 V (u = basis eta, basis =
    M^-1/2 V), `weights` (gamma_k, q_k, r_k, s_k), Riccati block P0[k] on
    (eta_k, eta_k') at t = 0, and force g_k = -(c_k1 eta_k + c_k2 eta_k')
    with c = `coeffs`: (steps + 1, n, 2) on a finite law's grid `times`, one
    held row (1, n, 2) for a stationary law (times None); f = cobasis g.
    The dense attributes are built when read."""

    def __init__(self, **parts):
        vars(self).update(parts)

    def _dense(self, diag, left=None) -> np.ndarray:
        """left diag(d) cobasis^T stacked over diag's leading axes."""
        return ((self.cobasis if left is None else left) * diag[..., None, :]) @ self.cobasis.T

    def _gain(self, c) -> np.ndarray:
        return np.concatenate([self._dense(c[..., 0]), self._dense(c[..., 1])], axis=-1)

    def coeffs_at(self, t):     # a stationary law's held row broadcasts over t
        return self.coeffs if self.times is None else _interpolate(self.times, self.coeffs, t)

    def gain_at(self, t) -> np.ndarray:
        return self.gain if self.times is None else self._gain(self.coeffs_at(t))

    gain = cached_property(lambda self: self._gain(self.coeffs[0]))
    gains = cached_property(lambda self: None if self.times is None else self._gain(
        self.coeffs_at(self.times)))
    riccati = cached_property(lambda self: np.block(
        [[self._dense(self.P0[:, i, j]) for j in (0, 1)] for i in (0, 1)]))

    @cached_property
    def closed_loop(self) -> np.ndarray:
        zero, c = np.zeros_like(self.lam), self.coeffs[0]
        blocks = [[zero, zero + 1.0], [-self.lam - c[:, 0], -self.weights[0] - c[:, 1]]]
        return np.block([[self._dense(d, self.basis) for d in row] for row in blocks])


# A finite-horizon step map splits each grid interval h into the fewest sub =
# 1, 2, 4, ... substeps, at most MAX_SUBSTEPS, with ||expm(-Ham h / sub)||_1 <=
# STEP_NORM_BOUND: the map's rounding grows with that norm (1e17 at gamma h = 40).
STEP_NORM_BOUND = 10.0
MAX_SUBSTEPS = 1 << 10


def _step_exponential(ham: np.ndarray, h: float):
    """(expm(-ham h / sub), sub) by the substep rule above; ham may be a stack."""
    import scipy.linalg
    sub = 1
    while True:
        back = scipy.linalg.expm(ham * (-h / sub))
        norm = np.abs(back).sum(axis=-2).max()
        if not norm > STEP_NORM_BOUND:
            return back, sub
        if sub == MAX_SUBSTEPS:
            raise NumericalError(f"the Riccati step map's exponential has 1-norm {norm:.3g} "
                                 f"after {sub} substeps of h = {h:g}, above "
                                 f"{STEP_NORM_BOUND:g}")
        sub *= 2


# Off-diagonal share of a transformed weight in A's eigenbasis that the mode
# route drops: at most this fraction of the weight's Frobenius norm.
MODE_COUPLING_RTOL = 1e-10


def _mode_weights(problem: ControlProblem, lam: np.ndarray):
    """(gamma_k, q_k, r_k, s_k) over A's modes when M^-1/2 Gamma M^-1/2,
    M^-1/2 Q M^-1/2, M^1/2 R M^1/2 and M^-1/2 S M^-1/2 are diagonal in A's
    eigenbasis V, else None.  A weight c I is c on every mode and a Gamma, Q
    or S equal to A is `lam`; any other weight W counts as diagonal when
    V^T W V's off-diagonal part is at most MODE_COUPLING_RTOL ||W||_F, and
    that part is dropped."""
    model, out = problem.model, []
    for W, power in ((problem.damping_matrix(), 1), (problem.Q, 1),
                     (problem.R, -1), (problem.S, 1)):
        W = mass_weight(W, model.masses ** power)
        d = W.diagonal()
        if (d == d[0]).all() and np.count_nonzero(W) == np.count_nonzero(d):
            out.append(np.full(len(d), d[0]))
        elif power == 1 and np.array_equal(W, model.A.toarray()):
            out.append(lam)
        else:
            W = model.eigenpairs[1].T @ W @ model.eigenpairs[1]
            out.append(W.diagonal().copy())
            if np.linalg.norm(W - np.diag(out[-1])) > MODE_COUPLING_RTOL * np.linalg.norm(W):
                return None
    return np.array(out)


def _mode_care(lam, gam, q, r) -> np.ndarray:
    """Each mode's stabilizing CARE root P = [[p1, p2], [p2, p3]] in closed
    form, for q eta^2 + r g^2 on eta'' + gam eta' + lam eta = g:
    p2 = q / (lam + sqrt(lam^2 + q/r)), p3 = 2 p2 / (gam + sqrt(gam^2 +
    2 p2/r)) (r (sqrt(...) - gam) when gam <= 0), p1 = lam p3 + gam p2 +
    p2 p3 / r; exactly P = 0 for a rigid mode without cost (lam = q = 0)."""
    q = np.maximum(q, 0.0)      # a PSD weight's diagonal, below 0 by rounding only
    if ((lam > 0) & (q == 0) & (gam == 0)).any():     # no stabilizing root
        stable = np.where(q > 0, 2, (gam != 0) * (1 + (lam > 0))).sum()
        raise NumericalError(f"the Hamiltonian has {stable} strictly stable eigenvalues, "
                             f"not the state dimension {2 * len(lam)}: an undamped mode "
                             "carries no cost, so the problem is unstabilizable")
    p2 = np.divide(q, lam + np.sqrt(lam * lam + q / r), out=np.zeros_like(q), where=q > 0)
    root = np.sqrt(gam * gam + 2.0 * p2 / r)
    p3 = np.divide(2.0 * p2, gam + root, out=r * (root - gam), where=gam > 0)
    return np.stack([lam * p3 + gam * p2 + p2 * p3 / r, p2, p2, p3], axis=-1).reshape(-1, 2, 2)


def _mode_defect(ham: np.ndarray, P: np.ndarray):
    """Each mode's CARE defect a^T P + P a - P b b^T P / r + diag(q, 0), the
    terms read from the mode Hamiltonians, and its scale, the sum of the
    four terms' Frobenius norms."""
    a = ham[:, :2, :2]
    terms = (a.swapaxes(1, 2) @ P, P @ a, P @ ham[:, :2, 2:] @ P, ham[:, 2:, :2])
    return terms[0] + terms[1] + terms[2] - terms[3], sum(
        np.linalg.norm(t, axis=(1, 2)) for t in terms)


def _mode_law(problem: ControlProblem, n_steps: int) -> ModeLaw | None:
    """The law per mode, or None when the weights couple modes.  A's zero
    modes (`zero_modes`) take lam = 0 exactly, so with no cost their P and
    gains are exactly 0.  Stationary: the closed-form root (`_mode_care`),
    certified once: each mode's defect within RESIDUAL_RTOL of its scale.
    Finite: one batched expm of the n 4x4 Hamiltonians over a grid interval
    or its substeps (`_step_exponential`), then P <- Y X^-1 on the stack of
    2x2 blocks, component by component; a non-finite P names its mode and
    grid step."""
    model = problem.model
    lam = np.where(model.zero_modes, 0.0, model.eigenpairs[0])
    weights = _mode_weights(problem, lam)
    if weights is None:
        return None
    gam, q, r, s = weights
    ham = np.zeros((len(lam), 4, 4))     # [[a, -b b^T / r], [-diag(q, 0), -a^T]]
    ham[:, 0, 1], ham[:, 1, 0], ham[:, 1, 1], ham[:, 1, 3] = 1.0, -lam, -gam, -1.0 / r
    ham[:, 2, 0], ham[:, 2, 3], ham[:, 3, 2], ham[:, 3, 3] = -q, lam, -1.0, gam
    times = None
    if problem.is_finite_horizon:
        back, sub = _step_exponential(ham, problem.horizon / n_steps)
        b = np.ascontiguousarray(back.transpose(1, 2, 0))   # entry (i, j) over the modes
        P = np.zeros((2, 2, len(lam)))
        P[0, 0] = s
        coeffs = np.empty((n_steps + 1, len(lam), 2))
        coeffs[n_steps] = P[1].T
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
        for k in range(n_steps - 1, -1, -1):
            for _ in range(sub):
                XY = b[:, :2] + b[:, 2, None] * P[0] + b[:, 3, None] * P[1]
                X, Y = XY[:2], XY[2:]
                adj = X[::-1, ::-1].swapaxes(0, 1) * sign
                P = (Y[:, 0, None] * adj[0] + Y[:, 1, None] * adj[1]) / (
                    X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])
                P = 0.5 * (P + P.swapaxes(0, 1))
            coeffs[k] = P[1].T
        bad = ~np.isfinite(coeffs).all(axis=2)
        bad[0] |= ~np.isfinite(P).all(axis=(0, 1))
        if bad.any():
            k, mode = np.argwhere(bad)[-1]
            raise NumericalError(f"mode {mode}'s Riccati matrix is not finite at grid "
                                 f"step {k} of {n_steps}")
        P, times = P.transpose(2, 0, 1), np.linspace(0.0, problem.horizon, n_steps + 1)
    else:
        P = _mode_care(lam, gam, q, r)
        coeffs = P[None, :, 1]
    defect, scale = _mode_defect(ham, P)
    err = np.linalg.norm(defect, axis=(1, 2))
    bad = np.flatnonzero(~(err <= RESIDUAL_RTOL * scale))
    if times is None and bad.size:
        raise NumericalError(f"mode {bad[0]}'s CARE defect {err[bad[0]]:.3g} exceeds "
                             f"{RESIDUAL_RTOL:g} of its term scale {scale[bad[0]]:.3g}")
    root = np.sqrt(model.masses)[:, None]
    cobasis = model.eigenpairs[1] * root
    gram = (cobasis.T @ cobasis) ** 2        # the defect's norm taken in (u, v)
    return ModeLaw(basis=model.eigenpairs[1] / root, cobasis=cobasis, lam=lam,
                   weights=weights, coeffs=coeffs / r[:, None], P0=P, times=times,
                   residual=math.sqrt(max(np.einsum("kij,kl,lij->", defect, gram, defect), 0)))


def _care_residual(P, A, BRB, Qz) -> float:
    defect = A.T @ P + P @ A - P @ BRB @ P + Qz
    return float(np.linalg.norm(defect, "fro"))


def _certify(P, A, BRB, Qz, tol: float) -> float:
    """P's CARE residual, once P certifies as the (almost-)stabilizing solution.

    A small residual alone is not enough: on problems with cost-free
    marginal modes the Hamiltonian subspace can yield an exact but
    indefinite CARE solution whose closed loop is unstable.  So P must be
    PSD and the closed loop have no eigenvalue with meaningfully positive
    real part (rigid zeros are allowed); a failed check is a NumericalError."""
    residual = _care_residual(P, A, BRB, Qz)
    if not residual <= tol:
        raise NumericalError(f"CARE residual {residual:.3g} exceeds {tol:.3g}")
    dust = 1e3 * np.finfo(float).eps * sum(np.linalg.norm(X, "fro") for X in (A, BRB, Qz))
    floor = RESIDUAL_RTOL * np.linalg.norm(P, "fro") + dust
    min_eig = float(np.linalg.eigvalsh(P)[0])
    if min_eig < -floor:
        raise NumericalError(f"P's least eigenvalue {min_eig:.3g} is below {-floor:.3g}")
    closed = A - BRB @ P
    abscissa = float(np.linalg.eigvals(closed).real.max())
    bound = RESIDUAL_RTOL * max(1.0, np.linalg.norm(closed, "fro"))
    if abscissa > bound:
        raise NumericalError(f"closed-loop spectral abscissa {abscissa:.3g} "
                             f"exceeds {bound:.3g}")
    return residual


def _schur_care(A: np.ndarray, BRB: np.ndarray, Qz: np.ndarray) -> np.ndarray:
    """Stabilizing CARE solution via the Hamiltonian Schur form; a failed
    step (the Schur form, a stable subspace short of the state dimension,
    a singular basis block, a non-finite or asymmetric P) is named in a
    NumericalError."""
    import scipy.linalg
    n = A.shape[0]
    ham = np.block([[A, -BRB], [-Qz, -A.T]])
    try:
        T, Z, sdim = scipy.linalg.schur(ham, output="real", sort="lhp")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"Schur form of the Hamiltonian failed: {exc}") from None
    if sdim != n:
        raise NumericalError(f"the Hamiltonian has {sdim} strictly stable eigenvalues, "
                             f"not the state dimension {n}: the problem is "
                             "unstabilizable under the given weights")
    try:
        P = scipy.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T
    except scipy.linalg.LinAlgError:
        raise NumericalError("the stable subspace's first block is singular") from None
    if not np.all(np.isfinite(P)):
        raise NumericalError("the Riccati solution P is not finite")
    scale, asym = np.linalg.norm(P, "fro"), np.linalg.norm(P - P.T, "fro")
    if scale > 0 and asym > _SYM_RTOL * scale:
        raise NumericalError(f"P's asymmetry {asym / scale:.3g} exceeds {_SYM_RTOL:g}")
    return 0.5 * (P + P.T)


def solve_lqr(problem: ControlProblem, n_steps: int = 2000) -> FeedbackLaw:
    """Solve the Riccati problem and return the feedback law.

    When the transformed weights are diagonal in A's eigenbasis, to
    MODE_COUPLING_RTOL (see `_mode_weights`), the problem is solved per mode
    of A and the law is a `ModeLaw` (`_mode_law`); else in the 2n-state
    form, with no retry.
    Infinite horizon: the algebraic equation, per mode in closed form, else
    by the Hamiltonian Schur method in the full space.
    Finite horizon: the Hamiltonian step map (Kenney & Leipnik, IEEE TAC
    30(10), 1985) back from the terminal weight over `n_steps` intervals h:
    with E = expm(-Ham h), Ham = [[A, -BRB], [-Qz, -A^T]], [X; Y] =
    E [I; P(t)] gives P(t - h) = Y X^-1 exactly, up to rounding, per mode on
    2x2 blocks or in the 2n-state form; h is split into the fewest of 2,
    4, ... substeps that keep ||E||_1 <= STEP_NORM_BOUND
    (`_step_exponential`).  The law keeps the gain at each grid time;
    gain/riccati are the t = 0 values.

    Raises NumericalError naming what failed: the count of stable
    Hamiltonian eigenvalues against the state dimension (an unstabilizable
    problem), a certificate (a mode's CARE defect against its scale; in
    the full space the CARE residual, P's least eigenvalue, or the closed
    loop's spectral abscissa) and its value, a step map beyond MAX_SUBSTEPS,
    or the mode (state row) and grid step of a non-finite finite law.
    """
    if problem.is_finite_horizon:
        n_steps = _integer("n_steps", n_steps, 1)
    law = _mode_law(problem, n_steps)
    if law is not None:
        return law
    A, B = problem.state_matrices()
    Qz = problem.state_cost()
    Rinv = np.linalg.inv(problem.R)
    RB = Rinv @ B.T
    BRB = B @ Rinv @ B.T

    if problem.is_finite_horizon:
        import scipy.linalg
        m = A.shape[0]
        P = scipy.linalg.block_diag(problem.S, np.zeros_like(problem.S))
        gains = np.empty((n_steps + 1,) + RB.shape)
        gains[n_steps] = RB @ P
        back, sub = _step_exponential(np.block([[A, -BRB], [-Qz, -A.T]]),
                                      problem.horizon / n_steps)
        for k in range(n_steps - 1, -1, -1):
            for _ in range(sub):
                XY = back[:, :m] + back[:, m:] @ P
                P = np.linalg.solve(XY[:m].T, XY[m:].T).T
                P = 0.5 * (P + P.T)
            rows = np.flatnonzero(~np.isfinite(P).all(axis=1))
            if rows.size:
                raise NumericalError(f"row {rows[0]} of the Riccati matrix P is not finite "
                                     f"at grid step {k} of {n_steps}")
            gains[k] = RB @ P
        return FeedbackLaw(gain=gains[0], riccati=P,
                           residual=_care_residual(P, A, BRB, Qz),
                           closed_loop=A - B @ gains[0],
                           times=np.linspace(0.0, problem.horizon, n_steps + 1),
                           gains=gains)

    qscale = np.linalg.norm(Qz, "fro")
    # absolute floor keeps the zero-cost case (exact P = 0) acceptable
    tol = RESIDUAL_RTOL * qscale + 1e-12 * (
        np.linalg.norm(A, "fro") ** 2 + np.linalg.norm(BRB, "fro"))

    P = _schur_care(A, BRB, Qz)
    residual = _certify(P, A, BRB, Qz, tol)
    G = RB @ P
    return FeedbackLaw(gain=G, riccati=P, residual=residual,
                       closed_loop=A - B @ G)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples y at increasing x, bit for bit
    scipy >= 1.11's `integrate.simpson(y, x=x)`: parabolic panels over
    pairs of intervals and, for an even point count, Cartwright's
    correction for the last interval (two points: the trapezoid). The
    `0.0 +` terms are scipy's accumulator: they turn -0.0 into 0.0."""
    n = len(y)
    if n == 2:
        return 0.0 + 0.5 * (x[1] - x[0]) * (y[1] + y[0])
    h = np.diff(x)
    m = n - 1 if n % 2 else n - 2  # intervals the panels cover
    h0, h1 = h[0:m:2], h[1:m:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:m:2] * (2.0 - 1.0 / ratio)
                                 + y[1:m:2] * (hsum * (hsum / hprod))
                                 + y[2:m + 1:2] * (2.0 - ratio)))
    if n % 2 == 0:
        # 0-d arrays, as scipy has them: `**` on a numpy float64 scalar
        # can round differently
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        total = total + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0
    return total


def _mode_path(law: ModeLaw, u0, v0, times, h):
    """Held-gain steps per mode: eta'' + d eta' + k eta = 0, k = lam + c_1
    and d = gamma + c_2 at the step's midpoint, advances by its closed-form
    2x2 exponential e^(-hd/2) [ch I + sh h [[d/2, 1], [-k, -d/2]]], ch, sh =
    cosh s, sinh(s)/s of s = h sqrt(d^2/4 - k) (cos, sin(w)/w of w = h
    sqrt(k - d^2/4)), built for every step at once, or once for a
    stationary law's held gain.  Returns the series
    `simulate_controlled` needs and the terminal cost term u^T S u."""
    gam, q, r, s = law.weights
    c = law.coeffs_at(times[:-1] + 0.5 * h)
    k, d = law.lam + c[..., 0], gam + c[..., 1]
    root = h * np.sqrt(0.25 * d * d - k + 0j)      # s, or i w
    ch, sh = np.cosh(root).real, np.sinc(1j * root / np.pi).real
    half = 0.5 * h * d * sh
    step = np.exp(-0.5 * h * d) * np.array([[ch + half, h * sh], [-h * k * sh, ch - half]])
    step = np.ascontiguousarray(step.transpose(2, 0, 1, 3))    # (steps or 1, 2, 2, n)
    step = np.broadcast_to(step, (len(times) - 1,) + step.shape[1:])
    z = np.empty((len(times), 2, len(law.lam)))
    z[0] = u0 @ law.cobasis, v0 @ law.cobasis
    for j in range(len(times) - 1):
        z[j + 1] = step[j, :, 0] * z[j, 0] + step[j, :, 1] * z[j, 1]
    (eta, rate), c, P = z.transpose(1, 0, 2), law.coeffs_at(times), law.P0
    g = -(c[..., 0] * eta + c[..., 1] * rate)
    value = (P[:, 0, 0] * eta ** 2 + 2 * P[:, 0, 1] * eta * rate + P[:, 1, 1] * rate ** 2).sum(1)
    return (eta @ law.basis.T, rate @ law.basis.T, g @ law.cobasis.T, (q * eta ** 2).sum(1),
            (r * g ** 2).sum(1), value, s @ eta[-1] ** 2)


def simulate_controlled(problem: ControlProblem, law: FeedbackLaw,
                        u0: np.ndarray, v0: np.ndarray,
                        T: float, n_steps: int = 2000) -> dict:
    """Integrate the closed loop and report energy and accumulated cost.

    Each step is the exact expm((A - B G) h), G held at the step midpoint;
    the exponential is reused while G stays the same: once for a stationary
    law, once past a finite law's horizon.
    A `ModeLaw` steps each mode by its closed-form 2x2 exponential instead,
    and forms every series in modes (`_mode_path`).

    Returns times, displacements, velocities, forces, the energy series
    u^T Q u, the value series z(t)^T P z(t) with P = law.riccati, and the
    accumulated cost J = 1/2 int (u^T Q u + f^T R f) dt (plus the terminal
    S term when the problem is finite-horizon and the simulation reaches
    it), the integral taken by composite Simpson over the n_steps + 1
    samples.  A finite law's P is P(0), so its value series is the t = 0
    value function along the path, not the cost-to-go z(t)^T P(t) z(t).
    """
    n = problem.n_dof
    u0 = np.asarray(u0, dtype=float).reshape(n)
    v0 = np.asarray(v0, dtype=float).reshape(n)
    if not (math.isfinite(T) and T > 0 and _integer("n_steps", n_steps, None) >= 2):
        raise ValueError(f"need a finite T > 0 and at least two steps, got T = {T!r}")
    h = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    if isinstance(law, ModeLaw):
        disp, vel, forces, energy, effort, value, terminal = _mode_path(law, u0, v0, times, h)
    else:
        import scipy.linalg
        A, B = problem.state_matrices()
        states = np.empty((n_steps + 1, 2 * n))
        states[0, :n] = u0
        states[0, n:] = v0
        held = step = None
        for k in range(n_steps):
            G = law.gain_at(times[k] + 0.5 * h)
            if G is not held and not np.array_equal(G, held):
                held, step = G, scipy.linalg.expm((A - B @ G) * h)
            states[k + 1] = step @ states[k]
        if law.times is None:
            forces = -(states @ law.gain.T)
        else:
            forces = np.empty((n_steps + 1, n))
            for k in range(n_steps + 1):
                forces[k] = -(law.gain_at(times[k]) @ states[k])
        disp, vel = states[:, :n], states[:, n:]
        energy = np.einsum("ti,ij,tj->t", disp, problem.Q, disp)
        effort = np.einsum("ti,ij,tj->t", forces, problem.R, forces)
        value = np.einsum("ti,ij,tj->t", states, law.riccati, states)
        terminal = disp[-1] @ problem.S @ disp[-1]
    cost = 0.5 * float(_simpson(energy + effort, times))
    if problem.is_finite_horizon and T >= problem.horizon * (1 - 1e-12):
        cost += 0.5 * float(terminal)
    return {"times": times, "displacements": disp, "velocities": vel,
            "forces": forces, "energy": energy, "value": value,
            "cost": cost}
