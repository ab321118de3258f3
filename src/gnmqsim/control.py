"""LQR feedback control of the damped network dynamics.

The controlled system is M u'' + Gamma u' + K u = f with a quadratic cost
on displacements and forces.  In first-order form z = (u, v), v = u':

    z' = A z + B f,   A = [[0, I], [-M^-1 K, -M^-1 Gamma]],   B = [[0], [M^-1]]

Costs use the symmetric 1/2 convention throughout,

    J = 1/2 u(T)^T S u(T) + 1/2 int_0^T (u^T Q u + f^T R f) dt,

so the optimal cost equals 1/2 z0^T P z0 where P solves the Riccati
equation (the 1/2 factors cancel inside the equation itself).

The infinite-horizon gain comes from the continuous algebraic Riccati
equation, solved by the Hamiltonian-matrix invariant-subspace (Schur)
method.  Free networks have rigid zero modes that carry no cost under the
default displacement weight, so the Hamiltonian has eigenvalues on the
imaginary axis and no full-dimension stable subspace exists; in that case
the solve is deflated onto the non-rigid subspace (exact when the mass
and damping operators preserve it) and the resulting P is zero on the
rigid modes.  The computed residual is always the final arbiter.

Finite horizons step the Riccati differential equation back from the
terminal weight with one exponential of the Hamiltonian matrix and keep
only the gain at each grid time.  scipy.linalg is imported in the routines
that use it (the Schur solve, the step map and `simulate_controlled`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .network import NetworkModel, ZERO_MODE_RTOL

# CARE residual acceptance, relative to ||Q|| in the first-order form.
RESIDUAL_RTOL = 1e-8
# symmetric-part defect above this fraction of ||P|| marks a failed solve
_SYM_RTOL = 1e-6


def _as_weight(value, n: int, name: str, positive: bool) -> np.ndarray:
    """Normalize a scalar or matrix weight to a symmetric (n, n) array."""
    if value is None:
        return np.zeros((n, n))
    if np.isscalar(value):
        mat = float(value) * np.eye(n)
    else:
        mat = np.asarray(value, dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"{name} must be scalar or ({n}, {n}), got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, abs(mat).max())):
        raise ValueError(f"{name} must be symmetric")
    mat = 0.5 * (mat + mat.T)
    evals = np.linalg.eigvalsh(mat)
    scale = max(abs(evals[0]), abs(evals[-1]), 1.0)
    if positive and evals[0] <= 1e-12 * scale:
        raise ValueError(f"{name} must be positive definite (min eig {evals[0]:g})")
    if not positive and evals[0] < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semidefinite (min eig {evals[0]:g})")
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
        q = self.Q if self.Q is not None else self.model.K
        object.__setattr__(self, "Q", _as_weight(q, n, "Q", positive=False))
        object.__setattr__(self, "R", _as_weight(self.R, n, "R", positive=True))
        object.__setattr__(self, "S", _as_weight(self.S, n, "S", positive=False))
        if np.isscalar(self.gamma):
            if self.gamma < 0:
                raise ValueError("gamma must be nonnegative")
            object.__setattr__(self, "gamma", float(self.gamma))
        else:
            gam = np.asarray(self.gamma, dtype=float)
            if gam.shape != (n, n) or not np.allclose(gam, gam.T):
                raise ValueError("matrix gamma must be symmetric (n, n)")
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
        n = self.n_dof
        if np.isscalar(self.gamma):
            return self.gamma * np.eye(n)
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
    """

    gain: np.ndarray = field(repr=False)
    riccati: np.ndarray = field(repr=False)
    residual: float
    closed_loop: np.ndarray = field(repr=False)
    times: np.ndarray | None = field(default=None, repr=False)
    gains: np.ndarray | None = field(default=None, repr=False)

    def grid_position(self, t: float):
        """Where `gain_at(t)` reads the schedule (equal positions give equal
        gains): None for a stationary law, 0 or -1 where t is clamped to an
        end, else (idx, frac) between grid points idx and idx + 1."""
        ts = self.times
        if ts is None:
            return None
        if t <= ts[0] or t >= ts[-1]:
            return 0 if t <= ts[0] else -1
        idx = int(np.searchsorted(ts, t)) - 1
        return idx, (t - ts[idx]) / (ts[idx + 1] - ts[idx])

    def gain_at(self, t: float) -> np.ndarray:
        """Gain at time t (linear interpolation on the stored grid)."""
        pos = self.grid_position(t)
        if pos is None or isinstance(pos, int):
            return self.gain if pos is None else self.gains[pos]
        idx, frac = pos
        return (1.0 - frac) * self.gains[idx] + frac * self.gains[idx + 1]


def _care_residual(P, A, BRB, Qz) -> float:
    defect = A.T @ P + P @ A - P @ BRB @ P + Qz
    return float(np.linalg.norm(defect, "fro"))


def _acceptable(P, A, BRB, Qz, tol: float) -> bool:
    """True when P certifies as the (almost-)stabilizing solution.

    A small residual alone is not enough: on problems with cost-free
    marginal modes the Hamiltonian subspace can yield an exact but
    indefinite CARE solution whose closed loop is unstable.  Require the
    value function to be PSD and the closed loop to have no eigenvalue
    with meaningfully positive real part (rigid zeros are allowed)."""
    if _care_residual(P, A, BRB, Qz) > tol:
        return False
    dust = 1e3 * np.finfo(float).eps * (
        np.linalg.norm(A, "fro") + np.linalg.norm(BRB, "fro")
        + np.linalg.norm(Qz, "fro"))
    min_eig = float(np.linalg.eigvalsh(P)[0])
    if min_eig < -(RESIDUAL_RTOL * np.linalg.norm(P, "fro") + dust):
        return False
    closed = A - BRB @ P
    abscissa = float(np.linalg.eigvals(closed).real.max())
    return abscissa <= RESIDUAL_RTOL * max(1.0, np.linalg.norm(closed, "fro"))


def _schur_care(A: np.ndarray, BRB: np.ndarray, Qz: np.ndarray):
    """Stabilizing CARE solution via the Hamiltonian Schur form.

    Returns None when the strictly-stable invariant subspace does not
    have the state dimension or the recovered P is unusable; the caller
    decides whether that means deflation or an error.
    """
    import scipy.linalg
    n = A.shape[0]
    ham = np.block([[A, -BRB], [-Qz, -A.T]])
    try:
        T, Z, sdim = scipy.linalg.schur(ham, output="real", sort="lhp")
    except scipy.linalg.LinAlgError:
        return None
    if sdim != n:
        return None
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    try:
        P = scipy.linalg.solve(U1.T, U2.T).T
    except scipy.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(P)):
        return None
    scale = np.linalg.norm(P, "fro")
    if scale > 0 and np.linalg.norm(P - P.T, "fro") > _SYM_RTOL * scale:
        return None
    return 0.5 * (P + P.T)


def _rigid_lift(problem: ControlProblem):
    """Orthonormal basis of the non-rigid state subspace, or None.

    Rigid displacement directions are the zero modes of K.  Deflating on
    them is exact only when they carry no cost and the mass/damping maps
    preserve the split; each condition is checked, and None means the
    deflation is not available (the caller then reports failure).
    """
    K = problem.model.K
    evals, vecs = np.linalg.eigh(K)
    top = max(evals[-1], 0.0) if evals.size else 0.0
    zero = evals <= ZERO_MODE_RTOL * max(top, 1.0)
    if not zero.any() or zero.all():
        return None
    V0 = vecs[:, zero]
    Vc = vecs[:, ~zero]
    qnorm = np.linalg.norm(problem.Q, "fro")
    if np.linalg.norm(problem.Q @ V0) > 1e-10 * max(qnorm, 1.0):
        return None  # rigid modes are penalized: no cost-free deflation
    inv_m = 1.0 / problem.model.masses

    def preserves_split(op_v0, op_vc):
        # op must map span(V0) into itself and span(Vc) into itself
        leak0 = np.linalg.norm(Vc.T @ op_v0)
        leakc = np.linalg.norm(V0.T @ op_vc)
        scale = max(np.linalg.norm(op_v0), np.linalg.norm(op_vc), 1.0)
        return max(leak0, leakc) <= 1e-10 * scale

    if not preserves_split(inv_m[:, None] * V0, inv_m[:, None] * Vc):
        return None
    if not np.isscalar(problem.gamma):
        gam = problem.damping_matrix()
        op = inv_m[:, None] * gam
        if not preserves_split(op @ V0, op @ Vc):
            return None
    n, c = K.shape[0], Vc.shape[1]
    lift = np.zeros((2 * n, 2 * c))
    lift[:n, :c] = Vc
    lift[n:, c:] = Vc
    return lift


def solve_lqr(problem: ControlProblem, n_steps: int = 2000) -> FeedbackLaw:
    """Solve the Riccati problem and return the feedback law.

    Infinite horizon: algebraic equation by the Hamiltonian-Schur method,
    with rigid-mode deflation for free networks (see module docstring).
    Finite horizon: the Hamiltonian step map (Kenney & Leipnik, IEEE TAC
    30(10), 1985) back from the terminal weight over `n_steps` intervals h:
    with E = expm(-Ham h), Ham = [[A, -BRB], [-Qz, -A^T]], [X; Y] =
    E [I; P(t)] gives P(t - h) = Y X^-1 exactly, up to rounding.  The law
    keeps the gain at each grid time; gain/riccati are the t = 0 values.

    Raises NumericalError when no stable invariant subspace of the state
    dimension exists (an unstabilizable or undetectable-beyond-rigid
    problem) or the residual check fails.
    """
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
        ham = np.block([[A, -BRB], [-Qz, -A.T]])
        back = scipy.linalg.expm(-ham * (problem.horizon / n_steps))
        for k in range(n_steps - 1, -1, -1):
            XY = back[:, :m] + back[:, m:] @ P
            P = np.linalg.solve(XY[:m].T, XY[m:].T).T
            P = 0.5 * (P + P.T)
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

    # Cost-free rigid modes (when present and exactly separable) are
    # deflated first: the reduced CARE is the well-posed problem and the
    # embedded solution is exact, with P and G vanishing on rigid modes.
    # The full-space Schur solve is the general path and the fallback.
    P = None
    lift = _rigid_lift(problem)
    if lift is not None:
        Pr = _schur_care(lift.T @ A @ lift, lift.T @ BRB @ lift,
                         lift.T @ Qz @ lift)
        if Pr is not None:
            cand = lift @ Pr @ lift.T
            if _acceptable(cand, A, BRB, Qz, tol):
                P = cand
    if P is None:
        cand = _schur_care(A, BRB, Qz)
        if cand is not None and _acceptable(cand, A, BRB, Qz, tol):
            P = cand
    if P is None:
        raise NumericalError(
            "no stable invariant subspace of the state dimension: "
            "the problem is unstabilizable under the given weights")

    residual = _care_residual(P, A, BRB, Qz)
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


def simulate_controlled(problem: ControlProblem, law: FeedbackLaw,
                        u0: np.ndarray, v0: np.ndarray,
                        T: float, n_steps: int = 2000) -> dict:
    """Integrate the closed loop and report energy and accumulated cost.

    Each step is the exact expm((A - B G) h), G held at the step midpoint;
    the exponential is reused while `law.grid_position` of the midpoint
    stays put: once for a stationary law, once past a finite law's horizon.

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
    if not (T > 0 and n_steps >= 2):
        raise ValueError("need T > 0 and at least two steps")
    import scipy.linalg
    A, B = problem.state_matrices()
    h = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)

    states = np.empty((n_steps + 1, 2 * n))
    states[0, :n] = u0
    states[0, n:] = v0
    held, step = object(), None
    for k in range(n_steps):
        t_mid = times[k] + 0.5 * h
        pos = law.grid_position(t_mid)
        if pos != held:
            held = pos
            step = scipy.linalg.expm((A - B @ law.gain_at(t_mid)) * h)
        states[k + 1] = step @ states[k]
    if law.times is None:
        forces = -(states @ law.gain.T)
    else:
        forces = np.empty((n_steps + 1, n))
        for k in range(n_steps + 1):
            forces[k] = -(law.gain_at(times[k]) @ states[k])

    disp = states[:, :n]
    vel = states[:, n:]
    energy = np.einsum("ti,ij,tj->t", disp, problem.Q, disp)
    effort = np.einsum("ti,ij,tj->t", forces, problem.R, forces)
    cost = 0.5 * float(_simpson(energy + effort, times))
    if problem.is_finite_horizon and T >= problem.horizon * (1 - 1e-12):
        u_end = disp[-1]
        cost += 0.5 * float(u_end @ problem.S @ u_end)
    value = np.einsum("ti,ij,tj->t", states, law.riccati, states)
    return {"times": times, "displacements": disp, "velocities": vel,
            "forces": forces, "energy": energy, "value": value,
            "cost": cost}
