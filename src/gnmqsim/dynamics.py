"""Time evolution of encoded network dynamics.

Harmonic motion is unitary propagation under the Hermitian embedding
H = -[[0, B], [B^T, 0]], computed in H's eigenbasis. Forced motion
integrates the first-order system exactly per grid step in normal-mode
coordinates (forces held constant over each step) and assembles the
snapshots into a history state. Langevin damping evolves the second-moment
matrix rho(t) = e^{tJ} rho0 e^{tJ+} + int_0^t e^{sJ} S S+ e^{sJ+} ds under
the generator J: in closed form in H's eigenbasis for scalar damping (J
normal), by Van Loan's block exponential for velocity damping (J possibly
defective). The Lyapunov identity J N + N J+ = E S S+ E+ - S S+, for the
propagator E and noise integral N over the interval a route integrates,
certifies the result to 1e-8 relative residual. Monte Carlo oracles
integrate the matching SDEs with Euler-Maruyama and counter-based noise so
ensembles are reproducible and paths are independent of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import EncodingError, NumericalError
from .network import ZERO_MODE_RTOL, NetworkModel
from .stateprep import MAX_R, EncodedState, cbrng_array, encode_initial_conditions

DECODE_RTOL = 1e-8
LYAPUNOV_RTOL = 1e-8


@dataclass
class EmbeddedHamiltonian:
    """Hermitian embedding of the factored network dynamics.

    H = -[[0, B], [B^T, 0]] acts on [velocity block; i*B^T y block]; its
    square is block-diagonal (B B^T, B^T B), so the nonzero spectrum comes
    in +/- sqrt(eig A) pairs.
    """

    model: NetworkModel
    H: np.ndarray = field(init=False)

    def __post_init__(self):
        B = self.model.B
        n, e = B.shape
        H = np.zeros((n + e, n + e))
        H[:n, n:] = -B
        H[n:, :n] = -B.T
        self.H = H

    @property
    def n_dof(self) -> int:
        return self.model.n_dof

    @property
    def n_edges(self) -> int:
        return self.model.n_edges

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors of H."""
        return np.linalg.eigh(self.H)


def embed(model: NetworkModel) -> EmbeddedHamiltonian:
    return EmbeddedHamiltonian(model=model)


def evolve_harmonic(embedded: EmbeddedHamiltonian, psi0: np.ndarray, t):
    """exp(-iHt) psi0; scalar t gives one state, a 1-D t one state per row."""
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    w, vecs = embedded.eig
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, w))
    states = (phases * coeff) @ vecs.T
    return states[0] if times.ndim == 0 else states


def decode_state(model: NetworkModel, psi: np.ndarray,
                 energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Invert the encoding: recover (u, udot) from [ydot; i B^T y]/sqrt(2E).

    The velocity block must be real and the other block i times a vector in
    the range of B^T; violations beyond 1e-8 relative mean the vector is
    not a valid encoding and raise EncodingError. The encoding stores B^T y
    only, so the component of y along ker(B^T) (the rigid zero modes) is
    irrecoverable; the minimum-norm solution is returned, i.e. decoded
    displacements are the zero-mode-free projection of the originals.
    Velocities are stored in full and round-trip exactly.
    """
    psi = np.asarray(psi, dtype=complex)
    n = model.n_dof
    if psi.shape != (model.n_dof + model.n_edges,):
        raise EncodingError("state length does not match the model")
    block1, block2 = psi[:n], psi[n:]
    scale = math.sqrt(2.0 * energy)
    # defects are measured against the whole state: either block may be
    # exactly zero in a valid encoding (rest, or zero displacement)
    tol = DECODE_RTOL * max(np.linalg.norm(psi), 1e-300)
    if np.linalg.norm(block1.imag) > tol:
        raise EncodingError("velocity block is not real: encoding corrupted")
    ydot = scale * block1.real
    rhs = -1j * block2  # equals B^T y / sqrt(2E) for a valid encoding
    y_hat, _, _, _ = np.linalg.lstsq(model.B.T, rhs.real, rcond=None)
    residual = math.hypot(np.linalg.norm(model.B.T @ y_hat - rhs.real),
                          np.linalg.norm(rhs.imag))
    if residual > tol:
        raise EncodingError("block outside the range of B^T: encoding corrupted")
    y = scale * y_hat
    sqrt_m = np.sqrt(model.masses)
    return y / sqrt_m, ydot / sqrt_m


@dataclass(frozen=True)
class HistoryState:
    """Grid snapshots of a trajectory plus their normalized superposition.

    snapshots[k] is the encoded vector at t_k (the zero vector where the
    snapshot energy vanishes and no encoding exists); composite is
    (1/sqrt(N_t+1)) sum_k |k> (x) snapshots[k], flattened row-major.
    """

    times: np.ndarray
    displacements: np.ndarray
    velocities: np.ndarray
    energies: np.ndarray
    snapshots: np.ndarray
    composite: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    @property
    def composite_norm(self) -> float:
        return float(np.linalg.norm(self.composite))


def _force_table(force, times, n_dof: int) -> np.ndarray:
    n_steps = len(times) - 1
    if force is None:
        return np.zeros((max(n_steps, 0), n_dof))
    if callable(force):
        return np.array([np.asarray(force(t), dtype=float)
                         for t in times[:-1]])
    table = np.asarray(force, dtype=float)
    if table.shape != (n_steps, n_dof):
        raise ValueError(f"force table must have shape ({n_steps}, {n_dof})")
    return table


def evolve_inhomogeneous(model: NetworkModel, u0, v0, force, T: float,
                         n_steps: int) -> HistoryState:
    """Driven evolution, exact per step for forces constant on each interval.

    force is a callable t -> vector sampled at interval left endpoints, a
    (n_steps, n_dof) table of per-interval forces, or None. Each normal
    mode is advanced by the closed-form driven-oscillator update, so the
    only approximation is the piecewise-constant force itself.
    """
    if T < 0 or n_steps < 1:
        raise ValueError("need T >= 0 and at least one step")
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    times = np.linspace(0.0, T, n_steps + 1)
    forces = _force_table(force, times, model.n_dof)
    sqrt_m = np.sqrt(model.masses)
    lam, modes = np.linalg.eigh(model.A)
    lam = np.clip(lam, 0.0, None)
    zero = lam <= ZERO_MODE_RTOL * max(lam[-1], 1.0)
    omega = np.sqrt(np.where(zero, 1.0, lam))  # placeholder on zero modes

    a = modes.T @ (sqrt_m * u0)
    adot = modes.T @ (sqrt_m * v0)
    h = T / n_steps

    n_snap = n_steps + 1
    us = np.empty((n_snap, model.n_dof))
    vs = np.empty((n_snap, model.n_dof))
    energies = np.empty(n_snap)
    snapshots = np.zeros((n_snap, model.n_dof + model.n_edges), dtype=complex)

    def record(k):
        y = modes @ a
        ydot = modes @ adot
        us[k] = y / sqrt_m
        vs[k] = ydot / sqrt_m
        energies[k] = 0.5 * (ydot @ ydot + y @ (model.A @ y))
        if energies[k] > 0.0:
            snap = np.concatenate([ydot.astype(complex), 1j * (model.B.T @ y)])
            snapshots[k] = snap / np.sqrt(2.0 * energies[k])

    record(0)
    cos_h, sin_h = np.cos(omega * h), np.sin(omega * h)
    for k in range(n_steps):
        phi = modes.T @ (forces[k] / sqrt_m)
        a_new = np.where(
            zero,
            a + adot * h + 0.5 * phi * h * h,
            a * cos_h + adot * sin_h / omega + phi / np.where(zero, 1.0, lam) * (1.0 - cos_h),
        )
        adot_new = np.where(
            zero,
            adot + phi * h,
            -a * omega * sin_h + adot * cos_h + phi / omega * sin_h,
        )
        a, adot = a_new, adot_new
        record(k + 1)

    composite = snapshots.ravel() / np.sqrt(n_snap)
    return HistoryState(times=times, displacements=us, velocities=vs,
                        energies=energies, snapshots=snapshots,
                        composite=composite)


# -- Langevin damping -----------------------------------------------------------


@dataclass(frozen=True)
class LangevinParams:
    """Friction and thermal noise for the damped model.

    damping "scalar" uses the generator J = -iH - gamma*I (the covariance
    master equation's form); "velocity" damps only the velocity block,
    matching the underlying mechanical equation, and is flagged as the
    physically asymmetric variant. noise "velocity" injects into the
    velocity block only; "isotropic" into every component.
    """

    gamma: float
    kT: float
    damping: str = "scalar"
    noise: str = "velocity"

    def __post_init__(self):
        if self.gamma < 0 or self.kT < 0:
            raise ValueError("gamma and kT must be nonnegative")
        if self.damping not in ("scalar", "velocity"):
            raise ValueError("damping must be 'scalar' or 'velocity'")
        if self.noise not in ("velocity", "isotropic"):
            raise ValueError("noise must be 'velocity' or 'isotropic'")

    @property
    def sigma(self) -> float:
        """Fluctuation-dissipation amplitude sqrt(2 kT gamma)."""
        return math.sqrt(2.0 * self.kT * self.gamma)

    def generator(self, embedded: EmbeddedHamiltonian) -> np.ndarray:
        J = -1j * embedded.H.astype(complex)
        if self.damping == "scalar":
            J -= self.gamma * np.eye(embedded.dim)
        else:
            J[:embedded.n_dof, :embedded.n_dof] -= (
                self.gamma * np.eye(embedded.n_dof))
        return J

    def noise_matrix(self, embedded: EmbeddedHamiltonian) -> np.ndarray:
        if self.noise == "isotropic":
            return self.sigma * np.eye(embedded.dim)
        sig = np.zeros((embedded.dim, embedded.n_dof))
        sig[:embedded.n_dof] = self.sigma * np.eye(embedded.n_dof)
        return sig


def _taylor_safe_ratio(denom: np.ndarray, t: float) -> np.ndarray:
    """(1 - exp(-denom*t)) / denom with the denom -> 0 limit t."""
    small = np.abs(denom) * t < 1e-8
    safe = np.where(small, 1.0, denom)
    out = (1.0 - np.exp(-safe * t)) / safe
    return np.where(small, t * (1.0 - denom * t / 2.0), out)


def _scalar_covariance(embedded, gamma, QQ, rho0, t):
    """Closed form in H's eigenbasis, exact because J = -iH - gamma*I is normal.

    Returns rho(t), e^{Jt} and the noise integral over [0, t].
    """
    w, vecs = embedded.eig
    decay = np.exp((-1j * w - gamma) * t)
    r0 = vecs.conj().T @ rho0 @ vecs
    first = vecs @ (np.outer(decay, decay.conj()) * r0) @ vecs.conj().T
    Qt = vecs.conj().T @ QQ @ vecs
    denom = 2.0 * gamma + 1j * (w[:, None] - w[None, :])
    integral = vecs @ (Qt * _taylor_safe_ratio(denom, t)) @ vecs.conj().T
    prop = (vecs * decay) @ vecs.conj().T
    return first + integral, prop, integral


def _velocity_covariance(J, gamma, QQ, rho0, t):
    """Van Loan's block exponential (IEEE TAC 23(3), 1978) in equal steps h.

    expm([[J, QQ], [0, -J+]] h) = [[e^{Jh}, F12], [0, e^{-J+h}]] with
    F12 e^{J+h} = int_0^h e^{Js} QQ e^{J+s} ds; h = t / ceil(gamma t) keeps
    |e^{-J+h}| <= e^{gamma h} below e. Returns rho(t), e^{Jh} and that integral.
    """
    dim = J.shape[0]
    steps = max(1, math.ceil(gamma * t))
    block = np.block([[J, QQ], [np.zeros_like(J), -J.conj().T]])
    F = scipy.linalg.expm(block * (t / steps))
    prop = F[:dim, :dim]
    noise = F[:dim, dim:] @ prop.conj().T
    rho = rho0
    for _ in range(steps):
        rho = prop @ rho @ prop.conj().T + noise
    return rho, prop, noise


def _lyapunov_residual(J, QQ, prop, noise) -> float:
    """Residual of J N + N J+ = E QQ E+ - QQ over the sum of the terms' norms."""
    terms = (J @ noise, noise @ J.conj().T, prop @ QQ @ prop.conj().T, QQ)
    resid = np.linalg.norm(terms[0] + terms[1] - terms[2] + terms[3])
    return float(resid / max(sum(np.linalg.norm(x) for x in terms), 1e-300))


def evolve_langevin_covariance(embedded: EmbeddedHamiltonian,
                               params: LangevinParams, rho0: np.ndarray,
                               t: float) -> np.ndarray:
    """Second-moment matrix at time t under the damped generator.

    Scalar damping uses the closed form in H's eigenbasis, velocity damping
    Van Loan's block exponential; NumericalError is raised when the
    Lyapunov residual over the interval the route integrates exceeds 1e-8.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (embedded.dim, embedded.dim):
        raise ValueError("rho0 shape does not match the embedding")
    if np.linalg.norm(rho0 - rho0.conj().T) > 1e-10 * max(np.linalg.norm(rho0), 1e-300):
        raise ValueError("rho0 must be Hermitian")
    if t < 0:
        raise ValueError("time must be nonnegative")
    J = params.generator(embedded)
    Q = params.noise_matrix(embedded)
    QQ = Q @ Q.conj().T
    if params.damping == "scalar":
        rho, prop, noise = _scalar_covariance(embedded, params.gamma, QQ, rho0, t)
    else:
        rho, prop, noise = _velocity_covariance(J, params.gamma, QQ, rho0, t)
    resid = _lyapunov_residual(J, QQ, prop, noise)
    if resid > LYAPUNOV_RTOL:
        raise NumericalError(f"Langevin covariance ({params.damping} damping): "
                             f"Lyapunov relative residual {resid:.3e} exceeds "
                             f"tolerance {LYAPUNOV_RTOL:.0e}")
    return rho


# -- Monte Carlo oracles ---------------------------------------------------------


def _normal_block(seed: int, bases: np.ndarray, count: int) -> np.ndarray:
    """Box-Muller normals, `count` per row, from per-row counter windows.

    Row p consumes counters bases[p] .. bases[p] + 2*ceil(count/2) - 1,
    matching the layout of the scalar-window generator.
    """
    pairs = (count + 1) // 2
    offs = np.arange(pairs, dtype=np.uint64) * np.uint64(2)
    even = bases[:, None].astype(np.uint64) + offs[None, :]
    r1 = cbrng_array(seed, even.ravel()).reshape(even.shape)
    r2 = cbrng_array(seed, (even + np.uint64(1)).ravel()).reshape(even.shape)
    u1 = (r1 + 1.0) / (MAX_R + 1.0)
    u2 = r2 / MAX_R
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty((even.shape[0], 2 * pairs))
    out[:, 0::2] = radius * np.cos(2.0 * np.pi * u2)
    out[:, 1::2] = radius * np.sin(2.0 * np.pi * u2)
    return out[:, :count]


def _noise_windows(seed: int, n_paths: int, n_steps: int, count: int):
    """Yield each step's (n_paths, count) normals of an ensemble.

    Path p, step k reads the counter window starting at
    p*n_steps*step_words + k*step_words, so draws are seed-reproducible and
    do not depend on path ordering or ensemble size.
    """
    step_words = 2 * ((count + 1) // 2)
    bases0 = np.arange(n_paths, dtype=np.uint64) * np.uint64(n_steps * step_words)
    for k in range(n_steps):
        yield _normal_block(seed, bases0 + np.uint64(k * step_words), count)


def _step_count(t: float, h_max: float, h: float | None) -> tuple[int, float]:
    if h is not None:
        if h <= 0:
            raise ValueError("step size must be positive")
        if h > h_max * (1 + 1e-12):
            raise ValueError(f"step size {h} exceeds the stability bound {h_max:.3e}")
        n_steps = max(1, math.ceil(t / h))
    else:
        n_steps = max(1, math.ceil(t / h_max))
    return n_steps, t / n_steps


def monte_carlo_langevin(model: NetworkModel, params: LangevinParams, u0, v0,
                         t: float, n_paths: int, seed: int,
                         h: float | None = None) -> dict:
    """Euler-Maruyama ensemble of the damped mechanical equation.

    Integrates M udd + gamma ud + K u + sigma xi = 0 path-by-path with
    counter-based noise (see `_noise_windows`).
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = model.n_dof
    a_norm = float(np.linalg.eigvalsh(model.A)[-1]) if n else 0.0
    h_max = 0.01 / max(math.sqrt(a_norm), 1e-12)
    n_steps, h = _step_count(t, h_max, h)

    u = np.tile(u0, (n_paths, 1))
    v = np.tile(v0, (n_paths, 1))
    inv_m = 1.0 / model.masses
    sqrt_h = math.sqrt(h)
    for xi in _noise_windows(seed, n_paths, n_steps, n):
        drift = (-params.gamma * v - u @ model.K) * inv_m
        u = u + h * v
        v = v + h * drift - (params.sigma * sqrt_h) * (xi * inv_m)
    phase = np.hstack([u, v])
    return {
        "displacements": u, "velocities": v, "h": h, "n_steps": n_steps,
        "mean": phase.mean(axis=0),
        "cov": np.cov(phase.T) if n_paths > 1 else np.zeros((2 * n, 2 * n)),
    }


def monte_carlo_encoded(embedded: EmbeddedHamiltonian, params: LangevinParams,
                        x0: np.ndarray, t: float, n_paths: int, seed: int,
                        h: float | None = None) -> dict:
    """Euler-Maruyama ensemble of dx = Jx dt + S dW in the encoded space.

    Returns the ensemble second-moment matrix E[x x+] with per-entry
    standard errors (real and imaginary parts separately) for z-scoring
    against the master-equation result.
    """
    x0 = np.asarray(x0, dtype=complex)
    J = params.generator(embedded)
    S = params.noise_matrix(embedded)
    w = embedded.eig[0]
    h_max = 0.01 / max(float(np.max(np.abs(w))) + params.gamma, 1e-12)
    n_steps, h = _step_count(t, h_max, h)

    x = np.tile(x0, (n_paths, 1))
    sqrt_h = math.sqrt(h)
    for xi in _noise_windows(seed, n_paths, n_steps, S.shape[1]):
        x = x + h * (x @ J.T) + sqrt_h * (xi @ S.T)
    outer = x[:, :, None] * x[:, None, :].conj()
    second = outer.mean(axis=0)
    stderr_real = outer.real.std(axis=0, ddof=1) / math.sqrt(n_paths)
    stderr_imag = outer.imag.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return {
        "second_moment": second, "stderr_real": stderr_real,
        "stderr_imag": stderr_imag, "h": h, "n_steps": n_steps,
        "finals": x,
    }
