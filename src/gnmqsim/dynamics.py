"""Time evolution of encoded network dynamics.

Harmonic motion, unitary propagation under the Hermitian embedding
H = -[[0, B], [B^T, 0]], and decoding are computed blockwise from the
model's cached eigenpairs of A = B B^T and its sparse factor B, since
H^2 = diag(A, B^T B); H itself is stored only as a sparse operator.
Forced motion steps A's mode coefficients exactly per grid step (forces
held constant over each step) and rebuilds the history afterwards.
Langevin damping evolves rho(t) = e^{tJ} rho0 e^{tJ+} + int_0^t e^{sJ} S S+
e^{sJ+} ds. J = -iH - damping is block diagonal in A's modes: on the pair
([u_k; 0], [0; v_k]), s_k = sqrt(lam_k) and v_k = B^T u_k / s_k, it acts as
[[-gamma, i s_k], [i s_k, -g]], g = gamma (scalar damping) or 0 (velocity);
A's zero modes and ker(B) take the diagonal block at s = 0. One batched
4 x 4 exponential per step gives every block's propagator E and noise
integral N; lifted to dense form, they must satisfy the Lyapunov identity
J N + N J+ = E S S+ E+ - S S+ to 1e-8 relative residual. Monte Carlo samplers
integrate the matching SDEs with Euler-Maruyama and counter-based noise, so
ensembles are reproducible and paths are independent of execution order.
This module imports scipy.linalg only in `evolve_langevin_covariance` (expm).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import EncodingError, NumericalError
from .network import NetworkModel
from .stateprep import standard_normals

DECODE_RTOL = 1e-8
LYAPUNOV_RTOL = 1e-8
_MC_BLOCK_ENTRIES = 1 << 20  # outer-product entries per block of paths


@dataclass
class EmbeddedHamiltonian:
    """Hermitian embedding of the factored network dynamics.

    H = -[[0, B], [B^T, 0]] acts on [velocity block; i*B^T y block]; its
    square is block-diagonal (B B^T, B^T B), so the nonzero spectrum comes
    in +/- sqrt(eig A) pairs. H has two forms, both cached on first
    access: `operator`, H as a sparse matrix built from B's nonzeros, and
    `spectrum`, its eigenvalues read from A's cached eigenpairs. Routes
    that need dense algebra (the Langevin generator, the scalar-damping
    closed form) densify `operator` once per call and share that copy;
    harmonic propagation needs neither form.
    """

    model: NetworkModel

    @property
    def n_dof(self) -> int:
        return self.model.n_dof

    @property
    def n_edges(self) -> int:
        return self.model.n_edges

    @property
    def dim(self) -> int:
        return self.n_dof + self.n_edges

    @cached_property
    def operator(self) -> scipy.sparse.csr_array:
        """H as a CSR matrix holding B's nonzeros twice (read-only arrays)."""
        b = self.model.B.tocoo()
        top, bottom = b.row, self.n_dof + b.col
        # intp triplets, so H's index dtype does not depend on B's
        H = scipy.sparse.csr_array(
            (np.tile(-b.data, 2), (np.concatenate([top, bottom], dtype=np.intp),
                                   np.concatenate([bottom, top], dtype=np.intp))),
            shape=(self.dim, self.dim))
        for arr in (H.data, H.indices, H.indptr):
            arr.flags.writeable = False
        return H

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of H: +/- sqrt(lam) over A's nonzero modes
        (the model's `zero_modes` mask), padded with exact zeros; read-only."""
        root = np.sqrt(self.model.eigenpairs[0][~self.model.zero_modes])
        if 2 * root.size > self.dim:
            raise NumericalError(f"A has {root.size} nonzero modes, more than "
                                 f"half the embedding dimension {self.dim}")
        spectrum = np.concatenate([-root[::-1], np.zeros(self.dim - 2 * root.size),
                                   root])
        spectrum.flags.writeable = False
        return spectrum


def embed(model: NetworkModel) -> EmbeddedHamiltonian:
    return EmbeddedHamiltonian(model=model)


def _vector(value, name: str, size: int, dtype=float) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != (size,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({size},)")
    return arr


def _modes(model: NetworkModel, t=0.0):
    """A = U diag(lam) U^T (lam 0 on zero modes) and, per time and mode,
    cos(wt), sin(wt)/w and (cos(wt) - 1)/w^2 with zero-mode limits 1, t, -t^2/2."""
    (lam, U), zero = model.eigenpairs, model.zero_modes
    lam, tt = np.where(zero, 0.0, lam), np.asarray(t, dtype=float)[..., None]
    omega = np.sqrt(np.where(zero, 1.0, lam))
    half = np.sin(0.5 * tt * omega) / omega
    return U, lam, (np.where(zero, 1.0, np.cos(tt * omega)),
                    np.where(zero, tt, np.sin(tt * omega) / omega),
                    np.where(zero, -0.5 * tt * tt, -2.0 * half * half))


def evolve_harmonic(embedded: EmbeddedHamiltonian, psi0: np.ndarray, t):
    """exp(-iHt) psi0; scalar t gives one state, a 1-D t one state per row.

    For psi0 = [p; q] and A = U diag(w^2) U^T the blocks are
    U[cos(wt) U^T p + i sin(wt)/w U^T B q] and
    q + B^T U[(cos(wt) - 1)/w^2 U^T B q + i sin(wt)/w U^T p].
    """
    model, n = embedded.model, embedded.n_dof
    psi0 = _vector(psi0, "psi0", embedded.dim, complex)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"t must be finite, nonnegative and at most 1-D, "
                         f"got shape {times.shape}")
    U, _, (cos, sinc, cosm1) = _modes(model, np.atleast_1d(times))
    cp, cq = U.T @ psi0[:n], U.T @ (model.B @ psi0[n:])
    states = np.hstack([(cos * cp + 1j * sinc * cq) @ U.T,
                        psi0[n:] + ((cosm1 * cq + 1j * sinc * cp) @ U.T) @ model.B])
    return states[0] if times.ndim == 0 else states


def decode_state(model: NetworkModel, psi: np.ndarray,
                 energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Invert the encoding: recover (u, udot) from [ydot; i B^T y]/sqrt(2E).

    The velocity block must be real and the other block i times a vector in
    the range of B^T; violations beyond 1e-8 relative mean the vector is
    not a valid encoding and raise EncodingError. The encoding stores B^T y
    only, so the component of y along ker(B^T) (the rigid zero modes) is
    irrecoverable; the minimum-norm solution y = A^+ B (B^T y) is returned,
    i.e. decoded displacements are the zero-mode-free projection of the
    originals. Velocities are stored in full and round-trip exactly.
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
    U, lam, _ = _modes(model)
    y_hat = U @ np.divide(U.T @ (model.B @ rhs.real), lam, out=np.zeros(n),
                          where=lam > 0)
    residual = math.hypot(np.linalg.norm(model.B.T @ y_hat - rhs.real),
                          np.linalg.norm(rhs.imag))
    if residual > tol:
        raise EncodingError("block outside the range of B^T: encoding corrupted")
    sqrt_m = np.sqrt(model.masses)
    return scale * y_hat / sqrt_m, ydot / sqrt_m


@dataclass(frozen=True)
class HistoryState:
    """Grid displacements, velocities and energies of a trajectory.

    kinetic and potential are each snapshot's (1/2)|y'|^2 and (1/2) y.Ay,
    y = sqrt(M) u; energies is their sum.
    snapshots[k] is the encoded vector at t_k (the zero vector where the
    snapshot energy vanishes and no encoding exists); composite is
    (1/sqrt(N_t+1)) sum_k |k> (x) snapshots[k], flattened row-major. Both
    are built on first access, with one product by B.
    """

    times: np.ndarray
    displacements: np.ndarray
    velocities: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    model: NetworkModel = field(repr=False)

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    @cached_property
    def energies(self) -> np.ndarray:
        return self.kinetic + self.potential

    @cached_property
    def snapshots(self) -> np.ndarray:
        sqrt_m, E = np.sqrt(self.model.masses), self.energies[:, None]
        snaps = np.hstack([self.velocities * sqrt_m + 0j,
                           1j * ((self.displacements * sqrt_m) @ self.model.B)])
        return np.where(E > 0.0, snaps / np.sqrt(2.0 * np.where(E > 0.0, E, 1.0)), 0j)

    @cached_property
    def composite(self) -> np.ndarray:
        return self.snapshots.ravel() / np.sqrt(self.n_snapshots)


def evolve_inhomogeneous(model: NetworkModel, u0, v0, force, T: float,
                         n_steps: int) -> HistoryState:
    """Driven evolution, exact per step for forces constant on each interval.

    force is a callable t -> vector sampled at interval left endpoints, a
    table of per-interval forces, or None; either way the table must be
    (n_steps, n_dof). Only A's mode coefficients are stepped, by the
    closed-form driven-oscillator update, so the only approximation is the
    piecewise-constant force itself; the history is rebuilt afterwards.
    """
    if not (math.isfinite(T) and T >= 0) or n_steps < 1:
        raise ValueError(f"need a finite T >= 0 and at least one step, got T = {T!r}")
    n = model.n_dof
    u0, v0 = _vector(u0, "u0", n), _vector(v0, "v0", n)
    times = np.linspace(0.0, T, n_steps + 1)
    sqrt_m = np.sqrt(model.masses)
    U, lam, (c, s, cosm1) = _modes(model, T / n_steps)
    phis = np.zeros((n_steps, n))  # per-interval forces on A's modes
    if force is not None:
        table = np.asarray([force(t) for t in times[:-1]] if callable(force)
                           else force, dtype=float)
        if table.shape != phis.shape:
            raise ValueError(f"force table has shape {table.shape}, "
                             f"expected {phis.shape}")
        phis = (table / sqrt_m) @ U
    coef = np.empty((2, n_steps + 1, n))
    coef[0, 0], coef[1, 0] = U.T @ (sqrt_m * u0), U.T @ (sqrt_m * v0)
    for k in range(n_steps):
        a, adot = coef[0, k], coef[1, k]
        coef[0, k + 1] = c * a + s * adot - cosm1 * phis[k]
        coef[1, k + 1] = c * adot - lam * s * a + s * phis[k]
    y, ydot = coef @ U.T
    return HistoryState(times=times, displacements=y / sqrt_m,
                        velocities=ydot / sqrt_m, model=model,
                        kinetic=0.5 * np.einsum("ti,ti->t", ydot, ydot),
                        potential=0.5 * np.einsum("ti,ti->t", (model.A @ y.T).T, y))


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
        for name in ("gamma", "kT"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.damping not in ("scalar", "velocity"):
            raise ValueError("damping must be 'scalar' or 'velocity'")
        if self.noise not in ("velocity", "isotropic"):
            raise ValueError("noise must be 'velocity' or 'isotropic'")

    @property
    def sigma(self) -> float:
        """Fluctuation-dissipation amplitude sqrt(2 kT gamma)."""
        return math.sqrt(2.0 * self.kT * self.gamma)

    def generator(self, H: np.ndarray, n_dof: int) -> np.ndarray:
        """J as a dense dim x dim matrix (it is dense by nature), from the
        densified operator H and the size n_dof of the velocity block."""
        J = -1j * H.astype(complex)
        if self.damping == "scalar":
            J -= self.gamma * np.eye(H.shape[0])
        else:
            J[:n_dof, :n_dof] -= self.gamma * np.eye(n_dof)
        return J

    def noise_matrix(self, embedded: EmbeddedHamiltonian) -> np.ndarray:
        if self.noise == "isotropic":
            return self.sigma * np.eye(embedded.dim)
        sig = np.zeros((embedded.dim, embedded.n_dof))
        sig[:embedded.n_dof] = self.sigma * np.eye(embedded.n_dof)
        return sig


def _lift(X: np.ndarray, Ur, U0, Vr) -> np.ndarray:
    """Dense form of 2 x 2 blocks X[k] on ([Ur[:, k]; 0], [0; Vr[:, k]]);
    the diagonal X[-1] acts on A's zero modes U0 and on ker(B)."""
    Xr, (za, zb) = X[:-1], X[-1].diagonal()
    return np.block([[(Ur * Xr[:, 0, 0]) @ Ur.T + za * (U0 @ U0.T), (Ur * Xr[:, 0, 1]) @ Vr.T],
                     [(Vr * Xr[:, 1, 0]) @ Ur.T,
                      (Vr * Xr[:, 1, 1]) @ Vr.T + zb * (np.eye(len(Vr)) - Vr @ Vr.T)]])


def _lyapunov_residual(J, QQ, prop, noise) -> float:
    """Residual of J N + N J+ = E QQ E+ - QQ over the sum of the terms' norms."""
    terms = (J @ noise, noise @ J.conj().T, prop @ QQ @ prop.conj().T, QQ)
    resid = np.linalg.norm(terms[0] + terms[1] - terms[2] + terms[3])
    return float(resid / max(sum(np.linalg.norm(x) for x in terms), 1e-300))


def _step_power(prop: np.ndarray, noise: np.ndarray, steps: int):
    """(E, N) of `steps` repeats of the batched step (prop, noise), by
    repeated squaring; (E, N) followed by (E', N') is (E'E, E'NE'+ + N')."""
    if steps == 1:
        return prop, noise
    E, N = _step_power(prop, noise, steps // 2)
    E, N = E @ E, E @ N @ E.conj().swapaxes(1, 2) + N
    if steps % 2:
        E, N = prop @ E, prop @ N @ prop.conj().swapaxes(1, 2) + noise
    return E, N


def evolve_langevin_covariance(embedded: EmbeddedHamiltonian,
                               params: LangevinParams, rho0: np.ndarray,
                               t: float) -> np.ndarray:
    """Second-moment matrix at time t under the damped generator.

    Each 2 x 2 block J_k of J (see the module docstring), with noise Q_k
    read off the diagonal of S S+, takes Van Loan's exponential (IEEE TAC
    23(3), 1978) expm([[J_k, Q_k], [0, -J_k+]] h) = [[e^{J_k h}, F12],
    [0, e^{-J_k+ h}]], batched over k; F12 e^{J_k+ h} is the step's noise
    integral, and h = t / ceil(gamma t) keeps |e^{-J_k+ h}| <= e. The
    ceil(gamma t) steps are combined per block by repeated squaring
    (`_step_power`), so the cost grows with log(gamma t). NumericalError is
    raised when the lifted E and N miss the Lyapunov identity by more than
    1e-8 relative residual.
    """
    import scipy.linalg
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (embedded.dim, embedded.dim):
        raise ValueError("rho0 shape does not match the embedding")
    if not (np.isfinite(rho0).all() and np.linalg.norm(rho0 - rho0.conj().T)
            <= 1e-10 * max(np.linalg.norm(rho0), 1e-300)):
        raise ValueError("rho0 must be finite and Hermitian")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    J = params.generator(embedded.operator.toarray(), embedded.n_dof)
    Q = params.noise_matrix(embedded)
    QQ = Q @ Q.conj().T
    (lam, U), zero = embedded.model.eigenpairs, embedded.model.zero_modes
    s = np.append(np.sqrt(lam[~zero]), 0.0)
    Ur, U0 = U[:, ~zero], U[:, zero]
    Vr = (embedded.model.B.T @ Ur) / s[:-1]
    block = np.zeros((len(s), 4, 4), dtype=complex)
    block[:, [0, 1], [0, 1]] = J.diagonal()[[0, -1]]  # velocity and edge damping
    block[:, 0, 1] = block[:, 1, 0] = 1j * s
    block[:, [0, 1], [2, 3]] = QQ.diagonal()[[0, -1]]
    block[:, 2:, 2:] = -block[:, :2, :2].conj().swapaxes(1, 2)
    steps = max(1, math.ceil(params.gamma * t))
    F = scipy.linalg.expm(block * (t / steps))
    prop = F[:, :2, :2]
    E, N = _step_power(prop, F[:, :2, 2:] @ prop.conj().swapaxes(1, 2), steps)
    E, N = _lift(E, Ur, U0, Vr), _lift(N, Ur, U0, Vr)
    resid = _lyapunov_residual(J, QQ, E, N)
    if not resid <= LYAPUNOV_RTOL:
        raise NumericalError(f"Langevin covariance ({params.damping} damping): "
                             f"Lyapunov relative residual {resid:.3e} exceeds "
                             f"tolerance {LYAPUNOV_RTOL:.0e}")
    return E @ rho0 @ E.conj().T + N


# -- Monte Carlo samplers --------------------------------------------------------


def _noise_windows(seed: int, n_paths: int, n_steps: int, count: int):
    """Yield each step's (n_paths, count) normals of an ensemble.

    Path p, step k reads the counter window starting at
    p*n_steps*step_words + k*step_words, so draws are seed-reproducible and
    do not depend on path ordering or ensemble size.
    """
    step_words = 2 * ((count + 1) // 2)
    bases0 = np.arange(n_paths, dtype=np.uint64) * np.uint64(n_steps * step_words)
    for k in range(n_steps):
        yield standard_normals(seed, bases0 + np.uint64(k * step_words), count)


def _step_count(t: float, h_max: float, h: float | None, n_paths: int, least: int):
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if not n_paths >= least:
        raise ValueError(f"n_paths must be at least {least}, got {n_paths!r}")
    if h is not None:
        if h <= 0:
            raise ValueError("step size must be positive")
        if h > h_max * (1 + 1e-12):
            raise ValueError(f"step size {h} exceeds the stability bound {h_max:.3e}")
    n_steps = max(1, math.ceil(t / (h_max if h is None else h)))
    return n_steps, t / n_steps


def monte_carlo_langevin(model: NetworkModel, params: LangevinParams, u0, v0,
                         t: float, n_paths: int, seed: int,
                         h: float | None = None) -> dict:
    """Euler-Maruyama ensemble of the damped mechanical equation.

    Integrates M udd + gamma ud + K u + sigma xi = 0 path-by-path with
    counter-based noise (see `_noise_windows`); h <= 0.01 / sqrt(lambda_max).
    """
    n = model.n_dof
    u0, v0 = _vector(u0, "u0", n), _vector(v0, "v0", n)
    h_max = 0.01 / max(math.sqrt(model.lambda_max), 1e-12)
    n_steps, h = _step_count(t, h_max, h, n_paths, 1)

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
    against the master-equation result. Both are taken in two passes (the
    mean, then the squared deviations from it) over blocks of paths whose
    outer products hold about _MC_BLOCK_ENTRIES entries, so memory does not
    grow with n_paths. h <= 0.01 / (sqrt(lambda_max) + gamma); n_paths >= 2.
    """
    x0 = np.asarray(x0, dtype=complex)
    root = math.sqrt(max(embedded.model.lambda_max, 0.0))  # H's largest eigenvalue
    h_max = 0.01 / max(root + params.gamma, 1e-12)
    n_steps, h = _step_count(t, h_max, h, n_paths, 2)
    J = params.generator(embedded.operator.toarray(), embedded.n_dof)
    S = params.noise_matrix(embedded)

    x = np.tile(x0, (n_paths, 1))
    sqrt_h = math.sqrt(h)
    for xi in _noise_windows(seed, n_paths, n_steps, S.shape[1]):
        x = x + h * (x @ J.T) + sqrt_h * (xi @ S.T)
    dim = x.shape[1]
    step = max(1, _MC_BLOCK_ENTRIES // (dim * dim))
    blocks = [x[a:a + step] for a in range(0, n_paths, step)]
    second = sum(((b[:, :, None] * b[:, None, :].conj()).sum(axis=0)
                  for b in blocks), np.zeros((dim, dim), complex)) / n_paths
    dev_real, dev_imag = np.zeros((dim, dim)), np.zeros((dim, dim))
    for b in blocks:
        dev = b[:, :, None] * b[:, None, :].conj()
        dev -= second
        dev_real += np.square(dev.real).sum(axis=0)
        dev_imag += np.square(dev.imag).sum(axis=0)
    stderr_real, stderr_imag = (np.sqrt(dev / (n_paths - 1)) / math.sqrt(n_paths)
                                for dev in (dev_real, dev_imag))
    return {
        "second_moment": second, "stderr_real": stderr_real,
        "stderr_imag": stderr_imag, "h": h, "n_steps": n_steps,
        "finals": x,
    }
