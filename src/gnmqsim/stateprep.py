"""Read-in stage: pseudo-random Gaussian states, ensemble states, encoding.

Randomness comes from a counter-based generator (CBRNG): a pure function
of (seed, counter) built from a 64-bit avalanche finalizer, so every draw
is addressable and reproducible. Level-l branch angles of the state
preparation tree follow the densities p_l(theta) proportional to
sin^a(2 theta) on (0, pi/2) with a = 2^(n-l) - 1, sampled by rejection
from a truncated Gaussian proposal centered at pi/4 whose envelope
constant is analytic (the density/proposal ratio peaks at pi/4).

Counter budget: the angle for level l, branch i draws from the 1024-wide
window starting at (l * 2^n + i) * 1024; the final sign layer for basis
index j uses window ((n+1) * 2^n + j) * 1024. Windows never overlap, so
no counter feeds two different decisions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr, ndtri

from . import circuits as qc
from .errors import EncodingError, NumericalError
from .network import NetworkModel

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

MAX_R = (1 << 53) - 1
COUNTER_WINDOW = 1 << 10
MAX_REJECTIONS = 10_000


def _finalize(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def cbrng(seed: int, counter: int) -> int:
    """Counter-based draw in [0, 2^53 - 1]: top 53 bits of the mixed word."""
    z = _finalize((counter * _GOLDEN & _MASK) ^ (seed & _MASK))
    z = _finalize((z + seed) & _MASK)
    return z >> 11


def _finalize_array(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def cbrng_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized cbrng over a uint64 counter array."""
    s = np.uint64(seed & _MASK)
    z = _finalize_array((counters.astype(np.uint64) * np.uint64(_GOLDEN)) ^ s)
    z = _finalize_array(z + s)
    return (z >> np.uint64(11)).astype(np.int64)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """count uniform draws in [0, 1] from consecutive counters."""
    r = cbrng_array(seed, np.arange(start, start + count, dtype=np.uint64))
    return r / MAX_R


def standard_normals(seed: int, start, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on consecutive counter pairs.

    Draw k consumes counters start + 2*floor(k/2) and the one after it;
    2*ceil(count/2) counters are consumed in total. start is an integer
    (one vector of count draws) or a 1-D array of window starts (one row
    of count draws per start).
    """
    pairs = (count + 1) // 2
    counters = np.add.outer(np.asarray(start, dtype=np.uint64),
                            np.arange(2 * pairs, dtype=np.uint64))
    u = cbrng_array(seed, counters).reshape(*counters.shape[:-1], pairs, 2)
    u1 = (u[..., 0] + 1.0) / (MAX_R + 1.0)  # in (0, 1], log-safe
    u2 = u[..., 1] / MAX_R
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty((*counters.shape[:-1], 2 * pairs))
    out[..., 0::2] = radius * np.cos(2.0 * np.pi * u2)
    out[..., 1::2] = radius * np.sin(2.0 * np.pi * u2)
    return out[..., :count]


def rademacher(seed: int, start: int, count: int) -> np.ndarray:
    """+/-1 draws: sign of 2r - max_r (max_r odd, so never zero)."""
    r = cbrng_array(seed, np.arange(start, start + count, dtype=np.uint64))
    return np.where(2 * r > MAX_R, 1.0, -1.0)


# -- branch-angle densities ---------------------------------------------------

def angle_exponent(n: int, level: int) -> int:
    """Exponent a in p_l(theta) ~ sin^a(2 theta): a = 2^(n-l) - 1."""
    if not 1 <= level <= n:
        raise ValueError(f"level {level} outside 1..{n}")
    return 2 ** (n - level) - 1


def _log_density_norm(a: int) -> float:
    """log of Z_p = integral_0^{pi/2} sin^a(2 theta) d theta."""
    return (0.5 * math.log(math.pi) + gammaln((a + 1) / 2.0)
            - gammaln(a / 2.0 + 1.0) - math.log(2.0))


def proposal_sigma(a: int) -> float:
    return 1.0 / (2.0 * math.sqrt(max(a, 1)))


def envelope_constant(n: int, level: int) -> float:
    """Analytic envelope Q >= p/q, attained at theta = pi/4.

    Q = Z_q * sigma * sqrt(2 pi) / Z_p with Z_q the proposal's truncation
    mass; 1/Q is the exact acceptance probability of the rejection loop.
    """
    a = angle_exponent(n, level)
    if a == 0:
        return 1.0
    sigma = proposal_sigma(a)
    h = (math.pi / 4.0) / sigma
    z_q = ndtr(h) - ndtr(-h)
    return z_q * sigma * math.sqrt(2.0 * math.pi) / math.exp(_log_density_norm(a))


def counter_base(n: int, level: int, branch: int) -> int:
    """Start of the counter window reserved for one branch angle."""
    return (level * 2 ** n + branch) * COUNTER_WINDOW


def sample_angle(n: int, level: int, branch: int, seed: int,
                 audit: list | None = None) -> float:
    """Draw theta from p_l on (0, pi/2) for one branch of the prep tree.

    Level n (a = 0) is uniform and inverts the CDF with a single counter.
    Other levels run rejection sampling: each attempt consumes a counter
    pair (proposal draw, accept draw); the acceptance probability at t =
    theta - pi/4 is exp(a * (ln cos 2t + 2 t^2)) <= 1, the analytic
    density/envelope ratio. More than 10^4 rejections means the envelope
    is broken and raises NumericalError.
    """
    a = angle_exponent(n, level)
    base = counter_base(n, level, branch)
    if a == 0:
        if audit is not None:
            audit.append((base, 1))
        return (math.pi / 2.0) * cbrng(seed, base) / MAX_R
    sigma = proposal_sigma(a)
    h = (math.pi / 4.0) / sigma
    phi_lo, phi_hi = ndtr(-h), ndtr(h)
    for attempt in range(MAX_REJECTIONS):
        u1 = cbrng(seed, base + 2 * attempt) / MAX_R
        u2 = cbrng(seed, base + 2 * attempt + 1) / MAX_R
        theta = math.pi / 4.0 + sigma * float(
            ndtri(phi_lo + u1 * (phi_hi - phi_lo)))
        t = theta - math.pi / 4.0
        if abs(t) >= math.pi / 4.0:
            accept_log = -math.inf  # proposal tail beyond the support
        else:
            accept_log = a * (math.log(math.cos(2.0 * t)) + 2.0 * t * t)
        if u2 <= math.exp(accept_log):
            if audit is not None:
                audit.append((base, 2 * (attempt + 1)))
            return theta
    raise NumericalError(
        f"rejection sampler exceeded {MAX_REJECTIONS} attempts at level "
        f"{level}, branch {branch}; envelope constant violated")


# -- prepared states ----------------------------------------------------------

def sign_counter_base(n: int, index: int) -> int:
    return ((n + 1) * 2 ** n + index) * COUNTER_WINDOW


def prepare_gaussian_state(n: int, seed: int,
                           audit: list | None = None):
    """Pseudo-random Gaussian state on n qubits: (circuit, statevector).

    The circuit is a Grover-Rudolph angle tree. Level l = 1..n applies
    RY(2 theta) to wire m = l-1 once per branch b in [0, 2^m), controlled
    on wires 0..m-1 (read big-endian as b), each control whose bit of b is
    0 conjugated by X. Branches run in Gray-code order b_k = k XOR (k >> 1),
    so the X flips are: every control before b_0; before b_k, k > 0, the
    one control whose bit changed, m - bitlen(k & -k); after the last
    branch, b = 2^(m-1), controls 1..m-1. A final DIAG_SIGN layer applies
    the per-basis-index sign s_j of 2r - max_r.

    The state is read off the tree rather than simulated: with j_1..j_n
    the bits of j (wire 0 first) and theta_{l,b} the angle of level l at
    prefix b = j_1..j_{l-1}, amplitude j is s_j times the product over l
    of cos theta_{l,b} (j_l = 0) or sin theta_{l,b} (j_l = 1). It is
    complex128 with every imaginary part +0.0, as a gate walk gives.
    Deterministic in (n, seed): repeated calls are bit-identical.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    rows = []
    amp = np.ones(1)
    for level in range(1, n + 1):
        m = level - 1   # controls 0..m-1, target m
        cos, sin = np.empty((2, 2 ** m))
        for k in range(2 ** m):
            branch = k ^ (k >> 1)  # Gray code
            flips = range(m) if k == 0 else (m - (k & -k).bit_length(),)
            rows += [(qc.X, (w,)) for w in flips]
            theta = sample_angle(n, level, branch, seed, audit)
            rows.append((qc.CRY, (*range(m), m), 2.0 * theta))
            cos[branch], sin[branch] = math.cos(theta), math.sin(theta)
        rows += [(qc.X, (w,)) for w in range(1, m)]
        amp = np.stack([amp * cos, amp * sin], 1).ravel()

    signs = np.where(
        2 * cbrng_array(seed, sign_counter_base(n, 0)
                        + COUNTER_WINDOW * np.arange(2 ** n, dtype=np.uint64))
        > MAX_R, 1.0, -1.0)
    if audit is not None:
        audit.extend((sign_counter_base(n, j), 1) for j in range(2 ** n))
    rows.append((qc.DIAG_SIGN, tuple(range(n)), signs))
    circuit = qc.Circuit.from_gates(n, rows, {"n_ancillas": 0, "seed": seed})
    state = amp.astype(complex)
    state *= signs
    return circuit, state


def prepare_ensemble_state(n: int):
    """Maximally mixed n-qubit ensemble from a depth-2 purification.

    Circuit: one Hadamard layer on register 1, one transversal CNOT layer
    onto register 2 (2n qubits, depth exactly 2). It prepares the uniform
    pair state sum_i |i>|i> / 2^(n/2); tracing out register 2 gives
    exactly I / 2^n, which is returned in that analytic form.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    rows = [(qc.H, (w,)) for w in range(n)]
    rows += [(qc.CNOT, (w, w + n)) for w in range(n)]
    circuit = qc.Circuit.from_gates(2 * n, rows, {"n_ancillas": 0})
    return circuit, np.eye(2 ** n) / 2 ** n


@dataclass(frozen=True)
class EncodedState:
    """Normalized Hamiltonian-encoding of a mechanical state.

    psi     : complex vector [ydot; i B^T y] / sqrt(2E), length n_dof + n_edges
    energy  : total mechanical energy E used for the normalization
    n_dof   : length of the velocity block (split index)
    """

    psi: np.ndarray
    energy: float
    n_dof: int

    @property
    def velocity_block(self) -> np.ndarray:
        return self.psi[:self.n_dof]

    @property
    def position_block(self) -> np.ndarray:
        return self.psi[self.n_dof:]


def encode_initial_conditions(model: NetworkModel, u0: np.ndarray,
                              v0: np.ndarray) -> EncodedState:
    """Encode displacements/velocities as a unit vector [ydot; i B^T y].

    y = sqrt(M) u are mass-weighted coordinates and E = (ydot.ydot +
    y.A.y)/2 the conserved energy; zero energy cannot be normalized and
    raises EncodingError.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, arr in (("u0", u0), ("v0", v0)):
        if arr.shape != (model.n_dof,):
            raise EncodingError(f"{name} has shape {arr.shape}, "
                                f"expected ({model.n_dof},)")
    sqrt_m = np.sqrt(model.masses)
    y = sqrt_m * u0
    ydot = sqrt_m * v0
    energy = 0.5 * (ydot @ ydot + y @ (model.A @ y))
    if energy <= 0.0:
        raise EncodingError("zero-energy state cannot be encoded")
    psi = np.concatenate([ydot.astype(complex), 1j * (model.B.T @ y)])
    psi /= np.sqrt(2.0 * energy)
    return EncodedState(psi=psi, energy=float(energy), n_dof=model.n_dof)
