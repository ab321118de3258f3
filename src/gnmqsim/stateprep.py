"""Read-in stage: pseudo-random Gaussian states, ensemble states, encoding.

Randomness comes from a counter-based generator (CBRNG): a pure function
of (seed, counter) built from a 64-bit avalanche finalizer, so every draw
is addressable and reproducible. Level-l branch angles of the state
preparation tree follow p_l(theta) ~ sin^a(2 theta) on (0, pi/2), a =
2^(n-l) - 1, sampled by rejection from a truncated Gaussian proposal at
pi/4 with an analytic envelope constant. One sampler draws a level's
branches and attempts as arrays and decides draws near the accept bound
by scalar math, so every angle is the scalar loop's. Its ndtr and ndtri
load from scipy.special once per exponent a, at its first draw; `network`
is imported for annotations only, so importing this module loads numpy alone.

Counter budget: the angle for level l, branch i < 2^n draws from the
1024-wide window starting at (l * 2^n + i) * 1024; the final sign layer for
basis index j uses window ((n+1) * 2^n + j) * 1024. Windows never overlap,
so no counter feeds two different decisions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import circuits as qc
from .errors import EncodingError, NumericalError
if TYPE_CHECKING:
    from .network import NetworkModel

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

MAX_R = (1 << 53) - 1
COUNTER_WINDOW = 1 << 10
MAX_REJECTIONS = 10_000
_PROPOSALS: dict = {}  # exponent a -> (sigma, ndtr(-h), ndtr(h), ndtri)
_GUARD = 1e-8  # relative band around numpy's accept bound, decided by `math`


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


def _finalize_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`_finalize` over a uint64 array, in place; scratch has z's shape."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def cbrng_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized cbrng over a uint64 counter array."""
    s = np.uint64(seed & _MASK)
    z = counters.astype(np.uint64)  # a copy: the counters stay untouched
    z *= np.uint64(_GOLDEN)
    z ^= s
    scratch = np.empty_like(z)
    _finalize_array(z, scratch)
    z += s
    _finalize_array(z, scratch)
    z >>= np.uint64(11)
    return z.view(np.int64)  # below 2**53, so the same values


def _integer(name: str, value, low: int | None = 0, what: str = "an integer") -> int:
    """value as an int, else a ValueError naming it: not `what`, or below low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """count uniform draws in [0, 1] from consecutive counters."""
    count = _integer("count", count)
    r = cbrng_array(seed, np.arange(start, start + count, dtype=np.uint64))
    return r / MAX_R


def standard_normals(seed: int, start, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on consecutive counter pairs.

    Draw k consumes counters start + 2*floor(k/2) and the one after it;
    2*ceil(count/2) counters are consumed in total. start is an integer
    (one vector of count draws) or a 1-D array of window starts (one row
    of count draws per start).
    """
    count = _integer("count", count)
    pairs = (count + 1) // 2
    counters = np.add.outer(np.asarray(start, dtype=np.uint64),
                            np.arange(2 * pairs, dtype=np.uint64))
    u = cbrng_array(seed, counters).reshape(*counters.shape[:-1], pairs, 2)
    radius = u[..., 0] + 1.0
    radius /= MAX_R + 1.0  # u1 in (0, 1], log-safe
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[..., 1] / MAX_R
    angle *= 2.0 * np.pi
    out = np.empty((*counters.shape[:-1], 2 * pairs))
    np.multiply(radius, np.cos(angle), out=out[..., 0::2])
    np.multiply(radius, np.sin(angle, out=angle), out=out[..., 1::2])
    return out[..., :count]


def rademacher(seed: int, start: int, count: int) -> np.ndarray:
    """+/-1 draws: sign of 2r - max_r (max_r odd, so never zero)."""
    count = _integer("count", count)
    r = cbrng_array(seed, np.arange(start, start + count, dtype=np.uint64))
    return np.where(2 * r > MAX_R, 1.0, -1.0)


# -- branch-angle densities ---------------------------------------------------

def angle_exponent(n: int, level: int) -> int:
    """Exponent a in p_l(theta) ~ sin^a(2 theta): a = 2^(n-l) - 1."""
    if not 1 <= level <= n:
        raise ValueError(f"level {level} outside 1..{n}")
    return 2 ** (n - level) - 1


def proposal_sigma(a: int) -> float:
    return 1.0 / (2.0 * math.sqrt(max(a, 1)))


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
    is broken and raises NumericalError. branch must lie in [0, 2^n), the
    level's counter windows (the tree itself uses [0, 2^(level-1))).
    """
    angle_exponent(n, level)
    if not 0 <= (branch := _integer("branch", branch, None)) < 2 ** n:
        raise ValueError(f"branch {branch!r} outside 0..{2 ** n - 1}: its counter "
                         f"window would be another level's")
    theta, used = _sample_angles(n, level, np.array([branch & _MASK], np.uint64), seed)
    if audit is not None:
        audit.append((counter_base(n, level, branch), int(used[0])))
    return float(theta[0])


def _sample_angles(n: int, level: int, branches: np.ndarray, seed: int):
    """`sample_angle`'s theta and counters used for each of `branches` (a
    uint64 array) at `level`, drawn in rounds of 1, 2, 4, ... attempts.
    numpy's log, cos and exp may differ from `math`'s by ulps (a tenth of
    the bounds, by up to 2e-15, in numpy 2.4 on x86-64): a draw whose u2
    is within the relative band `_GUARD` of numpy's bound is decided by math."""
    a = angle_exponent(n, level)
    bases = (np.uint64(counter_base(n, level, 0) & _MASK)
             + np.uint64(COUNTER_WINDOW) * branches)
    if a == 0:
        return (math.pi / 2.0) * cbrng_array(seed, bases) / MAX_R, np.ones(len(bases), int)
    if a not in _PROPOSALS:  # scipy.special loads here, once per exponent
        from scipy.special import ndtr, ndtri
        h = (math.pi / 4.0) / proposal_sigma(a)
        _PROPOSALS[a] = proposal_sigma(a), ndtr(-h), ndtr(h), ndtri
    sigma, phi_lo, phi_hi, ndtri = _PROPOSALS[a]
    theta, used = np.empty(len(bases)), np.zeros(len(bases), int)
    pending, start, width = np.arange(len(bases)), 0, 1
    while pending.size and start < MAX_REJECTIONS:
        width = min(width, MAX_REJECTIONS - start)
        u = cbrng_array(seed, np.add.outer(bases[pending], np.arange(
            2 * start, 2 * (start + width), dtype=np.uint64))) / MAX_R
        u1, u2 = u[:, 0::2], u[:, 1::2]   # each attempt's counter pair
        draw = math.pi / 4.0 + sigma * ndtri(phi_lo + u1 * (phi_hi - phi_lo))
        t = draw - math.pi / 4.0
        inside = np.abs(t) < math.pi / 4.0
        t_in = np.where(inside, t, 0.0)   # the bound is 0 beyond the support
        bound = inside * np.exp(float(a) * (np.log(np.cos(2.0 * t_in)) + 2.0 * t_in * t_in))
        accept = u2 <= bound
        near = np.nonzero(inside & (np.abs(u2 - bound) <= _GUARD * bound))
        accept[near] = [v <= math.exp(a * (math.log(math.cos(2.0 * x)) + 2.0 * x * x))
                        for v, x in zip(u2[near].tolist(), t[near].tolist())]
        hit = accept.any(axis=1)
        first = accept.argmax(axis=1)[hit]
        theta[pending[hit]], used[pending[hit]] = draw[hit, first], 2 * (start + first + 1)
        pending, start, width = pending[~hit], start + width, 2 * width
    if pending.size:
        raise NumericalError(
            f"rejection sampler exceeded {MAX_REJECTIONS} attempts at level "
            f"{level}, branch {int(branches[pending[0]])}; envelope constant violated")
    return theta, used


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
    the per-basis-index sign s_j of 2r - max_r. Each CRY, and the
    DIAG_SIGN, acts on every wire used so far, so the greedy layers have a
    closed form and the circuit is built from columns.

    The state is read off the tree rather than simulated: with j_1..j_n
    the bits of j (wire 0 first) and theta_{l,b} the angle of level l at
    prefix b = j_1..j_{l-1}, amplitude j is s_j times the product over l
    of cos theta_{l,b} (j_l = 0) or sin theta_{l,b} (j_l = 1). It is
    complex128 with every imaginary part +0.0, as a gate walk gives.
    Deterministic in (n, seed): repeated calls are bit-identical.
    """
    n = _integer("n", n, 1, "an integer qubit count")  # a numpy int overflows counters
    rows, angles = [], []   # per level: kind, last wire and layer columns
    amp, top = np.ones(1), -1
    for level in range(1, n + 1):
        m = level - 1   # controls 0..m-1, target m
        k = np.arange(2 ** m)
        gray = k ^ (k >> 1)
        theta, used = _sample_angles(n, level, gray.astype(np.uint64), seed)
        if audit is not None:
            audit.extend(zip((counter_base(n, level, 0)
                              + COUNTER_WINDOW * gray).tolist(), used.tolist()))
        head, tail = np.arange(m), np.arange(1, m)
        flip = m - np.frexp(k[1:] & -k[1:])[1]   # m - bitlen(k & -k)
        wire = np.r_[head, m, np.c_[flip, np.full(len(flip), m)].ravel(), tail]
        # after the previous level's last CRY, at `top`, the opening flips
        # take top + 1 (top + 2 on wires 1..m-2, after its closing flips),
        # CRY k start + 2k after its flip, the closing flips the next layer
        start = top + 1 + (m >= 1) + (m >= 3)
        rows.append(np.stack([np.where(wire == m, qc.CRY, qc.X), wire,  # no flip is on m
                              np.r_[top + 1 + ((head >= 1) & (head <= m - 2)),
                                    start + np.arange(2 * len(flip) + 1),
                                    np.full(len(tail), start + 2 * len(flip) + 1)]]))
        top = start + 2 * len(flip)
        angles.append(2.0 * theta)
        trig = np.empty((2, 2 ** m))   # cos and sin theta by branch, from `math`
        trig[:, gray] = [list(map(f, theta.tolist())) for f in (math.cos, math.sin)]
        amp = (amp[:, None] * trig.T).ravel()

    signs = np.where(
        2 * cbrng_array(seed, sign_counter_base(n, 0)
                        + COUNTER_WINDOW * np.arange(2 ** n, dtype=np.uint64))
        > MAX_R, 1.0, -1.0)
    if audit is not None:
        audit.extend((sign_counter_base(n, j), 1) for j in range(2 ** n))
    kinds, last, layer = np.concatenate(
        [*rows, [[qc.DIAG_SIGN], [n - 1], [top + 1 + (n >= 3)]]], axis=1)
    back = np.arange(max(2, n))[::-1]   # each column's distance from the last
    wires = last[:, None] - back
    # an X acts on its last wire alone, the others on wires 0..last
    wires[back > np.where(kinds == qc.X, 0, last)[:, None]] = -1
    params = np.full(len(kinds), None, dtype=object)
    params[kinds == qc.CRY] = np.concatenate(angles)
    params = [*params[:-1].tolist(), signs]
    circuit = qc.Circuit._from_columns(n, kinds, wires, params,
                                       {"n_ancillas": 0, "seed": seed}, lambda _: layer)
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
    n = _integer("n", n, 1, "an integer qubit count")
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


def encode_initial_conditions(model: NetworkModel, u0: np.ndarray,
                              v0: np.ndarray) -> EncodedState:
    """Encode displacements/velocities as a unit vector [ydot; i B^T y].

    y = sqrt(M) u are mass-weighted coordinates and E = (ydot.ydot +
    y.A.y)/2 the conserved energy; a non-finite entry, or an energy that is
    zero (no normalization) or not finite, raises EncodingError.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, arr in (("u0", u0), ("v0", v0)):
        if arr.shape != (model.n_dof,):
            raise EncodingError(f"{name} has shape {arr.shape}, "
                                f"expected ({model.n_dof},)")
        if not np.isfinite(arr).all():
            raise EncodingError(f"{name} has a non-finite entry")
    sqrt_m = np.sqrt(model.masses)
    y = sqrt_m * u0
    ydot = sqrt_m * v0
    energy = 0.5 * (ydot @ ydot + y @ (model.A @ y))
    if not 0.0 < energy < math.inf:
        raise EncodingError(f"a state of energy {energy:g} cannot be encoded")
    psi = np.concatenate([ydot.astype(complex), 1j * (model.B.T @ y)])
    psi /= np.sqrt(2.0 * energy)
    return EncodedState(psi=psi, energy=float(energy), n_dof=model.n_dof)
