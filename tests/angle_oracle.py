"""Scalar rejection sampling, one branch and one attempt at a time: the
test oracle for `stateprep._sample_angles`.

`sample_angle` draws each attempt's counter pair with `cbrng`, the
proposal through a scalar `ndtri` and decides acceptance with `math`'s
log, cos and exp. `gaussian_audit` walks a tree's branches in Gray-code
order, as `prepare_gaussian_state` records them.
"""
from __future__ import annotations

import math

from scipy.special import ndtr, ndtri

from gnmqsim.errors import NumericalError
from gnmqsim.stateprep import (MAX_R, MAX_REJECTIONS, angle_exponent, cbrng,
                               counter_base, proposal_sigma, sign_counter_base)


def sample_angle(n: int, level: int, branch: int, seed: int,
                 audit: list | None = None) -> float:
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
            accept_log = -math.inf
        else:
            accept_log = a * (math.log(math.cos(2.0 * t)) + 2.0 * t * t)
        if u2 <= math.exp(accept_log):
            if audit is not None:
                audit.append((base, 2 * (attempt + 1)))
            return theta
    raise NumericalError(f"level {level}, branch {branch}")


def tree_angles(n: int, level: int, seed: int, audit: list | None = None) -> list:
    """The angles of one tree level's branches b_k = k XOR (k >> 1), in k order."""
    return [sample_angle(n, level, k ^ (k >> 1), seed, audit)
            for k in range(2 ** (level - 1))]


def gaussian_audit(n: int, seed: int) -> list:
    """`prepare_gaussian_state`'s audit list: every level's branches, then
    the sign layer's counters."""
    audit = []
    for level in range(1, n + 1):
        tree_angles(n, level, seed, audit)
    audit.extend((sign_counter_base(n, j), 1) for j in range(2 ** n))
    return audit
