"""Dense Langevin covariance routes: the test oracles for
`dynamics.evolve_langevin_covariance`.

Scalar damping makes J = -iH - gamma*I normal, so `_scalar_covariance`
integrates in closed form in the eigenbasis of the densified H;
`_velocity_covariance` runs Van Loan's block exponential on the dense
2*dim generator, exact also where J is defective. `gnmqsim` itself works
in 2 x 2 blocks of A's modes; `covariance` picks the dense route for a
damping kind.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def _taylor_safe_ratio(denom: np.ndarray, t: float) -> np.ndarray:
    """(1 - exp(-denom*t)) / denom with the denom -> 0 limit t."""
    small = np.abs(denom) * t < 1e-8
    safe = np.where(small, 1.0, denom)
    out = (1.0 - np.exp(-safe * t)) / safe
    return np.where(small, t * (1.0 - denom * t / 2.0), out)


def _scalar_covariance(H, gamma, QQ, rho0, t):
    """Closed form in H's eigenbasis, exact because J = -iH - gamma*I is normal.

    The eigenbasis comes from eigh of the densified operator H (dim x dim).
    Returns rho(t), e^{Jt} and the noise integral over [0, t].
    """
    w, vecs = np.linalg.eigh(H)
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


def covariance(embedded, params, rho0, t):
    """rho(t) by the dense route for `params.damping`."""
    H = embedded.operator.toarray()
    Q = params.noise_matrix(embedded)
    QQ = Q @ Q.conj().T
    if params.damping == "scalar":
        return _scalar_covariance(H, params.gamma, QQ, rho0, t)[0]
    J = params.generator(H, embedded.n_dof)
    return _velocity_covariance(J, params.gamma, QQ, rho0, t)[0]
