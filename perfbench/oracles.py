"""Independent reference results for the benchmark's output checks.

Built from coordinates with numpy and scipy only, never from gnmqsim, so
a defect in the program cannot hide in its own oracle. Conventions match
the program's documented ones: unit masses and springs, contacts listed
as pairs i < j in lexicographic order, embedding H = -[[0, B], [B^T, 0]].
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def read_ca_pdb(text: str) -> np.ndarray:
    """C-alpha coordinates from the fixed columns of ATOM records."""
    rows = [[float(line[30:38]), float(line[38:46]), float(line[46:54])]
            for line in text.splitlines()
            if line.startswith("ATOM") and line[12:16].strip() == "CA"]
    return np.array(rows)


def contacts(pos: np.ndarray, cutoff: float) -> list[tuple[int, int]]:
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    i, j = np.nonzero(np.triu(d <= cutoff, k=1))
    return list(zip(i.tolist(), j.tolist()))


def gnm(pos: np.ndarray, cutoff: float = 7.0) -> np.ndarray:
    """Kirchhoff matrix of the contact graph, unit springs."""
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    adj = (d <= cutoff).astype(float)
    np.fill_diagonal(adj, 0.0)
    return np.diag(adj.sum(axis=1)) - adj


def gnm_factor(pos: np.ndarray, cutoff: float = 7.0) -> np.ndarray:
    """Incidence factor B, B B^T = Kirchhoff: one column per contact."""
    edges = contacts(pos, cutoff)
    B = np.zeros((len(pos), len(edges)))
    for col, (i, j) in enumerate(edges):
        B[i, col], B[j, col] = 1.0, -1.0
    return B


def anm(pos: np.ndarray, cutoff: float = 13.0) -> np.ndarray:
    """3N x 3N Hessian of unit springs, assembled block by block."""
    n = len(pos)
    H = np.zeros((n, 3, n, 3))
    for i, j in contacts(pos, cutoff):
        d = pos[i] - pos[j]
        block = np.outer(d, d) / (d @ d)
        H[i, :, j, :] -= block
        H[j, :, i, :] -= block
        H[i, :, i, :] += block
        H[j, :, j, :] += block
    return H.reshape(3 * n, 3 * n)


def anm_factor(pos: np.ndarray, cutoff: float = 13.0) -> np.ndarray:
    """Factor B with B B^T = Hessian: a +-unit 3-vector pair per contact."""
    edges = contacts(pos, cutoff)
    B = np.zeros((3 * len(pos), len(edges)))
    for col, (i, j) in enumerate(edges):
        d = pos[i] - pos[j]
        unit = d / np.linalg.norm(d)
        B[3 * i:3 * i + 3, col] = unit
        B[3 * j:3 * j + 3, col] = -unit
    return B


def embedding(B: np.ndarray) -> np.ndarray:
    n, e = B.shape
    H = np.zeros((n + e, n + e))
    H[:n, n:] = -B
    H[n:, :n] = -B.T
    return H


def chebyshev_moments(eigenvalues: np.ndarray, alpha: float,
                      order: int) -> np.ndarray:
    """mu_k = sum_i T_k(lambda_i / alpha) / dim via T_k(cos t) = cos(k t)."""
    theta = np.arccos(np.clip(eigenvalues / alpha, -1.0, 1.0))
    return np.cos(np.outer(np.arange(order + 1), theta)).mean(axis=1)


def lowest_modes(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of A above the 1e-8 relative zero threshold."""
    lam, vecs = np.linalg.eigh(A)
    keep = np.flatnonzero(lam > 1e-8 * lam[-1])[:k]
    return lam[keep], vecs[:, keep]


def pinv_diag(K: np.ndarray) -> np.ndarray:
    """Diagonal of the pseudo-inverse, zero modes excluded."""
    lam, vecs = np.linalg.eigh(K)
    keep = lam > 1e-8 * lam[-1]
    return (vecs[:, keep] ** 2 / lam[keep]).sum(axis=1)


def langevin_covariance(H: np.ndarray, n_dof: int, gamma: float, kT: float,
                        damping: str, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) for dx = Jx dt + S dW by Van Loan's block exponential.

    J = -iH - gamma * D, where D is the identity ("scalar") or the
    velocity-block projector ("velocity"); S = sqrt(2 kT gamma) on the
    velocity block. Steps of at most one time unit keep the growing
    block of the exponential small.
    """
    dim = H.shape[0]
    J = -1j * H.astype(complex)
    if damping == "scalar":
        J -= gamma * np.eye(dim)
    else:
        J[:n_dof, :n_dof] -= gamma * np.eye(n_dof)
    QQ = np.zeros((dim, dim), dtype=complex)
    QQ[:n_dof, :n_dof] = 2.0 * kT * gamma * np.eye(n_dof)
    steps = max(1, math.ceil(t))
    h = t / steps
    C = np.block([[J, QQ], [np.zeros_like(J), -J.conj().T]]) * h
    F = scipy.linalg.expm(C)
    E, F12 = F[:dim, :dim], F[:dim, dim:]
    noise = F12 @ E.conj().T
    rho = np.asarray(rho0, dtype=complex)
    for _ in range(steps):
        rho = E @ rho @ E.conj().T + noise
    return rho


def damped_mean(K: np.ndarray, gamma: float, u0, v0, t: float):
    """Mean (u, v) of M u'' + gamma u' + K u = noise, unit masses."""
    n = K.shape[0]
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-K, -gamma * np.eye(n)]])
    z = scipy.linalg.expm(A * t) @ np.concatenate([u0, v0])
    return z[:n], z[n:]


def lqr_finite_value(K: np.ndarray, gamma: float, r: float, horizon: float,
                     z0: np.ndarray) -> float:
    """1/2 z0^T P(0) z0 for the finite-horizon LQR with S = 0, Q = K.

    Integrates the Riccati equation backward through the Hamiltonian
    flow [X; Y] -> expm(-Ham h) [X; Y], P = Y X^-1, in steps of at most
    a quarter time unit.
    """
    n = K.shape[0]
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-K, -gamma * np.eye(n)]])
    BRB = np.zeros((2 * n, 2 * n))
    BRB[n:, n:] = np.eye(n) / r
    Qz = np.zeros((2 * n, 2 * n))
    Qz[:n, :n] = K
    ham = np.block([[A, -BRB], [-Qz, -A.T]])
    steps = max(1, math.ceil(4 * horizon))
    back = scipy.linalg.expm(-ham * (horizon / steps))
    P = np.zeros((2 * n, 2 * n))
    for _ in range(steps):
        XY = back @ np.vstack([np.eye(2 * n), P])
        P = np.linalg.solve(XY[:2 * n].T, XY[2 * n:].T).T
        P = 0.5 * (P + P.T)
    return float(0.5 * z0 @ P @ z0)


def path_laplacian(n: int) -> np.ndarray:
    """Kirchhoff matrix of a straight chain whose neighbours alone touch."""
    K = np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0]) if n > 1 else np.zeros((1, 1))
    idx = np.arange(n - 1)
    K[idx, idx + 1] = K[idx + 1, idx] = -1.0
    return K
