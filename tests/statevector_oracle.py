"""Gate-by-gate statevector simulator and layer-by-layer basis walk: the
test oracles for circuits.

`apply` propagates a full statevector through every row of a `Circuit`,
one gate at a time, on a (2,)*n tensor; `dense_unitary` stacks its columns.
`gnmqsim` itself never simulates a full statevector: the Gaussian state
comes from its angle tree in closed form and the classical circuits from
the bit-plane walk `apply_basis`. Both are checked against this walk.
`apply_basis_layers` is the bit-plane walk over the table's layers, every
X row included, that `apply_basis`'s folded, levelled schedule must match.
"""
from __future__ import annotations

import math

import numpy as np

from gnmqsim.circuits import CCX, CNOT, CRY, H, KIND_NAMES, X, Circuit, RowError


def basis_state(n_qubits: int, index: int = 0) -> np.ndarray:
    psi = np.zeros(2 ** n_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def _controlled_view(tensor, controls):
    idx = [slice(None)] * tensor.ndim
    for c in controls:
        idx[c] = 1
    return tensor[tuple(idx)], [c for c in range(tensor.ndim) if c not in controls]


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Propagate a statevector through the circuit, returning a new array."""
    n = circuit.n_qubits
    if state.shape != (2 ** n,):
        raise ValueError(f"state length {state.shape} does not match {n} qubits")
    psi = np.array(state, dtype=complex).reshape([2] * n)
    for kind, wires, param in circuit.rows():
        _apply_gate(psi, kind, wires, param, n)
    return psi.reshape(-1)


def _apply_gate(psi, kind: int, wires: tuple, param, n: int) -> None:
    if kind in (X, CNOT, CCX):
        *controls, target = wires
        view, free = _controlled_view(psi, controls)
        t = free.index(target)
        lo = view[(slice(None),) * t + (0,)].copy()
        view[(slice(None),) * t + (0,)] = view[(slice(None),) * t + (1,)]
        view[(slice(None),) * t + (1,)] = lo
    elif kind == H:
        t = wires[0]
        a = psi[(slice(None),) * t + (0,)].copy()
        b = psi[(slice(None),) * t + (1,)].copy()
        inv = 1.0 / math.sqrt(2.0)
        psi[(slice(None),) * t + (0,)] = (a + b) * inv
        psi[(slice(None),) * t + (1,)] = (a - b) * inv
    elif kind == CRY:
        *controls, target = wires
        view, free = _controlled_view(psi, controls)
        t = free.index(target)
        a = view[(slice(None),) * t + (0,)].copy()
        b = view[(slice(None),) * t + (1,)].copy()
        c, s = math.cos(param / 2.0), math.sin(param / 2.0)
        view[(slice(None),) * t + (0,)] = c * a - s * b
        view[(slice(None),) * t + (1,)] = s * a + c * b
    else:  # DIAG_SIGN
        k = len(wires)
        signs = np.asarray(param).reshape([2] * k)
        signs = signs.transpose(np.argsort(wires))
        shape = [2 if w in set(wires) else 1 for w in range(n)]
        psi *= signs.reshape(shape)


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit (intended for n_qubits <= 10)."""
    dim = 2 ** circuit.n_qubits
    if circuit.n_qubits > 14:
        raise ValueError("dense matrix requested for more than 14 qubits")
    U = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        U[:, col] = apply(circuit, basis_state(circuit.n_qubits, col))
    return U


def apply_basis_layers(circuit: Circuit, bits):
    """Propagate basis states through classical gates (X, CNOT, CCX only).

    `bits` is one bit string, returned as a list[int], or a (batch,
    n_qubits) array, returned as a uint8 array of that shape. The state is
    one bit-plane per wire, across the batch, plus an always-1 plane that
    the -1 padding reads; each layer is one vectorised update
    target ^= AND(controls), so a call takes O(depth) numpy steps. Any
    other gate kind raises RowError naming its row in the table.
    """
    state = np.asarray(bits)
    n = circuit.n_qubits
    if state.ndim not in (1, 2) or state.shape[-1] != n:
        raise ValueError("bit string length does not match circuit")
    if circuit.kinds.size and circuit.kinds.max() > CCX:
        row = int(np.argmax(circuit.kinds > CCX))
        raise RowError(row, f"{KIND_NAMES[circuit.kinds[row]]} gate is not "
                            "classical; only X, CNOT and CCX are accepted")
    planes = np.ones((n + 1, *state.shape[:-1]), dtype=bool)
    planes[:n] = state.T
    *controls, targets = circuit.wires.T
    starts = circuit.layer_starts.tolist()
    for a, b in zip(starts, starts[1:]):
        flip = planes[controls[0][a:b]]
        for column in controls[1:]:
            flip &= planes[column[a:b]]
        planes[targets[a:b]] ^= flip
    out = planes[:n].T.astype(np.uint8)
    return out.tolist() if state.ndim == 1 else out
