"""Row-by-row layering and levelling: the test oracles for the block
passes in `circuits`.

`greedy_layers` places each row, one Python step at a time, in the layer
after the last earlier row on any of its wires; the data loader and the
stacked QROM must get the same layers from one numpy pass per block of
rows that share no wire. `basis_schedule` levels a circuit's non-X rows
one row at a time; `apply_basis`'s schedule, built one numpy pass per
layer, must equal it array for array.
"""
from __future__ import annotations

import numpy as np

from gnmqsim.circuits import X, Circuit


def greedy_layers(wires: np.ndarray, n_qubits: int) -> np.ndarray:
    """Each row's greedy layer, rows taken in the given order; a -1 pad
    reads a slot that is reset to 0 after every row."""
    next_free = [0] * (n_qubits + 1)
    layer = []
    for row in wires.tolist():
        at = max(next_free[w] for w in row)
        for w in row:
            next_free[w] = at + 1
        next_free[-1] = 0
        layer.append(at)
    return np.array(layer, dtype=np.int64)


def basis_schedule(circuit: Circuit):
    """(controls, polarities, targets) per level and each wire's X parity,
    as `circuits._build_schedule` gives them, levelled row by row: a row
    goes one level after the last write to each control and after the
    last write and read of its target."""
    kinds, r = circuit.kinds, len(circuit.kinds)
    flipped = kinds == X
    rows = np.flatnonzero(~flipped)
    wires = circuit.wires[rows]
    flips = np.sort(circuit.wires[flipped, -1] * r + np.flatnonzero(flipped))
    keys = wires[:, :-1] * r
    polarity = (np.searchsorted(flips, keys + rows[:, None])
                - np.searchsorted(flips, keys)) % 2 == 1
    readable = [0] * (circuit.n_qubits + 1)
    writable = [0] * (circuit.n_qubits + 1)
    levels = []
    for *controls, target in wires.tolist():
        at = max(writable[target], *(readable[w] for w in controls))
        writable[target] = readable[target] = at + 1
        for w in controls:
            writable[w] = max(writable[w], at + 1)
        levels.append(at)
    order = np.argsort(levels, kind="stable")
    cuts = np.cumsum(np.bincount(levels))[:-1]
    wires, polarity = (np.split(np.ascontiguousarray(a[order].T), cuts, axis=1)
                       for a in (wires, polarity))
    steps = [(w[:-1], p, w[-1]) for w, p in zip(wires, polarity)]
    parity = np.bincount(circuit.wires[flipped, -1], minlength=circuit.n_qubits)
    return steps, parity % 2 == 1
