"""Gate-level circuit construction and classical simulation.

A circuit is one columnar table, a row per gate, grouped by layer:
`kinds` holds int8 kind codes; `wires` the wires each gate acts on,
right-aligned and padded on the left with -1, controls first and the
target last; `params` CRY's angle, DIAG_SIGN's read-only +/-1 vector
(length 2**len(wires), indexed big-endian by the wire bits) or None; and
`layer_starts` the row offsets of the layers. Layerization is greedy,
placing each gate in the layer after the last earlier gate on any of its
wires, and keeps the build order within a layer.

`Circuit._from_columns` alone validates and groups rows by layer; its
caller supplies the layers. Rows that share no wire do not affect each
other's layers, so a block of them is placed in one numpy pass. The
decoder and the data loader build their rows as columns and key each row
by its block: a fanout round or one routing template across a level's
parents; one template row across an OR-tree level's pairs, the root CNOT
or a mirrored run of the reversed tree. A QROM stacks the two parts'
columns, each grouped by its own layers (the decoder, the loader, the
decoder reversed), and validates the stack once; each part's layer is
such a block. The parts' order within their layers sets the QROM's row
order within each of its layers: composed in build order they give the
same layers and resources but other text. The Gaussian tree
(`stateprep`) gives its layers in closed form. `from_gates` keeps the
row-by-row Python loop only for parsed text and the ensemble state.

Wire convention: wire 0 carries the most significant bit of a basis index,
so a register listed as wires (w0, w1, ...) reads its value big-endian.

`apply_basis` propagates basis states through the classical (permutation)
kinds only: what the one-hot decoder, data loader and QROM need for
exhaustive checks far beyond dense simulation. It walks a schedule cached
per circuit (whose table is read-only): the X rows folded into per-wire
parities, the other rows levelled by true data dependencies, one numpy
pass per layer, so a call takes O(levels) numpy steps, 33-59 where the
QROMs are 384-2268 layers deep. Circuits with non-classical gates, the
Gaussian state-prep tree and the ensemble purification, are not
simulated: `stateprep` gives their states in closed form.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParseError

# the classical (permutation) kinds take the lowest codes
X, CNOT, CCX, H, CRY, DIAG_SIGN = range(6)
KIND_NAMES = ("X", "CNOT", "CCX", "H", "CRY", "DIAG_SIGN")
_WIRE_RANGE = np.array([(1, 1), (2, 2), (2, np.inf), (1, 1), (1, np.inf),
                        (1, np.inf)])   # fewest and most wires, by kind code
_row_max = np.maximum.reduce   # skips `ndarray.max`'s Python wrapper
_RUNS = np.array([0, 0, 1, 2, 2, 2])   # a loader pair's rows, by shared-wire run


class RowError(ValueError):
    """A gate row failed validation; `row` is its index in the input rows,
    or in the layer-ordered table when the input is a built `Circuit`."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass
class Circuit:
    """A layered gate table on `n_qubits` wires (see the module docstring).

    meta carries builder bookkeeping (register wire lists, ancilla counts,
    reported permutations); no gate reads it.
    """

    n_qubits: int
    kinds: np.ndarray
    wires: np.ndarray
    params: list
    layer_starts: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_gates(cls, n_qubits: int, rows, meta: dict | None = None) -> "Circuit":
        """Validate and layerize `(kind, wires[, param])` rows; see RowError."""
        rows = list(rows)
        # at least one control column, which an X row pads with -1
        width = max([2, *(len(r[1]) for r in rows)])
        wires = np.array([(-1,) * (width - len(r[1])) + tuple(r[1]) for r in rows],
                         dtype=np.int64).reshape(-1, width)
        negative = (wires >= 0).sum(axis=1) < [len(r[1]) for r in rows]
        if np.any(negative):
            raise RowError(int(np.argmax(negative)), "has a negative wire")
        kinds = np.array([r[0] for r in rows], dtype=np.int64)
        params = [r[2] if len(r) > 2 else None for r in rows]
        return cls._from_columns(n_qubits, kinds, wires, params, meta,
                                 lambda w: _greedy_layers(w, n_qubits))

    @classmethod
    def _from_columns(cls, n_qubits, kinds, wires, params, meta,
                      layering) -> "Circuit":
        """Validate all rows at once, then group them by layer.

        `layering(wires)` gives each validated row's layer, in input order;
        rows keep their input order within a layer. `params` None means no
        row takes a parameter.
        """
        unknown = (kinds < 0) | (kinds >= len(KIND_NAMES))
        if np.any(unknown):
            raise RowError(int(np.argmax(unknown)), "unknown gate kind")
        widths = (wires >= 0).sum(axis=1)
        lo, hi = _WIRE_RANGE[kinds].T
        ordered = np.sort(wires, axis=1)
        duplicate = np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0), axis=1)
        del ordered   # a copy of the wire table: free it before the regrouping
        takes = np.isin(kinds, (CRY, DIAG_SIGN))
        has = (np.zeros(len(kinds), dtype=bool) if params is None
               else np.array([p is not None for p in params], dtype=bool))
        for bad, reason in (
                (widths < lo, "has too few wires"), (widths > hi, "has too many wires"),
                (wires.max(axis=1) >= n_qubits, f"has a wire beyond {n_qubits} qubits"),
                (duplicate, "has duplicate wires"),
                (has & ~takes, "takes no parameter"),
                (takes & ~has, "needs a parameter")):
            if np.any(bad):
                row = int(np.argmax(bad))
                raise RowError(row, f"{KIND_NAMES[kinds[row]]} {reason}")
        for row in np.flatnonzero(kinds == CRY).tolist():
            params[row] = float(params[row])
        for row in np.flatnonzero(kinds == DIAG_SIGN).tolist():
            signs = np.asarray(params[row], dtype=float)
            if signs.shape != (2 ** int(widths[row]),) or np.any(np.abs(signs) != 1.0):
                raise RowError(row, "DIAG_SIGN needs 2**len(wires) signs of +-1")
            signs.setflags(write=False)
            params[row] = signs

        layer = layering(wires)
        order = np.argsort(layer, kind="stable")
        kinds = kinds[order].astype(np.int8)
        # one Fortran-ordered copy (mode "clip" lets take fill `out` unbuffered)
        wires = np.take(wires, order, axis=0, mode="clip",
                        out=np.empty(wires.shape, wires.dtype, order="F"))
        layer_starts = np.cumsum([0, *np.bincount(layer)])
        for arr in (kinds, wires, layer_starts):
            arr.flags.writeable = False   # so the cached `_schedule` holds
        params = ([params[i] for i in order.tolist()] if takes.any()
                  else [None] * len(kinds))
        return cls(n_qubits=n_qubits, kinds=kinds, wires=wires, params=params,
                   layer_starts=layer_starts, meta=meta or {})

    @cached_property
    def _schedule(self):
        """`apply_basis`'s evaluation schedule, built on first use."""
        return _build_schedule(self)

    @property
    def depth(self) -> int:
        return len(self.layer_starts) - 1

    def rows(self):
        """(kind, wires, param) of every gate in layer order, unpadded."""
        for kind, wires, param in zip(self.kinds.tolist(), self.wires.tolist(),
                                      self.params):
            yield kind, tuple(wires[wires.count(-1):]), param


def _greedy_layers(wires: np.ndarray, n_qubits: int) -> np.ndarray:
    """Each row's greedy layer, one Python step per row: the layer after
    the last earlier row on any of its wires."""
    next_free = [0] * (n_qubits + 1)   # the last slot is read by padding
    free_at = next_free.__getitem__
    layer = []
    for row in zip(*wires.T.tolist()):
        at = max(map(free_at, row))
        for w in row:
            next_free[w] = at + 1
        next_free[-1] = 0
        layer.append(at)
    return np.array(layer, dtype=np.int64)


def _block_layers(wires: np.ndarray, starts, n_qubits: int) -> np.ndarray:
    """`_greedy_layers` of rows handed over block by block, one numpy pass
    per block; `starts` are the blocks' row offsets. The rows of a block
    share no wire, and two rows that do share one come in build order, so
    each row sees the same free layers as in the row-by-row loop."""
    next_free = np.zeros(n_qubits + 1, dtype=np.int64)   # last slot: padding
    layer = np.empty(len(wires), dtype=np.int64)
    starts = starts.tolist()
    for a, b in zip(starts[:-1], starts[1:]):
        block = wires[a:b]
        at = layer[a:b] = _row_max(next_free[block], axis=1)
        at += 1
        next_free[block] = at[:, None]
        next_free[-1] = 0
    return layer


def _build_schedule(circuit: Circuit):
    """`apply_basis`'s (controls, polarities, targets) per level, and each
    wire's X parity. The X rows are folded out: a control's polarity is the
    parity of the X rows on its wire before its row. A row goes one level
    after the last write to each control and after the last write and read
    of its target, so rows that only read a wire share a level. The rows of
    one layer share no wire, so each layer is levelled in one numpy pass."""
    kinds, r = circuit.kinds, len(circuit.kinds)
    if r and kinds.max() > CCX:
        row = int(np.argmax(kinds > CCX))
        raise RowError(row, f"{KIND_NAMES[kinds[row]]} gate is not "
                            "classical; only X, CNOT and CCX are accepted")
    flipped = kinds == X
    rows = np.flatnonzero(~flipped)
    wires = circuit.wires[rows]
    flips = np.sort(circuit.wires[flipped, -1] * r + np.flatnonzero(flipped))
    keys = wires[:, :-1] * r   # the pad's negative keys precede every flip
    polarity = (np.searchsorted(flips, keys + rows[:, None])
                - np.searchsorted(flips, keys)) % 2 == 1
    # state slots: `readable` (one level past the last write) of each wire
    # and of the padding, which stays 0, then `writable` (past the last
    # write and read); writable >= readable, so a row's update is one
    # maximum over its controls' writable and its target's two slots
    n = circuit.n_qubits
    controls, targets = wires[:, :-1], wires[:, -1:]
    reads = np.hstack([np.where(controls < 0, n, controls), targets + n + 1])
    writes = np.hstack([np.where(controls < 0, 2 * n + 1, controls + n + 1),
                        targets, targets + n + 1])
    state = np.zeros(2 * n + 2, dtype=np.int64)
    levels = np.empty(len(rows), dtype=np.int64)
    starts = np.unique(np.searchsorted(rows, circuit.layer_starts)).tolist()
    for a, b in zip(starts[:-1], starts[1:]):
        at = levels[a:b] = _row_max(state[reads[a:b]], axis=1)
        at += 1
        block = writes[a:b]
        state[block] = np.maximum(state[block], at[:, None])
    # by level, one contiguous index array per control column and level
    order = np.argsort(levels, kind="stable")
    cuts = np.cumsum(np.bincount(levels))[:-1]
    wires, polarity = (np.split(np.ascontiguousarray(a[order].T), cuts, axis=1)
                       for a in (wires, polarity))
    steps = [(w[:-1], p, w[-1]) for w, p in zip(wires, polarity)]
    parity = np.bincount(circuit.wires[flipped, -1], minlength=circuit.n_qubits)
    return steps, parity % 2 == 1


def bits_of(value: int, width: int) -> list[int]:
    """Big-endian bit list of `value` (index 0 = most significant)."""
    return [(value >> (width - 1 - k)) & 1 for k in range(width)]


def value_of(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def apply_basis(circuit: Circuit, bits):
    """Propagate basis states through classical gates (X, CNOT, CCX only).

    `bits` is one string of 0s and 1s, returned as a list[int], or a (batch,
    n_qubits) array, returned as a uint8 array of that shape. The state is
    one bit-plane per wire, across the batch, plus an always-1 plane that
    the -1 padding reads. Per level of the cached schedule, target ^=
    AND(plane[c] XOR polarity_c); the X parities are XORed in at the end,
    so a call takes O(levels) numpy steps. Any other gate kind raises
    RowError naming its row in the table.
    """
    try:  # a list of ints in 0..255 converts fastest through bytes
        state = (np.frombuffer(bytes(bits), np.uint8) if isinstance(bits, list)
                 else np.asarray(bits))
    except (TypeError, ValueError):  # floats, nested lists, -1, 256, ...
        state = np.asarray(bits)
    n = circuit.n_qubits
    if state.ndim not in (1, 2) or state.shape[-1] != n:
        raise ValueError(f"bits has shape {state.shape}, circuit has {n} qubits")
    bad = (state != 0) & (state != 1)
    if bad.any():
        at = ", ".join(map(str, np.argwhere(bad)[0]))
        raise ValueError(f"bits[{at}] = {state[bad][0]} is not 0 or 1")
    steps, parity = circuit._schedule
    planes = np.ones((n + 1, *state.shape[:-1]), dtype=bool)
    planes[:n] = state.T
    for controls, polarities, targets in steps:
        if state.ndim == 2:
            polarities = polarities[..., None]   # across the batch
        flip = planes[controls[0]] ^ polarities[0]
        for column, polarity in zip(controls[1:], polarities[1:]):
            flip &= planes[column] ^ polarity
        planes[targets] ^= flip
    out = (planes[:n].T ^ parity).astype(np.uint8)
    return out.tolist() if state.ndim == 1 else out


def resources(circuit: Circuit) -> dict:
    """Depth, gate count, qubit count, and ancilla count of a circuit."""
    return {
        "depth": circuit.depth,
        "gates": len(circuit.kinds),
        "qubits": circuit.n_qubits,
        "ancillas": int(circuit.meta.get("n_ancillas", 0)),
    }


# -- text serialization ------------------------------------------------------

def serialize_circuit(circuit: Circuit) -> str:
    """One gate per line: KIND wire[,wire...] [param].

    CRY's param is the angle in full repr precision; DIAG_SIGN's is its
    sign vector as a +/- string. A header line records the qubit count.
    """
    lines = [f"# qubits {circuit.n_qubits}"]
    for kind, wires, param in circuit.rows():
        line = f"{KIND_NAMES[kind]} {','.join(str(w) for w in wires)}"
        if kind == CRY:
            line += f" {param!r}"
        elif kind == DIAG_SIGN:
            line += " " + "".join("+" if s > 0 else "-" for s in param)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Read `serialize_circuit` text; malformed input raises ParseError."""
    n_qubits = None
    rows, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "qubits":
                try:
                    n_qubits = int(parts[1])
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad qubit count") from exc
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'KIND wires [param]'")
        # an unknown name gets code -1, which `from_gates` rejects
        kind = KIND_NAMES.index(parts[0]) if parts[0] in KIND_NAMES else -1
        try:
            wires = tuple(int(w) for w in parts[1].split(","))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad wire list {parts[1]!r}") from exc
        param = None
        if len(parts) == 3:
            if kind == DIAG_SIGN:
                if set(parts[2]) - {"+", "-"}:
                    raise ParseError(f"line {lineno}: bad sign string {parts[2]!r}")
                param = np.array([1.0 if ch == "+" else -1.0 for ch in parts[2]])
            else:
                try:
                    param = float(parts[2])
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad parameter") from exc
        rows.append((kind, wires, param))
        linenos.append(lineno)
    if n_qubits is None:
        n_qubits = 1 + max((max(r[1]) for r in rows), default=0)
    try:
        return Circuit.from_gates(n_qubits, rows)
    except RowError as exc:
        raise ParseError(f"line {linenos[exc.row]}: {exc.reason}") from exc


# -- one-hot decoder ---------------------------------------------------------

def decoder_permutation(n_address: int) -> list[int]:
    """Reported one-hot assignment: address i lights output wire i XOR 1."""
    return [i ^ 1 for i in range(2 ** n_address)]


def build_decoder(n_address: int) -> Circuit:
    """Unary decoder: |i>|0...> -> |i> |e_{pi(i)}> with pi(i) = i XOR 1.

    The address register is preserved. Construction is a routing tree,
    branching on address bits most-significant first; each level's shared
    address bit is copied across parents with a CNOT fanout tree that is
    uncomputed within the level. Interior routing wires keep the hot path
    (cleared again by the inverse pass inside a QROM). For one address bit
    the circuit is the minimal 4-gate form.

    meta: address_wires, onehot_wires, pi, n_ancillas.
    """
    if n_address < 1:
        raise ValueError("decoder needs at least one address bit")
    wires, layer, meta = _decoder_columns(n_address)
    return _classical(meta.pop("n_qubits"), wires, layer, meta)


def _decoder_columns(n: int):
    """`build_decoder`'s 3-wide padded wires and layers, grouped by layer,
    and its meta with the wire count under "n_qubits"."""
    N = 2 ** n
    # level j's path wires: interior levels j = 1..n-1 hold 2^j wires from
    # n + N + 2^j - 2 on; level n is the one-hot block
    first = [n, *(n + N + 2 ** j - 2 for j in range(1, n)), n]
    next_wire = n + 2 * N - 2   # the copy pool
    meta = {"address_wires": list(range(n)), "onehot_wires": list(range(n, n + N)),
            "pi": decoder_permutation(n),
            "scratch_wires": list(range(n + N, next_wire))}
    # the root level; with one address bit it is the leaf level, flipped
    v0, v1 = (first[1], first[1] + 1) if n > 1 else (n + 1, n)
    blocks = [np.array([[-1, 0, v1], [-1, -1, 0], [-1, 0, v0], [-1, -1, 0]])]
    keys, n_keys = [np.arange(4)], 4
    # each row's block key: a fanout round, the CCX, first or second CNOT
    # of every parent, or a reversed round; keys ascend in build order
    for j in range(2, n + 1):
        n_parents = 2 ** (j - 1)
        parent = first[j - 1] + np.arange(n_parents)
        child = first[j] + np.arange(2 * n_parents).reshape(-1, 2)
        control = np.r_[j - 1, next_wire:next_wire + n_parents - 1]
        next_wire += n_parents - 1
        # fan the level's address bit out, the sources doubling each round:
        # control q > 0 copies control q - 2^floor(log2 q)
        q = np.arange(1, n_parents)
        rounds = np.frexp(q)[1] - 1
        fanout = np.c_[np.full(len(q), -1), control[q - (1 << rounds)], control[q]]
        # the CCX sets one child, the CNOTs set the other, flipped at leaves
        # so that pi(i) = i XOR 1
        x, y = (child[:, 0], child[:, 1]) if j == n else (child[:, 1], child[:, 0])
        pad = np.full(n_parents, -1)
        route = np.stack([np.c_[parent, control, x], np.c_[pad, parent, y],
                          np.c_[pad, x, y]], 1).reshape(-1, 3)
        blocks += [fanout, route, fanout[::-1]]
        keys += [n_keys + rounds, n_keys + j - 1 + np.tile(np.arange(3), n_parents),
                 n_keys + 2 * j - rounds[::-1]]
        n_keys += 2 * j + 1
    meta.update(copy_wires=list(range(n + 2 * N - 2, next_wire)),
                n_ancillas=next_wire - n - N, n_qubits=next_wire)
    return *_keyed_layers(np.concatenate(blocks), np.concatenate(keys), next_wire), meta


# -- dictionary data loader --------------------------------------------------

def _word(name: str, key, value, width: int) -> int:
    """`value` as an int in [0, 2**width), or ValueError naming name[key]."""
    try:
        word = operator.index(value)   # numpy integers pass, floats do not
    except TypeError:
        raise ValueError(f"{name}[{key}] = {value} is not an integer") from None
    if not 0 <= word < 2 ** width:
        raise ValueError(f"{name}[{key}] = {value} does not fit in {width} bits")
    return word


def build_data_loader(dictionary: dict[int, int], n_onehot: int,
                      word_width: int) -> Circuit:
    """Write data words conditioned on one-hot input wires.

    dictionary maps one-hot wire index (0-based, < n_onehot) to an integer
    word in [0, 2**word_width), else ValueError names the index; bit t of
    a word drives output wire t. Per output bit, the hot wires carrying
    that bit, in ascending order, feed an OR tree built one level at a
    time: consecutive pairs (a, b) each OR into a fresh ancilla z through
    the rows X a, X b, CCX a b z, X a, X b, X z (a NOR, then flipped), and
    an unpaired last wire moves up unchanged. The
    rows for one bit are the tree, one CNOT from its root to the output,
    then the tree reversed, so all OR ancillas return to 0.

    meta: onehot_wires, output_wires, n_ancillas.
    """
    for idx in dictionary:
        if not 0 <= idx < n_onehot:
            raise ValueError(f"one-hot index {idx} outside [0, {n_onehot})")
    dictionary = {idx: _word("dictionary", idx, word, word_width)
                  for idx, word in dictionary.items()}
    wires, layer, n_qubits = _loader_columns(dictionary, n_onehot, word_width)
    meta = {"onehot_wires": list(range(n_onehot)),
            "output_wires": list(range(n_onehot, n_onehot + word_width)),
            "n_ancillas": n_qubits - n_onehot - word_width}
    return _classical(n_qubits, wires, layer, meta)


def _loader_columns(dictionary: dict[int, int], n_onehot: int, word_width: int):
    """`build_data_loader`'s 3-wide padded wires and layers, grouped by
    layer, and its wire count, for a dictionary already checked."""
    hot = sorted(dictionary)
    next_wire = n_onehot + word_width
    # each row's block key: a block is one template row across a tree
    # level's pairs, in three runs that share no wire (X a and X b; the
    # CCX; X a, X b and X z), the root CNOT, or a mirrored run of the
    # reversed tree; keys ascend in build order from block to block
    blocks = [np.empty((0, 3), dtype=np.int64)]   # padded wires, 3 wide
    keys, n_keys = [np.empty(0, dtype=np.int64)], 0
    for t in range(word_width):
        current = np.array([i for i in hot if (dictionary[i] >> t) & 1], np.int64)
        if not current.size:
            continue
        tree, tree_keys = blocks[:1], keys[:1]   # empty, for one hot wire
        while len(current) > 1:
            a, b = current[0:-1:2], current[1::2]
            z = np.arange(next_wire, next_wire + len(b))
            next_wire += len(b)
            # per pair: X a, X b, CCX a b z, X a, X b, X z
            level = np.full((len(b), 6, 3), -1)
            level[:, 0::3, 2] = a[:, None]
            level[:, 1::3, 2] = b[:, None]
            level[:, 2::3, 2] = z[:, None]
            level[:, 2, 0], level[:, 2, 1] = a, b
            runs = np.full((len(b), 1), 3 * (len(tree) - 1)) + _RUNS
            tree.append(level.reshape(-1, 3))
            tree_keys.append(runs.ravel())
            current = np.concatenate([z, current[2 * len(b):]])
        root = 3 * (len(tree) - 1)   # three runs per level
        tree, tree_keys = np.concatenate(tree), np.concatenate(tree_keys)
        blocks += [tree, [[-1, current[0], n_onehot + t]], tree[::-1]]
        keys += [n_keys + tree_keys, [n_keys + root],
                 n_keys + 2 * root - tree_keys[::-1]]
        n_keys += 2 * root + 1
    return *_keyed_layers(np.concatenate(blocks), np.concatenate(keys), next_wire), next_wire


def _keyed_layers(wires: np.ndarray, keys: np.ndarray, n_qubits: int):
    """Rows keyed into blocks that share no wire, and their greedy layers,
    both grouped by layer; the keys of rows that share a wire ascend in
    build order, so `_block_layers` in key order sees the same layers."""
    by_block = np.argsort(keys, kind="stable")
    layer = np.empty(len(keys), dtype=np.int64)
    layer[by_block] = _block_layers(wires[by_block], np.cumsum([0, *np.bincount(keys)]),
                                    n_qubits)
    order = np.argsort(layer, kind="stable")
    return wires[order], layer[order]


def _classical(n_qubits: int, wires: np.ndarray, layer: np.ndarray, meta: dict) -> Circuit:
    """The circuit of X, CNOT and CCX rows given as 3-wide wires and layers."""
    kinds = (wires >= 0).sum(axis=1) - 1   # X, CNOT, CCX act on 1, 2, 3 wires
    # without a CCX row the table is 2 wide, as `from_gates` would build it
    return Circuit._from_columns(n_qubits, kinds, wires[:, int(CCX not in kinds):],
                                 None, meta, lambda _: layer)


# -- QROM and oracles --------------------------------------------------------

def build_qrom(table, word_width: int) -> Circuit:
    """Table lookup |i>|0^m> -> |i>|table[i]> via decode, load, un-decode.

    The table is padded with zero words to the next power of two; reading a
    padded address returns 0. All routing wires and OR ancillas are restored
    to |0> for every basis input. A word that is not an integer or does not
    fit in word_width bits raises ValueError naming its index.

    meta: address_wires, output_wires, n_address_bits, n_ancillas.
    """
    table = [_word("table", i, v, word_width) for i, v in enumerate(table)]
    if not table:
        raise ValueError("empty table")
    n = max(1, math.ceil(math.log2(len(table))))
    N = 2 ** n
    dec, dec_layer, dec_meta = _decoder_columns(n)
    # padded addresses hold the word 0, which loads nothing
    loader, load_layer, load_qubits = _loader_columns(
        {dec_meta["pi"][i]: v for i, v in enumerate(table) if v}, N, word_width)
    # loader wires map to the decoder's one-hot block, then outputs and OR
    # ancillas after the decoder's wires; the -1 padding reads the last entry
    out_base = dec_meta["n_qubits"]
    n_qubits = out_base + load_qubits - N
    lookup = np.concatenate([dec_meta["onehot_wires"],
                             np.arange(out_base, n_qubits), [-1]])
    # decoder and loader gates are X/CNOT/CCX, which are self-inverse: the
    # decoder's rows reversed undo it
    wires = np.concatenate([dec, lookup[loader], dec[::-1]])
    # each layer of a part is a block of rows that share no wire
    starts = np.cumsum([0, *np.bincount(dec_layer), *np.bincount(load_layer),
                        *np.bincount(dec_layer)[::-1]])
    meta = {
        "address_wires": dec_meta["address_wires"],
        "output_wires": list(range(out_base, out_base + word_width)),
        "n_address_bits": n,
        "table_size": len(table),
        "word_width": word_width,
        "n_ancillas": n_qubits - n - word_width,
    }
    return _classical(n_qubits, wires, _block_layers(wires, starts, n_qubits), meta)


def encode_fixed_point(value: float, bits: int, scale: float) -> int:
    """Two's-complement fixed-point code of `value` at resolution `scale`."""
    v = round(value / scale)
    if not -(2 ** (bits - 1)) <= v < 2 ** (bits - 1):
        raise ValueError(f"value {value} overflows {bits}-bit fixed point "
                         f"at scale {scale}")
    return v % (2 ** bits)


def decode_fixed_point(code: int, bits: int, scale: float) -> float:
    if code >= 2 ** (bits - 1):
        code -= 2 ** bits
    return code * scale


def build_position_oracle(structure, bits: int = 24,
                          scale: float = 1.0 / 256.0) -> Circuit:
    """QROM mapping atom index to fixed-point packed (x, y, z) coordinates.

    Each coordinate becomes a `bits`-wide two's-complement field at
    resolution `scale`; the word is x | y << bits | z << 2*bits. Overflow
    names the offending atom.
    """
    words = []
    for atom in structure.atoms:
        fields = []
        for coord in atom.position:
            try:
                fields.append(encode_fixed_point(coord, bits, scale))
            except ValueError as exc:
                raise ValueError(f"atom {atom.id}: {exc}") from exc
        words.append(fields[0] | fields[1] << bits | fields[2] << (2 * bits))
    circuit = build_qrom(words, 3 * bits)
    circuit.meta.update({"bits_per_coord": bits, "scale": scale})
    return circuit


def decode_position_word(word: int, bits: int, scale: float) -> tuple:
    mask = 2 ** bits - 1
    return tuple(decode_fixed_point((word >> (k * bits)) & mask, bits, scale)
                 for k in range(3))


def build_sparse_index_oracle(j_table: np.ndarray, n_sites: int) -> Circuit:
    """QROM over (row, slot) -> neighbor index with an all-ones sentinel.

    j_table is the (N, K) array of k-th smallest neighbor indices, with
    slots past a row's degree marked by -1; those map to the sentinel (the
    all-ones output word). The address is row bits then slot bits
    (row-major flattening); rows and slots are padded to powers of two
    with sentinel words. The output register is ceil(log2(n_sites + 1))
    bits wide so the sentinel collides with no real index.
    """
    j_table = np.asarray(j_table, dtype=np.int64)
    n_rows, n_slots = j_table.shape
    out_bits = max(1, math.ceil(math.log2(n_sites + 1)))
    sentinel = 2 ** out_bits - 1
    if np.any(j_table >= sentinel):
        raise ValueError("neighbor index outside output register range")
    j_table = np.where(j_table < 0, sentinel, j_table)
    row_bits = max(1, math.ceil(math.log2(n_rows)))
    slot_bits = max(1, math.ceil(math.log2(n_slots)))
    padded = np.full((2 ** row_bits, 2 ** slot_bits), sentinel, dtype=np.int64)
    padded[:n_rows, :n_slots] = j_table
    circuit = build_qrom(padded.ravel().tolist(), out_bits)
    circuit.meta.update({"row_bits": row_bits, "slot_bits": slot_bits,
                         "sentinel": sentinel, "out_bits": out_bits})
    return circuit
