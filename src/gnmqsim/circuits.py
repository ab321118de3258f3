"""Gate-level circuit construction and classical simulation.

A circuit is one columnar table, a row per gate, grouped by layer:
`kinds` holds int8 kind codes; `wires` the wires each gate acts on,
right-aligned and padded on the left with -1, controls first and the
target last; `params` CRY's angle, DIAG_SIGN's read-only +/-1 vector
(length 2**len(wires), indexed big-endian by the wire bits) or None; and
`layer_starts` the row offsets of the layers. Layerization is greedy,
placing each gate in the earliest layer whose wires are free, and keeps
the given row order within a layer.

Builders emit their rows (the data loader as column blocks, the others as
tuples through `Circuit.from_gates`); `Circuit._from_columns` alone
validates and layers, with one greedy Python loop. A vectorised wavefront
takes one numpy pass per layer: faster on the wide QROMs, far slower on
the Gaussian tree, whose depth is close to its row count. A QROM
concatenates the layered tables of the decoder, the loader and the
decoder reversed, so the parts' order within their layers sets the
QROM's row order within each of its layers: composed in build order they
give the same layers and resources but other text.

Wire convention: wire 0 carries the most significant bit of a basis index,
so a register listed as wires (w0, w1, ...) reads its value big-endian.

`apply_basis` propagates basis states through the classical (permutation)
kinds only: what the one-hot decoder, data loader and QROM need for
exhaustive checks far beyond dense simulation. It walks a schedule cached
per circuit (whose table is read-only): the X rows folded into per-wire
parities, the other rows levelled by true data dependencies, so a call
takes O(levels) numpy steps, 33-59 where the QROMs are 384-2268 layers
deep. Circuits with non-classical gates, the Gaussian state-prep tree and
the ensemble purification, are not simulated: `stateprep` gives their
states in closed form.
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
        return cls._from_columns(n_qubits, kinds, wires, params, meta)

    @classmethod
    def _from_columns(cls, n_qubits, kinds, wires, params, meta) -> "Circuit":
        """Validate all rows at once, then layerize and group rows by layer."""
        unknown = (kinds < 0) | (kinds >= len(KIND_NAMES))
        if np.any(unknown):
            raise RowError(int(np.argmax(unknown)), "unknown gate kind")
        widths = (wires >= 0).sum(axis=1)
        lo, hi = _WIRE_RANGE[kinds].T
        ordered = np.sort(wires, axis=1)
        takes = np.isin(kinds, (CRY, DIAG_SIGN))
        has = np.array([p is not None for p in params], dtype=bool)
        for bad, reason in (
                (widths < lo, "has too few wires"), (widths > hi, "has too many wires"),
                (wires.max(axis=1) >= n_qubits, f"has a wire beyond {n_qubits} qubits"),
                (np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0),
                        axis=1), "has duplicate wires"),
                (has & ~takes, "takes no parameter"),
                (takes & ~has, "needs a parameter")):
            if np.any(bad):
                row = int(np.argmax(bad))
                raise RowError(row, f"{KIND_NAMES[kinds[row]]} {reason}")
        for row in np.flatnonzero(takes).tolist():
            if kinds[row] == CRY:
                params[row] = float(params[row])
                continue
            signs = np.asarray(params[row], dtype=float)
            if signs.shape != (2 ** int(widths[row]),) or np.any(np.abs(signs) != 1.0):
                raise RowError(row, "DIAG_SIGN needs 2**len(wires) signs of +-1")
            signs.setflags(write=False)
            params[row] = signs

        next_free = [0] * (n_qubits + 1)   # the last slot is read by padding
        free_at = next_free.__getitem__
        layer = []
        for row in zip(*wires.T.tolist()):
            at = max(map(free_at, row))
            for w in row:
                next_free[w] = at + 1
            next_free[-1] = 0
            layer.append(at)
        order = np.argsort(layer, kind="stable")
        kinds, wires = kinds[order].astype(np.int8), np.asfortranarray(wires[order])
        layer_starts = np.cumsum([0, *np.bincount(layer)])
        for arr in (kinds, wires, layer_starts):
            arr.flags.writeable = False   # so the cached `_schedule` holds
        return cls(n_qubits=n_qubits, kinds=kinds, wires=wires,
                   params=[params[i] for i in order.tolist()],
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


def _build_schedule(circuit: Circuit):
    """`apply_basis`'s (controls, polarities, targets) per level, and each
    wire's X parity. The X rows are folded out: a control's polarity is the
    parity of the X rows on its wire before its row. A row goes one level
    after the last write to each control and after the last write and read
    of its target, so rows that only read a wire share a level."""
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
    readable = [0] * (circuit.n_qubits + 1)   # one level past the last write
    writable = [0] * (circuit.n_qubits + 1)   # ... past the last write and read
    levels = []
    for *controls, target in wires.tolist():
        at = max(writable[target], *map(readable.__getitem__, controls))
        writable[target] = readable[target] = at + 1
        for w in controls:
            writable[w] = max(writable[w], at + 1)
        levels.append(at)
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
    n = n_address
    N = 2 ** n
    address = list(range(n))
    onehot = list(range(n, n + N))
    meta = {"address_wires": address, "onehot_wires": onehot,
            "pi": decoder_permutation(n)}
    next_wire = n + N
    # interior routing levels j = 1..n-1 hold 2^j path wires
    levels = []
    for j in range(1, n):
        levels.append(list(range(next_wire, next_wire + 2 ** j)))
        next_wire += 2 ** j
    levels.append(onehot)  # level n

    rows = []
    copy_pool_start = next_wire

    # the root level; with one address bit it is the leaf level, flipped
    v0, v1 = levels[0] if n > 1 else onehot[::-1]
    rows += [(CNOT, (address[0], v1)), (X, (address[0],)),
             (CNOT, (address[0], v0)), (X, (address[0],))]

    for j in range(2, n + 1):
        parents = levels[j - 2]
        children = levels[j - 1]
        bit_wire = address[j - 1]
        n_parents = len(parents)
        controls = [bit_wire, *range(next_wire, next_wire + n_parents - 1)]
        next_wire += n_parents - 1
        # fan the level's address bit out, the sources doubling each round:
        # control q > 0 copies control q - 2^floor(log2 q)
        fanout = [(CNOT, (controls[q - (1 << (q.bit_length() - 1))], controls[q]))
                  for q in range(1, n_parents)]
        rows += fanout
        leaf = j == n
        for p in range(n_parents):
            P, c = parents[p], controls[p]
            hi, lo = children[2 * p], children[2 * p + 1]
            if leaf:
                # flipped child order at the leaves: pi(i) = i XOR 1
                rows += [(CCX, (P, c, hi)), (CNOT, (P, lo)), (CNOT, (hi, lo))]
            else:
                rows += [(CCX, (P, c, lo)), (CNOT, (P, hi)), (CNOT, (lo, hi))]
        rows += fanout[::-1]

    meta["scratch_wires"] = list(range(n + N, copy_pool_start))
    meta["copy_wires"] = list(range(copy_pool_start, next_wire))
    meta["n_ancillas"] = next_wire - n - N
    return Circuit.from_gates(next_wire, rows, meta)


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
    hot = sorted(dictionary)
    next_wire = n_onehot + word_width
    blocks = [np.empty((0, 3), dtype=np.int64)]   # padded wires, 3 wide
    for t in range(word_width):
        current = np.array([i for i in hot if (dictionary[i] >> t) & 1], np.int64)
        if not current.size:
            continue
        tree = blocks[:1]   # the empty block, for a bit on one hot wire
        while len(current) > 1:
            a, b = current[0:-1:2], current[1::2]
            z = np.arange(next_wire, next_wire + len(b))
            next_wire += len(b)
            # per pair: X a, X b, CCX a b z, X a, X b, X z
            level = np.full((len(b), 6, 3), -1)
            level[:, :, 2] = np.stack([a, b, z, a, b, z], axis=1)
            level[:, 2, :2] = np.stack([a, b], axis=1)
            tree.append(level.reshape(-1, 3))
            current = np.concatenate([z, current[2 * len(b):]])
        tree = np.concatenate(tree)
        blocks += [tree, [[-1, current[0], n_onehot + t]], tree[::-1]]
    wires = np.concatenate(blocks)
    kinds = (wires >= 0).sum(axis=1) - 1   # X, CNOT, CCX act on 1, 2, 3 wires
    meta = {"onehot_wires": list(range(n_onehot)),
            "output_wires": list(range(n_onehot, n_onehot + word_width)),
            "n_ancillas": next_wire - n_onehot - word_width}
    # without a CCX row the table is 2 wide, as `from_gates` would build it
    return Circuit._from_columns(next_wire, kinds, wires[:, int(CCX not in kinds):],
                                 [None] * len(kinds), meta)


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

    dec = build_decoder(n)
    pi = dec.meta["pi"]
    # padded addresses hold the word 0, which loads nothing
    dictionary = {pi[i]: v for i, v in enumerate(table) if v}
    loader = build_data_loader(dictionary, N, word_width)
    # loader wires map to the decoder's one-hot block, then outputs and OR
    # ancillas after the decoder's wires; the -1 padding reads the last entry
    out_base = dec.n_qubits
    n_qubits = out_base + loader.n_qubits - N
    lookup = np.concatenate([dec.meta["onehot_wires"],
                             np.arange(out_base, n_qubits), [-1]])
    # decoder and loader gates are X/CNOT/CCX, which take no parameter and
    # are self-inverse: the decoder's rows reversed undo it
    kinds = np.concatenate([dec.kinds, loader.kinds, dec.kinds[::-1]])
    blocks = [dec.wires, lookup[loader.wires], dec.wires[::-1]]
    width = max(b.shape[1] for b in blocks)
    wires = np.concatenate([np.pad(b, ((0, 0), (width - b.shape[1], 0)),
                                   constant_values=-1) for b in blocks])
    meta = {
        "address_wires": dec.meta["address_wires"],
        "output_wires": list(range(out_base, out_base + word_width)),
        "n_address_bits": n,
        "table_size": len(table),
        "word_width": word_width,
        "n_ancillas": n_qubits - n - word_width,
    }
    return Circuit._from_columns(n_qubits, kinds, wires, [None] * len(kinds), meta)


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
