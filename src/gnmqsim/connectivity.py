"""Modifiable contact-network store with write-cost accounting.

Holds the cutoff graph of a structure as one node table per row, a dict
keyed by neighbour id, and supports local edits: moving, adding, and
removing atoms and changing a mass. Reads come straight from a row's node
table and are not priced. The tables' child pointers thread each row into
an ordered binary search tree that prices writes: every edit reports
`changed_values`, the number of logical stored words it rewrote, which a
table resynthesis downstream would have to touch. The accounting is:

    new tree node        3  (key + two child pointers)
    pointer/key update   1
    row degree counter   1
    position update      3
    mass update          1
    grid membership      2  (leave one cell, enter another)

Each edit's total is asserted against the contract bound
(d_new + d_old + 1) * (ceil(log2 N) + 8); inserts and deletes touch O(1)
words because only leaf attachment and splice pointers are written, never
whole search paths.

Contacts come from `network`, so the store and `build_gnm` agree on every
pair: a build takes them from its contact search (coincident sites stay
connected, with a warning); an edit tests with `within_cutoff` the sites
of a cell grid whose side `_cell_side` fixes once, from the sites built
from. `restore` builds from a snapshot's slots and rejects a file that is
truncated, has bytes after its labels or lists other contacts.

The GNM convention holds throughout: row i enumerates exactly the
neighbors within the cutoff (never i itself); the self-term is implicit
as degree * spring.
"""
from __future__ import annotations

import itertools
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParseError
from .network import _cell_side, _contact_edges, within_cutoff
from .structure import DEFAULT_GNM_CUTOFF, ProteinStructure

SENTINEL = -1
_MAGIC = b"GQKP"
_VERSION = 1
_COST_C0 = 8
_SLOT = np.dtype([("active", "u1"), ("pos", "<f8", 3), ("mass", "<f8")])


def _position(name: str, pos) -> np.ndarray:
    """`pos` as 3 finite coordinates; ValueError naming `name` otherwise."""
    p = np.asarray(pos, dtype=float)
    if p.shape != (3,) or not np.isfinite(p).all():
        raise ValueError(f"{name} must be 3 finite coordinates, got {pos!r}")
    return p


def _mass(mass) -> float:
    m = float(mass)
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"mass must be finite and positive, got {mass!r}")
    return m


@dataclass(frozen=True)
class ModificationReport:
    """Cost accounting for one store edit."""

    kind: str
    changed_values: int
    affected_rows: int
    degree_before: int
    degree_after: int
    bound: int


class ConnectivityStore:
    """Cutoff graph of point sites under local modification.

    Row i's neighbour set is the key set of its node table `_nodes[i]`,
    which every query reads; only `_tree_insert` and `_tree_delete` walk
    the per-row BSTs (from `_roots`), attaching or splicing single nodes
    to price edits. Ids are stable: removed sites leave inactive slots.
    """

    def __init__(self, structure: ProteinStructure,
                 cutoff: float = DEFAULT_GNM_CUTOFF, spring: float = 1.0):
        self._build(structure, [True] * structure.n_atoms, cutoff, spring)

    def _build(self, structure: ProteinStructure, active, cutoff: float,
               spring: float) -> np.ndarray:
        """Set every field: a slot per site, flagged by `active`, and the
        contacts among active sites, inserted and returned as (e, 2) slot
        ids i < j in lexicographic order, so rows get their keys ascending."""
        self.cutoff, self.spring, self.source_id = float(cutoff), float(spring), structure.source_id
        self._positions: list[np.ndarray] = [p.copy() for p in structure.positions]
        self._masses: list[float] = structure.masses.tolist()
        self._labels: list[str] = list(structure.labels)
        self._active: list[bool] = [bool(a) for a in active]
        self._roots: list[int | None] = [None] * structure.n_atoms
        self._nodes: list[dict[int, list]] = [dict() for _ in range(structure.n_atoms)]
        ids = np.flatnonzero(self._active)
        sites = ProteinStructure(structure.positions[ids], structure.masses[ids],
                                 [structure.labels[k] for k in ids])
        i, j, _, _ = _contact_edges(sites, self.cutoff, allow_coincident=True, stacklevel=4)
        self._side = _cell_side(self.cutoff, sites.positions)
        self._grid: dict[tuple, set[int]] = {}
        for k in ids.tolist():
            self._grid.setdefault(self._cell(self._positions[k]), set()).add(k)
        edges, self._writes = ids[np.column_stack([i, j])], 0
        for a, b in edges.tolist():
            self._tree_insert(a, b)
            self._tree_insert(b, a)
        self._writes = 0  # construction cost is not a modification cost
        return edges

    # -- basic properties ---------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self._active)

    @property
    def active_ids(self) -> list[int]:
        return [i for i, a in enumerate(self._active) if a]

    def degree(self, i: int) -> int:
        self._check_active(i)
        return len(self._nodes[i])

    def position(self, i: int) -> np.ndarray:
        self._check_active(i)
        return self._positions[i].copy()

    def mass(self, i: int) -> float:
        self._check_active(i)
        return self._masses[i]

    def _check_active(self, i: int):
        if not (0 <= i < self.n_slots and self._active[i]):
            raise KeyError(f"no active site with id {i}")

    def _cell(self, pos) -> tuple:
        return tuple(int(math.floor(c / self._side)) for c in pos)

    def _grid_neighbors(self, pos, exclude: int) -> list[int]:
        cx, cy, cz = self._cell(pos)
        cand = sorted(j for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
                      for j in self._grid.get((cx + dx, cy + dy, cz + dz), ())
                      if j != exclude)
        near = within_cutoff(np.reshape(pos, (1, 3)),
                             np.reshape([self._positions[j] for j in cand], (-1, 3)),
                             self.cutoff)[0]
        return [j for j, hit in zip(cand, near) if hit]

    def _warn_coincident(self, i: int, pos, nbrs) -> None:
        """Warn at the public caller, as a build does, when site i at `pos`
        sits exactly on any of its neighbours `nbrs`."""
        same = sorted(j for j in nbrs if (d := pos - self._positions[j]) @ d == 0.0)
        if same:
            more = f" (and {len(same) - 1} more pairs)" if len(same) > 1 else ""
            warnings.warn("atoms %d and %d coincide%s; treated as connected"
                          % (*sorted((i, same[0])), more), stacklevel=3)

    # -- counted primitive writes -------------------------------------------

    def _tree_insert(self, row: int, key: int) -> None:
        nodes = self._nodes[row]
        nodes[key] = [None, None]
        self._writes += 3  # key word + two child pointers
        root = self._roots[row]
        if root is None:
            self._roots[row] = key
            self._writes += 1
        else:
            cur = root
            while True:
                branch = 1 if key > cur else 0
                nxt = nodes[cur][branch]
                if nxt is None:
                    nodes[cur][branch] = key
                    self._writes += 1
                    break
                cur = nxt
        self._writes += 1  # row degree counter

    def _tree_delete(self, row: int, key: int) -> None:
        nodes = self._nodes[row]
        parent, branch = None, None
        cur = self._roots[row]
        while cur != key:
            parent, branch = cur, (1 if key > cur else 0)
            cur = nodes[cur][branch]
        left, right = nodes[key]
        if left is not None and right is not None:
            # overwrite with the in-order successor's key, splice successor
            sparent, succ = key, right
            while nodes[succ][0] is not None:
                sparent, succ = succ, nodes[succ][0]
            sright = nodes[succ][1]
            del nodes[succ]
            if sparent == key:
                right = sright
            else:
                nodes[sparent][0] = sright
                self._writes += 1
            del nodes[key]
            nodes[succ] = [left, right]
            # key doubles as the node address here, so rekeying also
            # repoints the parent; logically one word changed
            if parent is None:
                self._roots[row] = succ
            else:
                nodes[parent][branch] = succ
            self._writes += 1
        else:
            child = left if right is None else right
            del nodes[key]
            if parent is None:
                self._roots[row] = child
            else:
                nodes[parent][branch] = child
            self._writes += 1
        self._writes += 1  # row degree counter

    def _grid_move(self, i: int, new_pos) -> None:
        old_cell = self._cell(self._positions[i])
        new_cell = self._cell(new_pos)
        if old_cell != new_cell:
            self._grid[old_cell].discard(i)
            self._grid.setdefault(new_cell, set()).add(i)
            self._writes += 2

    # -- queries --------------------------------------------------------------

    def neighbors(self, i: int) -> list[int]:
        """Ascending neighbor ids of row i."""
        self._check_active(i)
        return sorted(self._nodes[i])

    def query_sparse(self, i: int, k: int) -> int:
        """k-th smallest neighbor id of row i; SENTINEL past the degree."""
        nbrs = self.neighbors(i)
        if k < 0:
            raise ValueError("slot index must be nonnegative")
        return nbrs[k] if k < len(nbrs) else SENTINEL

    def query_entry(self, i: int, j: int) -> float:
        """Stiffness entry: degree*spring on the diagonal, -spring per edge."""
        self._check_active(i)
        self._check_active(j)
        if i == j:
            return len(self._nodes[i]) * self.spring
        return -self.spring if j in self._nodes[i] else 0.0

    # -- modifications ---------------------------------------------------------

    def _cost_bound(self, d_old: int, d_new: int) -> int:
        log_n = math.ceil(math.log2(max(self.n_slots, 2)))
        return (d_new + d_old + 1) * (log_n + _COST_C0)

    def _finish(self, kind: str, d_old: int, d_new: int,
                affected: int) -> ModificationReport:
        bound = self._cost_bound(d_old, d_new)
        report = ModificationReport(kind=kind, changed_values=self._writes,
                                    affected_rows=affected,
                                    degree_before=d_old, degree_after=d_new,
                                    bound=bound)
        self._writes = 0
        if report.changed_values > bound:
            raise NumericalError(f"{kind} rewrote {report.changed_values} "
                                 f"words, above the bound {bound}")
        return report

    def move_atom(self, i: int, new_pos) -> ModificationReport:
        """Move a site; only rows whose contact set changed are touched."""
        self._check_active(i)
        new_pos = _position("new_pos", new_pos)
        old_nbrs = set(self._nodes[i])
        new_nbrs = set(self._grid_neighbors(new_pos, exclude=i))
        self._warn_coincident(i, new_pos, new_nbrs)
        for j in sorted(old_nbrs - new_nbrs):
            self._tree_delete(i, j)
            self._tree_delete(j, i)
        for j in sorted(new_nbrs - old_nbrs):
            self._tree_insert(i, j)
            self._tree_insert(j, i)
        self._grid_move(i, new_pos)
        self._positions[i] = new_pos.copy()
        self._writes += 3
        affected = 1 + len(old_nbrs ^ new_nbrs)
        return self._finish("move", len(old_nbrs), len(new_nbrs), affected)

    def add_atom(self, pos, mass: float = 1.0, label: str = "X") -> tuple[int, ModificationReport]:
        pos, mass = _position("pos", pos), _mass(mass)
        i = self.n_slots
        self._positions.append(pos.copy())
        self._masses.append(mass)
        self._labels.append(label)
        self._active.append(True)
        self._roots.append(None)
        self._nodes.append(dict())
        self._writes += 4  # position + mass
        self._grid.setdefault(self._cell(pos), set()).add(i)
        self._writes += 1
        nbrs = self._grid_neighbors(pos, exclude=i)
        self._warn_coincident(i, pos, nbrs)
        for j in nbrs:
            self._tree_insert(i, j)
            self._tree_insert(j, i)
        return i, self._finish("add", 0, len(nbrs), 1 + len(nbrs))

    def remove_atom(self, i: int) -> ModificationReport:
        """Deactivate a site; its slot id is never reused."""
        self._check_active(i)
        nbrs = self.neighbors(i)
        for j in nbrs:
            self._tree_delete(j, i)
            self._tree_delete(i, j)
        self._grid[self._cell(self._positions[i])].discard(i)
        self._active[i] = False
        self._writes += 2
        return self._finish("remove", len(nbrs), 0, 1 + len(nbrs))

    def set_mass(self, i: int, mass: float) -> ModificationReport:
        self._check_active(i)
        self._masses[i] = _mass(mass)
        self._writes += 1
        d = len(self._nodes[i])
        return self._finish("set_mass", d, d, 1)

    # -- views and export -------------------------------------------------------

    def to_structure(self) -> ProteinStructure:
        """Active sites as a compacted structure (ids renumbered from 0)."""
        ids = self.active_ids
        return ProteinStructure(
            positions=np.array([self._positions[i] for i in ids]),
            masses=np.array([self._masses[i] for i in ids]),
            labels=[self._labels[i] for i in ids],
            source_id=self.source_id,
        )

    def export_tables(self) -> dict:
        """Flat lookup tables over active sites with compacted indices.

        j_table[r, k] is the k-th smallest neighbor (compacted index) of
        compacted row r, SENTINEL (-1) past the degree; diag[r] holds
        degree * spring. Rows are padded to the maximum degree (at least
        one slot).
        """
        ids = self.active_ids
        compact = {atom_id: r for r, atom_id in enumerate(ids)}
        width = max([1, *(len(self._nodes[i]) for i in ids)])
        j_table = np.full((len(ids), width), SENTINEL, dtype=np.int64)
        diag = np.zeros(len(ids))
        for r, atom_id in enumerate(ids):
            nbrs = [compact[j] for j in self.neighbors(atom_id)]
            j_table[r, :len(nbrs)] = nbrs
            diag[r] = len(nbrs) * self.spring
        return {"j_table": j_table, "diag": diag, "spring": self.spring,
                "ids": ids}

    # -- equality and persistence -------------------------------------------------

    def state_tuple(self):
        ids = self.active_ids
        return (
            round(self.cutoff, 12), round(self.spring, 12), tuple(ids),
            tuple(tuple(self._positions[i]) for i in ids),
            tuple(self._masses[i] for i in ids),
            tuple(tuple(self.neighbors(i)) for i in ids),
        )

    def __eq__(self, other):
        if not isinstance(other, ConnectivityStore):
            return NotImplemented
        return self.state_tuple() == other.state_tuple()

    def snapshot(self, path) -> None:
        """Binary dump (v1), little-endian fixed-width words: header, slots,
        contacts i < j, then the NUL-joined labels, each list counted."""
        slots = np.array(list(zip(self._active, self._positions, self._masses)), _SLOT)
        edges = np.array([(i, j) for i in self.active_ids for j in self.neighbors(i)
                          if j > i], dtype="<u4")
        labels = "\x00".join(self._labels).encode()
        with open(path, "wb") as fh:
            fh.write(b"".join([_MAGIC, struct.pack("<IIdd", _VERSION, self.n_slots,
                                                   self.cutoff, self.spring),
                               slots.tobytes(), struct.pack("<Q", len(edges)),
                               edges.tobytes(), struct.pack("<Q", len(labels)), labels]))

    @classmethod
    def restore(cls, path) -> "ConnectivityStore":
        """Rebuild a v1 `snapshot`; ParseError if the file is malformed."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise ParseError("not a connectivity snapshot (bad magic)")
        off = 4

        def read(dtype, count: int) -> np.ndarray:
            nonlocal off
            size = np.dtype(dtype).itemsize * count
            if len(blob) - off < size:
                raise ParseError(f"connectivity snapshot truncated at byte {len(blob)}")
            off += size
            return np.frombuffer(blob, dtype, count, off - size)

        version, n_slots = read("<u4", 2).tolist()
        if version != _VERSION:
            raise ParseError(f"unsupported snapshot version {version}")
        cutoff, spring = read("<f8", 2).tolist()
        slots = read(_SLOT, n_slots)
        edges = read("<u4", 2 * int(read("<u8", 1)[0])).reshape(-1, 2)
        raw = read("u1", int(read("<u8", 1)[0])).tobytes()
        if off != len(blob):
            raise ParseError(f"{len(blob) - off} bytes after the snapshot's labels")
        store = cls.__new__(cls)
        try:
            labels = raw.decode().split("\x00") if raw else [""] * n_slots
            structure = ProteinStructure(positions=slots["pos"], masses=slots["mass"],
                                         labels=labels, source_id="snapshot")
            built = store._build(structure, slots["active"], cutoff, spring)
        except ValueError as exc:
            raise ParseError(f"bad connectivity snapshot: {exc}") from None
        if not np.array_equal(built, edges):
            raise ParseError("the snapshot's contacts disagree with its positions")
        return store
