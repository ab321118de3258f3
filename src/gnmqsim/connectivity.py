"""Modifiable contact-network store with write-cost accounting.

Holds the cutoff graph of a structure in per-row ordered binary search
trees (plus a uniform spatial grid at cell edge = cutoff for neighbor
discovery), and supports local edits: moving, adding, and removing atoms
and changing a mass. Every edit reports `changed_values`, the number of
logical stored words the edit rewrote, which is the quantity a table
resynthesis downstream would have to touch. The accounting is:

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

Contacts are decided by `network.within_cutoff`, the test the network
builders apply, so the store and `build_gnm` agree on every pair.

The GNM convention holds throughout: row i enumerates exactly the
neighbors within the cutoff (never i itself); the self-term is implicit
as degree * spring.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParseError
from .network import within_cutoff
from .structure import DEFAULT_GNM_CUTOFF, ProteinStructure

SENTINEL = -1
_MAGIC = b"GQKP"
_VERSION = 1
_COST_C0 = 8


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

    Neighbor sets live in per-row BSTs keyed by site id; queries walk a
    row in order, edits attach or splice single nodes. Ids are stable:
    removed sites leave inactive slots behind.
    """

    def __init__(self, structure: ProteinStructure,
                 cutoff: float = DEFAULT_GNM_CUTOFF, spring: float = 1.0):
        self.cutoff = float(cutoff)
        self.spring = float(spring)
        self.source_id = structure.source_id
        self._positions: list[np.ndarray] = [p.copy() for p in structure.positions]
        self._masses: list[float] = [float(m) for m in structure.masses]
        self._labels: list[str] = list(structure.labels)
        self._active: list[bool] = [True] * structure.n_atoms
        self._roots: list[int | None] = [None] * structure.n_atoms
        self._nodes: list[dict[int, list]] = [dict() for _ in range(structure.n_atoms)]
        self._degrees: list[int] = [0] * structure.n_atoms
        self._grid: dict[tuple, set[int]] = {}
        self._writes = 0
        for i in range(structure.n_atoms):
            self._grid.setdefault(self._cell(self._positions[i]), set()).add(i)
        for i in range(structure.n_atoms):
            for j in self._grid_neighbors(self._positions[i], exclude=i):
                if j < i:
                    self._tree_insert(i, j)
                    self._tree_insert(j, i)
        self._writes = 0  # construction cost is not a modification cost

    # -- basic properties ---------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self._active)

    @property
    def active_ids(self) -> list[int]:
        return [i for i, a in enumerate(self._active) if a]

    def degree(self, i: int) -> int:
        self._check_active(i)
        return self._degrees[i]

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
        return tuple(int(math.floor(c / self.cutoff)) for c in pos)

    def _grid_neighbors(self, pos, exclude: int | None = None) -> list[int]:
        cx, cy, cz = self._cell(pos)
        cand = sorted(j for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
                      for j in self._grid.get((cx + dx, cy + dy, cz + dz), ())
                      if j != exclude and self._active[j])
        near = within_cutoff(np.reshape(pos, (1, 3)),
                             np.reshape([self._positions[j] for j in cand], (-1, 3)),
                             self.cutoff)[0]
        return [j for j, hit in zip(cand, near) if hit]

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
        self._degrees[row] += 1
        self._writes += 1

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
        self._degrees[row] -= 1
        self._writes += 1

    def _grid_move(self, i: int, new_pos) -> None:
        old_cell = self._cell(self._positions[i])
        new_cell = self._cell(new_pos)
        if old_cell != new_cell:
            self._grid[old_cell].discard(i)
            self._grid.setdefault(new_cell, set()).add(i)
            self._writes += 2

    # -- queries --------------------------------------------------------------

    def neighbors(self, i: int) -> list[int]:
        """Ascending neighbor ids of row i (in-order tree walk)."""
        self._check_active(i)
        out, stack, cur = [], [], self._roots[i]
        nodes = self._nodes[i]
        while stack or cur is not None:
            while cur is not None:
                stack.append(cur)
                cur = nodes[cur][0]
            cur = stack.pop()
            out.append(cur)
            cur = nodes[cur][1]
        return out

    def query_sparse(self, i: int, k: int) -> int:
        """k-th smallest neighbor id of row i; SENTINEL past the degree."""
        self._check_active(i)
        if k < 0:
            raise ValueError("slot index must be nonnegative")
        if k >= self._degrees[i]:
            return SENTINEL
        return self.neighbors(i)[k]

    def query_entry(self, i: int, j: int) -> float:
        """Stiffness entry: degree*spring on the diagonal, -spring per edge."""
        self._check_active(i)
        self._check_active(j)
        if i == j:
            return self._degrees[i] * self.spring
        nodes, cur = self._nodes[i], self._roots[i]
        while cur is not None:
            if cur == j:
                return -self.spring
            cur = nodes[cur][1 if j > cur else 0]
        return 0.0

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
        new_pos = np.asarray(new_pos, dtype=float)
        d_old = self._degrees[i]
        old_nbrs = set(self.neighbors(i))
        new_nbrs = set(self._grid_neighbors(new_pos, exclude=i))
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
        return self._finish("move", d_old, len(new_nbrs), affected)

    def add_atom(self, pos, mass: float = 1.0, label: str = "X") -> tuple[int, ModificationReport]:
        pos = np.asarray(pos, dtype=float)
        if mass <= 0:
            raise ValueError("mass must be positive")
        i = self.n_slots
        self._positions.append(pos.copy())
        self._masses.append(float(mass))
        self._labels.append(label)
        self._active.append(True)
        self._roots.append(None)
        self._nodes.append(dict())
        self._degrees.append(0)
        self._writes += 4  # position + mass
        self._grid.setdefault(self._cell(pos), set()).add(i)
        self._writes += 1
        nbrs = self._grid_neighbors(pos, exclude=i)
        for j in nbrs:
            self._tree_insert(i, j)
            self._tree_insert(j, i)
        return i, self._finish("add", 0, len(nbrs), 1 + len(nbrs))

    def remove_atom(self, i: int) -> ModificationReport:
        """Deactivate a site; its slot id is never reused."""
        self._check_active(i)
        d_old = self._degrees[i]
        nbrs = self.neighbors(i)
        for j in nbrs:
            self._tree_delete(j, i)
            self._tree_delete(i, j)
        self._grid[self._cell(self._positions[i])].discard(i)
        self._active[i] = False
        self._writes += 2
        return self._finish("remove", d_old, 0, 1 + len(nbrs))

    def set_mass(self, i: int, mass: float) -> ModificationReport:
        self._check_active(i)
        if mass <= 0:
            raise ValueError("mass must be positive")
        self._masses[i] = float(mass)
        self._writes += 1
        return self._finish("set_mass", self._degrees[i], self._degrees[i], 1)

    # -- views and export -------------------------------------------------------

    def neighbor_lists(self) -> dict[int, list[int]]:
        return {i: self.neighbors(i) for i in self.active_ids}

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
        width = max([self._degrees[i] for i in ids], default=0)
        width = max(width, 1)
        j_table = np.full((len(ids), width), SENTINEL, dtype=np.int64)
        diag = np.zeros(len(ids))
        for r, atom_id in enumerate(ids):
            nbrs = [compact[j] for j in self.neighbors(atom_id)]
            j_table[r, :len(nbrs)] = nbrs
            diag[r] = self._degrees[atom_id] * self.spring
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
        """Binary dump: versioned header, little-endian fixed-width words."""
        chunks = [_MAGIC, struct.pack("<II", _VERSION, self.n_slots),
                  struct.pack("<dd", self.cutoff, self.spring)]
        for i in range(self.n_slots):
            chunks.append(struct.pack(
                "<B3dd", int(self._active[i]), *self._positions[i],
                self._masses[i]))
        edges = [(i, j) for i in self.active_ids for j in self.neighbors(i)
                 if j > i]
        chunks.append(struct.pack("<Q", len(edges)))
        chunks += [struct.pack("<II", i, j) for i, j in edges]
        labels = "\x00".join(self._labels).encode()
        chunks.append(struct.pack("<Q", len(labels)))
        chunks.append(labels)
        with open(path, "wb") as fh:
            fh.write(b"".join(chunks))

    @classmethod
    def restore(cls, path) -> "ConnectivityStore":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise ParseError("not a connectivity snapshot (bad magic)")
        version, n_slots = struct.unpack_from("<II", blob, 4)
        if version != _VERSION:
            raise ParseError(f"unsupported snapshot version {version}")
        off = 12
        cutoff, spring = struct.unpack_from("<dd", blob, off)
        off += 16
        store = cls.__new__(cls)
        store.cutoff, store.spring = cutoff, spring
        store.source_id = "snapshot"
        store._positions, store._masses, store._active = [], [], []
        store._labels = []
        for _ in range(n_slots):
            vals = struct.unpack_from("<B3dd", blob, off)
            off += struct.calcsize("<B3dd")
            store._active.append(bool(vals[0]))
            store._positions.append(np.array(vals[1:4]))
            store._masses.append(vals[4])
        (n_edges,) = struct.unpack_from("<Q", blob, off)
        off += 8
        store._roots = [None] * n_slots
        store._nodes = [dict() for _ in range(n_slots)]
        store._degrees = [0] * n_slots
        store._grid = {}
        store._writes = 0
        for i in range(n_slots):
            if store._active[i]:
                store._grid.setdefault(store._cell(store._positions[i]),
                                       set()).add(i)
        for _ in range(n_edges):
            i, j = struct.unpack_from("<II", blob, off)
            off += 8
            store._tree_insert(i, j)
            store._tree_insert(j, i)
        (label_len,) = struct.unpack_from("<Q", blob, off)
        off += 8
        raw = blob[off:off + label_len].decode()
        store._labels = raw.split("\x00") if raw else [""] * n_slots
        store._writes = 0
        return store
