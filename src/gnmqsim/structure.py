"""Protein structure read-in: PDB parsing, synthetic chains, JSON round-trip.

Structures are reduced to one site per residue (the alpha-carbon), which is
the resolution every downstream network model in this package works at.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources as _resources
from typing import NamedTuple

import numpy as np

from .errors import EmptyStructureError, ParseError

# contact cutoffs in Angstrom, kept out of `network` so reading them skips scipy
DEFAULT_GNM_CUTOFF = 7.0
DEFAULT_ANM_CUTOFF = 13.0


class Atom(NamedTuple):
    id: int
    position: tuple[float, float, float]
    mass: float
    label: str


@dataclass(frozen=True)
class ProteinStructure:
    """Ordered collection of point masses extracted from a structure source.

    positions : (N, 3) float array, Angstrom
    masses    : (N,) float array, all positive
    labels    : per-atom residue labels (e.g. "THR1")
    source_id : free-form provenance tag (file stem, "synthetic", ...)
    """

    positions: np.ndarray
    masses: np.ndarray
    labels: list[str] = field(repr=False)
    source_id: str = "unknown"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if mas.shape != (pos.shape[0],):
            raise ValueError("masses length does not match positions")
        if len(self.labels) != pos.shape[0]:
            raise ValueError("labels length does not match positions")
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite coordinates")
        if not np.all(mas > 0):
            raise ValueError("masses must be positive")
        pos.setflags(write=False)
        mas.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def atoms(self) -> list[Atom]:
        """Atoms as (id, position, mass, label) tuples, ids contiguous from 0."""
        return [
            Atom(i, tuple(self.positions[i]), float(self.masses[i]), self.labels[i])
            for i in range(self.n_atoms)
        ]

    def __eq__(self, other):
        if not isinstance(other, ProteinStructure):
            return NotImplemented
        return (
            self.source_id == other.source_id
            and self.labels == other.labels
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.masses, other.masses)
        )


def parse_pdb(text: str, mass_table: dict[str, float] | None = None,
              source_id: str = "pdb") -> ProteinStructure:
    """Extract alpha-carbon sites from PDB-format text.

    Fixed-column parsing of ATOM records: atom name in columns 13-16,
    coordinates in columns 31-54. Only CA atoms are kept; for alternate
    locations the first record wins; only the first MODEL is read. Masses
    default to 1.0 unless `mass_table` maps a residue name to a mass.

    Raises ParseError (with the 1-based line number) on malformed
    coordinates and EmptyStructureError if no CA atom is found.
    """
    positions: list[list[float]] = []
    masses: list[float] = []
    labels: list[str] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        record = line[:6].strip()
        if record == "ENDMDL":
            break
        if record != "ATOM":
            continue
        if line[12:16].strip() != "CA":
            continue
        resname = line[17:20].strip()
        chain = line[21:22]
        resseq = line[22:27].strip()  # includes insertion code column
        key = (chain, resseq)
        if key in seen:
            continue  # first altLoc (or duplicate) wins
        try:
            xyz = [float(line[30:38]), float(line[38:46]), float(line[46:54])]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"line {lineno}: malformed coordinates: {line!r}") from exc
        if not all(np.isfinite(xyz)):
            raise ParseError(f"line {lineno}: non-finite coordinates")
        seen.add(key)
        positions.append(xyz)
        masses.append(float((mass_table or {}).get(resname, 1.0)))
        labels.append(f"{resname}{resseq}")
    if not positions:
        raise EmptyStructureError("no CA atoms found in input")
    return ProteinStructure(
        positions=np.array(positions, dtype=float),
        masses=np.array(masses, dtype=float),
        labels=labels,
        source_id=source_id,
    )


def synthetic_chain(n: int, spacing: float = 3.8) -> ProteinStructure:
    """Linear chain of `n` unit-mass sites on the x-axis, `spacing` apart."""
    if n < 1:
        raise ValueError(f"chain needs at least one site, got n={n}")
    pos = np.zeros((n, 3))
    pos[:, 0] = spacing * np.arange(n)
    return ProteinStructure(
        positions=pos,
        masses=np.ones(n),
        labels=[f"GLY{i + 1}" for i in range(n)],
        source_id=f"synthetic-chain-{n}",
    )


def dump_structure_json(structure: ProteinStructure) -> str:
    """Serialize to the canonical JSON layout {source_id, atoms: [...]}."""
    payload = {
        "source_id": structure.source_id,
        "atoms": [
            {"id": a.id, "x": a.position[0], "y": a.position[1],
             "z": a.position[2], "mass": a.mass, "label": a.label}
            for a in structure.atoms
        ],
    }
    return json.dumps(payload, indent=2)


def load_structure_json(text: str) -> ProteinStructure:
    try:
        payload = json.loads(text)
        atoms = payload["atoms"]
        ids = [a["id"] for a in atoms]
        if ids != list(range(len(atoms))):
            raise ParseError("atom ids must be contiguous from 0")
        positions = np.array([[a["x"], a["y"], a["z"]] for a in atoms], dtype=float)
        masses = np.array([a["mass"] for a in atoms], dtype=float)
        labels = [str(a["label"]) for a in atoms]
        source_id = str(payload["source_id"])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad structure JSON: {exc}") from exc
    if len(atoms) == 0:
        raise EmptyStructureError("structure JSON contains no atoms")
    return ProteinStructure(positions=positions, masses=masses,
                            labels=labels, source_id=source_id)


def bundled_structure_path(name: str = "crambin46_ca.pdb"):
    """Filesystem path of a data file shipped with the package."""
    return _resources.files("gnmqsim.data").joinpath(name)


def load_bundled_structure(name: str = "crambin46_ca.pdb") -> ProteinStructure:
    """Parse one of the structures shipped with the package.

    The default is a 46-residue CA-only model with crambin's sequence on
    synthetic compact-fold coordinates (see the file's REMARK records).
    """
    path = bundled_structure_path(name)
    return parse_pdb(path.read_text(), source_id=name.rsplit(".", 1)[0])
