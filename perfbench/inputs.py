"""Seeded benchmark inputs, built with numpy only.

Nothing here imports gnmqsim, so a change to the program cannot move the
inputs it is measured on. Every draw comes from a numpy PCG64 stream keyed
by (seed, purpose), so one seed always gives the same bytes.

Compact chains are self-avoiding C-alpha walks: consecutive sites 3.8 A
apart, non-bonded sites at least 4 A apart, grown inside a sphere sized to
protein-like residue density, which gives about 4.4 contacts per residue
at the 7 A GNM cutoff (a straight synthetic chain has one).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BOND = 3.8
MIN_SEP = 4.0
VOLUME_PER_RESIDUE = 180.0     # A^3 per residue inside the confining sphere
CONTACTS_PER_RESIDUE = 4.4
GNM_CUTOFF = 7.0
CHAIN_SIZES = (200, 500, 1000)
QROM_WIDTH = 8                 # bits per QROM word

# purpose tags keep the streams of different inputs independent
_TAGS = {"chain": 1, "qrom256": 2, "qrom1000": 3, "edits": 4, "seeds": 5}
_RESIDUES = ("ALA", "GLY", "LEU", "SER", "VAL", "THR", "LYS", "ASP",
             "ILE", "GLU", "ASN", "PRO", "PHE", "ARG", "GLN", "TYR")


def _rng(seed: int, purpose: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[purpose], *extra])


def _grow(rng, pos: np.ndarray, gained: np.ndarray, start: int,
          radius: float, target: int) -> bool:
    """Fill pos[start:] by a confined self-avoiding walk from pos[start-1].

    gained[i] is the number of earlier sites within the GNM cutoff of site
    i. Of the free directions tried at each step, the walk takes the one
    whose running contact total is nearest target * (i + 1) / n, which
    steers the total to the target without a preferred geometry.
    """
    n = len(pos)
    min_sep = MIN_SEP + 0.01    # margin so rounding to 0.001 A keeps 4 A
    i, stalls = start, 0
    while i < n:
        dirs = rng.normal(size=(48, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cand = np.round(pos[i - 1] + BOND * dirs, 3)
        gaps = np.linalg.norm(cand[:, None, :] - pos[None, :i], axis=2)
        ok = np.linalg.norm(cand, axis=1) <= radius
        ok &= (gaps[:, :i - 1] >= min_sep).all(axis=1)
        hits = np.flatnonzero(ok)
        if hits.size:
            gain = np.count_nonzero(gaps[hits] <= GNM_CUTOFF, axis=1)
            miss = np.abs(gained[:i].sum() + gain - target * (i + 1) / n)
            k = hits[np.argmin(miss)]
            pos[i], gained[i] = cand[k], np.count_nonzero(gaps[k] <= GNM_CUTOFF)
            i += 1
            continue
        stalls += 1             # trapped: back off a few sites and regrow
        if stalls > 2000:
            return False
        i = max(start, i - min(i - 1, 2 + stalls % 16))
    return True


def compact_walk(n: int, seed: int) -> np.ndarray:
    """(n, 3) C-alpha coordinates with exactly round(4.4 n) GNM contacts.

    Fixing the count keeps the work a chain of n sites causes (embedding
    dimension n + contacts) the same for every seed. Coordinates lie on
    the PDB's 0.001 A grid.
    """
    rng = _rng(seed, "chain", n)
    radius = (3.0 * n * VOLUME_PER_RESIDUE / (4.0 * np.pi)) ** (1.0 / 3.0)
    target = round(CONTACTS_PER_RESIDUE * n)
    pos = np.zeros((n, 3))
    gained = np.zeros(n, dtype=np.int64)
    pos[0] = np.round(rng.uniform(-0.3, 0.3, 3) * radius, 3)
    start = 1
    for attempt in range(1000):
        if _grow(rng, pos, gained, start, radius, target) \
                and gained.sum() == target:
            return pos
        # regrow a tail, longer after each run of misses, until exact
        start = max(1, n - 8 * (1 + attempt // 20))
    raise RuntimeError(f"walk of {n} sites missed {target} contacts")


def pdb_text(pos: np.ndarray, name: str) -> str:
    lines = [f"HEADER    SYNTHETIC COMPACT CHAIN {name}",
             "REMARK  99 SEEDED SELF-AVOIDING C-ALPHA WALK, 3.8 A BONDS"]
    for k, (x, y, z) in enumerate(pos):
        res = _RESIDUES[k % len(_RESIDUES)]
        lines.append(f"ATOM  {k + 1:5d}  CA  {res} A{k + 1:4d}    "
                     f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C")
    lines.append("END")
    return "\n".join(lines) + "\n"


def structure_json(pos: np.ndarray, name: str) -> str:
    """The layout gnmqsim reads for `.json` inputs (ids from 0, unit mass)."""
    atoms = [{"id": k, "x": float(x), "y": float(y), "z": float(z),
              "mass": 1.0, "label": f"{_RESIDUES[k % len(_RESIDUES)]}{k + 1}"}
             for k, (x, y, z) in enumerate(pos)]
    return json.dumps({"source_id": name, "atoms": atoms}, indent=1) + "\n"


def pair_count(pos: np.ndarray, cutoff: float) -> int:
    """Brute-force number of site pairs within the cutoff."""
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    return int(np.count_nonzero(np.triu(d <= cutoff, k=1)))


def qrom_table(seed: int, n_words: int, width: int) -> list[int]:
    """Random words with exactly half of all bits set.

    The loader's gate count follows the number of set bits, so fixing it
    keeps the circuit size the same for every seed.
    """
    purpose = "qrom256" if n_words == 256 else "qrom1000"
    bits = np.zeros(n_words * width, dtype=np.int64)
    bits[_rng(seed, purpose).permutation(bits.size)[:bits.size // 2]] = 1
    return (bits.reshape(n_words, width) @ (1 << np.arange(width))).tolist()


def qrom_addresses(seed: int, n_words: int, count: int) -> list[int]:
    """`count` distinct addresses spread over the padded range, padding included."""
    padded = 1 << (n_words - 1).bit_length()
    rng = _rng(seed, "qrom1000", 1)
    pad = rng.choice(np.arange(n_words, padded), size=count // 8, replace=False)
    real = rng.choice(n_words, size=count - pad.size, replace=False)
    return sorted(int(a) for a in np.concatenate([real, pad]))


def edit_script(seed: int, start: np.ndarray, moves: int = 200,
                adds: int = 20, removes: int = 20,
                reads: int = 2000) -> list[list]:
    """Interleaved store edits and reads, with site ids tracked as a store does.

    Ids are stable: a removed site's id is never reused and an added site
    takes the next id. Moves shift a site by up to 3 A per axis; adds land
    near an existing site, inside the cloud. Ops:
      ["move", i, [x, y, z]]   ["add", [x, y, z]]   ["remove", i]
      ["sparse", i, k]         ["entry", i, j]
    """
    rng = _rng(seed, "edits")
    pos = {i: start[i].copy() for i in range(len(start))}
    next_id = len(start)
    kinds = ["move"] * moves + ["add"] * adds + ["remove"] * removes
    kinds = [kinds[k] for k in rng.permutation(len(kinds))]
    # spread the reads evenly between the edits
    slots = np.sort(rng.integers(0, len(kinds) + 1, reads))
    ops, r = [], 0
    for e, kind in enumerate(kinds + [None]):
        while r < reads and slots[r] == e:
            ids = sorted(pos)
            i = ids[rng.integers(len(ids))]
            if rng.random() < 0.5:
                ops.append(["sparse", i, int(rng.integers(0, 14))])
            else:
                ops.append(["entry", i, ids[rng.integers(len(ids))]])
            r += 1
        if kind is None:
            break
        ids = sorted(pos)
        i = ids[rng.integers(len(ids))]
        if kind == "move":
            new = np.round(pos[i] + rng.uniform(-3.0, 3.0, 3), 3)
            pos[i] = new
            ops.append(["move", i, new.tolist()])
        elif kind == "add":
            new = np.round(pos[i] + rng.uniform(-4.0, 4.0, 3), 3)
            pos[next_id] = new
            next_id += 1
            ops.append(["add", new.tolist()])
        else:
            del pos[i]
            ops.append(["remove", i])
    return ops


def generate(seed: int, out_dir: Path, sizes=CHAIN_SIZES) -> dict:
    """Write the input files for one seed; returns their paths and tables.

    Only the compact chains in `sizes` are built (the 200-site chain
    always is: the edit script starts from it).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    chains = {n: compact_walk(n, seed) for n in sorted({200, *sizes})}
    files = {}
    for n, pos in chains.items():
        name = f"compact-{n}"
        for ext, text in (("pdb", pdb_text(pos, name)),
                          ("json", structure_json(pos, name))):
            path = out_dir / f"{name}.{ext}"
            path.write_text(text)
            files[f"{name}.{ext}"] = path
    mix = _rng(seed, "seeds").integers(1, 2 ** 31, 4)
    tables = {
        "qrom256": qrom_table(seed, 256, QROM_WIDTH),
        "qrom1000": qrom_table(seed, 1000, QROM_WIDTH),
        "qrom1000_addresses": qrom_addresses(seed, 1000, 64),
        "edits": edit_script(seed, chains[200]),
        "dos_seed": format(int(mix[0]), "x"),
        "kpm_seed": int(mix[1]),
        "mc_seed": int(mix[2]),
        "mc_encoded_seed": int(mix[3]),
    }
    path = out_dir / "tables.json"
    path.write_text(json.dumps(tables, sort_keys=True) + "\n")
    files["tables.json"] = path
    return {"files": files, "chains": chains, "tables": tables}
