"""Tests of the seeded input generator (run: python3 -m pytest perfbench).

The same seed must give the same bytes, and inputs from any seed must
have the properties the workloads rely on.
"""
import numpy as np
import pytest

import inputs


def _files(seed, tmp_path):
    gen = inputs.generate(seed, tmp_path / str(seed))
    return gen, {name: path.read_bytes() for name, path in gen["files"].items()}


@pytest.fixture(scope="module", params=[1, 2])
def gen(request, tmp_path_factory):
    return inputs.generate(request.param, tmp_path_factory.mktemp("inputs"))


def test_same_seed_same_bytes(tmp_path):
    _, first = _files(5, tmp_path / "a")
    _, again = _files(5, tmp_path / "b")
    assert first == again
    _, other = _files(6, tmp_path / "c")
    assert other["compact-200.pdb"] != first["compact-200.pdb"]


def test_walk_properties(gen):
    for n, pos in gen["chains"].items():
        bonds = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.abs(bonds - inputs.BOND).max() <= 2e-3
        d = np.linalg.norm(pos[:, None] - pos[None], axis=2)
        nonbonded = d[np.triu_indices(n, k=2)]
        assert nonbonded.min() >= inputs.MIN_SEP
        assert inputs.pair_count(pos, inputs.GNM_CUTOFF) == round(4.4 * n)
        radius = (3.0 * n * inputs.VOLUME_PER_RESIDUE / (4.0 * np.pi)) ** (1 / 3)
        assert np.linalg.norm(pos, axis=1).max() <= radius + 1e-3


def test_tables_and_script(gen):
    tables = gen["tables"]
    for key, n in (("qrom256", 256), ("qrom1000", 1000)):
        words = tables[key]
        width = inputs.QROM_WIDTH
        assert len(words) == n and all(0 <= w < 2 ** width for w in words)
        assert sum(bin(w).count("1") for w in words) == n * width // 2
    addresses = tables["qrom1000_addresses"]
    assert len(set(addresses)) == 64 and max(addresses) < 1024
    assert any(a >= 1000 for a in addresses)

    kinds = [op[0] for op in tables["edits"]]
    assert (kinds.count("move"), kinds.count("add"), kinds.count("remove")) == (200, 20, 20)
    assert kinds.count("sparse") + kinds.count("entry") == 2000
    active, next_id = set(range(200)), 200
    for op in tables["edits"]:
        if op[0] == "add":
            active.add(next_id)
            next_id += 1
            continue
        assert op[1] in active
        if op[0] == "entry":
            assert op[2] in active
        elif op[0] == "remove":
            active.remove(op[1])
