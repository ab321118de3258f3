import base64
import dataclasses
import hashlib
import json
import struct
import warnings

import numpy as np
import pytest
from test_network import (BOUNDARY_PAIR, CONTACT_CLOUDS, TWO_CELLS_APART,
                          compact_walk, pair_structure)

from gnmqsim.circuits import (apply_basis, bits_of, build_sparse_index_oracle,
                              value_of)
from gnmqsim.connectivity import SENTINEL, ConnectivityStore
from gnmqsim.errors import ParseError
from gnmqsim.network import build_gnm
from gnmqsim.structure import ProteinStructure, synthetic_chain


def random_structure(rng, n, box=18.0):
    return ProteinStructure(positions=rng.uniform(0, box, size=(n, 3)),
                            masses=np.ones(n), labels=["X"] * n,
                            source_id="rand")


def neighbor_lists(store):
    """Every active row's sorted neighbours, read through the public query."""
    return {i: store.neighbors(i) for i in store.active_ids}


def brute_neighbors(store):
    ids = store.active_ids
    return {i: sorted(j for j in ids if j != i
                      and np.linalg.norm(store.position(i)
                                         - store.position(j)) <= store.cutoff)
            for i in ids}


def tree_in_order(store, i):
    """Keys of row i's search tree, walked in order from `_roots[i]`."""
    nodes, out, stack, cur = store._nodes[i], [], [], store._roots[i]
    while stack or cur is not None:
        while cur is not None:
            stack.append(cur)
            # every push is one node, so more pushes than nodes is a cycle
            assert len(stack) + len(out) <= len(nodes), f"row {i} has a cycle"
            cur = nodes[cur][0]
        cur = stack.pop()
        out.append(cur)
        cur = nodes[cur][1]
    return out


def tree_search(store, i, j):
    """Whether a root-to-leaf search of row i's tree finds key j."""
    nodes, cur = store._nodes[i], store._roots[i]
    while cur is not None and cur != j:
        cur = nodes[cur][1 if j > cur else 0]
    return cur is not None


def assert_trees(store):
    """Every active row's tree is a BST whose keys are the row's neighbours."""
    for i in store.active_ids:
        keys = tree_in_order(store, i)
        # with distinct keys, a binary tree is a BST iff its in-order walk ascends
        assert all(a < b for a, b in zip(keys, keys[1:])), (i, keys)
        assert keys == store.neighbors(i), (i, keys)
        assert all(tree_search(store, i, j) for j in keys), i
        assert not tree_search(store, i, i), i


@pytest.fixture(autouse=True)
def trees_checked(monkeypatch):
    """Check every row's tree after each edit of every store in this module;
    `_finish` closes each edit, after its last tree write."""
    finish = ConnectivityStore._finish

    def checked(store, *args):
        assert_trees(store)
        return finish(store, *args)

    monkeypatch.setattr(ConnectivityStore, "_finish", checked)


def test_tree_check_catches_a_misordered_tree_and_a_cycle():
    st = ConnectivityStore(synthetic_chain(4), cutoff=7.0)
    assert_trees(st)
    assert (st._roots[1], st._nodes[1]) == (0, {0: [None, 2], 2: [None, None]})
    st._nodes[1][0] = [2, None]   # 2 hangs left of 0: keys still match
    with pytest.raises(AssertionError, match=r"\(1, \[2, 0\]\)"):
        assert_trees(st)
    st._nodes[1][0] = [None, 2]
    st._nodes[1][2] = [None, 0]   # 2 points back at the root
    with pytest.raises(AssertionError, match="row 1 has a cycle"):
        assert_trees(st)


def test_construction_matches_stiffness_entries(crambin, crambin_gnm):
    st = ConnectivityStore(crambin, cutoff=7.0)
    assert neighbor_lists(st) == brute_neighbors(st)
    K = crambin_gnm.K
    for i in range(0, crambin.n_atoms, 5):
        for j in range(crambin.n_atoms):
            assert st.query_entry(i, j) == K[i, j]


def test_construction_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(7)
    for _ in range(5):
        st = ConnectivityStore(random_structure(rng, 40), cutoff=6.0)
        assert neighbor_lists(st) == brute_neighbors(st)


def test_query_sparse_kth_neighbor_and_sentinel(crambin):
    st = ConnectivityStore(crambin, cutoff=7.0)
    for i in range(crambin.n_atoms):
        nbrs = st.neighbors(i)
        assert nbrs == sorted(nbrs)
        for k, j in enumerate(nbrs):
            assert st.query_sparse(i, k) == j
        assert st.query_sparse(i, len(nbrs)) == SENTINEL
        assert st.query_sparse(i, len(nbrs) + 3) == SENTINEL
    with pytest.raises(ValueError):
        st.query_sparse(0, -1)


def test_modification_fuzz_stays_consistent_and_within_bound():
    rng = np.random.default_rng(11)
    st = ConnectivityStore(random_structure(rng, 60, box=20.0), cutoff=6.0)
    n_reports = 0
    for _ in range(400):
        op = rng.choice(["move", "add", "remove", "mass"])
        ids = st.active_ids
        if op == "move" and ids:
            i = int(rng.choice(ids))
            rep = st.move_atom(i, st.position(i) + rng.normal(0, 2.5, 3))
        elif op == "add":
            _, rep = st.add_atom(rng.uniform(0, 20, 3),
                                 mass=float(rng.uniform(0.5, 2)))
        elif op == "remove" and len(ids) > 5:
            rep = st.remove_atom(int(rng.choice(ids)))
        elif op == "mass" and ids:
            rep = st.set_mass(int(rng.choice(ids)), float(rng.uniform(0.5, 2)))
        else:
            continue
        assert rep.changed_values <= rep.bound, rep
        n_reports += 1
    assert n_reports > 300
    assert neighbor_lists(st) == brute_neighbors(st)


def test_null_move_costs_three_position_words():
    st = ConnectivityStore(synthetic_chain(8), cutoff=7.0)
    rep = st.move_atom(3, st.position(3) + 1e-9)
    assert rep.changed_values == 3
    assert rep.kind == "move"
    assert rep.degree_before == rep.degree_after == 2


def test_rebuild_equivalence_after_moves():
    # no removals, so slot ids survive to_structure and == applies directly
    rng = np.random.default_rng(3)
    st = ConnectivityStore(random_structure(rng, 50), cutoff=6.0)
    for _ in range(60):
        i = int(rng.choice(st.active_ids))
        st.move_atom(i, rng.uniform(0, 18, 3))
    rebuilt = ConnectivityStore(st.to_structure(), cutoff=6.0)
    assert st == rebuilt
    st.move_atom(0, st.position(0) + 30.0)
    assert st != rebuilt


def test_export_tables_layout_after_edits():
    rng = np.random.default_rng(5)
    st = ConnectivityStore(random_structure(rng, 30, box=14.0), cutoff=6.0)
    st.remove_atom(4)
    st.move_atom(7, [1.0, 1.0, 1.0])
    st.add_atom([1.5, 1.0, 1.0])
    tabs = st.export_tables()
    jt, diag, ids = tabs["j_table"], tabs["diag"], tabs["ids"]
    assert 4 not in ids
    compact = {a: r for r, a in enumerate(ids)}
    for r, a in enumerate(ids):
        nbrs = [compact[j] for j in st.neighbors(a)]
        assert list(jt[r, :len(nbrs)]) == nbrs
        assert all(v == SENTINEL for v in jt[r, len(nbrs):])
        assert diag[r] == st.degree(a) * st.spring


def test_sparse_oracle_reads_edited_store_tables():
    st = ConnectivityStore(synthetic_chain(7), cutoff=7.0)
    st.remove_atom(2)
    st.move_atom(6, st.position(5) + [0.0, 3.0, 0.0])
    tabs = st.export_tables()
    jt = tabs["j_table"]
    n_sites = len(tabs["ids"])
    circ = build_sparse_index_oracle(jt, n_sites)
    row_bits = circ.meta["row_bits"]
    slot_bits = circ.meta["slot_bits"]
    sentinel = circ.meta["sentinel"]
    abits = row_bits + slot_bits
    for row in range(jt.shape[0]):
        for slot in range(jt.shape[1]):
            addr = (row << slot_bits) | slot
            bits = [0] * circ.n_qubits
            for pos, b in enumerate(bits_of(addr, abits)):
                bits[pos] = b
            full = apply_basis(circ, bits)
            word = sum(full[w] << t
                       for t, w in enumerate(circ.meta["output_wires"]))
            entry = int(jt[row, slot])
            assert word == (sentinel if entry < 0 else entry)
            # address register comes back untouched
            assert value_of(full[:abits]) == addr


def test_snapshot_restore_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    st = ConnectivityStore(random_structure(rng, 25), cutoff=6.5, spring=2.0)
    st.remove_atom(3)
    st.add_atom([2.0, 2.0, 2.0], mass=1.7, label="Y")
    path = tmp_path / "store.gqkp"
    st.snapshot(path)
    st2 = ConnectivityStore.restore(path)
    assert st2 == st
    assert neighbor_lists(st2) == neighbor_lists(st)
    assert st2.spring == 2.0
    # restored store stays editable and diverges from the original
    st2.move_atom(st2.active_ids[0], [40.0, 40.0, 40.0])
    assert st2 != st


def test_restore_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ParseError):
        ConnectivityStore.restore(path)


def test_inactive_and_unknown_ids_raise():
    st = ConnectivityStore(synthetic_chain(6), cutoff=7.0)
    st.remove_atom(2)
    for call in (lambda: st.neighbors(2), lambda: st.degree(2),
                 lambda: st.position(2), lambda: st.query_entry(0, 2),
                 lambda: st.move_atom(2, [0, 0, 0]),
                 lambda: st.neighbors(99)):
        with pytest.raises(KeyError):
            call()
    # slot ids are never reused: the next add gets a fresh slot
    new_id, _ = st.add_atom([0.0, 5.0, 0.0])
    assert new_id == 6
    assert 2 not in st.active_ids


def test_mass_edits_validate_and_report():
    st = ConnectivityStore(synthetic_chain(5), cutoff=7.0)
    rep = st.set_mass(1, 2.5)
    assert rep.kind == "set_mass"
    assert st.mass(1) == 2.5
    with pytest.raises(ValueError):
        st.set_mass(1, 0.0)
    with pytest.raises(ValueError):
        st.add_atom([9.0, 9.0, 9.0], mass=-1.0)


def test_degenerate_chain_matches_path_graph():
    st = ConnectivityStore(synthetic_chain(9), cutoff=7.0)
    lists = neighbor_lists(st)
    assert lists[0] == [1]
    assert lists[8] == [7]
    for i in range(1, 8):
        assert lists[i] == [i - 1, i + 1]


def gnm_rows(structure, cutoff):
    rows = {i: [] for i in range(structure.n_atoms)}
    for i, j in build_gnm(structure, cutoff=cutoff).edges.tolist():
        rows[i].append(j)
        rows[j].append(i)
    return {i: sorted(r) for i, r in rows.items()}


@pytest.mark.parametrize("cutoff", [7.0, 13.0])
@pytest.mark.parametrize("cloud", CONTACT_CLOUDS)
def test_construction_matches_gnm_on_every_contact_cloud(cloud, cutoff):
    pos = CONTACT_CLOUDS[cloud](cutoff)
    structure = ProteinStructure(positions=pos, masses=np.ones(len(pos)),
                                 labels=["X"] * len(pos))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the face lattice has coincident atoms
        rows = gnm_rows(structure, cutoff)
        assert neighbor_lists(ConnectivityStore(structure, cutoff=cutoff)) == rows


def test_build_move_and_add_find_boundary_pairs_as_gnm_does():
    for pair in (BOUNDARY_PAIR, TWO_CELLS_APART):
        a, b = np.array(pair)
        want = gnm_rows(pair_structure(a, b), 7.0)
        built = ConnectivityStore(pair_structure(a, b), cutoff=7.0)
        moved = ConnectivityStore(pair_structure(a, b + [30.0, 0.0, 0.0]), cutoff=7.0)
        moved.move_atom(1, b)
        added = ConnectivityStore(ProteinStructure(positions=[a], masses=[1.0],
                                                   labels=["A1"]), cutoff=7.0)
        added.add_atom(b)
        for store in (built, moved, added):
            assert neighbor_lists(store) == want, pair
    assert want == {0: [1], 1: [0]}  # the two-cells pair is a contact


@pytest.mark.parametrize("edit, match", [
    (lambda st: st.add_atom([np.inf, 0, 0]), r"^pos must be 3 finite coordinates, got \[inf, 0, 0\]$"),
    (lambda st: st.add_atom([1.0, 2.0]), r"^pos must be 3 finite coordinates, got \[1.0, 2.0\]$"),
    (lambda st: st.add_atom([1.0, 2.0, 3.0], mass=float("nan")),
     r"^mass must be finite and positive, got nan$"),
    (lambda st: st.move_atom(1, [0.0, float("nan"), 0.0]),
     r"^new_pos must be 3 finite coordinates, got \[0.0, nan, 0.0\]$"),
    (lambda st: st.set_mass(1, float("nan")), r"^mass must be finite and positive, got nan$"),
    (lambda st: st.set_mass(1, float("inf")), r"^mass must be finite and positive, got inf$"),
], ids=["add_inf", "add_short", "add_nan_mass", "move_nan", "mass_nan", "mass_inf"])
def test_bad_edit_inputs_raise_before_any_write(edit, match):
    st = ConnectivityStore(synthetic_chain(5), cutoff=7.0)
    before = st.state_tuple(), st.n_slots
    with pytest.raises(ValueError, match=match):
        edit(st)
    assert (st.state_tuple(), st.n_slots) == before
    assert st.to_structure().n_atoms == 5


def test_coincident_sites_stay_connected_with_a_warning_at_the_caller(tmp_path):
    pair = pair_structure([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match="^atoms 0 and 1 coincide; treated as connected") as record:
        store = ConnectivityStore(pair)
    assert record[0].filename == __file__
    assert neighbor_lists(store) == {0: [1], 1: [0]}
    store.snapshot(tmp_path / "pair.gqkp")
    with pytest.warns(UserWarning, match="^atoms 0 and 1 coincide") as record:
        assert ConnectivityStore.restore(tmp_path / "pair.gqkp") == store
    assert record[0].filename == __file__


@pytest.mark.parametrize("edit, match", [
    (lambda st: st.move_atom(3, st.position(1)), "^atoms 1 and 3 coincide; treated as connected$"),
    (lambda st: st.add_atom(st.position(2)), "^atoms 2 and 5 coincide; treated as connected$"),
], ids=["move", "add"])
def test_an_edit_onto_another_site_warns_at_the_caller(edit, match):
    st = ConnectivityStore(synthetic_chain(5), cutoff=7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # edits onto free space stay silent
        st.move_atom(4, [1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match=match) as record:
        edit(st)
    assert len(record) == 1 and record[0].filename == __file__


def edited_chain():
    st = ConnectivityStore(synthetic_chain(6), cutoff=7.0, spring=1.5)
    st.remove_atom(2)
    st.add_atom([1.0, 4.0, 0.5], mass=2.0, label="Y")
    st.move_atom(5, [11.0, 3.0, -1.0])
    return st


def snapshot_bytes(store, tmp_path):
    path = tmp_path / "store.gqkp"
    store.snapshot(path)
    return path.read_bytes()


# edited_chain()'s snapshot as written before restore recomputed contacts
PARENT_SNAPSHOT = base64.b64decode("""
R1FLUAEAAAAHAAAAAAAAAAAAHEAAAAAAAAD4PwEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA
AADwPwFmZmZmZmYOQAAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwBmZmZmZmYeQAAAAAAAAAAAAAAA
AAAAAAAAAAAAAADwPwHMzMzMzMwmQAAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwFmZmZmZmYuQAAA
AAAAAAAAAAAAAAAAAAAAAAAAAADwPwEAAAAAAAAmQAAAAAAAAAhAAAAAAAAA8L8AAAAAAADwPwEA
AAAAAADwPwAAAAAAABBAAAAAAAAA4D8AAAAAAAAAQAYAAAAAAAAAAAAAAAEAAAAAAAAABgAAAAEA
AAAGAAAAAwAAAAQAAAADAAAABQAAAAQAAAAFAAAAHwAAAAAAAABHTFkxAEdMWTIAR0xZMwBHTFk0
AEdMWTUAR0xZNgBZ
""")


def test_snapshot_written_by_the_earlier_store_restores_equal(tmp_path):
    path = tmp_path / "old.gqkp"
    path.write_bytes(PARENT_SNAPSHOT)
    restored, want = ConnectivityStore.restore(path), edited_chain()
    assert restored == want
    assert restored.to_structure().labels == want.to_structure().labels
    assert snapshot_bytes(want, tmp_path) == PARENT_SNAPSHOT


# edited_chain() has 7 slots of 33 bytes after the 28-byte header, so its
# contact list starts at byte 267 (after the 8-byte count)
EDGES_AT = 28 + 7 * 33 + 8


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:-1],                      # labels cut short
    lambda blob: blob[:EDGES_AT + 4],            # inside a contact
    lambda blob: blob[:28 + 3 * 33],             # inside the slots
    lambda blob: blob[:20],                      # inside the header
    lambda blob: blob + b"\x00",                 # bytes after the labels
    lambda blob: blob[:EDGES_AT] + struct.pack("<II", 1, 2) + blob[EDGES_AT + 8:],
    lambda blob: blob[:EDGES_AT] + struct.pack("<II", 0, 99) + blob[EDGES_AT + 8:],
], ids=["labels", "contact", "slots", "header", "trailing", "removed_slot",
        "past_slot_count"])
def test_restore_rejects_corrupt_snapshots(tmp_path, corrupt):
    blob = snapshot_bytes(edited_chain(), tmp_path)
    assert struct.unpack_from("<II", blob, EDGES_AT) == (0, 1)
    path = tmp_path / "bad.gqkp"
    path.write_bytes(corrupt(blob))
    with pytest.raises(ParseError):
        ConnectivityStore.restore(path)


def edit_log(tmp_path):
    """Every report and answer of a seeded edit script on a compact walk,
    restored from a snapshot halfway, and the final state."""
    pos = compact_walk(120, 5)
    st = ConnectivityStore(ProteinStructure(positions=pos, masses=np.ones(120),
                                            labels=["X"] * 120), cutoff=7.0)
    rng = np.random.default_rng(2024)
    log = []
    for step in range(400):
        if step == 200:
            st.snapshot(tmp_path / "half.gqkp")
            st = ConnectivityStore.restore(tmp_path / "half.gqkp")
        ids = st.active_ids
        i = ids[rng.integers(len(ids))]
        op = int(rng.integers(6))
        if op == 0:
            log.append(st.move_atom(i, np.round(st.position(i) + rng.uniform(-3, 3, 3), 3)))
        elif op == 1:
            log += st.add_atom(np.round(st.position(i) + rng.uniform(-4, 4, 3), 3),
                               mass=round(float(rng.uniform(0.5, 2.0)), 3))
        elif op == 2 and len(ids) > 90:
            log.append(st.remove_atom(i))
        elif op == 3:
            log.append(st.set_mass(i, round(float(rng.uniform(0.5, 2.0)), 3)))
        elif op == 4:
            log.append(st.query_sparse(i, int(rng.integers(0, 12))))
        else:
            log.append(st.query_entry(i, ids[rng.integers(len(ids))]))
    return log, st.state_tuple()


EDIT_LOG_DIGEST = "b41574a4d66c6afac0498c50a9ef740eab12241d41de9a47d986021d11fba926"


def test_edit_script_reports_answers_and_state_are_pinned(tmp_path):
    log, state = edit_log(tmp_path)
    text = json.dumps([[dataclasses.astuple(x) if dataclasses.is_dataclass(x) else x
                        for x in log], state], default=int)
    assert hashlib.sha256(text.encode()).hexdigest() == EDIT_LOG_DIGEST
