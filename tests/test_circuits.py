import numpy as np
import pytest

from gnmqsim import circuits as qc
from gnmqsim import stateprep as sp
from gnmqsim.connectivity import ConnectivityStore
from gnmqsim.errors import ParseError
from gnmqsim.structure import load_bundled_structure, synthetic_chain
from statevector_oracle import apply_basis_layers, basis_state, dense_unitary


def run_basis(circuit, n_address_bits, address, extra_zero=None):
    bits = [0] * circuit.n_qubits
    for pos, b in enumerate(qc.bits_of(address, n_address_bits)):
        bits[pos] = b
    return qc.apply_basis(circuit, bits)


def test_bit_helpers_round_trip():
    for width in (1, 3, 8):
        for value in range(2 ** width):
            assert qc.value_of(qc.bits_of(value, width)) == value


def test_decoder_is_reported_permutation():
    for n in (1, 2, 3, 4):
        circ = qc.build_decoder(n)
        pi = circ.meta["pi"]
        assert pi == [i ^ 1 for i in range(2 ** n)]
        for addr in range(2 ** n):
            out = run_basis(circ, n, addr)
            hot = [out[w] for w in circ.meta["onehot_wires"]]
            assert sum(hot) == 1
            assert hot.index(1) == pi[addr]
            # address register preserved
            assert qc.value_of(out[:n]) == addr


def test_decoder_single_bit_is_minimal():
    circ = qc.build_decoder(1)
    assert qc.resources(circ)["gates"] == len(circ.kinds) == 4


def test_data_loader_companion_dictionary():
    # one-hot wire -> 2-bit word: {1: "10", 2: "11", 3: "01"} read as ints
    table = {1: 0b10, 2: 0b11, 3: 0b01}
    circ = qc.build_data_loader(table, n_onehot=4, word_width=2)
    for hot in range(4):
        bits = [0] * circ.n_qubits
        bits[circ.meta["onehot_wires"][hot]] = 1
        out = qc.apply_basis(circ, bits)
        word = sum(out[w] << t
                   for t, w in enumerate(circ.meta["output_wires"]))
        assert word == table.get(hot, 0)
        # OR-tree ancillas come back clean
        anc = out[len(circ.meta["onehot_wires"]) + 2:]
        assert not any(anc[-circ.meta["n_ancillas"]:]) \
            if circ.meta["n_ancillas"] else True


@pytest.mark.parametrize("n_items,width", [(4, 3), (8, 5), (13, 4), (64, 6)])
def test_qrom_exhaustive(n_items, width):
    rng = np.random.default_rng(n_items)
    table = rng.integers(0, 2 ** width, size=n_items).tolist()
    circ = qc.build_qrom(table, width)
    abits = circ.meta["n_address_bits"]
    for addr in range(2 ** abits):
        out = run_basis(circ, abits, addr)
        word = sum(out[w] << t
                   for t, w in enumerate(circ.meta["output_wires"]))
        expect = table[addr] if addr < n_items else 0   # padding reads zero
        assert word == expect
        # every non-address, non-output wire restored to |0>
        touched = set(circ.meta["address_wires"]) | set(circ.meta["output_wires"])
        for w in range(circ.n_qubits):
            if w not in touched:
                assert out[w] == 0
        assert qc.value_of(out[:abits]) == addr


def test_qrom_rejects_wide_values():
    with pytest.raises(ValueError):
        qc.build_qrom([7], word_width=2)
    with pytest.raises(ValueError):
        qc.build_qrom([], word_width=2)
    with pytest.raises(ValueError, match=r"^table\[1\] = 9 does not fit in 2 bits$"):
        qc.build_qrom([1, 9], word_width=2)
    # a float word is refused, not truncated; numpy integers still pass
    with pytest.raises(ValueError, match=r"^table\[0\] = 1.7 is not an integer$"):
        qc.build_qrom([1.7, 2], word_width=2)
    assert np.array_equal(qc.build_qrom(np.array([1, 2]), 2).wires,
                          qc.build_qrom([1, 2], 2).wires)


def test_dense_unitary_matches_basis_walk():
    circ = qc.build_decoder(2)      # 9 qubits, small enough to densify
    U = dense_unitary(circ)
    assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-12)
    for addr in range(4):
        out_bits = run_basis(circ, 2, addr)
        col = basis_state(circ.n_qubits, qc.value_of(
            qc.bits_of(addr, 2) + [0] * (circ.n_qubits - 2)))
        mapped = U @ col
        idx = int(np.argmax(np.abs(mapped)))
        assert abs(mapped[idx]) == pytest.approx(1.0)
        assert qc.bits_of(idx, circ.n_qubits) == out_bits


def test_fixed_point_round_trip():
    for value in (0.0, 1.25, -3.875, 100.0625):
        code = qc.encode_fixed_point(value, bits=16, scale=1 / 16)
        assert qc.decode_fixed_point(code, bits=16, scale=1 / 16) == value
    with pytest.raises(ValueError):
        qc.encode_fixed_point(1e9, bits=8, scale=1.0)


def test_position_oracle_reads_back_coordinates():
    chain = synthetic_chain(5)
    circ = qc.build_position_oracle(chain, bits=16, scale=1 / 64)
    abits = circ.meta["n_address_bits"]
    for i in range(5):
        out = run_basis(circ, abits, i)
        word = sum(out[w] << t
                   for t, w in enumerate(circ.meta["output_wires"]))
        xyz = qc.decode_position_word(word, 16, 1 / 64)
        assert np.allclose(xyz, chain.positions[i], atol=1 / 128)


def test_sparse_index_oracle_serves_store_tables():
    store = ConnectivityStore(synthetic_chain(6))
    tables = store.export_tables()
    circ = qc.build_sparse_index_oracle(tables["j_table"], n_sites=6)
    row_bits = circ.meta["row_bits"]
    slot_bits = circ.meta["slot_bits"]
    sentinel = circ.meta["sentinel"]
    abits = row_bits + slot_bits
    for row in range(2 ** row_bits):
        for slot in range(2 ** slot_bits):
            out = run_basis(circ, abits, (row << slot_bits) | slot)
            word = sum(out[w] << t
                       for t, w in enumerate(circ.meta["output_wires"]))
            if row < 6 and slot < tables["j_table"].shape[1]:
                entry = int(tables["j_table"][row, slot])
                assert word == (sentinel if entry < 0 else entry)
            else:
                assert word == sentinel


def test_sparse_oracle_rejects_overflow():
    bad = np.array([[7]])    # 7 == sentinel for 3-bit outputs
    with pytest.raises(ValueError):
        qc.build_sparse_index_oracle(bad, n_sites=7)


@pytest.mark.parametrize("build", [
    lambda: qc.build_qrom([3, 0, 2, 1], 2),
    # CNOT rows only: the table stays 2 wide, as parsing builds it
    lambda: qc.build_data_loader({1: 0b01, 2: 0b10}, 4, 2),
], ids=["qrom", "cnot-loader"])
def test_serialize_parse_round_trip(build):
    circ = build()
    text = qc.serialize_circuit(circ)
    back = qc.parse_circuit(text)
    assert back.n_qubits == circ.n_qubits
    assert np.array_equal(back.kinds, circ.kinds)
    assert np.array_equal(back.wires, circ.wires)
    assert np.array_equal(back.layer_starts, circ.layer_starts)


def test_resources_counts():
    circ = qc.build_qrom(list(range(16)), 4)
    res = qc.resources(circ)
    assert res["depth"] == len(circ.layer_starts) - 1
    assert res["gates"] == circ.layer_starts[-1] == len(circ.kinds)
    assert res["qubits"] == circ.n_qubits
    assert res["ancillas"] >= 0


def test_qrom_depth_grows_quadratically_in_address_bits():
    depths = []
    for n_items in (4, 16, 64, 256):
        circ = qc.build_qrom(list(range(n_items)), 8)
        depths.append(qc.resources(circ)["depth"])
    L = np.log2([4, 16, 64, 256])
    slope = np.polyfit(np.log(L), np.log(depths), 1)[0]
    assert 1.5 < slope < 2.5


def test_gaussian_circuit_text_round_trips_byte_for_byte():
    circ, _ = sp.prepare_gaussian_state(5, seed=0x2A)
    text = qc.serialize_circuit(circ)
    assert qc.serialize_circuit(qc.parse_circuit(text)) == text


@pytest.mark.parametrize("text,line", [
    ("# qubits 2\nX 0\nX -1\n", 3),          # negative wire
    ("# qubits 1\nDIAG_SIGN 0 +x\n", 2),     # sign other than +/-
    ("# qubits abc\nX 0\n", 1),              # malformed header
    ("# qubits 2\nCNOT 0,1\nX 5\n", 3),     # wire out of range
    ("# qubits 2\nX 0\nSWAP 0,1\n", 3),     # SWAP is no longer a kind
], ids=["negative-wire", "bad-sign", "bad-header", "wire-out-of-range", "swap"])
def test_parse_rejects_bad_text_naming_the_line(text, line):
    with pytest.raises(ParseError, match=f"line {line}:"):
        qc.parse_circuit(text)


@pytest.mark.parametrize("rows,row", [
    ([(qc.X, (0,)), (qc.CNOT, (1, 1))], 1),
    ([(qc.CNOT, (0, 1)), (qc.CCX, (0,))], 1),
    ([(qc.X, (0,)), (qc.CRY, (0,))], 1),
    ([(qc.X, (0,), 0.5)], 0),
    ([(qc.DIAG_SIGN, (0, 1), [1.0, -1.0])], 0),
    ([(qc.X, (0,)), (qc.X, (2,))], 1),
    ([(9, (0,))], 0),
    ([(qc.X, (0,)), (qc.CNOT, (-1, 1))], 1),
])
def test_from_gates_names_the_bad_row(rows, row):
    with pytest.raises(qc.RowError, match=f"^row {row}:") as info:
        qc.Circuit.from_gates(2, rows)
    assert info.value.row == row


@pytest.mark.parametrize("build", [
    lambda: (qc.build_decoder(3), 3),
    lambda: (qc.build_data_loader({1: 0b10, 2: 0b11, 3: 0b01, 6: 0b01}, 8, 2), 0),
    lambda: (qc.build_qrom(list(range(13)), 4), 4),
    lambda: (qc.build_qrom([(7 * v) % 64 for v in range(201)], 6), 8),
], ids=["decoder3", "loader", "qrom13", "qrom201"])
def test_batched_basis_matches_single_calls(build):
    circ, abits = build()
    if abits:
        bits = np.array([qc.bits_of(a, abits) + [0] * (circ.n_qubits - abits)
                         for a in range(2 ** abits)], dtype=np.uint8)
    else:   # the loader: every single-hot input and the all-cold input
        bits = np.zeros((9, circ.n_qubits), dtype=np.uint8)
        bits[np.arange(1, 9), circ.meta["onehot_wires"]] = 1
    out = qc.apply_basis(circ, bits)
    assert out.dtype == np.uint8 and out.shape == bits.shape
    for row, got in zip(bits.tolist(), out.tolist()):
        single = qc.apply_basis(circ, row)
        assert isinstance(single, list) and single == got


@pytest.mark.parametrize("circ,row,kind", [
    (qc.Circuit.from_gates(2, [(qc.H, (0,)), (qc.CNOT, (0, 1))]), 0, "H"),
    (qc.Circuit.from_gates(2, [(qc.X, (0,)), (qc.CRY, (0, 1), 0.3)]), 1, "CRY"),
    (qc.Circuit.from_gates(1, [(qc.DIAG_SIGN, (0,), [1.0, -1.0])]), 0, "DIAG_SIGN"),
], ids=["H", "CRY", "DIAG_SIGN"])
def test_basis_walk_rejects_non_classical_gates(circ, row, kind):
    for bits in ([0] * circ.n_qubits, np.zeros((3, circ.n_qubits), dtype=np.uint8)):
        with pytest.raises(ValueError, match="not classical") as info:
            qc.apply_basis(circ, bits)
        assert str(info.value).startswith(f"row {row}: {kind} gate ")
        assert "X, CNOT and CCX" in str(info.value)
        assert info.value.row == row
        # the same row and text as the layer walk gives
        with pytest.raises(qc.RowError) as layers:
            apply_basis_layers(circ, bits)
        assert (str(info.value), info.value.row) == (str(layers.value), layers.value.row)


HAND_TEXT = """# qubits 7
X 0
CCX 0,1,2
X 2
X 1
CCX 2,1,3
X 3
CCX 0,1,2,3,4
X 0
X 4
CNOT 4,5
X 5
CCX 5,3,0,1
CNOT 1,6
X 1
CCX 6,2,1,5,0
X 6
"""


def random_classical(n_qubits, n_rows, seed):
    """Seeded X, CNOT and CCX rows (CCX up to 5 wires) on distinct wires."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        k = int(rng.choice([1, 2, 3, 4, 5], p=[0.4, 0.2, 0.25, 0.1, 0.05]))
        rows.append(((qc.X, qc.CNOT, qc.CCX)[min(k, 3) - 1],
                     tuple(rng.choice(n_qubits, k, replace=False).tolist())))
    return qc.Circuit.from_gates(n_qubits, rows)


def bundled_sparse():
    struct = load_bundled_structure()
    j_table = ConnectivityStore(struct).export_tables()["j_table"]
    return qc.build_sparse_index_oracle(j_table, struct.n_atoms)


ORACLE_CASES = {
    **{f"decoder{n}": (lambda n=n: qc.build_decoder(n)) for n in range(1, 8)},
    "loader3": lambda: qc.build_data_loader({1: 0b10, 2: 0b11, 3: 0b01}, 4, 2),
    "loader4": lambda: qc.build_data_loader({1: 0b10, 2: 0b11, 3: 0b01, 6: 0b01},
                                            8, 2),
    "loader_cnot": lambda: qc.build_data_loader({1: 0b01, 2: 0b10}, 4, 2),
    "qrom13": lambda: qc.build_qrom(list(range(13)), 4),
    "qrom201": lambda: qc.build_qrom([(7 * v) % 64 for v in range(201)], 6),
    "qrom256": lambda: qc.build_qrom([(37 * i + 11) % 256 for i in range(256)], 8),
    "qrom1000": lambda: qc.build_qrom([(37 * i + 11) % 256 for i in range(1000)], 8),
    "position": lambda: qc.build_position_oracle(load_bundled_structure()),
    "sparse": bundled_sparse,
    "hand": lambda: qc.parse_circuit(HAND_TEXT),
    "all_x": lambda: qc.parse_circuit("# qubits 3\nX 0\nX 1\nX 0\nX 2\nX 1\n"),
    "random": lambda: random_classical(9, 400, seed=5),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_basis_walk_matches_layer_oracle(name):
    # random full bit strings: ancilla and output wires set too
    circ = ORACLE_CASES[name]()
    rng = np.random.default_rng(len(name))
    bits = rng.integers(0, 2, size=(64, circ.n_qubits), dtype=np.uint8)
    expect = apply_basis_layers(circ, bits)
    assert np.array_equal(qc.apply_basis(circ, bits), expect)
    for row, want in zip(bits[:4].tolist(), expect[:4].tolist()):
        assert qc.apply_basis(circ, row) == want


def test_basis_walk_names_bad_input():
    circ = qc.build_decoder(2)      # 9 qubits
    with pytest.raises(ValueError, match=r"^bits has shape \(7,\), circuit has 9 qubits$"):
        qc.apply_basis(circ, [0] * 7)
    with pytest.raises(ValueError, match=r"^bits has shape \(2, 8\), circuit has 9 qubits$"):
        qc.apply_basis(circ, np.zeros((2, 8), dtype=np.uint8))
    for value in (2, 0.5, -1):
        bits = [0] * 9
        bits[4] = value
        with pytest.raises(ValueError, match=rf"^bits\[4\] = {value} is not 0 or 1$"):
            qc.apply_basis(circ, bits)
    batch = np.zeros((3, 9))
    batch[2, 6] = 0.5
    with pytest.raises(ValueError, match=r"^bits\[2, 6\] = 0.5 is not 0 or 1$"):
        qc.apply_basis(circ, batch)
    # bools and other integer dtypes holding 0 and 1 still pass
    assert qc.apply_basis(circ, np.zeros(9, dtype=bool)) == qc.apply_basis(circ, [0] * 9)


def test_loader_rejects_bad_words_naming_the_index():
    with pytest.raises(ValueError, match=r"^dictionary\[1\] = 1.5 is not an integer$"):
        qc.build_data_loader({1: 1.5}, 4, 2)
    with pytest.raises(ValueError, match=r"^dictionary\[1\] = 9 does not fit in 2 bits$"):
        qc.build_data_loader({0: 1, 1: 9}, 4, 2)
    assert np.array_equal(qc.build_data_loader({1: np.int64(2)}, 4, 2).wires,
                          qc.build_data_loader({1: 2}, 4, 2).wires)


@pytest.mark.parametrize("build", [
    lambda: qc.build_qrom([3, 0, 2, 1], 2),
    lambda: qc.parse_circuit(HAND_TEXT),
], ids=["qrom", "parsed"])
def test_circuit_table_is_read_only(build):
    circ = build()
    for arr in (circ.kinds, circ.wires, circ.layer_starts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_basis_schedule_is_built_once(monkeypatch):
    built = []

    def counting(circuit):
        built.append(circuit)
        return schedule(circuit)

    schedule = qc._build_schedule
    monkeypatch.setattr(qc, "_build_schedule", counting)
    circ = qc.build_qrom([3, 0, 2, 1], 2)
    first = qc.apply_basis(circ, [1, 0] + [0] * (circ.n_qubits - 2))
    assert qc.apply_basis(circ, [1, 0] + [0] * (circ.n_qubits - 2)) == first
    qc.apply_basis(circ, np.zeros((2, circ.n_qubits), dtype=np.uint8))
    assert len(built) == 1 and built[0] is circ
