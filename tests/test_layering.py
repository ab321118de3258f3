"""Block layering and the per-layer basis schedule against their
row-by-row oracles in `layering_oracle`."""
import numpy as np
import pytest

from gnmqsim import circuits as qc
from gnmqsim import stateprep as sp
from layering_oracle import basis_schedule, greedy_layers
from test_circuit_digests import CASES


def random_dictionary(seed):
    rng = np.random.default_rng(seed)
    n_onehot = int(rng.integers(1, 40))
    width = int(rng.integers(1, 10))
    hot = rng.random(n_onehot) < rng.random()
    return ({i: int(rng.integers(0, 2 ** width)) for i in np.flatnonzero(hot).tolist()},
            n_onehot, width)


def random_table(seed, width=8):
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, 2 ** width, int(rng.integers(1, 300)))]


def wide_words(n_words, bits=72):
    # Python ints beyond int64, as the position oracle's packed coordinates
    rng = np.random.default_rng(bits)
    return [int.from_bytes(rng.bytes(bits // 8), "little") for _ in range(n_words)]


LOADERS = {
    **{f"random{seed}": (lambda s=seed: qc.build_data_loader(*random_dictionary(s)))
       for seed in range(12)},
    "single_hot_wire": lambda: qc.build_data_loader({3: 0b101}, 8, 3),
    "no_ccx": lambda: qc.build_data_loader({1: 0b01, 2: 0b10}, 4, 2),
    "empty": lambda: qc.build_data_loader({}, 4, 2),
    "all_zero_words": lambda: qc.build_data_loader({0: 0, 2: 0}, 4, 3),
    "wide": lambda: qc.build_data_loader(dict(enumerate(wide_words(20))), 32, 72),
}

QROMS = {
    **{f"random{seed}": (lambda s=seed: qc.build_qrom(random_table(s), 8))
       for seed in range(6)},
    "all_zero": lambda: qc.build_qrom([0] * 8, 3),
    "one_word": lambda: qc.build_qrom([5], 3),
    "one_zero_word": lambda: qc.build_qrom([0], 1),
    "padded": lambda: qc.build_qrom([(7 * v) % 64 for v in range(201)], 6),
    "wide": lambda: qc.build_qrom(wide_words(46), 72),
}


@pytest.fixture
def handed_over(monkeypatch):
    """Every (n_qubits, wires, layers) a builder hands `_from_columns`, in
    build order, and every block `_block_layers` is given."""
    tables, blocks = [], []
    from_columns, block_layers = qc.Circuit._from_columns.__func__, qc._block_layers

    def spy_columns(cls, n_qubits, kinds, wires, params, meta, layering):
        tables.append((n_qubits, wires, layering(wires)))
        return from_columns(cls, n_qubits, kinds, wires, params, meta, layering)

    def spy_blocks(wires, starts, n_qubits):
        offsets = starts.tolist()
        blocks.extend(wires[a:b] for a, b in zip(offsets[:-1], offsets[1:]))
        return block_layers(wires, starts, n_qubits)

    monkeypatch.setattr(qc.Circuit, "_from_columns", classmethod(spy_columns))
    monkeypatch.setattr(qc, "_block_layers", spy_blocks)
    return tables, blocks


BUILDS = {**{f"loader-{k}": v for k, v in LOADERS.items()},
          **{f"qrom-{k}": v for k, v in QROMS.items()},
          **{f"decoder-{n}": (lambda n=n: qc.build_decoder(n)) for n in range(1, 13)},
          **{f"gauss-{n}": (lambda n=n: sp.prepare_gaussian_state(n, 0xBEEF)[0])
             for n in range(1, 11)}}


@pytest.mark.parametrize("name", BUILDS)
def test_block_layers_match_greedy_loop(name, handed_over):
    circuit = BUILDS[name]()
    tables, blocks = handed_over
    for n_qubits, wires, layer in tables:
        assert np.array_equal(layer, greedy_layers(wires, n_qubits))
    # a block that shares a wire would be layered wrong without an error
    for block in blocks:
        used = block[block >= 0]
        assert len(np.unique(used)) == len(used)
    # the built table is grouped by those layers
    n_qubits, wires, layer = tables[-1]
    assert circuit.n_qubits == n_qubits
    assert np.array_equal(np.diff(circuit.layer_starts), np.bincount(layer))


def test_a_qrom_is_validated_and_grouped_once(handed_over):
    qc.build_qrom(random_table(0), 8)
    tables, _ = handed_over
    assert len(tables) == 1


def test_decoder_and_gaussian_tree_skip_the_row_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("row-by-row path taken")

    monkeypatch.setattr(qc.Circuit, "from_gates", classmethod(refuse))
    monkeypatch.setattr(qc, "_greedy_layers", refuse)
    qc.build_decoder(6)
    sp.prepare_gaussian_state(7, 0xBEEF)


def test_loader_edge_cases_have_their_shapes():
    assert LOADERS["single_hot_wire"]().meta["n_ancillas"] == 0
    assert LOADERS["no_ccx"]().wires.shape[1] == 2
    assert len(LOADERS["empty"]().kinds) == len(LOADERS["all_zero_words"]().kinds) == 0
    assert len(QROMS["all_zero"]().kinds) == 2 * len(qc.build_decoder(3).kinds)


SCHEDULES = {
    **{name: build for name, build in CASES.items() if not name.startswith("gauss")},
    **{f"qrom-{k}": v for k, v in QROMS.items()},
    "all_x": lambda: qc.parse_circuit("# qubits 3\nX 0\nX 1\nX 0\nX 2\nX 1\n"),
}


@pytest.mark.parametrize("name", SCHEDULES)
def test_schedule_matches_row_by_row_levels(name):
    circuit = SCHEDULES[name]()
    steps, parity = qc._build_schedule(circuit)
    want_steps, want_parity = basis_schedule(circuit)
    assert np.array_equal(parity, want_parity)
    assert len(steps) == len(want_steps)
    for got, want in zip(steps, want_steps):
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
