"""Pinned bytes of every built circuit: a builder rewrite must not move one.

Each digest is the sha256 of `serialize_circuit` text, then the layer
offsets, then `resources()`; together they fix the gates, their order and
the layering. The Gaussian literals are perfbench's `GAUSSIAN_DIGESTS`
(serialization only, seed 0xBEEF).
"""
import hashlib

import pytest

from gnmqsim import circuits as qc
from gnmqsim import stateprep as sp
from gnmqsim.connectivity import ConnectivityStore
from gnmqsim.structure import load_bundled_structure


def digest(circuit):
    text = (qc.serialize_circuit(circuit) + repr(circuit.layer_starts.tolist())
            + repr(sorted(qc.resources(circuit).items())))
    return hashlib.sha256(text.encode()).hexdigest()


def ladder(n_items):
    # the `gnmqsim resources` table: words 0..n_items-1
    return qc.build_qrom(list(range(n_items)), max(1, (n_items - 1).bit_length()))


def bundled_sparse():
    struct = load_bundled_structure()
    j_table = ConnectivityStore(struct).export_tables()["j_table"]
    return qc.build_sparse_index_oracle(j_table, struct.n_atoms)


CASES = {
    **{f"decoder{n}": (lambda n=n: qc.build_decoder(n)) for n in range(1, 8)},
    "loader3": lambda: qc.build_data_loader({1: 0b10, 2: 0b11, 3: 0b01}, 4, 2),
    "loader4": lambda: qc.build_data_loader({1: 0b10, 2: 0b11, 3: 0b01, 6: 0b01},
                                            8, 2),
    "loader_cnot": lambda: qc.build_data_loader({1: 0b01, 2: 0b10}, 4, 2),
    **{f"ladder{n}": (lambda n=n: ladder(n)) for n in (4, 8, 16, 32, 64, 128, 256)},
    "qrom1000": lambda: qc.build_qrom([(37 * i + 11) % 256 for i in range(1000)], 8),
    "position": lambda: qc.build_position_oracle(load_bundled_structure()),
    "sparse": bundled_sparse,
    "gauss10": lambda: sp.prepare_gaussian_state(10, 0xBEEF)[0],
    "gauss11": lambda: sp.prepare_gaussian_state(11, 0xBEEF)[0],
}

DIGESTS = {
    "decoder1": "4f59358a102c1ca3af5b03c84174f7b12f9043f591ebe0ae450ddb3e426724c7",
    "decoder2": "64a12afa677d5cadd4c4698a7f84051d155446a7b99a56d3a00da455f4fac914",
    "decoder3": "e349af2cb43863cc9787aaa983295ad80d0b40e7f6e007ea1e93409cbe8105d5",
    "decoder4": "a0df84ba7795e0b7618d5c7355b175321043a5917ddfb70d6da6dc0098be90c2",
    "decoder5": "6f693bba38aa58ff6be934e68012d19720b3f4083116ce284e2c2fb647382bfa",
    "decoder6": "2f0e967ffe28ee82f2b1fcef884c849483e9f28ab7767c8dfdb419325613bac3",
    "decoder7": "2ee81ec43b9c15ab8292404b2b633cf06998ca99364b00524589389617c6b64e",
    "loader3": "e139da56fcf21034e14742f5cb08c7080a1e23a874057fc23361d1a54f052486",
    "loader4": "e63473fd0db211f923850f3151229899188e354e66fcdee34d7e7bf7cdbcbd78",
    "loader_cnot": "08e724882483dc37d4b95c4e4d2fb5ef858f8fd9eb0b18bd8f627011d95733bd",
    "ladder4": "95cb10469454dc01d33fd2c62adaf657d2dcc243cc99ea3399b54c3eae74b339",
    "ladder8": "1ee4fc0bec7aa1d46c03381a397610ed759b8f39292120378b313d4f1b4cb787",
    "ladder16": "50d2507482542709c8becc5196d5ca2a4ac9806ce84ba8ee25e72035d08a3d14",
    "ladder32": "7eba3a97610f3edf56fa2b8c45a26a27f5918d22677f778d814b4783d3ae2c01",
    "ladder64": "96c06aa07167e5fb14a366169b279b4b672b4a6572ce713179a53cbb9c53f47b",
    "ladder128": "5d3a1c0ea4ac6998d7b5597160036878fd77262dee56fca36d385f27369c91cc",
    "ladder256": "7b69c9941f7ea962dbc335bcfa905c9f99543052376f2656882d7e695e0b9471",
    "qrom1000": "80ff2cb124e44c5c2033300f6f20f098dfc883bde0126636507d0fa828c06fdd",
    "position": "f79136adc9e27fdaa106f3bfc8a660352c599079f0a9ba490eed3100f3067320",
    "sparse": "7a95809b9c20e56f1f1dfff0103e13bfa6a81073d36a692ce93e69e39c1a3c4d",
    "gauss10": "08b63b16a3ee90b2303835377ebdde4effaff6caaa06f6d36a62751d71d0ed9d",
    "gauss11": "6268e1a0ff79c6bc2ce2d275c7d81cf95b27e232f6c568af143a590b71c558ad",
}

GAUSSIAN_SERIALIZATION = {
    10: "1ca191c24b1dfce165af4db1df35bab6412a363a61e6a8b098050380526fa8e2",
    11: "ef30e2aa2b15afd24ca50b8987d9be3b484ee969bdec8ef77319f4eeb2b50a80",
}


@pytest.mark.parametrize("name", CASES)
def test_built_circuit_digest_is_pinned(name):
    assert digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("n", (10, 11))
def test_gaussian_serialization_matches_perfbench_digest(n):
    circuit, _ = sp.prepare_gaussian_state(n, 0xBEEF)
    text = qc.serialize_circuit(circuit)
    assert hashlib.sha256(text.encode()).hexdigest() == GAUSSIAN_SERIALIZATION[n]
