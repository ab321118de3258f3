import warnings

import numpy as np
import pytest
import scipy.sparse
from scipy.spatial.distance import cdist, pdist, squareform

from gnmqsim import network
from gnmqsim.connectivity import ConnectivityStore
from gnmqsim.errors import NumericalError
from gnmqsim.network import (DEFAULT_ANM_CUTOFF, DEFAULT_GNM_CUTOFF,
                             NetworkModel, build_anm, build_gnm,
                             condition_diagnostics, export_matrix_market,
                             mass_weight, model_from_matrices)
from gnmqsim.structure import (ProteinStructure, load_bundled_structure,
                               synthetic_chain)

RTOL = 1e-12


def import_matrix_market(path) -> np.ndarray:
    import scipy.io
    mat = scipy.io.mmread(str(path))
    return np.asarray(mat.todense() if scipy.sparse.issparse(mat) else mat, dtype=float)


def test_gnm_chain_is_path_laplacian():
    # 3.8 A spacing, 7.0 A cutoff: only adjacent residues interact
    model = build_gnm(synthetic_chain(4))
    expected = np.array([[1, -1, 0, 0],
                         [-1, 2, -1, 0],
                         [0, -1, 2, -1],
                         [0, 0, -1, 1]], dtype=float)
    assert np.array_equal(model.K, expected)
    assert model.n_edges == 3


def test_gnm_row_sums_vanish(crambin_gnm):
    assert np.allclose(crambin_gnm.K.sum(axis=1), 0.0, atol=1e-12)
    assert np.array_equal(crambin_gnm.K, crambin_gnm.K.T)
    # integer contact counts on the diagonal
    assert np.array_equal(crambin_gnm.K, np.round(crambin_gnm.K))
    assert crambin_gnm.K[0, 0] == 6.0
    assert crambin_gnm.n_edges == 153


def test_spring_scales_linearly():
    base = build_gnm(synthetic_chain(4), spring=1.0)
    double = build_gnm(synthetic_chain(4), spring=2.0)
    assert np.allclose(double.K, 2.0 * base.K)


def test_wider_cutoff_adds_contacts():
    near = build_gnm(synthetic_chain(6), cutoff=7.0)
    far = build_gnm(synthetic_chain(6), cutoff=8.0)   # second neighbors at 7.6
    assert far.n_edges > near.n_edges
    assert far.K[0, 2] == -1.0
    assert near.K[0, 2] == 0.0


def test_anm_two_atom_block():
    pair = synthetic_chain(2, spacing=3.0)
    model = build_anm(pair)
    # unit vector along x: H_ij = -spring * outer(e, e)
    e = np.array([1.0, 0.0, 0.0])
    block = -np.outer(e, e)
    assert np.allclose(model.K[0:3, 3:6], block, atol=RTOL)
    assert np.allclose(model.K[0:3, 0:3], np.outer(e, e), atol=RTOL)


def test_anm_zero_mode_counts():
    ev_line = np.linalg.eigvalsh(build_anm(synthetic_chain(3)).A.toarray())
    # collinear chain: 2 stretch modes carry the only restoring forces
    assert int((ev_line <= 1e-8 * ev_line[-1]).sum()) == 7
    pos = synthetic_chain(3).positions.copy()
    pos[2] = [1.9, 3.3, 0.0]
    bent = ProteinStructure(positions=pos, masses=np.ones(3),
                            labels=["A1", "A2", "A3"])
    ev_bent = np.linalg.eigvalsh(build_anm(bent).A.toarray())
    # non-collinear: exactly the six rigid-body motions
    assert int((ev_bent <= 1e-8 * ev_bent[-1]).sum()) == 6


def test_mass_weighting():
    rng = np.random.default_rng(3)
    K = rng.normal(size=(5, 5))
    K = K @ K.T
    m = rng.uniform(0.5, 4.0, size=5)
    A = mass_weight(K, m)
    s = 1.0 / np.sqrt(m)
    assert np.allclose(A, s[:, None] * K * s[None, :], atol=1e-13)


@pytest.mark.parametrize("builder", [build_gnm, build_anm])
def test_incidence_factorization(builder, crambin):
    model = builder(crambin)
    B = model.B.toarray()
    assert np.allclose(B @ B.T, model.A.toarray(), atol=1e-10)


def test_factor_column_count_matches_edges(crambin_gnm):
    assert crambin_gnm.B.shape == (46, crambin_gnm.n_edges)


def test_factor_is_csc_without_explicit_zeros():
    # a collinear chain: every ANM contact direction has exact-zero y and z
    chain_anm = build_anm(synthetic_chain(6))
    models = (chain_anm, build_gnm(synthetic_chain(6)),
              build_anm(load_bundled_structure()),
              model_from_matrices(np.diag([2.0, 0.0, 1.0]), np.ones(3)))
    for model in models:
        assert isinstance(model.B, scipy.sparse.csc_array)
        assert model.B.nnz == np.count_nonzero(model.B.toarray())
    assert chain_anm.B.nnz == 2 * chain_anm.n_edges


def _stiffness_models():
    crambin = load_bundled_structure()
    heavy = ProteinStructure(
        positions=crambin.positions,
        masses=np.random.default_rng(8).uniform(0.5, 4.0, crambin.n_atoms),
        labels=crambin.labels)
    return {"bundled-gnm": build_gnm(crambin), "bundled-anm": build_anm(crambin),
            "nonunit-mass-anm": build_anm(heavy),
            "matrices": model_from_matrices(build_gnm(synthetic_chain(7)).K,
                                            np.linspace(1.0, 3.0, 7))}


STIFFNESS_MODELS = _stiffness_models()


@pytest.mark.parametrize("key", sorted(STIFFNESS_MODELS))
def test_stiffness_is_csr_without_explicit_zeros_and_equals_mass_weight(key):
    model = STIFFNESS_MODELS[key]
    dense = mass_weight(model.K, model.masses)
    assert isinstance(model.A, scipy.sparse.csr_array)
    assert model.A.has_canonical_format and np.all(model.A.data != 0.0)
    assert model.A.nnz == np.count_nonzero(dense)
    assert model.A.toarray().tobytes() == dense.tobytes()


@pytest.mark.parametrize("key", sorted(STIFFNESS_MODELS))
def test_eigenpairs_are_bit_identical_to_eigh_of_the_dense_a(key):
    model = STIFFNESS_MODELS[key]
    lam, vecs = np.linalg.eigh(mass_weight(model.K, model.masses))
    assert model.eigenpairs[0].tobytes() == lam.tobytes()
    assert model.eigenpairs[1].tobytes() == vecs.tobytes()


def test_model_from_matrices_rejects_indefinite():
    K = np.diag([1.0, -2.0])
    with pytest.raises(NumericalError):
        model_from_matrices(K, np.ones(2))


def test_condition_diagnostics(crambin_gnm):
    diag = condition_diagnostics(crambin_gnm)
    assert diag["n_zero_modes"] == 1
    assert diag["lambda_max"] > diag["lambda_min_nonzero"] > 0
    assert diag["kappa"] == pytest.approx(
        diag["lambda_max"] / diag["lambda_min_nonzero"])


def test_matrix_market_round_trip(tmp_path):
    model = build_gnm(synthetic_chain(4))
    path = tmp_path / "k.mtx"
    export_matrix_market(model.K, path, comment="chain")
    back = import_matrix_market(path)
    assert np.allclose(back, model.K, atol=1e-15)


def pair_structure(a, b):
    return ProteinStructure(positions=np.array([a, b], dtype=float),
                            masses=np.ones(2), labels=["A1", "A2"])


BOUNDARY_PAIR = ([36.88542943473193, 13.406997934744325, -0.34283062011469667],
                 [32.615175161474895, 17.87107337178247, -3.6347842853661865])
# 7.0 apart, but floor(x / 7) puts them two cells apart: found only because
# the cells are widened past the cutoff
TWO_CELLS_APART = ([-1e-17, 0.0, 0.0], [7.0, 0.0, 0.0])


def test_gnm_and_store_agree_at_the_cutoff_boundary():
    # 7.000000000000001 apart by cdist's kernel, 7.0 by np.linalg.norm
    pair = pair_structure(*BOUNDARY_PAIR)
    store = ConnectivityStore(pair, cutoff=7.0)
    assert build_gnm(pair, cutoff=7.0).n_edges == store.degree(0)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 7.0, 1e3, 1e6])
def test_distance_kernel_equals_cdist_bit_for_bit(scale):
    rng = np.random.default_rng(int(scale * 1000) % 2**32)
    a = rng.normal(size=(40, 3)) * scale + rng.normal(size=3) * scale
    b = rng.uniform(-scale, scale, size=(30, 3))
    assert np.array_equal(network._distance(a[:, None, :] - b[None, :, :]), cdist(a, b))
    assert np.array_equal(network.within_cutoff(a, b, scale), cdist(a, b) <= scale)
    a, b = np.array(BOUNDARY_PAIR)
    assert network._distance(a - b) == cdist([a], [b])[0, 0] == 7.000000000000001
    assert not network.within_cutoff([a], [b], 7.0)[0, 0]


def compact_walk(n: int, seed: int) -> np.ndarray:
    """3.8 A steps in random directions inside a sphere of 180 A^3 per site,
    on the PDB's 0.001 A grid."""
    rng = np.random.default_rng(seed)
    radius = (3.0 * n * 180.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    pos = np.zeros((n, 3))
    for k in range(1, n):
        step = rng.normal(size=3)
        while np.linalg.norm(pos[k - 1] + 3.8 * step / np.linalg.norm(step)) > radius:
            step = rng.normal(size=3)
        pos[k] = pos[k - 1] + 3.8 * step / np.linalg.norm(step)
    return np.round(pos, 3)


def on_cell_faces(cutoff: float) -> np.ndarray:
    """Atoms on the faces of cutoff-sided cells, each one ulp either side,
    and pairs exactly one cutoff apart along an axis."""
    rng = np.random.default_rng(int(cutoff))
    faces = rng.integers(-6, 6, size=(80, 3)) * cutoff
    return np.vstack([faces, faces + [cutoff, 0.0, 0.0], faces + [0.0, 0.0, cutoff],
                      np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf)])


def scattered_pairs(n: int, reach: float) -> np.ndarray:
    """n atoms up to `reach` from the origin along each axis (hundreds of
    thousands of cells), each with a partner 2-8 A away."""
    rng = np.random.default_rng(9)
    a = rng.uniform(-reach, reach, size=(n, 3))
    step = rng.normal(size=(n, 3))
    step *= rng.uniform(2.0, 8.0, size=(n, 1)) / np.linalg.norm(step, axis=1, keepdims=True)
    return np.vstack([a, a + step])


CONTACT_CLOUDS = {  # each built for a cutoff
    "compact400": lambda cutoff: compact_walk(400, 1),
    "compact1000": lambda cutoff: compact_walk(1000, 2),
    "faces": on_cell_faces,
    "negative": lambda cutoff: np.random.default_rng(4).uniform(-60.0, -1.0, size=(300, 3)),
    "one_atom": lambda cutoff: np.array([[1.0, -2.0, 3.0]]),
    "wide": lambda cutoff: scattered_pairs(500, 3e6),
    "far_apart": lambda cutoff: np.vstack([compact_walk(150, 5),
                                           compact_walk(150, 6) + 3e8]),
    "two_cells_apart": lambda cutoff: np.array(TWO_CELLS_APART),
}


@pytest.mark.parametrize("cutoff", [7.0, 13.0])
@pytest.mark.parametrize("cloud", CONTACT_CLOUDS)
def test_contact_search_matches_cdist_oracle(cloud, cutoff):
    pos = CONTACT_CLOUDS[cloud](cutoff)
    structure = ProteinStructure(positions=pos, masses=np.ones(len(pos)),
                                 labels=["X"] * len(pos))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the face lattice has coincident atoms
        i, j, d, _ = network._contact_edges(structure, cutoff, allow_coincident=True)
    want_i, want_j = np.nonzero(np.triu(cdist(pos, pos) <= cutoff, 1))
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert np.array_equal(d, pos[i] - pos[j])


def test_contact_search_warns_for_the_first_coincident_pair_in_order():
    pos = compact_walk(200, 3)
    pos[[150, 90, 40]] = pos[[12, 33, 7]]   # three coincident pairs
    structure = ProteinStructure(positions=pos, masses=np.ones(200),
                                 labels=["X"] * 200)
    with pytest.warns(UserWarning, match=r"^atoms 7 and 40 coincide \(and 2 more pairs\); "):
        build_gnm(structure)
    with pytest.raises(NumericalError, match=r"^atoms 7 and 40 coincide \(and 2 more"):
        build_anm(structure)


@pytest.mark.parametrize("cutoff", [0.0, -1.0, float("nan")])
def test_contact_search_rejects_a_cutoff_that_is_not_positive(cutoff):
    with pytest.raises(ValueError, match="cutoff must be positive"):
        build_gnm(synthetic_chain(3), cutoff=cutoff)


def test_gnm_keeps_coincident_atoms_connected_with_a_warning():
    pair = pair_structure([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match="atoms 0 and 1 coincide") as record:
        model = build_gnm(pair)
    assert record[0].filename == __file__
    assert model.K[0, 1] == -1.0


def test_anm_rejects_coincident_atoms():
    pair = pair_structure([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(NumericalError, match="atoms 0 and 1"):
        build_anm(pair)


# -- the contact-by-contact loops the vectorised assembly replaced, kept
# -- unchanged as its oracle ---------------------------------------------------

def _contact_edges(structure: ProteinStructure, cutoff: float, spring: float,
                   allow_coincident: bool):
    dists = squareform(pdist(structure.positions))
    n = structure.n_atoms
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if dists[i, j] <= cutoff:
                if dists[i, j] == 0.0:
                    if not allow_coincident:
                        raise NumericalError(
                            f"atoms {i} and {j} coincide; contact direction undefined")
                    warnings.warn(f"atoms {i} and {j} coincide; treated as connected",
                                  stacklevel=3)
                edges.append((i, j, spring))
    return edges, dists


def loop_build_gnm(structure: ProteinStructure, cutoff: float = DEFAULT_GNM_CUTOFF,
                   spring: float = 1.0) -> NetworkModel:
    edges, _ = _contact_edges(structure, cutoff, spring, allow_coincident=True)
    n = structure.n_atoms
    lap = np.zeros((n, n), dtype=np.int64)
    for i, j, _ in edges:
        lap[i, j] -= 1
        lap[j, i] -= 1
        lap[i, i] += 1
        lap[j, j] += 1
    K = spring * lap.astype(float)
    masses = structure.masses.copy()
    A = mass_weight(K, masses)
    B = incidence_factor(edges, masses, n)
    return NetworkModel(kind="gnm", K=K, masses=masses, A=A, B=B,
                        edges=edges, cutoff=cutoff, spring=spring)


def loop_build_anm(structure: ProteinStructure, cutoff: float = DEFAULT_ANM_CUTOFF,
                   spring: float = 1.0) -> NetworkModel:
    edges, _ = _contact_edges(structure, cutoff, spring, allow_coincident=False)
    n = structure.n_atoms
    K = np.zeros((3 * n, 3 * n))
    for i, j, w in edges:
        d = structure.positions[i] - structure.positions[j]
        block = -w * np.outer(d, d) / (d @ d)
        si, sj = slice(3 * i, 3 * i + 3), slice(3 * j, 3 * j + 3)
        K[si, sj] += block
        K[sj, si] += block
        K[si, si] -= block
        K[sj, sj] -= block
    masses = np.repeat(structure.masses, 3)
    A = mass_weight(K, masses)
    B = incidence_factor(edges, masses, n, positions=structure.positions)
    return NetworkModel(kind="anm", K=K, masses=masses, A=A, B=B,
                        edges=edges, cutoff=cutoff, spring=spring)


def incidence_factor(edges, masses, n_sites: int,
                     positions: np.ndarray | None = None) -> np.ndarray:
    masses = np.asarray(masses, dtype=float)
    if positions is None:
        B = np.zeros((n_sites, len(edges)))
        for col, (i, j, w) in enumerate(edges):
            B[i, col] = np.sqrt(w / masses[i])
            B[j, col] = -np.sqrt(w / masses[j])
        return B
    site_mass = masses[::3]
    B = np.zeros((3 * n_sites, len(edges)))
    for col, (i, j, w) in enumerate(edges):
        d = positions[i] - positions[j]
        unit = d / np.linalg.norm(d)
        B[3 * i:3 * i + 3, col] = np.sqrt(w / site_mass[i]) * unit
        B[3 * j:3 * j + 3, col] = -np.sqrt(w / site_mass[j]) * unit
    return B


def random_cloud():
    rng = np.random.default_rng(11)
    return ProteinStructure(positions=rng.uniform(0.0, 20.0, size=(60, 3)),
                            masses=rng.uniform(0.5, 4.0, size=60),
                            labels=["X"] * 60)


@pytest.mark.parametrize("spring", [1.0, 2.0])
@pytest.mark.parametrize("build, loop_build", [(build_gnm, loop_build_gnm),
                                               (build_anm, loop_build_anm)])
@pytest.mark.parametrize("make", [load_bundled_structure,
                                  lambda: synthetic_chain(6), random_cloud],
                         ids=["crambin", "chain6", "cloud"])
def test_assembly_matches_contact_loops(build, loop_build, make, spring):
    structure = make()
    new, old = build(structure, spring=spring), loop_build(structure, spring=spring)
    assert np.array_equal(new.K, old.K)
    assert np.array_equal(new.A.toarray(), old.A)
    assert np.array_equal(new.B.toarray(), old.B)
    assert np.array_equal(new.edges,
                          np.array([(i, j) for i, j, _ in old.edges]).reshape(-1, 2))
