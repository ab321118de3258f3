"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is numbered and self-contained: `pytest -v` prints one pass/fail
line per criterion. Tolerances are pinned here and nowhere else; runtime
limits are asserted inside the tests they apply to.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from gnmqsim import circuits as qc
from gnmqsim import control as ct
from gnmqsim import dynamics as dyn
from gnmqsim import observables as obs
from gnmqsim import stateprep as sp
from gnmqsim.connectivity import ConnectivityStore
from gnmqsim.network import build_gnm, model_from_matrices
from gnmqsim.structure import ProteinStructure, synthetic_chain


def _run_addresses(circ, abits):
    """apply_basis on every abits-bit address at once, one row per address
    (address bits big-endian on wires 0..abits-1, every other wire 0)."""
    bits = np.zeros((2 ** abits, circ.n_qubits), dtype=np.uint8)
    bits[:, :abits] = [qc.bits_of(addr, abits) for addr in range(2 ** abits)]
    return qc.apply_basis(circ, bits)


def _words(out, wires):
    """Per row, the word held on wires (wires[t] is bit t)."""
    return out[:, wires].astype(np.int64) @ (1 << np.arange(len(wires)))


def _addresses_read_back(out, abits):
    return [qc.value_of(row) for row in out[:, :abits]] == list(range(len(out)))


def test_criterion_01_moments_match_eigenvalue_sums(crambin_gnm):
    t0 = time.perf_counter()
    A = crambin_gnm.A
    alpha = obs.spectral_bound(A)
    exact = obs.chebyshev_moments_exact(A, alpha, 100)
    lam = np.linalg.eigvalsh(A.toarray())
    scaled = np.clip(lam / alpha, -1.0, 1.0)
    oracle = np.array([np.mean(np.cos(k * np.arccos(scaled)))
                       for k in range(101)])
    assert np.abs(exact.moments - oracle).max() <= 1e-10

    sto = obs.chebyshev_moments_stochastic(A, alpha, 100, probes=400, seed=7)
    close = np.abs(sto.moments - exact.moments)
    ok = close <= 3 * np.maximum(sto.stderr, 1e-300)
    ok |= close <= 1e-12  # k = 0 is exact with zero stated error
    assert ok.mean() >= 0.95
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_kpm_histogram_l1(crambin_gnm):
    t0 = time.perf_counter()
    A = crambin_gnm.A
    alpha = obs.spectral_bound(A)
    moments = obs.chebyshev_moments_exact(A, alpha, 8192)
    lam = np.linalg.eigvalsh(A.toarray())
    report = obs.dos_histogram_l1(lam, moments, bins=40)
    assert report["l1"] <= 0.05
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_circuits_exhaustive_basis_equivalence():
    t0 = time.perf_counter()
    # one-hot decoders: every address at every width up to 256 outputs,
    # each circuit's addresses run as one batch, one row per address
    for n in range(1, 9):
        circ = qc.build_decoder(n)
        pi = circ.meta["pi"]
        hot_wires = circ.meta["onehot_wires"]
        scratch = circ.meta.get("scratch_wires", [])
        copies = circ.meta.get("copy_wires", [])
        out = _run_addresses(circ, n)
        hot = out[:, hot_wires]
        assert np.all(hot.sum(axis=1) == 1)
        assert np.array_equal(hot.argmax(axis=1), pi)
        assert _addresses_read_back(out, n)
        # fanout ancillas restored; routing tree holds one hot
        # wire per interior level (uncomputed inside a QROM)
        assert not out[:, copies].any()
        assert np.all(out[:, scratch].sum(axis=1) == n - 1)

    # data loaders: the companion dictionary, then random tables, driven
    # by the all-cold input (row 0) and every single-hot input (row h + 1)
    rng = np.random.default_rng(303)
    dictionaries = [({1: 0b10, 2: 0b11, 3: 0b01}, 4, 2)]
    for n_onehot in (16, 64, 256):
        width = 6
        table = {i: int(v) for i, v in enumerate(
            rng.integers(0, 2 ** width, size=n_onehot))}
        dictionaries.append((table, n_onehot, width))
    for table, n_onehot, width in dictionaries:
        circ = qc.build_data_loader(table, n_onehot=n_onehot,
                                    word_width=width)
        hot_wires = circ.meta["onehot_wires"]
        out_wires = circ.meta["output_wires"]
        bits = np.zeros((n_onehot + 1, circ.n_qubits), dtype=np.uint8)
        bits[np.arange(1, n_onehot + 1), hot_wires] = 1
        out = qc.apply_basis(circ, bits)
        expect = [0] + [table.get(hot, 0) for hot in range(n_onehot)]
        assert _words(out, out_wires).tolist() == expect
        assert np.array_equal(out[:, hot_wires], bits[:, hot_wires])

    # QROMs: exhaustive address sweeps over a size ladder to N = 256,
    # powers of two plus ragged sizes that exercise the padding branches
    for n_items in (4, 5, 8, 13, 16, 27, 32, 64, 100, 128, 201, 255, 256):
        width = max(3, (n_items - 1).bit_length() - 1)
        table = rng.integers(0, 2 ** width, size=n_items).tolist()
        circ = qc.build_qrom(table, width)
        abits = circ.meta["n_address_bits"]
        out_wires = circ.meta["output_wires"]
        touched = set(circ.meta["address_wires"]) | set(out_wires)
        untouched = [w for w in range(circ.n_qubits) if w not in touched]
        out = _run_addresses(circ, abits)
        expect = table + [0] * (2 ** abits - n_items)
        assert _words(out, out_wires).tolist() == expect
        assert _addresses_read_back(out, abits)
        assert not out[:, untouched].any()
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_qrom_depth_and_gate_scaling():
    sizes = [4, 8, 16, 32, 64, 128, 256]
    depth, gates = [], []
    for n_items in sizes:
        width = (n_items - 1).bit_length()
        res = qc.resources(qc.build_qrom(list(range(n_items)), width))
        depth.append(res["depth"])
        gates.append(res["gates"])
    depth = np.array(depth, dtype=float)
    gates = np.array(gates, dtype=float)
    L = np.log2(np.array(sizes, dtype=float))

    # depth grows as the square of the address width
    design = np.column_stack([np.ones_like(L), L ** 2])
    (c0, c1), *_ = np.linalg.lstsq(design, depth, rcond=None)
    fitted = c0 + c1 * L ** 2
    assert np.all(depth <= 1.1 * fitted), (c0, c1, depth.tolist())
    assert np.abs(depth - fitted).max() <= 0.2 * depth.max()
    exponent = np.polyfit(np.log(L), np.log(depth), 1)[0]
    assert 1.5 < exponent < 2.2, exponent

    # gate count stays within a linear-times-log envelope
    c2 = float((gates / (np.array(sizes) * L)).max())
    assert np.all(gates <= c2 * np.array(sizes) * L)
    assert c2 < 10.0, c2


def test_criterion_05_ensemble_state_exactly_maximally_mixed():
    for n in range(1, 7):
        circuit, rho = sp.prepare_ensemble_state(n)
        assert circuit.depth == 2
        assert np.array_equal(rho, np.eye(2 ** n) / 2 ** n)


def test_criterion_06_gaussian_state_determinism_and_distribution():
    t0 = time.perf_counter()
    n = 10
    circ_a, vec_a = sp.prepare_gaussian_state(n, seed=0)
    circ_b, vec_b = sp.prepare_gaussian_state(n, seed=0)
    assert np.array_equal(np.asarray(vec_a), np.asarray(vec_b))
    assert qc.serialize_circuit(circ_a) == qc.serialize_circuit(circ_b)

    pool = [np.asarray(vec_a).real * math.sqrt(2 ** n)]
    for seed in range(1, 64):
        _, vec = sp.prepare_gaussian_state(n, seed)
        pool.append(np.asarray(vec).real * math.sqrt(2 ** n))
    stat = scipy.stats.kstest(np.concatenate(pool), "norm")
    assert stat.pvalue > 0.01, stat

    # rejection-loop acceptance rate per level, from the counter audit
    audit = []
    for seed in range(8):
        sp.prepare_gaussian_state(n, seed, audit=audit)
    window = sp.COUNTER_WINDOW
    attempts_by_level: dict[int, list] = {}
    for base, used in audit:
        level = base // (window * 2 ** n)
        if 1 <= level <= n and used >= 2:  # rejection-sampled branches
            attempts_by_level.setdefault(level, []).append(used // 2)
    for level, attempts in attempts_by_level.items():
        rate = len(attempts) / sum(attempts)
        assert rate >= 0.3, (level, rate)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_harmonic_energy_and_analytic_trajectory():
    chain = build_gnm(synthetic_chain(5))
    emb = dyn.embed(chain)
    rng = np.random.default_rng(21)
    u0, v0 = rng.normal(size=5), rng.normal(size=5)
    st = sp.encode_initial_conditions(chain, u0, v0)
    sqm = np.sqrt(chain.masses)

    # independent analytic route: eigenmode coefficients in closed form
    lam, modes = np.linalg.eigh(chain.A.toarray())
    zero = lam <= 1e-10 * lam[-1]
    y0, yd0 = sqm * u0, sqm * v0
    a0, ad0 = modes.T @ y0, modes.T @ yd0

    def analytic(t):
        w = np.sqrt(np.where(zero, 1.0, lam))
        a_t = np.where(zero, a0, a0 * np.cos(w * t)
                       + ad0 / w * np.sin(w * t))
        ad_t = np.where(zero, ad0, -a0 * w * np.sin(w * t)
                        + ad0 * np.cos(w * t))
        a_t = np.where(zero, 0.0, a_t)  # rigid offset is not tracked
        return (modes @ a_t) / sqm, (modes @ ad_t) / sqm

    for t in np.linspace(0.0, 100.0, 41):
        psi = dyn.evolve_harmonic(emb, st.psi, float(t))
        u, v = dyn.decode_state(chain, psi, st.energy)
        y, yd = sqm * u, sqm * v
        E = 0.5 * (yd @ yd + y @ (chain.A @ y))
        assert abs(E - st.energy) <= 1e-10 * st.energy
        u_ref, v_ref = analytic(float(t))
        assert np.abs(u - u_ref).max() <= 1e-8
        assert np.abs(v - v_ref).max() <= 1e-8


def test_criterion_08_langevin_master_equation_vs_monte_carlo():
    t0 = time.perf_counter()
    chain2 = build_gnm(synthetic_chain(2))
    emb = dyn.embed(chain2)
    rng = np.random.default_rng(4)
    st = sp.encode_initial_conditions(chain2, rng.normal(size=2),
                                      rng.normal(size=2))
    x0 = st.psi * np.sqrt(2 * st.energy)
    rho0 = np.outer(x0, x0.conj())
    params = dyn.LangevinParams(gamma=0.5, kT=0.3)
    mc = dyn.monte_carlo_encoded(emb, params, x0, t=1.0, n_paths=10_000,
                                 seed=11)
    rho = dyn.evolve_langevin_covariance(emb, params, rho0, 1.0)
    floor = 1e-10 * np.linalg.norm(rho)
    zr = (mc["second_moment"].real - rho.real) / np.maximum(
        mc["stderr_real"], floor)
    zi = (mc["second_moment"].imag - rho.imag) / np.maximum(
        mc["stderr_imag"], floor)
    z = np.concatenate([zr.ravel(), zi.ravel()])
    assert np.mean(np.abs(z) <= 4) >= 0.95

    # fluctuation-dissipation endpoint: Var(sqrt(m) udot) -> kT
    mass = 1.5
    m1 = model_from_matrices(np.array([[1.0]]), np.array([mass]))
    peq = dyn.LangevinParams(gamma=1.0, kT=0.25)
    res = dyn.monte_carlo_langevin(m1, peq, [0.3], [0.0], t=30.0,
                                   n_paths=10_000, seed=17)
    var_mv = (res["velocities"][:, 0] * math.sqrt(mass)).var(ddof=1)
    se = var_mv * math.sqrt(2.0 / (10_000 - 1))
    assert abs(var_mv - peq.kT) <= 3 * se
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_connectivity_store_equals_rebuild():
    rng = np.random.default_rng(77)
    n = 512
    cloud = ProteinStructure(positions=rng.uniform(0, 40, size=(n, 3)),
                             masses=np.ones(n), labels=["X"] * n,
                             source_id="cloud")
    store = ConnectivityStore(cloud, cutoff=7.0)
    n_mods = 0
    while n_mods < 1000:
        op = rng.choice(["move", "move", "move", "add", "remove", "mass"])
        ids = store.active_ids
        if op == "move":
            i = int(rng.choice(ids))
            rep = store.move_atom(i, rng.uniform(0, 40, 3))
        elif op == "add":
            _, rep = store.add_atom(rng.uniform(0, 40, 3),
                                    mass=float(rng.uniform(0.5, 2.0)))
        elif op == "remove":
            if len(ids) < 16:
                continue
            rep = store.remove_atom(int(rng.choice(ids)))
        else:
            rep = store.set_mass(int(rng.choice(ids)),
                                 float(rng.uniform(0.5, 2.0)))
        n_mods += 1
        bound = (rep.degree_after + rep.degree_before + 1) * (
            math.ceil(math.log2(store.n_slots)) + 8)
        assert rep.changed_values <= bound, rep

    rebuilt = ConnectivityStore(store.to_structure(), cutoff=7.0)
    ids = store.active_ids
    compact = {atom_id: r for r, atom_id in enumerate(ids)}
    for r, atom_id in enumerate(ids):
        assert [compact[j] for j in store.neighbors(atom_id)] \
            == rebuilt.neighbors(r)
        assert store.degree(atom_id) == rebuilt.degree(r)
        assert np.array_equal(store.position(atom_id), rebuilt.position(r))
        assert store.mass(atom_id) == rebuilt.mass(r)


def test_criterion_10_lqr_drives_stretched_chain_to_rest():
    t0 = time.perf_counter()
    chain = build_gnm(synthetic_chain(10))
    problem = ct.ControlProblem(chain, gamma=1.0)  # Q = K, R = 1e-2 I
    law = ct.solve_lqr(problem)
    Qz = problem.state_cost()
    assert law.residual <= 1e-8 * np.linalg.norm(Qz, "fro")

    idx = np.arange(10, dtype=float)
    u0 = 0.5 * (idx - idx.mean())  # stretched start
    v0 = np.zeros(10)
    sim = ct.simulate_controlled(problem, law, u0, v0, T=20.0, n_steps=2000)
    E = sim["energy"]
    assert E[-1] <= 1e-6 * E[0]

    z0 = np.concatenate([u0, v0])
    predicted = 0.5 * z0 @ law.riccati @ z0
    assert abs(sim["cost"] - predicted) <= 1e-4 * predicted
    assert time.perf_counter() - t0 < 10.0
