"""The three workloads: fixed job lists, and the checks on every job's output.

A job is a timed call sequence into gnmqsim's public API or its CLI. Its
checks run untimed afterwards, against oracles built in `oracles.py`
from the generated coordinates. A failed check names the job, the
quantity, the value and the tolerance.

Workloads:
  readout  dense embedding work in `observables`: exact and stochastic
           Chebyshev moments of H and of A, through `gnmqsim dos` and
           the README quick-start path;
  evolve   `dynamics`, `control` and the CLI writers: unitary motion
           (eigenbasis of H, decoding) beside dissipative motion (dense
           generator, `expm` quadrature, Monte Carlo);
  readin   Python-level gate objects, rejection sampling and tree edits:
           parsing, network builds, QROM construction and simulation,
           connectivity edits and reads, state preparation.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles as orc

# sha256 of serialize_circuit(prepare_gaussian_state(n, seed)[0]) and of
# the state.csv that `gnmqsim stateprep --n 12` writes (default seed 2a)
GAUSSIAN_SEED = 0xBEEF
GAUSSIAN_DIGESTS = {
    10: "1ca191c24b1dfce165af4db1df35bab6412a363a61e6a8b098050380526fa8e2",
    11: "ef30e2aa2b15afd24ca50b8987d9be3b484ee969bdec8ef77319f4eeb2b50a80",
    "cli12": "236ca2c7626f9456eaa1131931223cb2e969d0e5ef014fa912af0164967797be",
}
KT = 1.0


@dataclass
class Check:
    quantity: str
    value: float
    tolerance: float
    ok: bool


def within(quantity: str, value, tolerance: float) -> Check:
    value = float(value)
    return Check(quantity, value, tolerance, bool(value <= tolerance))


def holds(quantity: str, ok: bool, value=0.0) -> Check:
    """A yes/no check; value is the size of the defect when it fails."""
    return Check(quantity, float(value), 0.0, bool(ok))


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable


class Context:
    """Everything a job may read: inputs, the program, the tracer."""

    def __init__(self, gq, inputs: dict, work: Path, tracer):
        self.gq = gq                    # namespace of gnmqsim modules
        self.inputs = inputs
        self.tables = inputs["tables"]
        self.work = work
        self.tracer = tracer
        bundled = Path(gq.structure.__file__).parent / "data" / "crambin46_ca.pdb"
        self.bundled_pos = orc.read_ca_pdb(bundled.read_text())

    def file(self, name: str) -> str:
        return str(self.inputs["files"][name])

    def chain(self, n: int) -> np.ndarray:
        return self.inputs["chains"][n]

    def out_dir(self, job: str) -> Path:
        return self.work / "out" / job

    def cli(self, job: str, *argv: str) -> Path:
        out = self.out_dir(job)
        code = self.tracer.call("cli.main", self.gq.cli.main,
                                [*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"gnmqsim {' '.join(argv)} exited with code {code}")
        if self.tracer.enabled:
            self.tracer.count("cli.artifact_bytes",
                              sum(p.stat().st_size for p in out.iterdir()))
        return out


def fingerprint(obj, h=None) -> str:
    """Digest of a job's output; later passes must reproduce the first's."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, Path):
        for p in sorted(obj.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    elif isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            if not str(key).startswith("_"):
                h.update(str(key).encode())
                fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            fingerprint(item, h)
    elif is_dataclass(obj):
        fingerprint({f.name: getattr(obj, f.name) for f in fields(obj)}, h)
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, (str, int, float, complex, bool, np.generic)) or obj is None:
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")
    return h.hexdigest() if top else ""


# -- shared readers and oracle pieces ----------------------------------------

def read_csv(path: Path, every: int = 1) -> np.ndarray:
    lines = path.read_text().splitlines()[1:][::every]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def moment_checks(exact: np.ndarray, oracle: np.ndarray, stoch=None,
                  stderr=None) -> list[Check]:
    """Exact moments to 1e-10; stochastic ones within a few standard errors.

    Every stochastic moment must lie within 6 standard errors of the
    oracle, and at least 90% within 3 (k = 0 is exact with zero error).
    """
    out = []
    if exact is not None:
        out.append(within("exact moments max |error|",
                          np.abs(exact - oracle).max(), 1e-10))
    if stoch is not None:
        z = np.abs(stoch - oracle) / np.maximum(stderr, 1e-300)
        z[np.abs(stoch - oracle) <= 1e-12] = 0.0
        out.append(within("stochastic moments max |z|", z.max(), 6.0))
        out.append(within("stochastic moments share |z| > 3",
                          np.mean(z > 3.0), 0.10))
    return out


# -- readout ------------------------------------------------------------------

def _dos_check(B_of: Callable):
    def check(ctx, out):
        lam = np.linalg.eigvalsh(orc.embedding(B_of()))
        alpha = manifest(out)["results"]["alpha"]
        table = read_csv(out / "moments.csv")
        oracle = orc.chebyshev_moments(lam, alpha, len(table) - 1)
        return [within("spectral radius / alpha", np.abs(lam).max() / alpha, 1.0),
                *moment_checks(table[:, 1], oracle, table[:, 2], table[:, 3])]
    return check


def run_quickstart(ctx):
    gq = ctx.gq
    struct = gq.structure.parse_pdb(Path(ctx.file("compact-1000.pdb")).read_text())
    model = gq.network.build_gnm(struct)
    alpha = gq.observables.spectral_bound(model.A)
    moments = gq.observables.chebyshev_moments_stochastic(
        model.A, alpha, 100, probes=50, seed=ctx.tables["kpm_seed"])
    curve = gq.observables.reconstruct_dos(moments)
    modes = gq.observables.low_modes(model, k=10)
    stats = gq.observables.displacement_stats(model, KT)
    return {"alpha": alpha, "moments": moments, "curve": curve,
            "modes": modes, "rmsd": stats["rmsd"]}


def check_quickstart(ctx, out):
    K = orc.gnm(ctx.chain(1000))
    lam = np.linalg.eigvalsh(K)
    oracle = orc.chebyshev_moments(lam, out["alpha"], 100)
    low = lam[lam > 1e-8 * lam[-1]][:10]
    rmsd = np.sqrt(KT * orc.pinv_diag(K))
    m = out["moments"]
    return [
        within("lambda_max / alpha", lam[-1] / out["alpha"], 1.0),
        *moment_checks(None, oracle, m.moments, m.stderr),
        within("low modes max relative error",
               np.abs(out["modes"].eigenvalues - low).max() / lam[-1], 1e-9),
        within("rmsd max relative error",
               np.abs(out["rmsd"] - rmsd).max() / rmsd.max(), 1e-8),
        within("|DOS integral - 1|", abs(out["curve"].integral() - 1.0), 1e-3),
    ]


def readout_jobs(ctx) -> list[Job]:
    seed = ctx.tables["dos_seed"]
    compact = ctx.file("compact-200.pdb")
    return [
        Job("dos-bundled",
            lambda c: c.cli("dos-bundled", "dos", "--probes", "400", "--seed", seed),
            _dos_check(lambda: orc.gnm_factor(ctx.bundled_pos))),
        Job("dos-bundled-anm",
            lambda c: c.cli("dos-bundled-anm", "dos", "--model", "anm",
                            "--probes", "100", "--seed", seed),
            _dos_check(lambda: orc.anm_factor(ctx.bundled_pos))),
        Job("dos-compact-200",
            lambda c: c.cli("dos-compact-200", "dos", "--input", compact,
                            "--probes", "100", "--seed", seed),
            _dos_check(lambda: orc.gnm_factor(ctx.chain(200)))),
        Job("quickstart-compact-1000", run_quickstart, check_quickstart),
    ]


# -- evolve -------------------------------------------------------------------

def check_evolve_cli(ctx, out):
    K = orc.gnm(ctx.chain(200))
    omega = math.sqrt(orc.lowest_modes(K, 1)[0][0])
    traj = read_csv(out / "trajectory.csv", every=50)
    energies = read_csv(out / "energies.csv")
    total = energies[:, 3]
    analytic = np.outer(np.cos(omega * traj[:, 0]), traj[0, 1:])
    return [
        within("energy drift / E0", np.abs(total - total[0]).max() / total[0], 1e-10),
        within("kinetic + potential - total",
               np.abs(energies[:, 1] + energies[:, 2] - total).max() / total[0], 1e-10),
        within("trajectory vs u0 cos(wt)", np.abs(traj[:, 1:] - analytic).max(), 1e-8),
    ]


def _lowest_mode_state(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Encoded [0; i B^T u0]/sqrt(2E) of the unit lowest mode, at rest."""
    u0 = orc.lowest_modes(K, 1)[1][:, 0]
    psi = np.concatenate([np.zeros(len(u0)), 1j * (B.T @ u0)])
    return psi / np.linalg.norm(psi)


def check_langevin_cli(ctx, out):
    B = orc.gnm_factor(ctx.bundled_pos)
    psi = _lowest_mode_state(B @ B.T, B)
    rho = orc.langevin_covariance(orc.embedding(B), B.shape[0], 1.0, 1.0,
                                  "scalar", np.outer(psi, psi.conj()), 20.0)
    rows = read_csv(out / "covariance.csv")
    got = np.zeros_like(rho)
    got[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    return [within("covariance vs Van Loan (rel. Frobenius)",
                   np.linalg.norm(got - rho) / np.linalg.norm(rho), 1e-8)]


def _stretched(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=float)
    u0 = 0.5 * (idx - idx.mean())
    return np.concatenate([u0 / max(np.linalg.norm(u0), 1.0), np.zeros(n)])


def check_control_finite(ctx, out):
    res = manifest(out)["results"]
    value = orc.lqr_finite_value(orc.path_laplacian(20), 1.0, 1e-2, 10.0,
                                 _stretched(20))
    energy = read_csv(out / "energy.csv")[:, 1]
    return [within("predicted cost vs Hamiltonian-flow Riccati (rel.)",
                   abs(res["predicted_cost"] - value) / value, 1e-6),
            within("final / initial energy", energy[-1] / energy[0], 1.0)]


def check_control_plain(ctx, out):
    res = manifest(out)["results"]
    q_norm = np.linalg.norm(orc.path_laplacian(10), "fro")
    return [within("Riccati residual / |Qz|", res["riccati_residual"] / q_norm, 1e-8),
            within("|cost - predicted| / predicted",
                   abs(res["cost"] - res["predicted_cost"]) / res["predicted_cost"], 1e-4),
            within("final / initial energy", res["energy_ratio"], 1e-6)]


HARMONIC_TIMES = np.linspace(0.0, 20.0, 201)


def run_harmonic(ctx):
    gq = ctx.gq
    compact = gq.structure.load_structure_json(
        Path(ctx.file("compact-200.json")).read_text())
    out = {}
    for key, model in (("compact-200", gq.network.build_gnm(compact)),
                       ("bundled-anm", gq.network.build_anm(
                           gq.structure.load_bundled_structure()))):
        mode = gq.observables.low_modes(model, 1).modes[:, 0]
        state = gq.stateprep.encode_initial_conditions(model, mode, np.zeros_like(mode))
        emb = gq.dynamics.embed(model)
        psi = gq.dynamics.evolve_harmonic(emb, state.psi, HARMONIC_TIMES)
        decoded = [gq.dynamics.decode_state(model, psi[k], state.energy)
                   for k in range(0, len(HARMONIC_TIMES), 10)]
        out[key] = {"u0": mode, "energy": state.energy, "decoded": decoded}
    return out


def check_harmonic(ctx, out):
    checks = []
    for key, K in (("compact-200", orc.gnm(ctx.chain(200))),
                   ("bundled-anm", orc.anm(ctx.bundled_pos))):
        res = out[key]
        omega = math.sqrt(orc.lowest_modes(K, 1)[0][0])
        u0, times = res["u0"], HARMONIC_TIMES[::10]
        drift = max(abs(0.5 * (v @ v + u @ K @ u) - res["energy"])
                    for u, v in res["decoded"]) / res["energy"]
        err = max(max(np.abs(u - u0 * np.cos(omega * t)).max(),
                      np.abs(v + omega * u0 * np.sin(omega * t)).max())
                  for (u, v), t in zip(res["decoded"], times))
        checks += [within(f"{key} energy drift / E0", drift, 1e-10),
                   within(f"{key} decoded vs analytic", err, 1e-8)]
    return checks


def _bundled_gnm(ctx):
    return ctx.gq.network.build_gnm(ctx.gq.structure.load_bundled_structure())


def run_langevin_velocity(ctx):
    gq = ctx.gq
    model = _bundled_gnm(ctx)
    mode = gq.observables.low_modes(model, 1).modes[:, 0]
    state = gq.stateprep.encode_initial_conditions(model, mode, np.zeros_like(mode))
    params = gq.dynamics.LangevinParams(gamma=0.5, kT=0.3, damping="velocity")
    rho0 = np.outer(state.psi, state.psi.conj())
    return gq.dynamics.evolve_langevin_covariance(gq.dynamics.embed(model),
                                                  params, rho0, 2.0)


def check_langevin_velocity(ctx, rho):
    B = orc.gnm_factor(ctx.bundled_pos)
    psi = _lowest_mode_state(B @ B.T, B)
    ref = orc.langevin_covariance(orc.embedding(B), B.shape[0], 0.5, 0.3,
                                  "velocity", np.outer(psi, psi.conj()), 2.0)
    return [within("covariance vs Van Loan (rel. Frobenius)",
                   np.linalg.norm(rho - ref) / np.linalg.norm(ref), 1e-8)]


def run_mc_langevin(ctx):
    gq = ctx.gq
    model = _bundled_gnm(ctx)
    mode = gq.observables.low_modes(model, 1).modes[:, 0]
    params = gq.dynamics.LangevinParams(gamma=0.5, kT=0.3)
    res = gq.dynamics.monte_carlo_langevin(model, params, mode, np.zeros_like(mode),
                                           t=2.0, n_paths=200,
                                           seed=ctx.tables["mc_seed"])
    return {"u0": mode, "u": res["displacements"], "v": res["velocities"]}


def check_mc_langevin(ctx, out):
    K = orc.gnm(ctx.bundled_pos)
    mean_u, mean_v = orc.damped_mean(K, 0.5, out["u0"], np.zeros_like(out["u0"]), 2.0)
    z = []
    for paths, mean in ((out["u"], mean_u), (out["v"], mean_v)):
        se = paths.std(axis=0, ddof=1) / math.sqrt(len(paths))
        z.append(np.abs(paths.mean(axis=0) - mean) / se)
    return [within("ensemble mean max |z|", np.concatenate(z).max(), 5.0)]


def run_mc_encoded(ctx):
    gq = ctx.gq
    model = gq.network.build_gnm(gq.structure.synthetic_chain(6))
    emb = gq.dynamics.embed(model)
    u0 = np.linspace(-0.5, 0.5, 6)
    state = gq.stateprep.encode_initial_conditions(model, u0, np.zeros(6))
    x0 = state.psi * math.sqrt(2.0 * state.energy)
    params = gq.dynamics.LangevinParams(gamma=0.5, kT=0.3)
    res = gq.dynamics.monte_carlo_encoded(emb, params, x0, t=2.0, n_paths=2000,
                                          seed=ctx.tables["mc_encoded_seed"])
    return {"x0": x0, "second": res["second_moment"],
            "se_re": res["stderr_real"], "se_im": res["stderr_imag"]}


def check_mc_encoded(ctx, out):
    B = orc.gnm_factor(np.c_[3.8 * np.arange(6), np.zeros((6, 2))])
    x0 = out["x0"]
    rho = orc.langevin_covariance(orc.embedding(B), 6, 0.5, 0.3, "scalar",
                                  np.outer(x0, x0.conj()), 2.0)
    floor = 1e-10 * np.linalg.norm(rho)
    zr = (out["second"].real - rho.real) / np.maximum(out["se_re"], floor)
    zi = (out["second"].imag - rho.imag) / np.maximum(out["se_im"], floor)
    z = np.abs(np.concatenate([zr.ravel(), zi.ravel()]))
    return [within("second moment share |z| > 4", np.mean(z > 4.0), 0.05)]


def evolve_jobs(ctx) -> list[Job]:
    compact = ctx.file("compact-200.json")
    return [
        Job("evolve-compact-200",
            lambda c: c.cli("evolve-compact-200", "evolve", "--input", compact),
            check_evolve_cli),
        Job("evolve-langevin-bundled",
            lambda c: c.cli("evolve-langevin-bundled", "evolve",
                            "--dynamics", "langevin", "--tmax", "20"),
            check_langevin_cli),
        Job("control-finite-20",
            lambda c: c.cli("control-finite-20", "control", "--n", "20",
                            "--horizon", "10"),
            check_control_finite),
        Job("control-default",
            lambda c: c.cli("control-default", "control"), check_control_plain),
        Job("harmonic-library", run_harmonic, check_harmonic),
        Job("langevin-velocity-damped", run_langevin_velocity, check_langevin_velocity),
        Job("monte-carlo-langevin", run_mc_langevin, check_mc_langevin),
        Job("monte-carlo-encoded", run_mc_encoded, check_mc_encoded),
    ]


# -- readin -------------------------------------------------------------------

def run_parse_build(ctx):
    gq = ctx.gq
    s1000 = gq.structure.parse_pdb(Path(ctx.file("compact-1000.pdb")).read_text())
    gnm = gq.network.build_gnm(s1000)
    s500 = gq.structure.parse_pdb(Path(ctx.file("compact-500.pdb")).read_text())
    anm = gq.network.build_anm(s500)
    return {"positions": s1000.positions, "gnm_K": gnm.K, "gnm_edges": gnm.n_edges,
            "anm_K": anm.K, "anm_edges": anm.n_edges}


def check_parse_build(ctx, out):
    p1000, p500 = ctx.chain(1000), ctx.chain(500)
    anm_K = orc.anm(p500)
    return [
        within("parsed positions max |error|",
               np.abs(out["positions"] - p1000).max(), 1e-9),
        holds("GNM contacts == brute-force pairs",
              out["gnm_edges"] == len(orc.contacts(p1000, 7.0)),
              out["gnm_edges"]),
        holds("GNM Kirchhoff equals oracle",
              np.array_equal(out["gnm_K"], orc.gnm(p1000))),
        holds("ANM contacts == brute-force pairs",
              out["anm_edges"] == len(orc.contacts(p500, 13.0)), out["anm_edges"]),
        within("ANM Hessian max |error|", np.abs(out["anm_K"] - anm_K).max(), 1e-12),
    ]


def _input_bits(meta: dict, n_qubits: int, address: int) -> list[int]:
    bits = [0] * n_qubits
    n_addr = meta["n_address_bits"]
    for pos, w in enumerate(meta["address_wires"]):
        bits[w] = (address >> (n_addr - 1 - pos)) & 1
    return bits


def _lookups(ctx, circuit, addresses) -> dict:
    """Every address through `apply_basis`; the wire values come back as bytes."""
    outs = []
    for a in addresses:
        out = ctx.tracer.call("circuits.apply_basis", ctx.gq.circuits.apply_basis,
                              circuit, _input_bits(circuit.meta, circuit.n_qubits, a))
        ctx.tracer.count("circuits.basis_evals")
        outs.append(bytes(out))
    meta = {k: circuit.meta[k] for k in ("address_wires", "output_wires",
                                         "n_address_bits")}
    return {"addresses": list(addresses), "outs": outs, "meta": meta,
            "n_qubits": circuit.n_qubits}


def _decode(look: dict) -> tuple[list[int], bool]:
    """Output words, and whether every other wire came back unchanged."""
    meta, n = look["meta"], look["n_qubits"]
    got = np.frombuffer(b"".join(look["outs"]), dtype=np.uint8).reshape(-1, n)
    sent = np.array([_input_bits(meta, n, a) for a in look["addresses"]], dtype=np.uint8)
    outputs = meta["output_wires"]
    others = np.setdiff1d(np.arange(n), outputs)
    restored = bool(np.array_equal(got[:, others], sent[:, others]))
    weights = 1 << np.arange(len(outputs), dtype=np.int64)
    return (got[:, outputs].astype(np.int64) @ weights).tolist(), restored


def _qrom_job(key: str, addresses_of: Callable):
    def run(ctx):
        circuit = ctx.gq.circuits.build_qrom(ctx.tables[key], inputs.QROM_WIDTH)
        return _lookups(ctx, circuit, addresses_of(ctx))

    def check(ctx, out):
        table = ctx.tables[key]
        words, restored = _decode(out)
        expect = [table[a] if a < len(table) else 0 for a in out["addresses"]]
        wrong = sum(w != e for w, e in zip(words, expect))
        return [holds("QROM words wrong", wrong == 0, wrong),
                holds("address and ancilla wires restored", restored)]
    return run, check


def run_store(ctx):
    gq, tr = ctx.gq, ctx.tracer
    struct = gq.structure.load_structure_json(
        Path(ctx.file("compact-200.json")).read_text())
    Store = gq.connectivity.ConnectivityStore
    store = tr.call("connectivity.ConnectivityStore", Store, struct, cutoff=7.0)
    answers, changed = [], []
    for op in ctx.tables["edits"]:
        kind = op[0]
        if kind == "sparse":
            answers.append(tr.call("connectivity.query_sparse", store.query_sparse,
                                   op[1], op[2]))
        elif kind == "entry":
            answers.append(tr.call("connectivity.query_entry", store.query_entry,
                                   op[1], op[2]))
        else:
            if kind == "move":
                rep = tr.call("connectivity.move_atom", store.move_atom, op[1], op[2])
            elif kind == "add":
                rep = tr.call("connectivity.add_atom", store.add_atom, op[1])[1]
            else:
                rep = tr.call("connectivity.remove_atom", store.remove_atom, op[1])
            changed.append(rep.changed_values)
    tr.count("connectivity.queries", len(answers))
    tr.count("connectivity.edits", len(changed))
    tr.count("connectivity.changed_values", sum(changed))
    return {"answers": answers, "changed": changed,
            "state": store.state_tuple(), "_store": store}


def _replay(ctx) -> tuple[list, dict]:
    """Brute-force replay of the edit script: query answers and final sites."""
    sites = {i: p for i, p in enumerate(ctx.chain(200))}
    next_id, answers = len(sites), []

    def nbrs(i):
        ids = np.array(sorted(j for j in sites if j != i))
        d = np.linalg.norm(np.array([sites[j] for j in ids]) - sites[i], axis=1)
        return ids[d <= 7.0].tolist()

    for op in ctx.tables["edits"]:
        kind = op[0]
        if kind == "sparse":
            row = nbrs(op[1])
            answers.append(row[op[2]] if op[2] < len(row) else -1)
        elif kind == "entry":
            i, j = op[1], op[2]
            answers.append(float(len(nbrs(i))) if i == j
                           else (-1.0 if j in nbrs(i) else 0.0))
        elif kind == "move":
            sites[op[1]] = np.asarray(op[2], dtype=float)
        elif kind == "add":
            sites[next_id] = np.asarray(op[1], dtype=float)
            next_id += 1
        else:
            del sites[op[1]]
    return answers, sites


def check_store(ctx, out):
    answers, sites = _replay(ctx)
    store = out["_store"]
    rebuilt = ctx.gq.connectivity.ConnectivityStore(store.to_structure(), cutoff=7.0)
    ids = store.active_ids
    compact = {atom_id: r for r, atom_id in enumerate(ids)}
    same = all([compact[j] for j in store.neighbors(a)] == rebuilt.neighbors(r)
               for r, a in enumerate(ids))
    edges = sum(len(store.neighbors(a)) for a in ids) // 2
    pairs = len(orc.contacts(np.array([sites[i] for i in sorted(sites)]), 7.0))
    wrong = sum(a != b for a, b in zip(out["answers"], answers))
    return [holds("edited store equals rebuild", same and ids == sorted(sites)),
            holds("contact count == brute-force pairs", edges == pairs, edges - pairs),
            holds("query answers wrong", wrong == 0, wrong)]


def run_bundled_oracles(ctx):
    gq = ctx.gq
    struct = gq.structure.load_bundled_structure()
    store = ctx.tracer.call("connectivity.ConnectivityStore",
                            gq.connectivity.ConnectivityStore, struct)
    tables = ctx.tracer.call("connectivity.export_tables", store.export_tables)
    sparse = gq.circuits.build_sparse_index_oracle(tables["j_table"], struct.n_atoms)
    # one address per padded row, its slot walking through the padded slots
    row_bits, slot_bits = sparse.meta["row_bits"], sparse.meta["slot_bits"]
    sparse_addresses = [(r << slot_bits) | (r % (1 << slot_bits))
                        for r in range(1 << row_bits)]
    position = gq.circuits.build_position_oracle(struct)
    return {"j_table": tables["j_table"],
            "sparse": _lookups(ctx, sparse, sparse_addresses),
            "sparse_meta": {k: sparse.meta[k] for k in ("slot_bits", "sentinel")},
            "position": _lookups(ctx, position, range(64)),
            "position_meta": {k: position.meta[k] for k in ("bits_per_coord", "scale")}}


def check_bundled_oracles(ctx, out):
    pos = ctx.bundled_pos
    n = len(pos)
    rows = [[] for _ in range(n)]
    for i, j in orc.contacts(pos, 7.0):
        rows[i].append(j)
        rows[j].append(i)
    width = out["j_table"].shape[1]
    expect = np.full((n, width), -1)
    for i, row in enumerate(rows):
        expect[i, :len(row)] = sorted(row)
    meta = out["sparse_meta"]
    sparse_words, sparse_ok = _decode(out["sparse"])
    wrong_sparse = 0
    for a, word in zip(out["sparse"]["addresses"], sparse_words):
        r, s = a >> meta["slot_bits"], a & ((1 << meta["slot_bits"]) - 1)
        want = expect[r, s] if r < n and s < width else -1
        wrong_sparse += word != (meta["sentinel"] if want < 0 else want)
    bits, scale = out["position_meta"]["bits_per_coord"], out["position_meta"]["scale"]
    position_words, position_ok = _decode(out["position"])
    err = 0.0
    for a, word in zip(out["position"]["addresses"], position_words):
        fields = [(word >> (k * bits)) & ((1 << bits) - 1) for k in range(3)]
        coords = np.array([f - (1 << bits) if f >= 1 << (bits - 1) else f
                           for f in fields]) * scale
        err = max(err, np.abs(coords - (pos[a] if a < n else 0.0)).max())
    return [holds("neighbour table equals brute force",
                  np.array_equal(out["j_table"], expect)),
            holds("sparse-index words wrong", wrong_sparse == 0, wrong_sparse),
            within("position words max |error| / scale", err / scale, 0.5 + 1e-9),
            holds("address and ancilla wires restored", sparse_ok and position_ok)]


def run_stateprep(ctx):
    gq = ctx.gq
    out = {"cli12": ctx.cli("stateprep-12", "stateprep", "--n", "12")}
    for n in (10, 11):
        audit: list = []
        circuit, vec = gq.stateprep.prepare_gaussian_state(n, GAUSSIAN_SEED, audit=audit)
        out[n] = {"circuit": circuit, "state": vec, "audit": audit}
    out["resources"] = ctx.cli("resources", "resources")
    return out


def check_stateprep(ctx, out):
    digest = hashlib.sha256((out["cli12"] / "state.csv").read_bytes()).hexdigest()
    checks = [holds("stateprep --n 12 state.csv digest",
                    digest == GAUSSIAN_DIGESTS["cli12"])]
    for n in (10, 11):
        text = ctx.gq.circuits.serialize_circuit(out[n]["circuit"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        checks += [holds(f"n={n} serialization digest", digest == GAUSSIAN_DIGESTS[n]),
                   within(f"n={n} | |state| - 1 |",
                          abs(np.linalg.norm(out[n]["state"]) - 1.0), 1e-12)]
    table = read_csv(out["resources"] / "resources.csv")
    checks.append(holds("resources table sizes 4..256",
                        table[:, 0].tolist() == [4, 8, 16, 32, 64, 128, 256]
                        and table[:, 1].tolist() == [2, 3, 4, 5, 6, 7, 8]))
    return checks


def readin_jobs(ctx) -> list[Job]:
    run256, check256 = _qrom_job("qrom256", lambda c: list(range(256)))
    run1000, check1000 = _qrom_job("qrom1000", lambda c: c.tables["qrom1000_addresses"])
    return [
        Job("parse-build", run_parse_build, check_parse_build),
        Job("qrom-256", run256, check256),
        Job("qrom-1000", run1000, check1000),
        Job("store-edits", run_store, check_store),
        Job("bundled-oracles", run_bundled_oracles, check_bundled_oracles),
        Job("stateprep", run_stateprep, check_stateprep),
    ]


WORKLOADS = {
    "readout": (readout_jobs, (200, 1000)),
    "evolve": (evolve_jobs, (200,)),
    "readin": (readin_jobs, (200, 500, 1000)),
}
