import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnmqsim import cli, structure
from gnmqsim.cli import _THREAD_VARS, RunConfig, main
from test_network import import_matrix_market

PDB_LINES = """\
ATOM      1  CA  THR A   1       0.000   0.000   0.000  1.00  0.00           C
ATOM      2  CA  GLY A   2       3.800   0.000   0.000  1.00  0.00           C
ATOM      3  CA  ALA A   3       7.600   0.000   0.000  1.00  0.00           C
TER
"""


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


def manifest_of(out):
    return json.loads((out / "manifest.json").read_text())


def csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_structure_bundled(tmp_path):
    code, out = run(tmp_path, "structure")
    assert code == 0
    header, rows = csv_rows(out / "atoms.csv")
    assert header == ["id", "x", "y", "z", "mass", "label"]
    assert len(rows) == 46
    assert rows[0][5] == "THR1"
    man = manifest_of(out)
    assert man["command"] == "structure"
    assert man["artifacts"] == ["atoms.csv"]
    assert man["results"]["n_atoms"] == 46
    assert man["input_sha256"] is None
    assert man["config_sha256"] == RunConfig(**man["config"]).sha256()
    assert set(man["versions"]) == {"gnmqsim", "numpy", "scipy", "python"}


def test_structure_from_pdb_file(tmp_path):
    pdb = tmp_path / "toy.pdb"
    pdb.write_text(PDB_LINES)
    code, out = run(tmp_path, "structure", "--input", str(pdb))
    assert code == 0
    _, rows = csv_rows(out / "atoms.csv")
    assert len(rows) == 3
    assert manifest_of(out)["input_sha256"] is not None


def test_model_synthetic_chain(tmp_path):
    code, out = run(tmp_path, "model", "--n", "6")
    assert code == 0
    header, rows = csv_rows(out / "edges.csv")
    assert header == ["i", "j", "weight"]
    assert len(rows) == 5  # path graph
    assert (out / "matrix.mtx").read_text().startswith("%%MatrixMarket")
    _, eigrows = csv_rows(out / "spectrum.csv")
    assert len(eigrows) == 6
    assert abs(float(eigrows[0][1])) < 1e-10  # rigid zero mode
    man = manifest_of(out)
    assert man["results"]["n_edges"] == 5
    assert man["results"]["n_dof"] == 6


def test_anm_default_cutoff_keeps_spring(tmp_path):
    mats = {}
    for spring in ("1", "2"):
        out = tmp_path / spring
        assert main(["model", "--model", "anm", "--n", "4", "--spring", spring,
                     "--out", str(out)]) == 0
        assert manifest_of(out)["config"]["spring"] == float(spring)
        mats[spring] = import_matrix_market(out / "matrix.mtx")
    assert np.abs(mats["1"]).max() > 0
    assert np.array_equal(mats["2"], 2.0 * mats["1"])


@pytest.mark.parametrize("cutoff, n_edges", [(None, 6), ("7", 3), ("7.5", 3)])
def test_anm_cutoff_is_the_one_given(tmp_path, cutoff, n_edges):
    args = ["model", "--model", "anm", "--n", "4"]
    if cutoff is not None:
        args += ["--cutoff", cutoff]
    code, out = run(tmp_path, *args)
    assert code == 0
    _, rows = csv_rows(out / "edges.csv")
    assert len(rows) == n_edges
    expected = 13.0 if cutoff is None else float(cutoff)
    assert manifest_of(out)["config"]["cutoff"] == expected


def test_stateprep_is_byte_reproducible(tmp_path):
    code1 = main(["stateprep", "--n", "6", "--out", str(tmp_path / "a")])
    code2 = main(["stateprep", "--n", "6", "--out", str(tmp_path / "b")])
    assert code1 == code2 == 0
    a = (tmp_path / "a" / "state.csv").read_bytes()
    b = (tmp_path / "b" / "state.csv").read_bytes()
    assert a == b
    header, rows = csv_rows(tmp_path / "a" / "state.csv")
    assert header == ["index", "real", "imag"]
    assert len(rows) == 64
    assert all(r[2] == "0" for r in rows)  # amplitudes are real
    man = manifest_of(tmp_path / "a")
    assert man["results"]["norm"] == pytest.approx(1.0, abs=1e-12)
    assert man["results"]["resources"]["qubits"] == 6
    # a different seed changes the artifact
    assert main(["stateprep", "--n", "6", "--seed", "beef",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "state.csv").read_bytes() != a


def test_stateprep_n12_state_csv_digest_is_pinned(tmp_path):
    # the digest perfbench's stateprep check pins: a moved byte fails here too
    code, out = run(tmp_path, "stateprep", "--n", "12")
    assert code == 0
    digest = hashlib.sha256((out / "state.csv").read_bytes()).hexdigest()
    assert digest == ("236ca2c7626f9456eaa1131931223cb2"
                      "e969d0e5ef014fa912af0164967797be")


@pytest.mark.parametrize("name, digest", [
    ("energy.csv", "b7b8e4e1662ee07eca645238192dfa38f024c9e8cc78fdd9e62618ad6d8ffad3"),
    ("trajectory.csv", "44ad88d9cdb5a73a792e1ac2c37b2de388a0b4fcce6be398a057deced4ec5f73"),
])
def test_stationary_control_artifact_digests_are_pinned(tmp_path, name, digest):
    # the stationary law is each mode's closed-form root, simulated by one
    # held 2x2 step per mode; its artifacts must not move when the
    # finite-horizon route changes
    code, out = run(tmp_path, "control")
    assert code == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# every help string `--help` shows; the other options have none
OPTION_HELP = {
    "input": "structure file (PDB or JSON)",
    "n": "synthetic chain length / qubit count",
    "model": "gnm or anm",
    "cutoff": "contact cutoff in A (default 7 for gnm, 13 for anm)",
    "seed": "hexadecimal seed",
    "dynamics": "harmonic or langevin",
    "alpha": "override the spectral half-width",
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_bare_subcommand_runs_with_runconfigs_defaults(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, out: (seen.append(cfg), ([], {}))[1])
    assert main([command]) == 0
    assert main([command, "--model", "anm"]) == 0
    assert seen == [RunConfig(command), RunConfig(command, model="anm", cutoff=13.0)]
    assert RunConfig.cutoff == structure.DEFAULT_GNM_CUTOFF
    assert (tmp_path / RunConfig.out).is_dir()


def test_each_setting_has_one_option_with_its_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    names = [f.name for f in dataclasses.fields(RunConfig)][1:]
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(cli._COMMANDS)
    for command, parser in sub.choices.items():
        actions = parser._actions
        assert [a.option_strings for a in actions] == [["-h", "--help"]] + [
            [f"--{name}"] for name in names]
        assert [a.help for a in actions[1:]] == [OPTION_HELP.get(name) for name in names]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in names:
            assert text.count(f"--{name} ") == 2, (command, name)     # usage and list
        for name, help in OPTION_HELP.items():
            assert f"--{name} {name.upper()}" in text and help in text, (command, name)


def test_seed_is_parsed_as_hex(tmp_path):
    code, out = run(tmp_path, "stateprep", "--n", "4", "--seed", "deadBEEF")
    assert code == 0
    assert manifest_of(out)["config"]["seed"] == 0xDEADBEEF


def test_evolve_harmonic_conserves_energy(tmp_path):
    code, out = run(tmp_path, "evolve", "--n", "5", "--tmax", "10",
                    "--steps", "400")
    assert code == 0
    header, rows = csv_rows(out / "trajectory.csv")
    assert header == ["time"] + [f"u_{i}" for i in range(5)]
    assert len(rows) == 401
    eh, erows = csv_rows(out / "energies.csv")
    assert eh == ["time", "kinetic", "potential", "total"]
    totals = np.array([float(r[3]) for r in erows])
    assert np.abs(totals - totals[0]).max() <= 1e-10 * totals[0]
    man = manifest_of(out)
    assert man["results"]["energy_drift"] <= 1e-10 * totals[0]


def test_evolve_langevin_writes_covariance(tmp_path):
    code, out = run(tmp_path, "evolve", "--n", "4", "--dynamics", "langevin",
                    "--tmax", "2.0", "--gamma", "0.5", "--kt", "0.3")
    assert code == 0
    header, rows = csv_rows(out / "covariance.csv")
    assert header == ["row", "col", "real", "imag"]
    dim = 4 + 3  # velocity block + one amplitude per chain edge
    assert len(rows) == dim * dim
    man = manifest_of(out)
    assert man["results"]["dim"] == dim
    assert man["results"]["trace"] > 0


def test_dos_artifacts_and_probe_columns(tmp_path):
    code, out = run(tmp_path, "dos", "--n", "8", "--moments", "40")
    assert code == 0
    header, rows = csv_rows(out / "moments.csv")
    assert header == ["k", "exact"]
    assert len(rows) == 41
    assert float(rows[0][1]) == 1.0
    _, drows = csv_rows(out / "dos.csv")
    assert len(drows) == 2001
    ch, crows = csv_rows(out / "comparison.csv")
    assert ch == ["left", "right", "histogram", "kpm"]
    assert len(crows) == 40
    man = manifest_of(out)
    assert 0 <= man["results"]["l1_distance"] <= 2.0
    assert man["results"]["alpha"] > 0

    code2 = main(["dos", "--n", "8", "--moments", "40", "--probes", "64",
                  "--out", str(tmp_path / "p")])
    assert code2 == 0
    h2, r2 = csv_rows(tmp_path / "p" / "moments.csv")
    assert h2 == ["k", "exact", "stochastic", "stderr"]
    assert len(r2) == 41


@pytest.mark.parametrize("argv", [[], ["--model", "anm"], ["--n", "8", "--moments", "40"],
                                  ["--moments", "41"]], ids=["gnm", "anm", "chain8", "odd-k"])
def test_dos_probe_columns_are_exact_at_odd_k_and_at_k_0(tmp_path, argv):
    code, out = run(tmp_path, "dos", *argv, "--probes", "16")
    assert code == 0
    _, rows = csv_rows(out / "moments.csv")
    table = np.array(rows, dtype=float)
    assert table[0, 2] == 1.0 and table[0, 3] == 0.0
    assert np.all(table[1::2, 2:] == 0.0)
    assert np.all(table[2::2, 3] > 0.0)
    results = manifest_of(out)["results"]
    # the chain of 8 has 7 contacts, so B^T B is the smaller Gram matrix
    gram = "B^T B" if "--n" in argv else "A"
    assert results["probe_operator"] == f"2{gram}/alpha^2 - I"
    assert results["stderr_max"] == table[:, 3].max()
    assert results["stderr_mean"] == pytest.approx(table[2::2, 3].mean(), rel=1e-12)
    assert 0.0 < results["stochastic_exact_l1"] < 2.0


def test_dos_probes_a_once_at_half_the_order(tmp_path, monkeypatch):
    from gnmqsim import observables as obs
    calls, probe = [], obs.chebyshev_moments_stochastic

    def spy(matrix, alpha, order, probes, seed):
        calls.append((matrix.shape, order, probes))
        return probe(matrix, alpha, order, probes, seed)

    monkeypatch.setattr(obs, "chebyshev_moments_stochastic", spy)
    code, out = run(tmp_path, "dos", "--moments", "41", "--probes", "10")
    assert code == 0
    assert calls == [((46, 46), 20, 10)]
    _, rows = csv_rows(out / "moments.csv")
    assert [int(row[0]) for row in rows] == list(range(42))


def test_control_results_are_self_consistent(tmp_path):
    code, out = run(tmp_path, "control", "--n", "8", "--tmax", "20")
    assert code == 0
    res = manifest_of(out)["results"]
    assert res["cost"] == pytest.approx(res["predicted_cost"], rel=1e-4)
    assert res["riccati_residual"] <= 1e-6
    assert res["energy_ratio"] <= 1e-6
    header, rows = csv_rows(out / "energy.csv")
    assert header == ["time", "energy", "value"]
    assert len(rows) == 2001
    th, trows = csv_rows(out / "trajectory.csv")
    assert th == ["time"] + [f"u_{i}" for i in range(8)]


@pytest.mark.parametrize("argv", [["--n", "10", "--spring", "1e-9"], ["--n", "1"]],
                         ids=["soft-springs", "single-site"])
def test_stationary_control_deflates_by_the_models_zero_count(tmp_path, argv):
    # both exited 3: a zero floor of 1e-8 took all ten soft modes for rigid,
    # and a lone site left nothing to deflate onto
    code, out = run(tmp_path, "control", *argv)
    assert code == 0
    res = manifest_of(out)["results"]
    assert res["riccati_residual"] <= 1e-12
    if argv == ["--n", "1"]:
        assert res == {"cost": 0.0, "energy_ratio": 0.0, "predicted_cost": 0.0,
                       "riccati_residual": 0.0}


def test_resources_fit_is_quadratic_in_address_bits(tmp_path):
    code, out = run(tmp_path, "resources")
    assert code == 0
    header, rows = csv_rows(out / "resources.csv")
    assert header == ["n_items", "address_bits", "depth", "gates",
                      "qubits", "ancillas"]
    assert [int(r[0]) for r in rows] == [4, 8, 16, 32, 64, 128, 256]
    fit = manifest_of(out)["results"]["fit"]
    assert 1.5 < fit["depth_exponent_in_log2N"] < 2.5
    assert fit["gates_c2"] > 0


def test_usage_errors_exit_two(tmp_path, capsys):
    pdb = tmp_path / "toy.pdb"
    pdb.write_text(PDB_LINES)
    cases = [
        ["structure", "--input", str(tmp_path / "missing.pdb")],
        ["structure", "--input", str(pdb), "--n", "4"],
        ["model", "--n", "0"],
        ["model", "--n", "4", "--model", "mixed"],
        ["stateprep", "--n", "4", "--seed", "zz"],
        ["evolve", "--n", "4", "--dynamics", "brownian"],
        ["evolve", "--n", "4", "--steps", "1"],
        ["dos", "--n", "4", "--alpha", "-1"],
        ["control", "--n", "4", "--rweight", "0"],
        ["control", "--n", "4", "--horizon", "-3"],
    ]
    for argv in cases:
        code = main([*argv, "--out", str(tmp_path / "never")])
        assert code == 2, argv
        assert "error" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("argv, message", [
    (["--input", "missing.pdb"], "--input file not found: missing.pdb"),
    (["--n", "0"], "--n must be positive, got 0"),
    (["--model", "mixed"], "--model must be gnm or anm, got 'mixed'"),
    (["--cutoff", "-1"], "--cutoff must be positive, got -1.0"),
    (["--spring", "0"], "--spring must be positive, got 0.0"),
    (["--seed", "zz"], "--seed must be hexadecimal, got 'zz'"),
    (["--moments", "-1"], "--moments must be nonnegative, got -1"),
    (["--probes", "-1"], "--probes must be nonnegative, got -1"),
    (["--dynamics", "brownian"], "--dynamics must be harmonic or langevin, got 'brownian'"),
    (["--gamma", "-1"], "--gamma must be nonnegative, got -1.0"),
    (["--kt", "-1"], "--kt must be nonnegative, got -1.0"),
    (["--rweight", "0"], "--rweight must be positive, got 0.0"),
    (["--horizon", "nan"], "--horizon must be positive, got nan"),
    (["--tmax", "0"], "--tmax must be positive, got 0.0"),
    (["--steps", "1"], "--steps must be at least 2, got 1"),
    (["--alpha", "0"], "--alpha must be positive, got 0.0"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_usage_messages_name_their_option(tmp_path, capsys, argv, message):
    assert main(["control", *argv, "--out", str(tmp_path / "never")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--tmax", "inf"],
    ["evolve", "--dynamics", "langevin", "--gamma", "nan"],
    ["evolve", "--dynamics", "langevin", "--kt", "nan"],
    ["control", "--rweight", "inf"],
    ["model", "--spring", "inf"],
    ["model", "--cutoff", "inf"],
    ["dos", "--alpha", "nan"],
], ids=lambda argv: argv[-2])
def test_non_finite_floats_exit_two(tmp_path, capsys, argv):
    assert main([*argv[:1], "--n", "4", *argv[1:], "--out", str(tmp_path / "never")]) == 2
    assert f"{argv[-2]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_unknown_command_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--out", str(tmp_path / "never")])
    assert exc.value.code == 2


def test_numerical_failure_exits_three_with_record(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["dos", "--n", "4", "--alpha", "0.5", "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert "alpha" in record["message"]
    assert record["command"] == "dos"
    stderr = capsys.readouterr().err
    assert json.loads(stderr.strip())["error"] == "NumericalError"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, sites, cutoff", [
    (["dos", "--n", "1"], 1, "7.0"),
    (["evolve", "--n", "1"], 1, "7.0"),
    (["evolve", "--dynamics", "langevin", "--n", "1"], 1, "7.0"),
    (["evolve", "--n", "2", "--cutoff", "1"], 2, "1.0"),
], ids=["dos", "evolve", "evolve_langevin", "evolve_far_pair"])
def test_contact_free_model_exits_three_naming_contacts_and_cutoff(tmp_path, capsys,
                                                                 argv, sites, cutoff):
    code, out = run(tmp_path, *argv)
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert record["message"].startswith(f"0 contacts among {sites} sites at cutoff {cutoff} A, so ")
    assert ("alpha = 0" if argv[0] == "dos" else "no nonzero mode") in record["message"]
    assert json.loads(capsys.readouterr().err.strip()) == record
    assert not (out / "manifest.json").exists()


def test_contact_free_dos_runs_with_an_explicit_alpha(tmp_path):
    code, out = run(tmp_path, "dos", "--n", "1", "--alpha", "1")
    assert code == 0
    assert manifest_of(out)["results"]["alpha"] == 1.0


def test_contact_free_dos_probes_give_the_moments_of_a_zero_spectrum(tmp_path):
    # H = 0 (1 x 1): mu_k = T_k(0), (-1)^(k/2) at even k and 0 at odd k;
    # 2n - dim = 1 here, so the map from A's moments is no average
    code, out = run(tmp_path, "dos", "--n", "1", "--alpha", "1", "--probes", "4")
    assert code == 0
    _, rows = csv_rows(out / "moments.csv")
    table = np.array(rows, dtype=float)
    k = np.arange(101)
    want = np.where(k % 2 == 0, (-1.0) ** (k // 2), 0.0)
    assert np.array_equal(table[:, 1], want) and np.array_equal(table[:, 2], want)
    assert not table[:, 3].any()


def test_energies_csv_total_is_kinetic_plus_potential_exactly(tmp_path):
    code, out = run(tmp_path, "evolve", "--n", "6", "--tmax", "5", "--steps", "50")
    assert code == 0
    _, rows = csv_rows(out / "energies.csv")
    kinetic, potential, total = np.array(rows, dtype=float)[:, 1:].T
    assert np.array_equal(kinetic + potential, total)
    assert kinetic.max() > 0 and potential.max() > 0


def test_thread_cap_env_variable(tmp_path, monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("GNMQSIM_THREADS", "3")
    code, out = run(tmp_path, "structure")
    assert code == 0
    for var in _THREAD_VARS:
        assert os.environ[var] == "3"
    monkeypatch.setenv("GNMQSIM_THREADS", "zero")
    assert main(["structure", "--out", str(tmp_path / "n2")]) == 2


@pytest.mark.parametrize("command", ["resources", "structure", "stateprep"])
def test_light_commands_do_not_load_network(tmp_path, command):
    code = ("import sys; from gnmqsim.cli import main; "
            f"assert main([{command!r}, '--out', {str(tmp_path)!r}]) == 0; "
            "print('gnmqsim.network' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, unloaded", [
    (["dos", "--n", "20"], ["scipy.linalg", "scipy.special", "scipy.sparse.linalg"]),
    (["model", "--n", "20"], ["scipy.linalg", "scipy.special", "scipy.sparse.linalg"]),
    (["stateprep", "--n", "4"], ["scipy.sparse", "scipy.linalg"]),
    (["control"], ["scipy.linalg", "scipy.special", "scipy.sparse.linalg"]),
], ids=["dos", "model", "stateprep", "control"])
def test_commands_leave_the_scipy_subpackages_they_do_not_use_unloaded(tmp_path, argv,
                                                                       unloaded):
    code = ("import sys; from gnmqsim.cli import main; "
            f"assert main({argv!r} + ['--out', {str(tmp_path)!r}]) == 0; "
            f"print(' '.join(m for m in {unloaded!r} if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# -- the per-value writer the row-template writer replaced, kept as the oracle --

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def oracle_write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def spectrum_dos_artifacts(model, alpha, order: int, out: Path) -> dict:
    """`gnmqsim dos` without --probes written out step by step, as it ran while
    the probes still multiplied by H: exact moments, KPM curve and histogram
    of H's spectrum, through the per-value writer."""
    from gnmqsim import dynamics, observables
    spectrum = dynamics.embed(model).spectrum
    alpha = 1.01 * float(spectrum[-1]) if alpha is None else alpha
    exact = observables.MomentSet.from_spectrum(spectrum, alpha, order)
    oracle_write_csv(out / "moments.csv", ["k", "exact"],
                     zip(range(order + 1), exact.moments))
    curve = observables.reconstruct_dos(exact)
    oracle_write_csv(out / "dos.csv", ["x", "density"], zip(curve.grid, curve.values))
    cmp_res = observables.dos_histogram_l1(spectrum, exact, bins=40)
    edges = cmp_res["edges"]
    oracle_write_csv(out / "comparison.csv", ["left", "right", "histogram", "kpm"],
                     zip(edges[:-1], edges[1:], cmp_res["hist_density"],
                         cmp_res["kpm_density"]))
    return {"alpha": alpha, "l1_distance": cmp_res["l1"], "n_eigenvalues": spectrum.size}


@pytest.mark.parametrize("argv", [[], ["--model", "anm"], ["--n", "8", "--moments", "40"],
                                  ["--n", "1", "--alpha", "1"]],
                         ids=["gnm", "anm", "chain8", "contact-free"])
def test_dos_without_probes_writes_what_it_wrote_before_the_probes_moved(tmp_path, argv):
    from gnmqsim import network, structure
    assert main(["dos", *argv, "--out", str(tmp_path / "new")]) == 0
    (tmp_path / "old").mkdir()
    struct = (structure.synthetic_chain(int(argv[1])) if "--n" in argv
              else structure.load_bundled_structure())
    model = (network.build_anm(struct, cutoff=structure.DEFAULT_ANM_CUTOFF)
             if "anm" in argv else network.build_gnm(struct, cutoff=structure.DEFAULT_GNM_CUTOFF))
    order = int(argv[argv.index("--moments") + 1]) if "--moments" in argv else 100
    alpha = float(argv[argv.index("--alpha") + 1]) if "--alpha" in argv else None
    results = spectrum_dos_artifacts(model, alpha, order, tmp_path / "old")
    assert manifest_of(tmp_path / "new")["results"] == results
    for name in ("moments.csv", "dos.csv", "comparison.csv"):
        assert ((tmp_path / "new" / name).read_bytes()
                == (tmp_path / "old" / name).read_bytes()), name


def test_row_template_writer_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(9)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e300, -1.5, 0.1, 1 / 3]
    floats = np.concatenate([special, rng.normal(size=2000),
                             rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000),
                             rng.integers(0, 2 ** 63, 2000).view(np.float64)])
    floats = floats[: len(floats) // 4 * 4].reshape(-1, 4)
    labels = [("THR1", 1, 0.5), ("GLY2", -7, -0.0), ("x y", 2 ** 70, np.float64(3.25))]
    cases = [
        (["a", "b", "c", "d"], floats),                              # ndarray rows
        (["a", "b", "c", "d"], [tuple(r) for r in floats]),          # numpy scalars
        (["i", "j", "w"], [(i, j, 1.0) for i, j in zip(range(50), range(1, 51))]),
        (["k", "x"], zip(range(30), floats[:, 0])),
        (["label", "n", "x"], labels),
        (["n", "bits"], np.arange(12, dtype=np.int64).reshape(6, 2)),
        (["empty"], []),
    ]
    for k, (header, rows) in enumerate(cases):
        rows = list(rows) if not isinstance(rows, np.ndarray) else rows
        cli._write_csv(tmp_path / f"new{k}.csv", header, rows)
        oracle_write_csv(tmp_path / f"old{k}.csv", header, rows)
        assert ((tmp_path / f"new{k}.csv").read_bytes()
                == (tmp_path / f"old{k}.csv").read_bytes()), header


@pytest.mark.parametrize("argv", [
    ["structure"],
    ["model"],
    ["model", "--model", "anm"],
    ["stateprep", "--n", "8"],
    ["resources"],
    ["dos", "--probes", "400"],
    ["evolve", "--n", "6", "--tmax", "5", "--steps", "200"],
    ["evolve", "--dynamics", "langevin"],
    ["control"],
])
def test_every_artifact_is_byte_identical_to_the_oracle_writer(tmp_path, monkeypatch,
                                                               argv):
    assert main([*argv, "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(cli, "_write_csv", oracle_write_csv)
    assert main([*argv, "--out", str(tmp_path / "old")]) == 0
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "new").iterdir())
    for name in names:
        if name != "manifest.json":
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "old" / name).read_bytes()), name


def test_repeated_main_calls_write_what_fresh_calls_write(tmp_path):
    # the parser is built once per process; a second subcommand with other
    # options must not see the first call's values
    calls = [["stateprep", "--n", "3", "--seed", "7"], ["structure"]]

    def written(argv):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(written(argv))
    cli._build_parser.cache_clear()
    assert [written(argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().hits == len(calls) - 1
