"""Command-line front end: pipeline subcommands and figure-data files.

Subcommands cover the pipeline stages: `structure` and `model` (read-in),
`stateprep` and `resources` (circuit layer), `evolve` (dynamics), `dos`
and `control` (read-out experiments).  Each run writes CSV/JSON artifacts
plus a `manifest.json` recording the full resolved configuration, its
hash, package/library versions, and the input digest, so a run is
reproducible from the manifest alone.  Nothing is read from an output
directory and inputs are never modified.

Artifact schemas (fixed column orders):
  structure -> atoms.csv            id,x,y,z,mass,label
  model     -> edges.csv            i,j,weight
               matrix.mtx           (MatrixMarket, stiffness K)
               spectrum.csv         index,eigenvalue   (mass-weighted A)
  stateprep -> state.csv            index,real,imag
  evolve    -> trajectory.csv       time,u_0..u_{n-1}
               energies.csv         time,kinetic,potential,total
    (langevin) covariance.csv       row,col,real,imag
  dos       -> moments.csv          k,exact[,stochastic,stderr]
               dos.csv              x,density
               comparison.csv       left,right,histogram,kpm
  control   -> energy.csv           time,energy,value
               trajectory.csv       time,u_0..u_{n-1}
  resources -> resources.csv        n_items,address_bits,depth,gates,qubits,ancillas

Exit codes: 0 success; 2 usage/validation error; 3 numerical failure,
with a diagnostic JSON record on stderr and in <out>/error.json (also
for `dos` without --alpha and `evolve` on a model without contacts).

The environment variable GNMQSIM_THREADS caps BLAS/OpenMP thread pools;
it is applied before the numerical libraries are first imported (the
package imports its submodules lazily to keep that window open).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from .errors import NumericalError

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


class UsageError(ValueError):
    """Configuration problem: reported on stderr with exit code 2."""


def _apply_thread_cap():
    cap = os.environ.get("GNMQSIM_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise UsageError(f"GNMQSIM_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ[var] = cap


def _hex_seed(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise UsageError(f"--seed must be hexadecimal, got {text!r}") from None


_RULES = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0,
          "at least 2": lambda v: v >= 2}


def _option(default=None, type=float, help=None, rule=None, finite=True):
    """A RunConfig field declaring its --option: argparse type, help text and
    value rule, a _RULES name or a tuple of choices (then also the help
    text); a float must be finite unless `finite` is False."""
    if isinstance(rule, tuple):
        check, rule = rule.__contains__, " or ".join(rule)
        help = rule
    else:
        check = _RULES.get(rule)
    return dataclasses.field(default=default, metadata=dict(
        type=type, help=help, rule=rule, check=check, finite=finite and type is float))


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one subcommand run; every field after `command`
    is the one declaration of its --option (see `_option`)."""

    command: str
    input: str | None = _option(None, str, "structure file (PDB or JSON)")
    n: int | None = _option(None, int, "synthetic chain length / qubit count", "positive")
    model: str = _option("gnm", str, rule=("gnm", "anm"))
    cutoff: float = _option(7.0, help="contact cutoff in A (default 7 for gnm, 13 for anm)",
                            rule="positive")
    spring: float = _option(1.0, rule="positive")
    seed: int = _option(0x2A, str, "hexadecimal seed")
    moments: int = _option(100, int, rule="nonnegative")
    probes: int = _option(0, int, rule="nonnegative")
    dynamics: str = _option("harmonic", str, rule=("harmonic", "langevin"))
    gamma: float = _option(1.0, rule="nonnegative")
    kt: float = _option(1.0, rule="nonnegative")
    rweight: float = _option(1e-2, rule="positive")
    horizon: float | None = _option(rule="positive", finite=False)   # inf: stationary
    tmax: float = _option(20.0, rule="positive")
    steps: int = _option(2000, int, rule="at least 2")
    alpha: float | None = _option(help="override the spectral half-width", rule="positive")
    out: str = _option("gnmqsim-out", str)

    def validate(self):
        if self.input is not None and self.n is not None:
            raise UsageError("give either --input or --n, not both")
        if self.input is not None and not Path(self.input).is_file():
            raise UsageError(f"--input file not found: {self.input}")
        for f in dataclasses.fields(self)[1:]:
            value, meta = getattr(self, f.name), f.metadata
            if value is None:
                continue
            if meta["finite"] and not math.isfinite(value):
                raise UsageError(f"--{f.name} must be finite, got {value!r}")
            if meta["check"] and not meta["check"](value):
                raise UsageError(f"--{f.name} must be {meta['rule']}, got {value!r}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def sha256(self) -> str:
        canon = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


# -- plumbing -----------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> None:
    """Stream rows through one template: %.17g, %d or %s by first-row type."""
    template = None
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row.tolist() if hasattr(row, "tolist") else row)
            template = template or ",".join(
                "%.17g" if isinstance(v, float) else
                "%d" if isinstance(v, int) else "%s" for v in row) + "\n"
            out.write(template % row)


def _load_structure(cfg: RunConfig):
    from . import structure as st
    if cfg.input is not None:
        text = Path(cfg.input).read_text()
        if cfg.input.endswith(".json"):
            return st.load_structure_json(text)
        return st.parse_pdb(text)
    if cfg.n is not None:
        return st.synthetic_chain(cfg.n)
    return st.load_bundled_structure()


def _build_model(cfg: RunConfig, struct):
    from . import network as nw
    build = nw.build_gnm if cfg.model == "gnm" else nw.build_anm
    return build(struct, cutoff=cfg.cutoff, spring=cfg.spring)


def _input_digest(cfg: RunConfig) -> str | None:
    if cfg.input is None:
        return None
    return hashlib.sha256(Path(cfg.input).read_bytes()).hexdigest()


def _write_manifest(cfg: RunConfig, out_dir: Path, artifacts: list[str],
                    extra: dict) -> None:
    import numpy
    import scipy
    from . import __version__
    manifest = {
        "command": cfg.command,
        "config": cfg.as_dict(),
        "config_sha256": cfg.sha256(),
        "input_sha256": _input_digest(cfg),
        "versions": {
            "gnmqsim": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "artifacts": sorted(artifacts),
        "results": extra,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _require_contacts(cfg: RunConfig, struct, model, consequence: str) -> None:
    """NumericalError stating `consequence` when the model has no contact."""
    if model.n_edges == 0:
        raise NumericalError(f"0 contacts among {struct.n_atoms} sites at cutoff "
                             f"{cfg.cutoff} A, so {consequence}")


# -- subcommands --------------------------------------------------------------

def cmd_structure(cfg: RunConfig, out_dir: Path):
    struct = _load_structure(cfg)
    _write_csv(out_dir / "atoms.csv", ["id", "x", "y", "z", "mass", "label"],
               ((a.id, *a.position, a.mass, a.label) for a in struct.atoms))
    return ["atoms.csv"], {"n_atoms": struct.n_atoms}


def cmd_model(cfg: RunConfig, out_dir: Path):
    import numpy as np
    from . import network as nw
    struct = _load_structure(cfg)
    model = _build_model(cfg, struct)
    _write_csv(out_dir / "edges.csv", ["i", "j", "weight"],
               [(i, j, model.spring) for i, j in model.edges.tolist()])
    nw.export_matrix_market(model.K, out_dir / "matrix.mtx",
                            comment=f"{cfg.model} stiffness matrix")
    # values only: eigvalsh costs about half of the cached eigenpairs' eigh
    evals = np.linalg.eigvalsh(model.A.toarray())
    _write_csv(out_dir / "spectrum.csv", ["index", "eigenvalue"],
               list(enumerate(evals)))
    return (["edges.csv", "matrix.mtx", "spectrum.csv"],
            {"n_dof": model.n_dof, "n_edges": model.n_edges,
             "max_eigenvalue": float(evals[-1])})


def cmd_stateprep(cfg: RunConfig, out_dir: Path):
    from . import stateprep as sp
    n = cfg.n if cfg.n is not None else 10
    circuit, vec = sp.prepare_gaussian_state(n, cfg.seed)
    rows = [(i, float(v.real), float(v.imag)) for i, v in enumerate(vec)]
    _write_csv(out_dir / "state.csv", ["index", "real", "imag"], rows)
    from . import circuits as qc
    return (["state.csv"],
            {"n_qubits": n, "norm": float(abs(vec @ vec.conj())) ** 0.5,
             "resources": qc.resources(circuit)})


def cmd_evolve(cfg: RunConfig, out_dir: Path):
    import numpy as np
    from . import dynamics as dy
    from . import observables as ob
    struct = _load_structure(cfg)
    model = _build_model(cfg, struct)
    _require_contacts(cfg, struct, model, "A has no nonzero mode to start from")
    modes = ob.low_modes(model, 1)
    sqrt_m = np.sqrt(model.masses)
    u0 = modes.modes[:, 0] / sqrt_m
    u0 /= np.linalg.norm(u0)
    v0 = np.zeros(model.n_dof)

    if cfg.dynamics == "harmonic":
        hist = dy.evolve_inhomogeneous(model, u0, v0, None, cfg.tmax, cfg.steps)
        _write_csv(out_dir / "trajectory.csv",
                   ["time"] + [f"u_{i}" for i in range(model.n_dof)],
                   np.column_stack([hist.times, hist.displacements]))
        _write_csv(out_dir / "energies.csv",
                   ["time", "kinetic", "potential", "total"],
                   np.column_stack([hist.times, hist.kinetic, hist.potential,
                                    hist.energies]))
        drift = float(np.abs(hist.energies - hist.energies[0]).max())
        return (["trajectory.csv", "energies.csv"],
                {"n_dof": model.n_dof, "energy_drift": drift})

    from . import stateprep as sp
    emb = dy.embed(model)
    params = dy.LangevinParams(gamma=cfg.gamma, kT=cfg.kt)
    enc = sp.encode_initial_conditions(model, u0, v0)
    rho0 = np.outer(enc.psi, enc.psi.conj())
    rho = dy.evolve_langevin_covariance(emb, params, rho0, cfg.tmax)
    _write_csv(out_dir / "covariance.csv", ["row", "col", "real", "imag"],
               zip(*np.indices(rho.shape).reshape(2, -1).tolist(),
                   rho.real.ravel().tolist(), rho.imag.ravel().tolist()))
    return (["covariance.csv"],
            {"dim": rho.shape[0], "trace": float(np.trace(rho).real),
             "energy": enc.energy})


def cmd_dos(cfg: RunConfig, out_dir: Path):
    from . import dynamics as dy
    from . import observables as ob
    struct = _load_structure(cfg)
    model = _build_model(cfg, struct)
    eigenvalues = dy.embed(model).spectrum  # +/- symmetric: last entry is the radius
    alpha = cfg.alpha
    if alpha is None:
        _require_contacts(cfg, struct, model, "alpha = 0 and no Chebyshev "
                          "moments can be formed (--alpha sets a width)")
        alpha = (1 + ob.BOUND_MARGIN) * float(eigenvalues[-1])
    exact = ob.MomentSet.from_spectrum(eigenvalues, alpha, cfg.moments)
    columns, curve_src = {"k": range(cfg.moments + 1), "exact": exact.moments}, exact
    if cfg.probes > 0:
        curve_src, operator = ob.embedding_moments_stochastic(
            model, alpha, cfg.moments, cfg.probes, cfg.seed)
        columns.update(stochastic=curve_src.moments, stderr=curve_src.stderr)
    _write_csv(out_dir / "moments.csv", list(columns), zip(*columns.values()))
    curve = ob.reconstruct_dos(curve_src)
    _write_csv(out_dir / "dos.csv", ["x", "density"],
               zip(curve.grid, curve.values))
    cmp_res = ob.dos_histogram_l1(eigenvalues, curve_src, bins=40)
    edges = cmp_res["edges"]
    _write_csv(out_dir / "comparison.csv",
               ["left", "right", "histogram", "kpm"],
               zip(edges[:-1], edges[1:], cmp_res["hist_density"],
                   cmp_res["kpm_density"]))
    results = {"alpha": alpha, "l1_distance": cmp_res["l1"],
               "n_eigenvalues": int(eigenvalues.size)}
    if cfg.probes > 0:
        gap = abs(curve.values - ob.reconstruct_dos(exact).values)
        se = curve_src.stderr[2::2]  # mu_0 and the odd moments are exact
        results.update(probe_operator=operator, stderr_max=max(se, default=0.0),
                       stderr_mean=float(se.mean()) if se.size else 0.0,
                       stochastic_exact_l1=dataclasses.replace(curve, values=gap).integral())
    return ["moments.csv", "dos.csv", "comparison.csv"], results


def cmd_control(cfg: RunConfig, out_dir: Path):
    import numpy as np
    from . import control as ct
    if cfg.input is None and cfg.n is None:
        cfg = dataclasses.replace(cfg, n=10)   # default: ten-site chain
    struct = _load_structure(cfg)
    model = _build_model(cfg, struct)
    n = model.n_dof
    horizon = cfg.horizon if cfg.horizon is not None else math.inf
    problem = ct.ControlProblem(model, gamma=cfg.gamma, R=cfg.rweight,
                                horizon=horizon)
    law = ct.solve_lqr(problem)
    idx = np.arange(n, dtype=float)
    u0 = 0.5 * (idx - idx.mean())              # stretched start
    u0 /= max(np.linalg.norm(u0), 1.0)
    v0 = np.zeros(n)
    sim = ct.simulate_controlled(problem, law, u0, v0, cfg.tmax, cfg.steps)
    _write_csv(out_dir / "energy.csv", ["time", "energy", "value"],
               np.column_stack([sim["times"], sim["energy"], sim["value"]]))
    _write_csv(out_dir / "trajectory.csv",
               ["time"] + [f"u_{i}" for i in range(n)],
               np.column_stack([sim["times"], sim["displacements"]]))
    e0 = float(sim["energy"][0])
    # riccati_residual is the stationary (CARE) defect of the law's P; with
    # --horizon that is P(0)'s distance from the stationary solution, not a
    # check on the backward step map
    return (["energy.csv", "trajectory.csv"],
            {"cost": float(sim["cost"]), "predicted_cost": float(0.5 * sim["value"][0]),
             "riccati_residual": float(law.residual),
             "energy_ratio": float(sim["energy"][-1] / e0) if e0 else 0.0})


def cmd_resources(cfg: RunConfig, out_dir: Path):
    import numpy as np
    from . import circuits as qc
    rows = []
    n_items = 4
    while n_items <= 256:
        width = max(1, (n_items - 1).bit_length())
        circ = qc.build_qrom(list(range(n_items)), width)
        res = qc.resources(circ)
        rows.append((n_items, (n_items - 1).bit_length(), res["depth"],
                     res["gates"], res["qubits"], res["ancillas"]))
        n_items *= 2
    _write_csv(out_dir / "resources.csv",
               ["n_items", "address_bits", "depth", "gates",
                "qubits", "ancillas"], rows)
    arr = np.array(rows, dtype=float)
    L = np.log2(arr[:, 0])
    design = np.column_stack([np.ones_like(L), L ** 2])
    (c0, c1), *_ = np.linalg.lstsq(design, arr[:, 2], rcond=None)
    slope = np.polyfit(np.log(L), np.log(arr[:, 2]), 1)[0]
    c2 = float((arr[:, 3] / (arr[:, 0] * L)).max())
    return (["resources.csv"],
            {"fit": {"depth_c0": float(c0), "depth_c1": float(c1),
                     "depth_exponent_in_log2N": float(slope),
                     "gates_c2": c2}})


_COMMANDS = {
    "structure": cmd_structure,
    "model": cmd_model,
    "stateprep": cmd_stateprep,
    "evolve": cmd_evolve,
    "dos": cmd_dos,
    "control": cmd_control,
    "resources": cmd_resources,
}


@functools.cache   # parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnmqsim",
        description="Protein normal-mode pipeline: read-in, evolution, read-out.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # an option not given stays out of the namespace: RunConfig's default holds
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for f in dataclasses.fields(RunConfig)[1:]:
            p.add_argument(f"--{f.name}", type=f.metadata["type"], help=f.metadata["help"])
    return parser


def main(argv=None) -> int:
    given = vars(_build_parser().parse_args(argv))
    try:
        _apply_thread_cap()
        if "seed" in given:
            given["seed"] = _hex_seed(given["seed"])
        if "cutoff" not in given and given.get("model") == "anm":
            from .structure import DEFAULT_ANM_CUTOFF
            given["cutoff"] = DEFAULT_ANM_CUTOFF
        cfg = RunConfig(**given)
        cfg.validate()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        artifacts, extra = _COMMANDS[cfg.command](cfg, out_dir)
    except NumericalError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": cfg.command, "config_sha256": cfg.sha256()}
        (out_dir / "error.json").write_text(
            json.dumps(record, sort_keys=True, indent=1) + "\n")
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 3
    _write_manifest(cfg, out_dir, artifacts, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
