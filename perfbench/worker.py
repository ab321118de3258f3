"""One workload in one fresh process: set-up, timed passes, checks, trace.

    python3 perfbench/worker.py --workload readout --seed 1 --seconds 30 \
        --trace 0 --work .perfbench_work/run --spawned-at <unix time>

BLAS and OpenMP pools are capped at one thread here, before numpy loads.
Set-up time runs from --spawned-at (taken by the parent just before it
started this process) until numpy, scipy and every gnmqsim module are
imported. With --setup-only the process stops there.

Passes run the workload's fixed job list until --seconds would be
exceeded (at least one pass; with --trace 1 at least one untraced and
one traced pass, alternating). Only the jobs are timed. The first pass's
outputs are checked against the oracles; every later pass must
reproduce them bit for bit. The last stdout line is one JSON record.
"""
from __future__ import annotations

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GNMQSIM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """numpy, scipy and every gnmqsim module, from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import gnmqsim
    if not Path(gnmqsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gnmqsim imported from {gnmqsim.__file__}, not {SRC}")
    import spans
    modules = {m: importlib.import_module(f"gnmqsim.{m}") for m in spans.MODULES}
    return gnmqsim, types.SimpleNamespace(**modules)


# -- counters taken at the wrapped function boundaries -------------------------

def _hooks(gq) -> dict:
    from spans import bound_args
    gates = gq.circuits.resources     # captured before wrapping

    def probe_steps(tr, fn, args, kwargs, result):
        a = bound_args(fn, args, kwargs)
        tr.count("observables.probe_steps", a["probes"] * a["order"])

    def embed_dim(tr, fn, args, kwargs, result):
        tr.count("dynamics.embed_dim", result.dim)

    def path_steps(tr, fn, args, kwargs, result):
        tr.count("dynamics.mc_path_steps",
                 bound_args(fn, args, kwargs)["n_paths"] * result["n_steps"])

    def qrom_gates(tr, fn, args, kwargs, result):
        tr.count("circuits.gates_built", gates(result)["gates"])

    def gaussian(tr, fn, args, kwargs, result):
        tr.count("circuits.gates_built", gates(result[0])["gates"])
        audit = bound_args(fn, args, kwargs)["audit"] or []
        # rejection-sampled angles log 2 counters per attempt; uniform
        # angles and signs log one counter and are not rejection attempts
        rejected = [used for _, used in audit if used >= 2]
        tr.count("stateprep.angle_attempts", sum(used // 2 for used in rejected))
        tr.count("stateprep.angle_accepts", len(rejected))

    def contacts(tr, fn, args, kwargs, result):
        tr.count("network.contacts", result.n_edges)

    return {
        "observables.chebyshev_moments_stochastic": probe_steps,
        "dynamics.embed": embed_dim,
        "dynamics.monte_carlo_langevin": path_steps,
        "dynamics.monte_carlo_encoded": path_steps,
        "circuits.build_qrom": qrom_gates,
        "stateprep.prepare_gaussian_state": gaussian,
        "network.build_gnm": contacts,
        "network.build_anm": contacts,
    }


def per_layer(tracer, wall_traced: float, wall_untraced: float) -> dict:
    s = tracer.summary()
    self_s, inc, cnt = s["self_s"], s["inclusive_s"], tracer.counters
    attempts = cnt.get("stateprep.angle_attempts", 0.0)
    return {
        "observables.self_s": self_s.get("observables", 0.0),
        "observables.chebyshev_moments_exact.s":
            inc.get("observables.chebyshev_moments_exact", 0.0),
        "observables.chebyshev_moments_stochastic.s":
            inc.get("observables.chebyshev_moments_stochastic", 0.0),
        "observables.spectral_bound.s": inc.get("observables.spectral_bound", 0.0),
        "observables.probe_steps": cnt.get("observables.probe_steps", 0.0),
        "dynamics.self_s": self_s.get("dynamics", 0.0),
        "dynamics.embed_dim": cnt.get("dynamics.embed_dim", 0.0),
        "dynamics.evolve_harmonic.s": inc.get("dynamics.evolve_harmonic", 0.0),
        "dynamics.decode_state.s": inc.get("dynamics.decode_state", 0.0),
        "dynamics.evolve_inhomogeneous.s": inc.get("dynamics.evolve_inhomogeneous", 0.0),
        "dynamics.evolve_langevin_covariance.s":
            inc.get("dynamics.evolve_langevin_covariance", 0.0),
        "dynamics.monte_carlo.s": inc.get("dynamics.monte_carlo_langevin", 0.0)
            + inc.get("dynamics.monte_carlo_encoded", 0.0),
        "dynamics.mc_path_steps": cnt.get("dynamics.mc_path_steps", 0.0),
        "control.self_s": self_s.get("control", 0.0),
        "control.solve_lqr.s": inc.get("control.solve_lqr", 0.0),
        "control.simulate_controlled.s": inc.get("control.simulate_controlled", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.artifact_bytes": cnt.get("cli.artifact_bytes", 0.0),
        "circuits.self_s": self_s.get("circuits", 0.0),
        "circuits.build_qrom.s": inc.get("circuits.build_qrom", 0.0),
        "circuits.apply_basis.s": inc.get("circuits.apply_basis", 0.0),
        "circuits.gates_built": cnt.get("circuits.gates_built", 0.0),
        "circuits.basis_evals": cnt.get("circuits.basis_evals", 0.0),
        "stateprep.self_s": self_s.get("stateprep", 0.0),
        "stateprep.prepare_gaussian_state.s":
            inc.get("stateprep.prepare_gaussian_state", 0.0),
        "stateprep.angle_attempts": attempts,
        "stateprep.angle_accept_ratio":
            cnt.get("stateprep.angle_accepts", 0.0) / attempts if attempts else 0.0,
        "network.self_s": self_s.get("network", 0.0),
        "network.build_gnm.s": inc.get("network.build_gnm", 0.0),
        "network.build_anm.s": inc.get("network.build_anm", 0.0),
        "network.contacts": cnt.get("network.contacts", 0.0),
        "connectivity.self_s": self_s.get("connectivity", 0.0),
        "connectivity.edits": cnt.get("connectivity.edits", 0.0),
        "connectivity.queries": cnt.get("connectivity.queries", 0.0),
        "connectivity.changed_values": cnt.get("connectivity.changed_values", 0.0),
        "structure.self_s": self_s.get("structure", 0.0),
        "trace.spans": float(s["spans"]),
        "trace.unattributed_s": s["unattributed_s"],
        "trace.overhead_s": wall_traced - wall_untraced,
    }


# -- passes -------------------------------------------------------------------

class Run:
    def __init__(self, jobs_list, ctx, fingerprint):
        self.jobs, self.ctx, self.fingerprint = jobs_list, ctx, fingerprint
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(message)

    def one_pass(self, number: int) -> list[tuple[float, float]]:
        """Runs every job once; returns each job's (wall, cpu) seconds."""
        ctx, times = self.ctx, []
        for job in self.jobs:
            shutil.rmtree(ctx.out_dir(job.name), ignore_errors=True)
            self.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with ctx.tracer.job(job.name):
                    out = job.run(ctx)
            except Exception:
                out = None
                self.fail(f"pass {number} {job.name}: raised\n{traceback.format_exc()}")
            times.append((time.perf_counter() - t0, time.process_time() - c0))
            if out is not None:
                self.check(job, out, number)
        return times

    def check(self, job, out, number) -> None:
        """Pass 1 runs the job's checks; later passes must repeat its output."""
        try:
            digest = self.fingerprint(out)
        except Exception:
            self.attempted += 1
            self.fail(f"pass {number} {job.name}: output digest\n{traceback.format_exc()}")
            return
        if job.name in self.digests:
            self.attempted += 1
            if digest != self.digests[job.name]:
                self.fail(f"pass {number} {job.name}: output differs from pass 1")
            return
        self.digests[job.name] = digest
        try:
            results = job.check(self.ctx, out)
        except Exception:
            self.attempted += 1
            self.fail(f"{job.name}: check raised\n{traceback.format_exc()}")
            return
        for c in results:
            self.attempted += 1
            if not c.ok:
                self.fail(f"{job.name}: {c.quantity} = {c.value:.6g} "
                          f"(tolerance {c.tolerance:.3g})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    gnmqsim, gq = import_program()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import inputs
    import jobs
    import spans
    make_jobs, sizes = jobs.WORKLOADS[args.workload]
    data = inputs.generate(args.seed, args.work / "inputs", sizes)
    ctx = jobs.Context(gq, data, args.work, spans.NullTracer())
    run = Run(make_jobs(ctx), ctx, jobs.fingerprint)

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    pass_lengths = []
    while True:
        t_pass = time.perf_counter()
        number = len(pass_lengths) + 1
        if args.trace == 1 and len(traced) < len(untraced):
            tracer = spans.Tracer()
            tracer.install(gnmqsim, _hooks(gq))
            ctx.tracer = tracer
            try:
                traced.append(run.one_pass(number))
            finally:
                tracer.uninstall()
                ctx.tracer = spans.NullTracer()
            tracers.append(tracer)
        else:
            untraced.append(run.one_pass(number))
        pass_lengths.append(time.perf_counter() - t_pass)
        if len(pass_lengths) == 1:
            # later passes repeat the same allocations; a fixed reading
            # point keeps the figure independent of the number of passes
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = untraced and (args.trace == 0 or traced)
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(pass_lengths) > args.seconds:
            break

    def pass_time(passes, k):
        """A pass's time as the sum over jobs of each job's median, so a
        slow spell of the machine during one job of one pass drops out."""
        return sum(statistics.median(p[j][k] for p in passes)
                   for j in range(len(passes[0])))

    record = {"attempted": run.attempted, "failed": run.failed,
              "failures": run.failures, "setup_s": setup_s,
              "passes": len(untraced) + len(traced),
              "pass_walls": [sum(w for w, _ in p) for p in untraced],
              "pass_times": untraced,
              "wall_s": pass_time(untraced, 0),
              "cpu_s": pass_time(untraced, 1),
              "peak_rss_mib": peak_rss}
    if traced:
        wall_traced = pass_time(traced, 0)
        layers = [per_layer(t, wall_traced, record["wall_s"]) for t in tracers]
        record["per_layer"] = {k: statistics.median(m[k] for m in layers)
                               for k in layers[0]}
        spans_out = args.work.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_out.write_text(json.dumps(
            [{"pass": k, "spans": t.spans} for k, t in enumerate(tracers)]) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
