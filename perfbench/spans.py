"""Spans and counters for the traced pass, recorded from outside gnmqsim.

`Tracer.install` wraps every function in gnmqsim's public export table
plus the CLI's `cmd_*` subcommands, and rebinds each wrapped function
object wherever a loaded gnmqsim module holds it (module globals and the
dicts in them, since `from .x import y` and the subcommand table bind
copies). The benchmark's own direct calls open spans at their call sites
through `Tracer.call`.

A span is (name, start, end, parent index, job id), kept in memory until
the run ends. A module's self time is the time of its spans minus the
part their child spans cover; job spans, named "job:<name>", belong to no
module, so their self time is the time no module accounts for.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("structure", "network", "circuits", "stateprep", "connectivity",
           "dynamics", "observables", "control", "cli")


class NullTracer:
    """Untraced passes: direct calls, no spans, no counts."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, name):
        return _NULL_SPAN

    def count(self, name, amount=1):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _JobSpan:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.job_id = self.name
        self.index = self.tracer._open("job:" + self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        self.tracer.job_id = None
        return False


class Tracer:
    """Records spans and counters while installed."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.counters: dict[str, float] = defaultdict(float)
        self.job_id = None
        self._stack: list[int] = []
        self._rebound: list = []        # (container, key, original)

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def job(self, name):
        return _JobSpan(self, name)

    def count(self, name, amount=1):
        self.counters[name] += amount

    # -- installing wrappers -----------------------------------------------------

    def _wrap(self, qualname, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self, package, hooks: dict) -> None:
        """Wrap the public functions of `package` (an imported gnmqsim)."""
        targets = {}
        for name, module_name in package._EXPORTS.items():
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                targets[obj] = f"{module_name}.{name}"
        cli = importlib.import_module(f"{package.__name__}.cli")
        for name, obj in vars(cli).items():
            if name.startswith("cmd_") and inspect.isfunction(obj):
                targets[obj] = f"cli.{name}"
        wrappers = {fn: self._wrap(q, fn, hooks.get(q)) for fn, q in targets.items()}
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__
                                      or mod_name.startswith(prefix)):
                continue
            containers = [vars(module)]
            containers += [v for v in vars(module).values() if isinstance(v, dict)]
            for container in containers:
                for key, value in list(container.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._rebound.append((container, key, value))
                        container[key] = wrappers[value]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._rebound):
            container[key] = original
        self._rebound.clear()

    # -- aggregation -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-module self time, per-function inclusive time, unattributed."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        unattributed = 0.0
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child_time[k]
            module = name.split(".", 1)[0]
            if module in MODULES:
                self_s[module] += own
            else:
                unattributed += own
            # inclusive time counts the outermost span of a recursive chain
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return {"self_s": dict(self_s), "inclusive_s": dict(inclusive),
                "unattributed_s": unattributed, "spans": len(self.spans)}


def bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
