"""Per-layer tracing of nlprover from outside the program.

The tracer patches named functions of the `nlprover` modules for the
length of one traced run. Boundary functions get a span per call (name,
start, end, parent span, instance id), kept in memory; hot kernel
functions get an exact call count only, because they run millions of
times. Every patch target must exist, and every boundary assigned to the
traced workload must record at least one call, or the run fails: a
refactor must not silently zero a counter that a claim rests on.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# The engine's halt reasons at the time the benchmark was defined; any other
# reason is counted as "other", so the metric names stay fixed.
HALT_REASONS = ("empty_clause", "saturated", "budget_exhausted", "no_valid_pair")
STRATEGIES = ("sos_linear", "unrestricted")

PROVE = ("prove-default", "prove-paper", "prove-unrestricted")
SOS = ("prove-default", "prove-paper", "gen-default")
ALL = (*PROVE, "gen-default")
GEN = ("gen-default",)

# Span boundaries: (metric name, defining module, function name, binding
# modules, workloads that must record calls). Binding modules None means
# every nlprover module that holds the same function object.
SPANNED = (
    ("language.to_sentence", "language", "to_sentence", None, ALL),
    ("language.realize_clause", "language", "realize_clause", ("judge",), ALL),
    ("normalize.build_theory_sets", "normalize", "build_theory_sets", None, ALL),
    ("normalize.to_clauses", "normalize", "to_clauses", None, ALL),
    ("judge.judge", "judge", "judge", None, ALL),
    ("judge.check_sat", "judge", "check_sat", None, GEN),
    ("evaluation.check_proof", "evaluation", "check_proof", None, ALL),
    ("evaluation.check_step", "evaluation", "check_step", None, ALL),
    ("datagen.oracle_entail", "datagen", "oracle_entail", None, ALL),
    ("datagen.oracle_sat", "datagen", "oracle_sat", None, ALL),
    ("datagen.extract_training_samples", "datagen", "extract_training_samples", None, GEN),
)
# Count-only kernel boundaries, wrapped at the engine's bound names.
COUNTED = (
    ("logic.unify", "unify", PROVE),
    ("logic.subst_clause", "subst_clause", PROVE),
    ("logic.canonicalize", "canonicalize", PROVE),
)
REFUTE_REQUIRED = {"sos_linear": SOS, "unrestricted": ("prove-unrestricted", "gen-default")}


class TraceError(RuntimeError):
    """A patch target is missing or an assigned boundary saw no calls."""


def _module(name: str):
    # importlib, not attribute access: the package re-exports a function
    # under the name `judge`, shadowing the submodule.
    return importlib.import_module(f"nlprover.{name}")


_MODULES = ("logic", "normalize", "language", "engine", "judge", "evaluation", "datagen")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index, instance id]
        self.counts: Counter = Counter()
        self.instance = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bindings(self, module: str, name: str, binders):
        owner = _module(module)
        if not hasattr(owner, name):
            raise TraceError(f"patch target nlprover.{module}.{name} does not exist")
        target = getattr(owner, name)
        if binders is None:
            found = [m for m in map(_module, _MODULES) if getattr(m, name, None) is target]
        else:
            found = []
            for b in binders:
                m = _module(b)
                if getattr(m, name, None) is not target:
                    raise TraceError(f"nlprover.{b}.{name} is not nlprover.{module}.{name}")
                found.append(m)
        return target, found

    def install(self) -> None:
        for metric, module, name, binders, _ in SPANNED:
            target, owners = self._bindings(module, name, binders)
            wrapper = self._spanned(metric, target)
            for owner in owners:
                self._set(owner, name, wrapper)
        engine = _module("engine")
        for metric, name, _ in COUNTED:
            target, _owners = self._bindings("logic", name, ("engine",))
            self._set(engine, name, self._counted(metric, target))
        refute, owners = self._bindings("engine", "refute", None)
        wrapper = self._refute(refute)
        for owner in owners:
            self._set(owner, "refute", wrapper)
        add = engine.TheorySet.add
        self._set(engine.TheorySet, "add", self._theoryset_add(add))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    # A per-instance deadline can interrupt this bookkeeping between its two
    # statements, so the stack is reset at each instance and a span left
    # with end 0 is dropped from the results.

    def begin(self, instance: str, name: str) -> list:
        """Root span of one instance (or of set-up)."""
        self.instance = instance
        self._stack.clear()
        return self.open(name)

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.instance]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, metric, fn):
        counts = self.counts
        tie_broken = metric == "judge.judge"

        def wrapper(*args, **kwargs):
            counts[metric + ".calls"] += 1
            rec = self.open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if tie_broken and result.tie_broken:
                counts["judge.tie_broken"] += 1
            return result

        return wrapper

    def _counted(self, metric, fn):
        counts = self.counts
        calls = metric + ".calls"
        if metric == "logic.unify":

            def wrapper(*args):
                counts[calls] += 1
                result = fn(*args)
                if result is not None:
                    counts["logic.unify.hits"] += 1
                return result

        else:

            def wrapper(*args):
                counts[calls] += 1
                return fn(*args)

        return wrapper

    def _refute(self, fn):
        counts = self.counts
        sig = inspect.signature(fn)
        if not {"tset", "strategy"} <= set(sig.parameters):
            raise TraceError("engine.refute no longer takes (tset, strategy)")

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tset = bound.arguments["tset"]
            metric = f"engine.refute.{bound.arguments['strategy']}"
            counts[metric + ".calls"] += 1
            before = len(tset.clauses)
            rec = self.open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
                counts["engine.clauses_stored"] += len(tset.clauses) - before
            reason = result.halt_reason if result.halt_reason in HALT_REASONS else "other"
            counts[f"engine.refute.halt.{reason}"] += 1
            counts["engine.refute.steps_used"] += result.steps_used
            return result

        return wrapper

    def _theoryset_add(self, fn):
        counts = self.counts

        def add(*args, **kwargs):
            counts["engine.theoryset_add.calls"] += 1
            stored, new = fn(*args, **kwargs)
            if new:
                counts["engine.theoryset_add.new"] += 1
            return stored, new

        return add

    # -- results ----------------------------------------------------------

    def check_assigned(self) -> None:
        """Fail when a boundary assigned to this workload saw no calls."""
        required = [m for m, _, _, _, ws in SPANNED if self.workload in ws]
        required += [m for m, _, ws in COUNTED if self.workload in ws]
        required += [f"engine.refute.{s}" for s, ws in REFUTE_REQUIRED.items() if self.workload in ws]
        if self.workload in PROVE:
            required.append("engine.theoryset_add")
        zero = [m for m in required if self.counts[m + ".calls"] == 0]
        if zero:
            raise TraceError(f"no calls recorded on {self.workload} for: {', '.join(zero)}")

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its child spans, summed
        by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            if end:
                out[name] += end - start - c
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name and end]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
