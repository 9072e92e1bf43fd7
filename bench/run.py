#!/usr/bin/env python3
"""End-to-end benchmark of nlprover, one workload per process.

    python3 bench/run.py --workload prove-default --seed 1 --seconds 15 --trace 0

Every workload is a closed loop with a single client: the next instance is
sent only when the last one has completed. The loop calls the library's
stage functions directly (the `prove`, `eval`/`check`, `sat`, `gen` and
`gen --nlsat` stages without the CLI's argparse and JSON I/O), checks every
output, and prints the end-to-end metrics, one per line with its unit. The
last line of standard output is one JSON object for the harness.

With `--trace 1` the timed loop is followed by a traced run over a fixed
number of its instances (bench/spans.py), each run again untraced and
traced back to back; that run prints the per-layer metrics and the tracing
overhead instead. End-to-end metrics only ever come from untraced runs.

Workloads, and why each was chosen:

* prove-default: default-size theories (the acceptance suite's three
  generator shapes), judged sos-linear and scored with `check_proof`. The
  everyday labelling traffic: judgments take a few ms, so kernel constant
  factors, parsing, clause form and proof checking show in the latency.
* prove-paper: RuleTaker-sized theories judged sos-linear under a 2 s
  per-instance deadline. Nearly all time goes to the saturation pre-check
  and the deepening search, where the multi-second tail and the work-limit
  false Unknown live; search changes show in the solved share and rate.
  It is not among BENCHMARK.json's workloads: its judgments are bimodal
  (about half take under 0.3 s, and 30-50 % pass the 2 s deadline), so
  the ~100 instances a run gets through leave its median spread by about
  half across seeds. Run it by name to measure the paper tier.
* prove-unrestricted: prove-default's inputs judged unrestricted, with a
  step budget of 300 accepted resolvents. The same engine used differently:
  every resolvent is stored in the TheorySet and rendered to text, so
  store-path changes show here and not on prove-paper. It is not among
  BENCHMARK.json's workloads either: the top 5 % of its instances take
  40-50 % of the time, and a run gets through only ~400 of them, so over
  seeds 1-10 its rate spread by 0.35 and its median latency by 0.18. The
  unrestricted search itself still runs on gen-default, through
  `check_sat` on the nlsat stream.
* gen-default: generator streams over the default shapes plus an nlsat
  stream, with training-record extraction. The only workload where the
  grounding + DPLL oracle and the rejection sampler do the work.

Results beyond the JSON line (provenance, failed instance ids, digests,
spans of a traced run) are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

# The leading instances are always attempted, even past --seconds, so the
# output digest covers the same instances in every run.
DIGEST_N = 100

# instances_per_s is the median rate over consecutive windows of this many
# instances (see end_to_end()).
WINDOW = 25

# The fixed draw whose input digest every run checks (see reference_digest).
REFERENCE_SEED = 0
REFERENCE_N = 30

# Set-up is split into this many timed parts per run (see setup()), and the
# import is timed this many times; medians are reported.
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))
try:
    from nlprover import datagen, engine, evaluation, language, logic
except ImportError as e:
    print(f"bench: cannot import nlprover from {SRC}: {e}", file=sys.stderr)
    sys.exit(2)
# Not `from nlprover import judge`: the package re-exports the function
# judge() under that name.
judge = importlib.import_module("nlprover.judge")

import inputs  # noqa: E402  (bench/ modules that import nlprover too)
import spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """The settings one workload runs with.

    `deadline_s` is a guard against a hung instance, well above the slowest
    instance on seeds 1-10 (under 3 s on prove-default and prove-unrestricted,
    under 1 s on gen-default), so that every instance runs to its answer and
    the latencies are the program's, not the deadline's. Only prove-paper is
    cut by its deadline.

    `tail_pct` is fixed per workload, not picked per run, so that runs stay
    comparable. It leaves dozens of samples beyond it at this commit's rate
    on a 2-core machine; on prove-paper, where up to half the instances are
    cut by the deadline, that leaves only the median. On prove-default it is
    p90: the p95 of a 1200-instance pool, over its p50, moves with the few
    deepest instances each seed draws, which on top of the host's own drift
    leaves the p95 too unsteady to bound. On gen-default it is p90 too: its
    p95 spread by 0.22 over seeds 1-10. The count actually beyond it is
    reported with each run.

    `budget` is the step budget passed to `judge.judge`. prove-unrestricted
    raises it from the library's default of 100 accepted resolvents, at
    which about 0.5 % of its instances end Unknown on the budget, to 300,
    at which every instance of seeds 0-10 is decided.

    A traced run traces a fixed `trace_n` instances, so its counts do not
    grow with speed."""

    name: str
    kind: str
    deadline_s: float
    tail_pct: float
    trace_n: int
    shapes: str = ""
    pool: int = 0
    strategy: str = ""
    budget: int = engine.DEFAULT_BUDGET


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prove-default", "prove", 20.0, 90.0, 600, "default", 1200, "sos_linear"),
        Workload("prove-paper", "prove", 2.0, 50.0, 40, "paper", 150, "sos_linear"),
        Workload("prove-unrestricted", "prove", 20.0, 95.0, 150, "default", 1200, "unrestricted",
                 300),
        Workload("gen-default", "gen", 20.0, 90.0, 300),
    )
}

# gen-default streams: (name, GenConfig fields, weight in the schedule).
# The three generator shapes are the acceptance suite's; the rule-only
# stream is its nlsat configuration.
GEN_STREAMS = (
    ("4x6", {"n_entities": 4, "n_attributes": 6}, 4),
    ("6x4", {"n_entities": 6, "n_attributes": 4, "n_facts": 6}, 3),
    ("3x8", {"n_entities": 3, "n_attributes": 8, "n_rules": 6}, 3),
    ("nlsat", {"n_attributes": 12, "n_rules": 6, "target_depth_range": (1, 12)}, 3),
)

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("solved_share", "share"),
)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when an instance passes its deadline. A
    BaseException, so the library's `except Exception` handlers (in
    TheorySet rendering and check_proof) cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_seconds() -> list[float]:
    """Time `import nlprover` in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import nlprover; print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        out.append(float(proc.stdout))
    return out


# ---------------------------------------------------------------------------
# Set-up


def setup(w: Workload, seed: int):
    """Build the workload's inputs. Returns them with the build time and
    the time of each timed part.

    The prove-* pool is drawn in SETUP_REPEATS equal chunks, each from its
    own seeded stream and timed on its own; the build time reported is
    SETUP_REPEATS times the median chunk, so one slow chunk does not move
    it. gen-default's inputs are its stream configurations."""
    if w.kind == "gen":
        t0 = time.perf_counter()
        streams = GenStreams(seed)
        build_s = time.perf_counter() - t0
        return streams, build_s, [build_s]
    shapes = inputs.DEFAULT_SHAPES if w.shapes == "default" else inputs.PAPER_SHAPES
    pool, times = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool += inputs.sample(seed, shapes, w.pool // SETUP_REPEATS, f"{w.shapes}{k}")
        times.append(time.perf_counter() - t0)
    return pool, SETUP_REPEATS * statistics.median(times), times


def input_digest(w: Workload, seed: int, built) -> str:
    if w.kind == "prove":
        return inputs.digest(built)
    spec = [[name, fields, weight, gen_config_seed(seed, i, 0)]
            for i, (name, fields, weight) in enumerate(GEN_STREAMS)]
    return hashlib.sha256(json.dumps(spec).encode()).hexdigest()


# ---------------------------------------------------------------------------
# prove-* workloads

# Failures that are resource limits, not wrong outputs: the deadline, and an
# Unknown where the side that should refute stopped on its step budget.
LIMITS = ("deadline", "budget_unknown")


def prove_one(x, w: Workload):
    """Judge one instance and score the prediction, as `prove` then `eval`
    would. Returns (outcome, digest entry)."""
    try:
        with deadline(w.deadline_s):
            lex = x.lexicon()
            sentences = [language.to_sentence(t, lex) for t in x.theory]
            hyp = language.to_sentence(x.hypothesis, lex)
            verdict = judge.judge(sentences, hyp, strategy=w.strategy, budget=w.budget,
                                  lexicon=lex)
            proof = [((s.premises_fol[0], s.premises_fol[1]), s.conclusion_fol) for s in verdict.proof]
            rec = evaluation.PredictionRecord(
                x.id, list(x.theory), x.hypothesis, x.label, verdict.label, proof, lex
            )
            full = evaluation.score([rec]).full_accuracy
    except DeadlineExceeded:
        return "deadline", [x.id, "deadline"]
    except Exception as e:
        return f"error:{type(e).__name__}", [x.id, "error"]
    entry = [x.id, verdict.label, [f"{p1} | {p2} => {c}" for (p1, p2), c in proof]]
    if verdict.label == x.label:
        return ("ok" if full == 1.0 else "invalid_proof"), entry
    if verdict.label == judge.UNKNOWN:
        halt = verdict.halt_t2 if x.label == judge.TRUE else verdict.halt_t1
        if halt == engine.HALT_BUDGET:
            return "budget_unknown", entry
    return "wrong_label", entry


def prove_step(w: Workload, pool, n: int, tracer=None):
    """The n-th instance of the loop over the pool, which wraps round when
    the program gets through it within the time. Returns (id, outcome,
    latency_s, digest entry) and None (nothing is emitted)."""
    x = pool[n % len(pool)]
    root = tracer.begin(x.id, "bench.instance") if tracer else None
    t0 = time.perf_counter()
    outcome, entry = prove_one(x, w)
    latency = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    return (x.id, outcome, latency, entry), None


# ---------------------------------------------------------------------------
# gen-default


def gen_config_seed(seed: int, stream: int, restart: int) -> int:
    return (seed * len(GEN_STREAMS) + stream) * 1000 + restart


class GenStreams:
    """The weighted round-robin of generator streams. A stream that raises
    or passes its deadline is restarted from the next config seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.schedule = [i for i, (_, _, weight) in enumerate(GEN_STREAMS) for _ in range(weight)]
        self.restarts = [0] * len(GEN_STREAMS)
        self.iters = [self._open(i) for i in range(len(GEN_STREAMS))]

    def config_seed(self, i: int) -> int:
        return gen_config_seed(self.seed, i, self.restarts[i])

    def _open(self, i: int):
        name, fields, _ = GEN_STREAMS[i]
        cfg = datagen.GenConfig(seed=self.config_seed(i), **fields)
        if name == "nlsat":
            return datagen.generate_nlsat(cfg, fraction_unsat=0.5)
        return datagen.generate(cfg)

    def restart(self, i: int) -> None:
        self.restarts[i] += 1
        self.iters[i] = self._open(i)


def gen_step(w: Workload, streams: GenStreams, n: int, tracer=None):
    """The n-th instance: the next yield of the scheduled stream and the
    extraction of its training records, timed together. Returns (id,
    outcome, latency_s, emitted JSONL line) and the emitted (instance,
    record count), or None when the stream failed and was restarted."""
    i = streams.schedule[n % len(streams.schedule)]
    iid = f"{GEN_STREAMS[i][0]}-{streams.config_seed(i)}-{n}"
    root = tracer.begin(iid, "bench.instance") if tracer else None
    t0 = time.perf_counter()
    try:
        with deadline(w.deadline_s):
            inst = next(streams.iters[i])
            records = (
                datagen.extract_training_samples(inst) if inst.label != judge.UNKNOWN else []
            )
        outcome = "ok"
    except DeadlineExceeded:
        outcome = "deadline"
    except Exception as e:
        outcome = f"error:{type(e).__name__}"
    latency = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    if outcome == "ok":
        line = json.dumps(datagen.instance_to_dict(inst), ensure_ascii=False)
        return (inst.id, outcome, latency, line), (inst, len(records))
    streams.restart(i)
    return (iid, outcome, latency, [iid, outcome]), None


def check_generated(inst, n_records: int) -> str:
    """Outcome of checking one generated instance: gold proofs must verify
    symbolically and yield four training records per step."""
    steps = inst.gold_proof
    if n_records != 4 * len(steps):
        return "bad_records"
    if inst.label in (judge.TRUE, judge.FALSE):
        proof = [(s.premises_fol, s.conclusion_fol) for s in steps]
        rec = evaluation.PredictionRecord(
            inst.id, inst.theory, inst.hypothesis, inst.label, inst.label, proof, inst.lexicon()
        )
        return "ok" if evaluation.check_proof(rec) else "invalid_proof"
    if inst.label == judge.UNSATISFIABLE:
        # Rule-only refutation: each step valid, premises drawn from the
        # theory or earlier conclusions, ending in the empty clause.
        def key(fol):
            return logic.canonical_key(logic.parse_clause(fol))

        available = {key(f) for f in inst.theory_fol}
        last = None
        for s in steps:
            if not evaluation.check_step(s.premises_fol, s.conclusion_fol):
                return "invalid_proof"
            if any(key(p) not in available for p in s.premises_fol):
                return "invalid_proof"
            last = key(s.conclusion_fol)
            available.add(last)
        return "ok" if last == () else "invalid_proof"
    return "ok" if not steps else "invalid_proof"


def run_loop(w: Workload, built, seconds: float, count=None):
    """The workload's timed closed loop: `count` instances, or else at
    least DIGEST_N and until `seconds` of loop time have passed. Each
    generated instance is checked as soon as it is emitted; the check is
    left out of the loop time, and only the first DIGEST_N outputs are
    kept, so memory does not grow with the instances a run gets through.
    Returns the per-instance results and the loop time."""
    step = prove_step if w.kind == "prove" else gen_step
    results = []
    untimed = 0.0
    start = time.perf_counter()
    stop = start + seconds
    while not (len(results) >= count if count is not None
               else len(results) >= DIGEST_N and time.perf_counter() - untimed >= stop):
        n = len(results)
        (iid, outcome, latency, entry), item = step(w, built, n)
        if item:
            t0 = time.perf_counter()
            outcome = check_generated(*item)
            untimed += time.perf_counter() - t0
        results.append((iid, outcome, latency, entry if n < DIGEST_N else None))
    return results, time.perf_counter() - start - untimed


# ---------------------------------------------------------------------------
# Metrics and results


MISSED = "-" * 8


def output_digest(results, n: int) -> tuple[str, str]:
    """SHA-256 over the outputs of the first n instances, leaving out those
    that passed the deadline, and a fingerprint of each of them (eight hex
    digits, or MISSED) to compare two runs instance by instance: an
    instance that finishes near the deadline can fall on either side of it
    from run to run."""
    h = hashlib.sha256()
    marks = []
    for _, outcome, _, entry in results[:n]:
        if outcome == "deadline":
            marks.append(MISSED)
            continue
        data = (entry if isinstance(entry, str) else json.dumps(entry)).encode()
        h.update(data + b"\n")
        marks.append(hashlib.sha256(data).hexdigest()[:8])
    return h.hexdigest(), "".join(marks)


def compare_outputs(record: dict, digest: str, marks: str) -> str:
    """How this run's outputs compare with the recorded ones."""
    if record["outputs"] == digest and record["marks"] == marks:
        return "unchanged"
    pairs = [(record["marks"][i:i + 8], marks[i:i + 8]) for i in range(0, len(marks), 8)]
    both = [k for k, (a, b) in enumerate(pairs) if MISSED not in (a, b)]
    changed = [k for k in both if pairs[k][0] != pairs[k][1]]
    crossed = sum((a == MISSED) != (b == MISSED) for a, b in pairs)
    if changed:
        return (f"CHANGED vs recorded at positions {changed[:10]} of the {len(both)} "
                f"instances decided in both runs")
    return (f"unchanged on the {len(both)} instances decided in both runs; "
            f"{crossed} crossed the deadline")


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values and the count beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(values)))
    return values[rank - 1], len(values) - rank


def end_to_end(w: Workload, results, loop_s: float, setup_s: float):
    """The end-to-end metrics of the untraced loop, and notes on them:
    where the tail percentile sits, the plain rate and peak_rss_mb.
    solved_share is one minus the failed share.

    instances_per_s is the median, over consecutive windows of WINDOW
    attempted instances, of WINDOW over the window's summed latency. On
    prove-default about one instance in a thousand takes 0.3-12 s against a
    median of a few ms, and which of them a seed draws moved the plain
    rate (attempted over loop time) by 0.25-0.36 across seeds 1-10; the
    median window leaves those instances to the tail and to mean_rate, which
    is reported beside it.

    peak_rss_mb (ru_maxrss) is reported but not among the JSON metrics: it
    is set by the single largest instance a seed draws, whose search fills
    the library's unbounded canonical-form cache, and ranged from 38 to
    69 MB over prove-default seeds 1-5 (spread 0.50)."""
    lat = [r[2] for r in results]
    windows = [sum(lat[k:k + WINDOW]) for k in range(0, len(lat) - WINDOW + 1, WINDOW)]
    lat.sort()
    tail, beyond = nearest_rank(lat, w.tail_pct)
    n = len(results)
    n_failed = sum(r[1] != "ok" for r in results)
    values = {
        "setup_s": setup_s,
        "instances_per_s": WINDOW / statistics.median(windows),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "solved_share": (n - n_failed) / n,
    }
    return values, {"percentile": w.tail_pct, "samples": n, "samples_beyond": beyond,
                    "mean_rate": n / loop_s, "windows": len(windows),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced_run(w: Workload, seed: int, count: int):
    """Set-up with the tracer installed, then `count` instances, each run
    once untraced and once traced, back to back and in alternating order,
    so that both sides see the same machine state. The tracing overhead is
    the median over instances, among those that finished on both sides, of
    traced over untraced latency, minus one. This follows the untraced
    timed loop, whose instances these are, so neither side runs on colder
    caches than the other.

    Returns the tracer, the traced results, the emitted instances (for
    gen-default), the overhead and the number of instances it rests on."""
    tracer = spans.Tracer(w.name)
    tracer.install()
    try:
        root = tracer.begin("setup", "bench.setup")
        built, _, _ = setup(w, seed)
        tracer.close(root)
    finally:
        tracer.uninstall()
    # A generator stream cannot be replayed, so the untraced side pulls the
    # same instances from a second set of streams with the same seeds.
    ref = built if w.kind == "prove" else GenStreams(seed)
    step = prove_step if w.kind == "prove" else gen_step
    traced, emitted, ratios = [], [], []
    for n in range(count):
        latency = {}
        for on in ((False, True) if n % 2 else (True, False)):
            if not on:
                result, _ = step(w, ref, n)
            else:
                tracer.install()
                try:
                    result, item = step(w, built, n, tracer)
                    if item:
                        root = tracer.begin(result[0], "bench.verify")
                        result = (result[0], check_generated(*item), *result[2:])
                        tracer.close(root)
                        emitted.append(item)
                finally:
                    tracer.uninstall()
                traced.append(result)
            if result[1] == "ok":
                latency[on] = result[2]
        if len(latency) == 2:
            ratios.append(latency[True] / latency[False])
    tracer.check_assigned()
    return tracer, traced, emitted, statistics.median(ratios) - 1.0, len(ratios)


# Stages that some workloads never run. Their times, and the engine's time
# split by strategy, go to the results file and the report but not into the
# JSON line: a time that is zero on every run of a workload says nothing.
DETAIL_ONLY = ("judge.check_sat.self_s", "datagen.extract_training_samples.self_s")


def per_layer(tracer, emitted, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run: (headline, detail)."""
    c = tracer.counts
    self_s = tracer.self_times()
    m = {
        "logic.unify.calls": c["logic.unify.calls"],
        "logic.unify.hits": c["logic.unify.hits"],
        "logic.unify.hit_ratio": c["logic.unify.hits"] / max(1, c["logic.unify.calls"]),
        "logic.subst_clause.calls": c["logic.subst_clause.calls"],
        "logic.canonicalize.calls": c["logic.canonicalize.calls"],
    }
    detail = {}
    refute = []
    for s in spans.STRATEGIES:
        name = f"engine.refute.{s}"
        d = sorted(tracer.durations(name))
        refute += d
        m[f"{name}.calls"] = c[f"{name}.calls"]
        detail[f"{name}.self_s"] = self_s.get(name, 0.0)
        detail[f"{name}.p95_ms"] = nearest_rank(d, 95.0)[0] * 1e3 if d else 0.0
    m["engine.refute.self_s"] = sum(detail[f"engine.refute.{s}.self_s"] for s in spans.STRATEGIES)
    m["engine.refute.p95_ms"] = nearest_rank(sorted(refute), 95.0)[0] * 1e3
    for reason in (*spans.HALT_REASONS, "other"):
        m[f"engine.refute.halt.{reason}"] = c[f"engine.refute.halt.{reason}"]
    for key in ("engine.refute.steps_used", "engine.clauses_stored",
                "engine.theoryset_add.calls", "engine.theoryset_add.new"):
        m[key] = c[key]
    for name, *_ in spans.SPANNED:
        m[f"{name}.calls"] = c[f"{name}.calls"]
        (detail if f"{name}.self_s" in DETAIL_ONLY else m)[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["judge.tie_broken"] = c["judge.tie_broken"]
    m["datagen.emitted"] = len(emitted)
    # generate() labels hypotheses with oracle_entail; generate_nlsat() does not.
    hyp = sum(inst.meta.get("kind") != "nlsat" for inst, _ in emitted)
    m["datagen.accept_ratio"] = hyp / max(1, c["datagen.oracle_entail.calls"])
    m["trace.overhead_pct"] = overhead * 100
    return m, detail


PER_LAYER_UNITS = {"self_s": "s", "p95_ms": "ms", "overhead_pct": "%",
                   "accept_ratio": "ratio", "hit_ratio": "ratio"}


def provenance(w: Workload, seed: int, seconds: float) -> dict:
    git_sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "git_dirty": dirty,
        "seed": seed,
        "seconds": seconds,
        "workload": w.name,
        "loop": "closed, 1 client",
        "deadline_s": w.deadline_s,
        "input_size": (
            {"pool": w.pool, "shapes": w.shapes, "strategy": w.strategy, "budget": w.budget}
            if w.kind == "prove"
            else {"streams": [[n, f, wt] for n, f, wt in GEN_STREAMS]}
        ),
        "tail_percentile": w.tail_pct,
        "output_digest_instances": DIGEST_N,
    }


def reference_digest(w: Workload) -> str:
    """Input digest of a small draw with a fixed seed. It is recorded once
    and checked on every run, so that a change to how inputs are made fails
    whatever seed a run is given, recorded or not."""
    if w.kind == "gen":
        return input_digest(w, REFERENCE_SEED, None)
    shapes = inputs.DEFAULT_SHAPES if w.shapes == "default" else inputs.PAPER_SHAPES
    return inputs.digest(inputs.sample(REFERENCE_SEED, shapes, REFERENCE_N, f"{w.shapes}-reference"))


def recorded_digests(workload: str) -> dict:
    return json.loads(DIGESTS.read_text()).get(workload, {})


def failures(results) -> list[dict]:
    return [
        {"position": k, "id": iid, "outcome": outcome}
        for k, (iid, outcome, _, _) in enumerate(results)
        if outcome != "ok"
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    w = WORKLOADS[args.workload]

    imports = import_seconds()
    signal.signal(signal.SIGALRM, _on_alarm)
    built, build_s, parts = setup(w, args.seed)
    setup_s = statistics.median(imports) + build_s
    in_digest = input_digest(w, args.seed, built)

    problems = []
    recorded = recorded_digests(w.name)
    ref_digest = reference_digest(w)
    if ref_digest != recorded.get("reference"):
        problems.append(f"reference input digest {ref_digest} differs from the recorded "
                        f"{recorded.get('reference')}")
    record = recorded.get(str(args.seed))
    if record and record["inputs"] != in_digest:
        problems.append(f"input digest {in_digest} differs from the recorded {record['inputs']}")

    results, loop_s = run_loop(w, built, args.seconds)
    out_digest, marks = output_digest(results, DIGEST_N)
    covered = len(marks) // 8 - marks.count(MISSED)
    report = {
        "provenance": provenance(w, args.seed, args.seconds),
        "setup": {"import_s": imports, "build_s": build_s, "build_parts_s": parts},
        "input_digest": in_digest,
        "output_digest": out_digest,
        "output_marks": marks,
        "failures": failures(results),
    }
    prov = report["provenance"]
    print(f"workload {w.name}, seed {args.seed}: closed loop, 1 client, "
          f"{len(results)} instances in {loop_s:.2f} s, deadline {w.deadline_s} s per instance")
    print(f"  python {prov['python']}, nproc {prov['nproc']}, git {prov['git_sha']}"
          f"{' (dirty)' if prov['git_dirty'] else ''}, input size {prov['input_size']}")

    if args.trace:
        tracer, traced, emitted, overhead, pairs = traced_run(w, args.seed, w.trace_n)
        metrics, detail = per_layer(tracer, emitted, overhead)
        units = {m: PER_LAYER_UNITS.get(m.rsplit(".", 1)[-1], "count")
                 for m in (*metrics, *detail)}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{w.name}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        report.update(per_layer=metrics, per_layer_detail=detail, traced_instances=w.trace_n,
                      overhead_pairs=pairs,
                      spans=str(spans_path.relative_to(ROOT)), traced_failures=failures(traced))
        print(f"traced run over the first {w.trace_n} instances, spans in {report['spans']}; "
              f"overhead is the median over {pairs} instances run both ways:")
        for name, value in (*metrics.items(), *detail.items()):
            print(f"  {name:42s} {value:14.6f} {units[name]}")
        attempted, failed = len(traced), sum(r[1] != "ok" for r in traced)
        checked = report["failures"] + report["traced_failures"]
    else:
        metrics, notes = end_to_end(w, results, loop_s, setup_s)
        units = dict(END_TO_END)
        report.update(end_to_end=metrics, notes=notes)
        for name, value in metrics.items():
            print(f"  {name:42s} {value:14.6f} {units[name]}")
        print(f"  {'peak_rss_mb (not in the JSON line)':42s} {notes['peak_rss_mb']:14.6f} MB")
        attempted, failed = len(results), sum(r[1] != "ok" for r in results)
        print(f"  failed_share {failed / attempted:.4f} ({failed}/{attempted}); "
              f"latency_tail_ms is p{w.tail_pct:g} with {notes['samples_beyond']} "
              f"of {attempted} samples beyond")
        print(f"  instances_per_s is the median over {notes['windows']} windows of {WINDOW} "
              f"instances; attempted over loop time is {notes['mean_rate']:.3f} 1/s")
        checked = report["failures"]

    wrong = [f for f in checked if f["outcome"] not in LIMITS]
    if wrong:
        problems.append(f"{len(wrong)} wrong outputs: " + ", ".join(
            f"{f['id']} ({f['outcome']})" for f in wrong[:10]))
    print(f"  input digest  {in_digest}")
    if record is None:
        verdict = "not compared"
        print(f"  WARNING: no digests recorded for seed {args.seed} (see bench/record_digests.py); "
              f"inputs were checked through the reference draw only")
    else:
        verdict = compare_outputs(record, out_digest, marks)
    print(f"  output digest {out_digest} over {covered} of the first {DIGEST_N} "
          f"instances ({verdict})")
    for f in report["failures"][:10]:
        print(f"  failed: {f['id']} ({f['outcome']})")
    if len(report["failures"]) > 10:
        print(f"  ... {len(report['failures']) - 10} more failed instances in the results file")
    for p in problems:
        print(f"  PROBLEM: {p}")

    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"{w.name}-seed{args.seed}{suffix}.json").write_text(
        json.dumps({**report, "problems": problems}, indent=1) + "\n"
    )
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
