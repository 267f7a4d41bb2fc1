"""Benchmark for oockit: design ladders and a verify corpus.

Run from the repository root:

    python3 perfbench/run.py --workload w3-family --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in its own process, one after
another.  The library is imported from ``src/`` of the checkout and is
driven only through its public functions; ``--trace 1`` times its layers
from outside (see tracing.py).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

# Ladder entries: (parameter tuples, max_sets).  One tuple calls
# design_fixed, several call design_multi.
LADDERS = {
    "w3-family": (
        (((31, 3, 1, 1),), None),
        (((37, 3, 1, 1),), None),
        (((25, 3, 1, 1), (31, 3, 1, 1)), None),
    ),
    "w45-graph": (
        (((25, 4, 1, 1),), None),
        (((37, 4, 1, 1),), None),
        (((49, 4, 1, 1),), None),
        (((61, 4, 1, 1),), None),
        (((61, 5, 1, 1),), 2),
    ),
    "lambda2": (
        (((25, 4, 2, 2),), None),
        (((25, 5, 2, 2),), None),
        (((25, 4, 1, 2),), None),
    ),
    "verify-corpus": (
        (((25, 3, 1, 1),), None),
        (((31, 3, 1, 1),), None),
        (((13, 4, 1, 1),), None),
        (((19, 4, 2, 2),), None),
        (((13, 4, 1, 1), (25, 3, 1, 1)), None),
    ),
    # Not in BENCHMARK.json: the self-test's tiny ladder.
    "selftest": (
        (((7, 3, 1, 1),), None),
        (((13, 4, 1, 1),), None),
    ),
}
WORKLOADS = ("w3-family", "w45-graph", "lambda2", "verify-corpus")
CORPUS_WORKLOADS = {"verify-corpus"}

# Set-up is repeated and its median reported.  The corpus set-up designs
# its ladder each time, so fewer repetitions fit.
SETUP_REPS = 31
CORPUS_SETUP_REPS = 5
# Share of the measured time that design workloads spend verifying their
# designed documents.  At least MIN_PASSES design passes run, so design_s
# is a median of three or more.
VERIFY_SHARE = 0.2
MIN_PASSES = 3
# The p95 of verify latency needs at least ten samples above it.
MIN_VERIFY_SAMPLES = 200
# A traced run traces this many units per phase, alternating with
# untraced ones; later units run untraced.  Verify rounds make a span per
# correlation call, so tracing every round would write a very large file.
TRACED_UNITS = 3

# Times are reported in reference seconds.  The host's speed drifts, by up
# to a factor of two over tens of seconds as other tenants load it, and no
# in-run averaging removes that.  So a fixed pure-Python loop (no oockit
# code) runs after timed calls, at most every SAMPLE_GAP_S, and each
# call's wall time is multiplied by REF_S over the median loop time within
# WINDOW_S of the call, widened by NEIGHBOURS samples on each side.  A
# design call runs for seconds, so DESIGN_SAMPLES loops follow each one,
# to gauge its speed from more than one short sample.  Raw wall times are
# kept in the result file.
REF_S = 0.01
WINDOW_S = 0.5
NEIGHBOURS = 3
DESIGN_SAMPLES = 3
SAMPLE_GAP_S = 0.05
_REF_MEMBERS = frozenset(range(0, 5003, 7))


def reference_seconds() -> float:
    """Wall time of the fixed reference loop.  It allocates no container,
    so garbage collection of the library's objects cannot slow it."""
    members = _REF_MEMBERS
    hits = 0
    t0 = perf_counter()
    for m in range(15000):
        for p in (1, 5, 9, 14, 20):
            if (p + m) % 5003 in members:
                hits += 1
    return perf_counter() - t0


class Gauge:
    """Machine speed over the run, from the reference loop."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []
        self.spent = 0.0
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        ref = reference_seconds()
        self.times.append(start + ref / 2)
        self.refs.append(ref)
        self.spent += perf_counter() - start

    def sample_if_due(self) -> None:
        """Sample unless the last sample is less than SAMPLE_GAP_S old."""
        if perf_counter() - self.times[-1] >= SAMPLE_GAP_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median loop time within WINDOW_S of [start, end],
        widened by NEIGHBOURS samples on each side."""
        lo = max(bisect.bisect_left(self.times, start - WINDOW_S) - NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.times, end + WINDOW_S) + NEIGHBOURS
        return REF_S / statistics.median(self.refs[lo:hi])

    def reference_seconds(self, calls) -> float:
        """Summed time of (start, end, wall seconds) calls, in reference seconds."""
        return sum(wall * self.factor(start, end) for start, end, wall in calls)


END_TO_END = {
    # name: (unit, better)
    "design_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "verify_p50_ms": ("ms", "lower"),
    "verify_p95_ms": ("ms", "lower"),
    "largest_set_codes": ("codes", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and stored, but not in the JSON line: a metric gated as a share
# of its median must never be 0, and both of these reach 0 (error_rate
# whenever every check passes).  The JSON line carries error_rate as
# attempted/failed, and largest_set_codes holds codes_short_of_bound's
# information.
REPORTED_ONLY = {
    "codes_short_of_bound": ("codes", "lower"),
    "error_rate": ("ratio", "lower"),
}

PER_LAYER = (
    "cliques.clique_set_matrix.busy_s",
    "cliques.select_family.busy_s",
    "cliques.select_family.sets_in",
    "cliques.select_family.sets_out",
    "correlation.interset_crosscorr.calls",
    "correlation.interset_crosscorr.code_pairs",
    "cliques.build_graph.busy_s",
    "cliques.build_graph.calls",
    "cliques.build_graph.nodes",
    "cliques.build_graph.pairs",
    "cliques.build_graph.edges",
    "cliques.build_graph.edge_ratio",
    "cliques.enumerate_cliques.busy_s",
    "cliques.enumerate_cliques.cliques",
    "cliques.greedy_clique.calls",
    "edop.tables_built",
    "design.enumerate_first_pairs.busy_s",
    "design.enumerate_first_pairs.out",
    "design.extend_clique_codes.busy_s",
    "design.extend_clique_codes.out",
    "design.design_fixed.busy_s",
    "design.design_multi.busy_s",
    "codes.standardize.calls",
    "cliques.make_clique_set.busy_s",
    "correlation.autocorr_bruteforce.busy_s",
    "correlation.autocorr_bruteforce.shifts",
    "correlation.crosscorr_bruteforce.busy_s",
    "correlation.crosscorr_bruteforce.shifts",
    "correlation.autocorr_edop.busy_s",
    "correlation.crosscorr_edop.busy_s",
    "document.from_json.busy_s",
    "document.verify_document.busy_s",
    "document.verify_document.calls",
    "document.verify_document.failed_checks",
    "document.to_canonical_json.busy_s",
    "cli.main.busy_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(".busy_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def entry_key(entry) -> str:
    tuples, max_sets = entry
    key = "+".join(",".join(map(str, t)) for t in tuples)
    return key if max_sets is None else f"{key}/max_sets={max_sets}"


@dataclass
class Run:
    """Operations attempted and failed, and the tracer if one is active."""

    tracer: tracing.Tracer | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def start_op(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted

    def fail(self, message: str) -> None:
        self.failures.append(message)


def import_library():
    """Import oockit afresh from the checkout's src/, as a namespace of modules."""
    for name in [m for m in sys.modules if m == "oockit" or m.startswith("oockit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("oockit")
    importlib.import_module("oockit.cli")
    lib = SimpleNamespace(
        **{m: sys.modules[f"oockit.{m}"]
           for m in ("codes", "edop", "correlation", "cliques", "design",
                     "document", "cli")}
    )
    origin = Path(lib.design.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"oockit was imported from {origin}, not this checkout")
    return lib


def design_call(lib, entry):
    tuples, max_sets = entry
    params = [lib.codes.CodeParams(*t) for t in tuples]
    if len(params) == 1:
        return lib.design.design_fixed(params[0], max_sets)
    return lib.design.design_multi(lib.design.DesignConfig(tuple(params), max_sets=max_sets))


def document_of(lib, entry, family):
    """The document `oockit design` writes for this entry."""
    tuples, max_sets = entry
    config = {
        "n": [t[0] for t in tuples],
        "w": [t[1] for t in tuples],
        "lambda_a": [t[2] for t in tuples],
        "lambda_c": [t[3] for t in tuples],
        "max_sets": max_sets,
    }
    return lib.document.document_from_family(family, config)


def shortfall(lib, entry, family) -> tuple[int, int]:
    """(codes in the largest set, Johnson bound minus that), summed over tuples."""
    largest = short = 0
    for t in entry[0]:
        n, w, la, lc = t
        sizes = [len(s.codes) for s in family.sets
                 if (s.params.n, s.params.w, s.params.lambda_a, s.params.lambda_c) == t]
        best = max(sizes, default=0)
        largest += best
        short += lib.correlation.johnson_bound(n, w, max(la, lc)) - best
    return largest, short


def design_pass(lib, ladder, pins, run: Run, gauge: Gauge):
    """Design every ladder entry once and check each document.

    Returns (start, end, wall seconds) of each design call, the documents
    by key, and (largest_set_codes, codes_short_of_bound).
    """
    calls = []
    docs = {}
    largest = short = 0
    for entry in ladder:
        key = entry_key(entry)
        run.start_op()
        try:
            t0 = perf_counter()
            family = design_call(lib, entry)
            t1 = perf_counter()
            calls.append((t0, t1, t1 - t0))
            for _ in range(DESIGN_SAMPLES):
                gauge.sample()
            doc = document_of(lib, entry, family)
            text = lib.document.to_canonical_json(doc)
        except Exception:
            run.fail(f"design {key}: {traceback.format_exc(limit=3)}")
            continue
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != pins.get(key):
            run.fail(f"design {key}: document sha256 {digest} != pinned {pins.get(key)}")
        docs[key] = doc
        a, b = shortfall(lib, entry, family)
        largest += a
        short += b
    return calls, docs, (largest, short)


def verify_round(lib, entries, run: Run, gauge: Gauge):
    """`oockit verify` once per (label, path, expected rule); returns
    (start, end, wall seconds) of each call."""
    calls = []
    for label, path, expect in entries:
        run.start_op()
        out = io.StringIO()
        try:
            t0 = perf_counter()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(["verify", str(path)])
            t1 = perf_counter()
            calls.append((t0, t1, t1 - t0))
        except Exception:
            run.fail(f"verify {label}: {traceback.format_exc(limit=3)}")
            continue
        gauge.sample_if_due()
        failed = {line[5:].split(":")[0] for line in out.getvalue().splitlines()
                  if line.startswith("FAIL ")}
        if expect is None and (code != 0 or failed):
            run.fail(f"verify {label}: expected a pass, got exit {code}, failed {sorted(failed)}")
        elif expect is not None and (code != 3 or failed != {expect}):
            run.fail(f"verify {label}: expected only {expect} to fail, "
                     f"got exit {code}, failed {sorted(failed)}")
    return calls


def write_entries(workdir: Path, entries):
    paths = []
    for idx, (label, text, expect) in enumerate(entries):
        path = workdir / f"{idx:02d}-{label.replace('/', '_')}.json"
        path.write_text(text, encoding="utf-8")
        paths.append((label, path, expect))
    return paths


@dataclass
class Unit:
    """One timed unit: (start, end, wall seconds) of each call it timed."""

    calls: list[tuple[float, float, float]]
    layers: dict | None = None

    def seconds(self) -> float:
        return sum(c[2] for c in self.calls)


class Phase:
    """Repeated units of one kind of work (design passes or verify rounds).

    In a traced run, units alternate untraced and traced, up to
    TRACED_UNITS traced ones, so the traced and untraced medians give the
    tracing overhead.
    """

    def __init__(self, run: Run, gauge: Gauge, trace: bool):
        self.run = run
        self.gauge = gauge
        self.trace = trace
        self.plain: list[Unit] = []
        self.traced: list[Unit] = []

    def unit(self, work):
        """Run ``work() -> (call intervals, result)``; returns result."""
        tracer = self.run.tracer
        traced = (self.trace and len(self.traced) < TRACED_UNITS
                  and len(self.plain) > len(self.traced))
        if traced:
            tracer.install()
            mark = tracer.mark()
        try:
            calls, result = work()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            self.traced.append(Unit(calls, tracer.since(mark)))
        else:
            self.plain.append(Unit(calls))
        return result

    def enough(self) -> bool:
        return not self.trace or (self.plain and self.traced)

    def calls(self) -> int:
        return sum(len(u.calls) for u in self.plain)

    def seconds(self, traced: bool = False) -> list[float]:
        """Unit times in reference seconds."""
        return [self.gauge.reference_seconds(u.calls)
                for u in (self.traced if traced else self.plain)]

    def call_seconds(self) -> list[float]:
        """Per-call times of the untraced units, in reference seconds."""
        return [self.gauge.reference_seconds([c]) for u in self.plain for c in u.calls]

    def layer_values(self) -> dict[str, float]:
        """Per-unit layer values: medians for times; counts must repeat exactly."""
        units = []
        for u in self.traced:
            wall = u.seconds()
            factor = self.gauge.reference_seconds(u.calls) / wall if wall else 1.0
            units.append({k: v * factor if k.endswith(".busy_s") else v
                          for k, v in u.layers.items()})
        out = {}
        for key in set().union(*units) if units else ():
            values = [unit.get(key, 0) for unit in units]
            if key.endswith(".busy_s"):
                out[key] = statistics.median(values)
            else:
                if len(set(values)) > 1:
                    self.run.fail(f"count {key} differs between units: {values}")
                out[key] = values[0]
        return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    ladder = LADDERS[name]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    run = Run(tracing.Tracer() if trace else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        return _measure(name, ladder, pins, run, seed, seconds, trace,
                        out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name, ladder, pins, run, seed, seconds, trace, out_dir, workdir):
    is_corpus = name in CORPUS_WORKLOADS
    gauge = Gauge()
    setup: list[Unit] = []
    corpus_design: list[Unit] = []
    quality = (0, 0)

    # Set-up: import, plus the corpus where the workload has one.  The
    # corpus ladder's design time is the design_s of that workload.
    for _ in range(CORPUS_SETUP_REPS if is_corpus else SETUP_REPS):
        t0, spent = perf_counter(), gauge.spent
        lib = import_library()
        if is_corpus:
            calls, docs, quality = design_pass(lib, ladder, pins, run, gauge)
            corpus_design.append(Unit(calls))
            paths = write_entries(
                workdir, corpus.build(lib, random.Random(seed), seed, docs))
        end = perf_counter()
        setup.append(Unit([(t0, end, end - t0 - (gauge.spent - spent))]))
        gauge.sample()

    # Design passes and verify rounds interleave, so both sample the whole
    # measured window; verify rounds take VERIFY_SHARE of it.
    start = perf_counter()
    design = Phase(run, gauge, trace)
    verify = Phase(run, gauge, trace)
    docs = {}
    design_spent = verify_spent = 0.0

    def one_pass():
        calls, found, q = design_pass(lib, ladder, pins, run, gauge)
        return calls, (found, q)

    def one_round():
        return verify_round(lib, paths, run, gauge), None

    while True:
        if not is_corpus:
            t0 = perf_counter()
            found, quality = design.unit(one_pass)
            design_spent += perf_counter() - t0
            if not docs:
                docs = found
                paths = write_entries(workdir, [
                    (key, lib.document.to_canonical_json(doc), None)
                    for key, doc in docs.items()])
        while True:
            t0 = perf_counter()
            verify.unit(one_round)
            verify_spent += perf_counter() - t0
            if verify_spent >= VERIFY_SHARE / (1 - VERIFY_SHARE) * design_spent:
                break
        passes = len(design.plain) + len(design.traced)
        if perf_counter() - start >= seconds and (
                is_corpus or (passes >= MIN_PASSES and design.enough())):
            break
    while verify.calls() < MIN_VERIFY_SAMPLES or not verify.enough():
        verify.unit(one_round)
    measured_s = perf_counter() - start

    design_units = corpus_design if is_corpus else design.plain
    design_times = [gauge.reference_seconds(u.calls) for u in design_units]
    setup_times = [gauge.reference_seconds(u.calls) for u in setup]
    samples = verify.call_seconds()

    largest, short = quality
    attempted, failed = run.attempted, len(run.failures)
    metrics = {
        "design_s": median_or_zero(design_times),
        "verify_s": median_or_zero(verify.seconds()),
        "verify_p50_ms": 1e3 * statistics.median(samples) if samples else 0.0,
        "verify_p95_ms": (1e3 * statistics.quantiles(samples, n=20)[18]
                          if len(samples) >= 2 else 0.0),
        "largest_set_codes": largest,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes_short_of_bound": short,
        "error_rate": failed / attempted,
    }
    counts = {
        "design_passes": len(design_times),
        "verify_rounds": len(verify.plain),
        "reference_samples": len(gauge.refs),
        "verify_samples": len(samples),
        "setup_reps": len(setup_times),
        "documents_per_round": len(paths),
        "measured_s": measured_s,
    }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "counts": counts,
        "metrics": {k: {"value": v, "unit": (END_TO_END | REPORTED_ONLY)[k][0]}
                    for k, v in metrics.items()},
        "design_pass_s": design_times,
        "setup_s_all": setup_times,
        "wall_s": {
            "design_pass": [u.seconds() for u in design_units],
            "setup": [u.seconds() for u in setup],
            "design_s": median_or_zero([u.seconds() for u in design_units]),
            "verify_s": median_or_zero([u.seconds() for u in verify.plain]),
            "setup_s": statistics.median(u.seconds() for u in setup),
        },
        "reference_s": {"median": statistics.median(gauge.refs),
                        "min": min(gauge.refs), "max": max(gauge.refs)},
        "timeline": {
            "reference": [[t - start, r] for t, r in zip(gauge.times, gauge.refs)],
            "design": [[[c[0] - start, c[1] - start, c[2]] for c in u.calls]
                       for u in design_units],
            "verify": [[[c[0] - start, c[1] - start, c[2]] for c in u.calls]
                       for u in verify.plain],
        },
        "attempted": attempted,
        "failed": failed,
        "failures": run.failures,
    }
    if trace:
        layers = {}
        for phase in (design, verify):
            for key, value in phase.layer_values().items():
                layers[key] = layers.get(key, 0) + value
        pairs = layers.get("cliques.build_graph.pairs", 0)
        layers["cliques.build_graph.edge_ratio"] = (
            layers.get("cliques.build_graph.edges", 0) / pairs if pairs else 0.0)
        result["layers"] = {k: {"value": layers.get(k, 0), "unit": layer_unit(k)}
                            for k in PER_LAYER}
        result["layers_all"] = layers
        result["overhead_s"] = {
            "design_s": (median_or_zero(design.seconds(traced=True))
                         - median_or_zero(design.seconds())
                         if design.traced else None),
            "verify_s": (median_or_zero(verify.seconds(traced=True))
                         - median_or_zero(verify.seconds())),
        }
        spans_path = out_dir / f"{name}.seed{seed}.spans.jsonl"
        run.tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    result_path = out_dir / f"{name}.seed{seed}.trace{int(trace)}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    result["result_file"] = str(result_path)
    return result


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(result) -> None:
    env, counts = result["env"], result["counts"]
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"  python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit']}")
    print(f"  design passes {counts['design_passes']}, verify rounds "
          f"{counts['verify_rounds']} x {counts['documents_per_round']} documents, "
          f"verify samples {counts['verify_samples']}, set-up reps {counts['setup_reps']}")
    ref = result["reference_s"]
    print(f"  times in reference seconds (REF_S {REF_S} s); reference loop took "
          f"{ref['median']:.4f} s median, {ref['min']:.4f}-{ref['max']:.4f} s")
    if not result["trace"]:
        units = END_TO_END | REPORTED_ONLY
        for key, metric in result["metrics"].items():
            print(f"  {key:<22} {metric['value']:>14.6g} {metric['unit']:<6} "
                  f"{units[key][1]} is better")
    else:
        for key, metric in result["layers"].items():
            print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
        for key, value in result["overhead_s"].items():
            if value is not None:
                print(f"  tracing overhead on {key}: {value:+.4f} s")
        print(f"  spans: {result['spans_file']}")
    print(f"  operations {result['attempted']}, failed {result['failed']}")
    for message in result["failures"][:20]:
        print(f"  FAILED {message}")
    print(f"  result file: {result['result_file']}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS + ("selftest",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result and span files")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oockit" / "__init__.py").is_file():
        print(f"no oockit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.out)
    report(result)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {k: result["metrics"][k] for k in END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
