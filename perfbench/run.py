"""Benchmark of the ramseyforge CLI: one closed-loop client, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's queries (workloads.py)
are built from the seed and written as JSON input files; then the whole
batch of queries is sent to ``ramseyforge.cli.main``, one after the other,
again and again until the next batch would end more than half a batch
after S seconds (at least one batch).  Every answer is checked outside the timed region
(checks.py), and the last line of standard output is one JSON object.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced batches and reports per-layer self times and exact counters
from spans recorded at the call sites (tracing.py), plus the tracing
overhead.  A wrong answer makes the exit code 1; a checkout without
src/ramseyforge makes it 2, without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 7
TIME_UNITS = ("s", "us")

# Per-core speed of a shared VM can drift by a third over tens of seconds,
# which swamps a 34 s run.  A fixed pure-Python loop is timed between
# queries, and each query's time is reported at the speed at which the loop
# takes CALIBRATION_REF_S, judged from the two loop timings before the query
# and the two after it (see README.md).
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.0100


def calibrate() -> float:
    t = perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return perf_counter() - t


def speed_scale(calibrations: list[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


# layers whose self time is reported as <layer>.self_s
TIMED_LAYERS = (
    "arrow.arrows",
    "embedding.copy_edge_masks",
    "embedding.find_copy",
    "hypergraph.are_isomorphic",
    "search.enumerate_hosts",
    "search.ramsey_number_small",
    "search.size_ramsey_upper",
    "search.size_ramsey_exact_tiny",
    "hypergraph.automorphism_count",
    "hypergraph.independence_number",
    "constructions.gadget_family",
    "constructions.enumerate_cliques",
    "constructions.clique_hypergraph",
    "randomlab.gnp",
    "randomlab.clique_stats",
    "randomlab.iterated_procedure",
    tracing.MAIN,
)


@dataclass
class Outcome:
    code: int | None  # exit code of cli.main, None when it raised
    error: str | None  # type of the exception raised out of cli.main
    seconds: float  # as measured
    scale: float  # speed_scale of the four calibrations nearest the query

    @property
    def ref_seconds(self) -> float:
        """The query's time at the reference speed."""
        return self.seconds * self.scale


def classify(query: workloads.Query, outcome: Outcome) -> str:
    """decided, unknown (exit 2 of a query with a node budget) or failed."""
    if outcome.error is None and outcome.code == 0:
        return "decided"
    if outcome.error is None and outcome.code == 2 and query.budgeted:
        return "unknown"
    return "failed"


def import_program():
    """Import ramseyforge afresh from the checkout's src; returns ramseyforge.cli."""
    for name in [m for m in sys.modules if m.split(".")[0] == "ramseyforge"]:
        del sys.modules[name]
    cli = importlib.import_module("ramseyforge.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"ramseyforge imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import plus building and writing the inputs, repeated; the median
    time at the reference speed."""
    times, calibrations = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        cli = import_program()
        queries, files = workloads.build(workload, seed)
        workloads.write_inputs(workdir, files)
        times.append(perf_counter() - t0)
        calibrations.append(calibrate())
    return cli, queries, files, statistics.median(times) * speed_scale(calibrations)


def run_batch(main, queries, workdir: Path, tracer: tracing.Tracer | None = None):
    """Send every query once, each after the previous one returned."""
    for q in queries:
        (workdir / q.out).unlink(missing_ok=True)
    results, calibrations = [], [calibrate()]
    root = tracer.open(tracing.ROOT) if tracer else -1
    for i, q in enumerate(queries):
        if tracer:
            tracer.query = i
        t = perf_counter()
        try:
            code, error = main(q.argv), None
        except SystemExit as exc:
            code, error = exc.code, "SystemExit"
        except Exception as exc:  # counted as a failed query, never fatal
            code, error = None, type(exc).__name__
            print(f"{q.name}: {error}: {exc}", file=sys.stderr)
        results.append((code, error, perf_counter() - t))
        calibrations.append(calibrate())
    if tracer:
        tracer.close(root)
    # calibrations[i] ran just before query i and calibrations[i + 1] just after
    outcomes = [
        Outcome(*r, speed_scale(calibrations[max(i - 1, 0) : i + 3]))
        for i, r in enumerate(results)
    ]
    reports = []
    for q in queries:
        path = workdir / q.out
        reports.append(path.read_text() if path.exists() else None)
    return outcomes, reports


def traced_batch(main, queries, workdir: Path):
    """One batch with every trace site rebound; returns the tracer too."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        batch = run_batch(tracer.wrap(main, tracing.MAIN), queries, workdir, tracer)
    finally:
        tracer.uninstall()
    return tracer, batch


def strip_timestamp(text: str | None):
    if text is None:
        return None
    report = json.loads(text)
    report.pop("timestamp", None)
    return report


def check_answers(queries, outcomes, reports) -> list[str]:
    """Wrong answers of one batch; failed queries are counted, not checked."""
    wrong = []
    for q, o, text in zip(queries, outcomes, reports):
        if classify(q, o) == "failed":
            continue
        if text is None:
            wrong.append(f"{q.name}: no report")
            continue
        try:
            checks.check(q, json.loads(text))
        except (checks.CheckError, KeyError, TypeError) as exc:
            wrong.append(f"{q.name}: {type(exc).__name__}: {exc}")
    return wrong


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def report_digest(queries, outcomes, reports, counters=None) -> str:
    rows = [
        [q.name, o.code, o.error, strip_timestamp(text)]
        for q, o, text in zip(queries, outcomes, reports)
    ]
    return digest([rows, sorted((list(k), v) for k, v in (counters or {}).items())])


def input_digest(queries, files) -> str:
    return digest([[q.argv for q in queries], sorted(files.items())])


def layer_metrics(tracer: tracing.Tracer, outcomes, reports) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch: name -> (value, unit).

    Self times are taken at the reference speed, like the query times.
    """
    self_s, calls = tracer.layer_totals([o.scale for o in outcomes])
    n = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in TIMED_LAYERS}
    kept = tracer.child_count("arrow.arrows", "search.size_ramsey_exact_tiny")
    hosts = n["search.enumerate_hosts", "hosts"]
    nodes = n["arrow.arrows", "nodes"]
    out.update(
        {
            "arrow.arrows.calls": (calls["arrow.arrows"], "count"),
            "arrow.arrows.nodes": (nodes, "count"),
            "arrow.arrows.unknown": (n["arrow.arrows", "unknown"], "count"),
            "arrow.arrows.us_per_node": (ratio(1e6 * self_s.get("arrow.arrows", 0.0), nodes), "us"),
            "embedding.copy_edge_masks.calls": (calls["embedding.copy_edge_masks"], "count"),
            "embedding.copy_edge_masks.masks": (n["embedding.copy_edge_masks", "masks"], "count"),
            "embedding.find_copy.calls": (calls["embedding.find_copy"], "count"),
            "hypergraph.are_isomorphic.calls": (calls["hypergraph.are_isomorphic"], "count"),
            "hypergraph.are_isomorphic.hit_frac": (
                ratio(n["hypergraph.are_isomorphic", "hits"], calls["hypergraph.are_isomorphic"]),
                "ratio",
            ),
            "search.enumerate_hosts.hosts": (hosts, "count"),
            "search.enumerate_hosts.kept_frac": (ratio(kept, hosts), "ratio"),
            "constructions.clique_hypergraph.edges": (n["constructions.clique_hypergraph", "edges"], "count"),
            "randomlab.iterated_procedure.rounds": (n["randomlab.iterated_procedure", "rounds"], "count"),
            "randomlab.iterated_procedure.steps": (n["randomlab.iterated_procedure", "steps"], "count"),
            "cli.report_bytes": (sum(len(t.encode()) for t in reports if t is not None), "bytes"),
        }
    )
    return out


def batch_seconds(runs) -> float:
    """Time to answer the whole batch at the reference speed: each query's
    median over the batches, summed."""
    per_query = zip(*(outcomes for outcomes, _ in runs))
    return sum(statistics.median(o.ref_seconds for o in samples) for samples in per_query)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(main, queries, workdir: Path, seconds: float, trace: bool):
    """Batches until the next one would end more than half a batch after
    the given seconds.

    Returns the untraced batches, the traced ones (one after each untraced
    batch when tracing) with their tracers, and the peak RSS in MB.
    """
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        t_round = perf_counter()
        plain.append(run_batch(main, queries, workdir))
        if trace:
            tracer, batch = traced_batch(main, queries, workdir)
            tracers.append(tracer)
            traced.append(batch)
        now = perf_counter()
        if (now - start) + (now - t_round) / 2 > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return plain, traced, tracers, rss_mb


def check_batches(queries, batches) -> list[str]:
    """Check the first batch's answers; every later batch must repeat them."""
    outcomes, reports = batches[0]
    wrong = check_answers(queries, outcomes, reports)
    first = ([(o.code, o.error) for o in outcomes], [strip_timestamp(t) for t in reports])
    for outcomes, reports in batches[1:]:
        if ([(o.code, o.error) for o in outcomes], [strip_timestamp(t) for t in reports]) != first:
            wrong.append("a repeated batch gave different reports or exit codes")
            break
    return wrong


def per_layer(traced, tracers, plain, wrong: list[str]) -> dict:
    """Per-layer metrics: medians of the times, counters that must repeat."""
    per_batch = [layer_metrics(t, *batch) for t, batch in zip(tracers, traced)]
    metrics = {}
    for name, (value, unit) in per_batch[0].items():
        values = [b[name][0] for b in per_batch]
        if unit in TIME_UNITS:
            value = statistics.median(values)
        elif len(set(values)) != 1:
            wrong.append(f"counter {name} differs between traced batches: {values}")
        metrics[name] = _metric(value, unit)
    metrics["trace_overhead_s"] = _metric(batch_seconds(traced) - batch_seconds(plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ramseyforge" / "__init__.py").is_file():
        print(f"no ramseyforge source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    cli, queries, files, setup_s = setup(args.workload, args.seed, workdir)

    cwd = os.getcwd()
    os.chdir(workdir)  # the program sees bare file names only
    try:
        with contextlib.redirect_stdout(sys.stderr):
            plain, traced, tracers, rss_mb = measure(cli.main, queries, workdir, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)

    # -- outside the timed region ------------------------------------------
    wrong = check_batches(queries, plain + traced)
    kinds = [classify(q, o) for outcomes, _ in plain + traced for q, o in zip(queries, outcomes)]
    counters = None
    if args.trace:
        metrics = per_layer(traced, tracers, plain, wrong)
        counters = {k: v["value"] for k, v in metrics.items() if v["unit"] not in TIME_UNITS}
        tracers[-1].write(workdir / "spans.tsv")
    else:
        times = [o.ref_seconds for outcomes, _ in plain for o in outcomes]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(batch_seconds(plain), "s"),
            "query_p50_s": _metric(statistics.median(times), "s"),
            "decided_frac": _metric(kinds.count("decided") / len(kinds), "ratio"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        scale = statistics.median(o.scale for outcomes, _ in plain for o in outcomes)
        print(f"query_p50_s over {len(times)} queries in {len(plain)} batches; median speed scale {scale:.3f}")

    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    outcomes, reports = plain[0]
    print(
        f"digest {args.workload} seed={args.seed} "
        f"inputs={input_digest(queries, files)[:16]} "
        f"reports={report_digest(queries, outcomes, reports, counters)[:16]}"
    )
    result = {
        "correct": not wrong,
        "attempted": len(kinds),
        "failed": kinds.count("failed"),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
