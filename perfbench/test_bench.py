"""Tests of the benchmark itself (not of ramseyforge).

    python -m pytest perfbench

They check that every trace site resolves, that spans nest and their self
times add up to the traced wall time, that inputs and reports are
deterministic per seed, that failing queries are counted rather than
fatal, and that the answer checks reject wrong answers.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cli():
    # run.import_program re-imports ramseyforge, so look it up at call time
    return importlib.import_module("ramseyforge.cli")


def _subset(workload: str, seed: int, names: tuple[str, ...], workdir: Path):
    queries, files = workloads.build(workload, seed)
    workloads.write_inputs(workdir, files)
    return [q for q in queries if q.name in names]


def _traced_batch(queries, workdir: Path):
    tracer, (outcomes, reports) = run.traced_batch(_cli().main, queries, workdir)
    return tracer, outcomes, reports


def test_every_trace_site_resolves():
    for site in tracing.SITES:
        tracing.resolve(site)
    layers = {layer for _, _, layer in tracing.SITES}
    assert set(run.TIMED_LAYERS) - {tracing.MAIN} <= layers


def test_install_rebinds_sites_and_uninstall_restores():
    arrow = importlib.import_module("ramseyforge.arrow")
    embedding = importlib.import_module("ramseyforge.embedding")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arrow.copy_edge_masks is not embedding.copy_edge_masks
    finally:
        tracer.uninstall()
    assert arrow.copy_edge_masks is embedding.copy_edge_masks


def test_a_moved_function_fails_loudly(monkeypatch):
    arrow = importlib.import_module("ramseyforge.arrow")
    monkeypatch.setattr(arrow, "copy_edge_masks", lambda *a, **k: [])
    search = importlib.import_module("ramseyforge.search")
    before = search.arrows
    with pytest.raises(tracing.SiteError, match="ramseyforge.arrow.copy_edge_masks"):
        tracing.Tracer().install()
    assert search.arrows is before  # nothing was rebound


def test_spans_nest_and_self_times_sum_to_traced_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    queries = _subset("ramsey-search", 0, ("R-C4", "K7-C6"), tmp_path)
    queries += _subset("size-ramsey-scan", 0, ("exact-K1_3-v9", "upper-P4"), tmp_path)
    tracer, outcomes, reports = _traced_batch(queries, tmp_path)
    assert [o.code for o in outcomes] == [0, 0, 0, 0]
    assert run.check_answers(queries, outcomes, reports) == []

    names, parents = tracer.names, tracer.parents
    roots = [i for i, p in enumerate(parents) if p < 0]
    assert [names[i] for i in roots] == [tracing.ROOT]
    assert [names[i] for i, p in enumerate(parents) if p == 0] == [tracing.MAIN] * len(queries)
    masks = [i for i, n in enumerate(names) if n == "embedding.copy_edge_masks"]
    assert masks and all(names[parents[i]] == "arrow.arrows" for i in masks)
    hosts = [i for i, n in enumerate(names) if n == "search.enumerate_hosts"]
    assert hosts and all(names[parents[i]] == "search.size_ramsey_exact_tiny" for i in hosts)
    for i, p in enumerate(parents):
        if p >= 0:
            assert tracer.starts[p] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[p]

    wall = tracer.ends[0] - tracer.starts[0]
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=1e-9)
    assert min(tracer.self_times()) >= 0.0

    metrics = run.layer_metrics(tracer, outcomes, reports)
    assert metrics["arrow.arrows.calls"][0] > 0
    assert metrics["hypergraph.are_isomorphic.calls"][0] > 0
    assert 0 < metrics["search.enumerate_hosts.kept_frac"][0] <= 1
    assert metrics["randomlab.gnp.self_s"][0] == 0.0  # layer not reached


def test_same_seed_same_digests_other_seed_other_inputs(tmp_path, monkeypatch):
    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.build(workload, s) for s in (5, 5, 6))
        assert run.input_digest(*a) == run.input_digest(*b)
        assert run.input_digest(*a) != run.input_digest(*c)

    monkeypatch.chdir(tmp_path)
    queries = _subset("ramsey-search", 5, ("R-K3", "K7-C6", "K8minus5-C5"), tmp_path)
    queries += _subset("random-hosts", 5, ("randomlab-0-n120-p0.144-random",), tmp_path)
    assert len(queries) == 4
    digests = []
    for _ in range(2):
        tracer, outcomes, reports = _traced_batch(queries, tmp_path)
        counters = {k: v for k, (v, unit) in run.layer_metrics(tracer, outcomes, reports).items() if unit not in run.TIME_UNITS}
        digests.append(run.report_digest(queries, outcomes, reports, counters))
    assert digests[0] == digests[1]


def test_failures_are_counted_not_fatal(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k9.json").write_text(json.dumps(workloads.complete(2, 9)))
    (tmp_path / "c5.json").write_text(json.dumps(workloads.cycle(5)))
    Q = workloads.Query
    queries = [
        Q("raises", "gadget", ["gadget-audit", "--t", "2", "--q", "4", "--out", "a.json"], "a.json"),
        Q("bad-input", "arrows", ["arrows", "--host", "nope.json", "--pattern", "c5.json", "--out", "b.json"], "b.json"),
        Q("budgeted", "arrows", ["arrows", "--host", "k9.json", "--pattern", "c5.json", "--budget", "50", "--out", "c.json"], "c.json", budgeted=True),
        Q("unbudgeted", "ramsey", ["ramsey", "--pattern", "c5.json", "--cap", "7", "--out", "d.json"], "d.json"),
    ]
    outcomes, reports = run.run_batch(_cli().main, queries, tmp_path)
    assert outcomes[0].error == "ExhaustedPermutationsError"
    assert [o.code for o in outcomes[1:]] == [1, 2, 2]
    kinds = [run.classify(q, o) for q, o in zip(queries, outcomes)]
    assert kinds == ["failed", "failed", "unknown", "failed"]
    assert run.check_answers(queries, outcomes, reports) == []


def test_checks_reject_wrong_answers():
    k5, k3 = workloads.complete(2, 5), workloads.complete(2, 3)
    # red 5-cycle, blue complementary 5-cycle: no monochromatic triangle
    good = ["R" if (j - i) in (1, 4) else "B" for i, j in k5["edges"]]
    checks.check_certificate(k5, k3, good)
    with pytest.raises(checks.CheckError):
        checks.check_certificate(k5, k3, ["R"] * 10)
    checks.check_arrows_bruteforce(workloads.complete(2, 6), k3)
    with pytest.raises(checks.CheckError):
        checks.check_arrows_bruteforce(k5, k3)

    query = workloads.Query("q", "arrows", [], "", ref={"verdict": "NotArrows", "host": k5, "pattern": k3})
    checks.check(query, {"result": "NotArrows", "certificate": good})
    for wrong in ({"result": "Arrows"}, {"result": "Unknown"}, {"result": "NotArrows", "certificate": ["B"] * 10}):
        with pytest.raises(checks.CheckError):
            checks.check(query, wrong)


def test_end_to_end_run_prints_the_declared_metrics(capsys):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "random-hosts", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 12
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_declared_per_layer_metrics_match_the_traced_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    queries = _subset("ramsey-search", 0, ("R-K3",), tmp_path)
    tracer, outcomes, reports = _traced_batch(queries, tmp_path)
    emitted = {k: unit for k, (_, unit) in run.layer_metrics(tracer, outcomes, reports).items()}
    emitted["trace_overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == emitted


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ramsey-search", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
