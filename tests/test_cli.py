import hashlib
import inspect
import itertools
import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ramseyforge.cli import _CONSTRUCTORS, _random_coloring, build_parser, main
from ramseyforge.constructions import clique, ell_path
from ramseyforge.errors import ExhaustedPermutationsError
from ramseyforge.hypergraph import BLUE, RED, KUniformHypergraph
from ramseyforge.search import size_ramsey_exact_tiny, size_ramsey_upper


def write_hg(path, h):
    path.write_text(h.to_json())
    return str(path)


def load(path):
    return json.loads(path.read_text())


def test_construct_ell_path(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["construct", "ell-path", "--k", "3", "--l", "2", "--n", "6",
                 "--out", str(out)]) == 0
    d = load(out)
    assert d == {"k": 3, "n": 6,
                 "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]]}


def test_construct_bad_params_exit_1(capsys):
    assert main(["construct", "ell-path", "--k", "3", "--l", "1", "--n", "6"]) == 1
    assert main(["construct", "blowup", "--k", "4", "--l", "1"]) == 1
    assert capsys.readouterr().err.endswith("error: blowup needs --host (a graph JSON file)\n")


def test_arrows_k6_k3(tmp_path):
    k6 = write_hg(tmp_path / "k6.json", clique(2, 6))
    k3 = write_hg(tmp_path / "k3.json", clique(2, 3))
    rep = tmp_path / "rep.json"
    assert main(["arrows", "--host", k6, "--pattern", k3, "--out", str(rep)]) == 0
    d = load(rep)
    assert d["result"] == "Arrows"
    assert d["version"] and d["config"]["host"] == k6


def test_arrows_certificate_and_budget_exit(tmp_path):
    k5 = write_hg(tmp_path / "k5.json", clique(2, 5))
    k3 = write_hg(tmp_path / "k3.json", clique(2, 3))
    rep = tmp_path / "rep.json"
    assert main(["arrows", "--host", k5, "--pattern", k3, "--out", str(rep)]) == 0
    report = load(rep)
    assert report["result"] == "NotArrows"
    colors = report["certificate"]
    assert len(colors) == 10 and set(colors) <= {"R", "B"}
    # exhausted budget is the distinct exit code 2
    assert main(["arrows", "--host", k5, "--pattern", k3, "--budget", "2"]) == 2


def test_empty_host_not_arrows(tmp_path):
    empty = write_hg(tmp_path / "e.json",
                     KUniformHypergraph.from_edges(3, 4, []))
    pat = write_hg(tmp_path / "p.json",
                   KUniformHypergraph.from_edges(3, 3, [(0, 1, 2)]))
    rep = tmp_path / "rep.json"
    assert main(["arrows", "--host", empty, "--pattern", pat,
                 "--out", str(rep)]) == 0
    d = load(rep)
    assert d["result"] == "NotArrows" and d["certificate"] == []


def test_embed_prints_mapping_or_none(tmp_path, capsys):
    k4 = write_hg(tmp_path / "k4.json", clique(2, 4))
    p3 = write_hg(tmp_path / "p3.json", ell_path(2, 1, 3))
    assert main(["embed", "--pattern", p3, "--host", k4]) == 0
    out = capsys.readouterr().out.strip()
    mapping = json.loads(out)
    assert sorted(mapping) == [0, 1, 2]
    # middle path vertex keeps degree 2 in the image; trivially true in K4,
    # but the mapping must at least be a valid injection
    assert len(set(mapping)) == 3
    k5 = write_hg(tmp_path / "k5.json", clique(2, 5))
    assert main(["embed", "--pattern", k5, "--host", k4]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_embed_coloring_without_color_exit_1(tmp_path, capsys):
    # a coloring with no colour to filter by is refused, not ignored
    k4 = write_hg(tmp_path / "k4.json", clique(2, 4))
    p3 = write_hg(tmp_path / "p3.json", ell_path(2, 1, 3))
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps(["R"] * 6))
    argv = ["embed", "--pattern", p3, "--host", k4, "--coloring", str(coloring)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --coloring requires --color\n"


@pytest.mark.parametrize("argv, message", [
    (["--color", "red"], "error: --color requires --coloring\n"),
    (["--color", "green"], "error: unknown color 'green'; use red or blue\n"),
])
def test_embed_bad_color_exit_1(tmp_path, capsys, argv, message):
    k4 = write_hg(tmp_path / "k4.json", clique(2, 4))
    p3 = write_hg(tmp_path / "p3.json", ell_path(2, 1, 3))
    assert main(["embed", "--pattern", p3, "--host", k4] + argv) == 1
    assert capsys.readouterr().err == message


def test_construct_gadget_family_and_steiner(tmp_path):
    out = tmp_path / "c.json"
    assert main(["construct", "gadget-family", "--t", "2", "--q", "2", "--out", str(out)]) == 0
    family = load(out)
    assert set(family) == {"members", "union"} and len(family["members"]) == 2
    assert family["union"]["n"] == sum(m["n"] for m in family["members"])
    assert main(["construct", "steiner", "--t", "2", "--k", "3", "--n", "7", "--out", str(out)]) == 0
    steiner = KUniformHypergraph.from_json(out.read_text())
    assert (steiner.k, steiner.n) == (3, 7) and steiner.num_edges > 0


def test_color_schemes(tmp_path):
    k6 = write_hg(tmp_path / "k6.json", clique(2, 6))
    out = tmp_path / "c.json"
    for scheme in ("random", "majority"):
        assert main(["color", scheme, "--host", k6, "--seed", "3",
                     "--out", str(out)]) == 0
        colors = load(out)
        assert len(colors) == 15 and set(colors) <= {"R", "B"}
    # degree-threshold needs --n
    assert main(["color", "degree-threshold", "--host", k6]) == 1


def test_seed_defaults_to_zero(tmp_path):
    k6 = write_hg(tmp_path / "k6.json", clique(2, 6))
    outputs = []
    for seed in ([], ["--seed", "0"], ["--seed", "7"], ["--seed", "8"]):
        out = tmp_path / "c.json"
        assert main(["color", "random", "--host", k6, *seed, "--out", str(out)]) == 0
        outputs.append(load(out))
    assert outputs[0] == outputs[1]
    assert outputs[2] != outputs[3]


def test_ramsey_command(tmp_path, capsys):
    k3 = write_hg(tmp_path / "k3.json", clique(2, 3))
    rep = tmp_path / "r.json"
    assert main(["ramsey", "--pattern", k3, "--cap", "8", "--out", str(rep)]) == 0
    assert load(rep)["ramsey_number"] == 6
    assert capsys.readouterr().err == ""
    assert main(["ramsey", "--pattern", k3, "--cap", "5", "--out", str(rep)]) == 2
    assert load(rep)["result"] == "Unknown"
    assert capsys.readouterr().err == (
        "caps too small: no complete host up to --cap 5 arrows the pattern\n"
    )


def test_ramsey_budget_exit_names_the_host(tmp_path, capsys):
    # K5..K8 do not arrow C5, and K9 is not decided within 100 nodes: no
    # report, which would read as "no clique up to the cap arrows"
    c5 = write_hg(tmp_path / "c5.json", KUniformHypergraph.from_edges(
        2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    rep = tmp_path / "r.json"
    assert main(["ramsey", "--pattern", c5, "--cap", "9", "--budget", "100",
                 "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("budget exhausted:") and "9 vertices and 36 edges" in err
    assert not rep.exists()


def test_size_ramsey_commands(tmp_path):
    k3 = write_hg(tmp_path / "k3.json", clique(2, 3))
    rep = tmp_path / "sr.json"
    assert main(["size-ramsey", "upper", "--pattern", k3, "--out", str(rep)]) == 0
    d = load(rep)
    assert d["upper"] == 15 and d["witness_host"]["n"] == 6
    single = write_hg(tmp_path / "s.json",
                      KUniformHypergraph.from_edges(3, 3, [(0, 1, 2)]))
    assert main(["size-ramsey", "exact", "--pattern", single,
                 "--vcap", "4", "--ecap", "2", "--out", str(rep)]) == 0
    d = load(rep)
    assert d["lower"] == 1 and d["upper"] == 1
    # caps too small -> exit 2
    assert main(["size-ramsey", "exact", "--pattern", k3,
                 "--vcap", "4", "--ecap", "3"]) == 2
    # at most 6 edges fit on 4 vertices: a huge ecap ends at once
    assert main(["size-ramsey", "exact", "--pattern", k3,
                 "--vcap", "4", "--ecap", "1000000"]) == 2


def test_size_ramsey_upper_pattern_over_the_edge_cap(tmp_path, capsys):
    # no host with at most 5 edges holds the 7-edge path: Unknown, not a crash
    p8 = write_hg(tmp_path / "p8.json", ell_path(2, 1, 8))
    rep = tmp_path / "sr.json"
    assert main(["size-ramsey", "upper", "--pattern", p8, "--max-host-edges", "5",
                 "--out", str(rep)]) == 2
    assert load(rep)["upper"] is None and load(rep)["lower"] == 7
    assert capsys.readouterr().err == (
        "caps too small: no host stream verified a host within --max-host-edges 5\n"
    )


def test_size_ramsey_exact_budget_exit(tmp_path, capsys):
    # every host that arrows K1,3 within these caps needs 3 or more nodes
    star = write_hg(tmp_path / "star.json",
                    KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3)]))
    assert main(["size-ramsey", "exact", "--pattern", star, "--vcap", "6",
                 "--ecap", "7", "--budget", "2"]) == 2
    assert capsys.readouterr().err.startswith("budget exhausted:")


@pytest.mark.parametrize("mode, library", [
    ("upper", size_ramsey_upper), ("exact", size_ramsey_exact_tiny),
])
def test_size_ramsey_defaults_are_the_library_defaults(mode, library):
    # each mode takes exactly the library's knobs, so none is ignored and
    # none is out of reach; each cap default is stated once, and the parser
    # and the library read it
    args = vars(build_parser().parse_args(["size-ramsey", mode, "--pattern", "p.json"]))
    for dest in ("command", "mode", "func", "pattern", "out"):
        del args[dest]
    args["node_cap"] = args.pop("budget")
    params = dict(inspect.signature(library).parameters)
    del params["pattern"]
    assert args.keys() == params.keys()
    for name, value in args.items():
        assert value == params[name].default, name


def test_size_ramsey_config_records_mode_options(tmp_path):
    k3 = write_hg(tmp_path / "k3.json", clique(2, 3))
    reports = []
    for cap in ("15", "16"):
        rep = tmp_path / f"sr{cap}.json"
        assert main(["size-ramsey", "upper", "--pattern", k3,
                     "--max-host-edges", cap, "--out", str(rep)]) == 0
        reports.append(load(rep))
    assert reports[0]["config"] == {
        "pattern": k3, "max_host_edges": 15, "budget": reports[0]["config"]["budget"],
    }
    assert reports[0]["config"] != reports[1]["config"]
    edge = write_hg(tmp_path / "e.json", clique(2, 2))
    rep = tmp_path / "exact.json"
    assert main(["size-ramsey", "exact", "--pattern", edge, "--vcap", "3",
                 "--ecap", "2", "--budget", "900", "--out", str(rep)]) == 0
    assert load(rep)["config"] == {"pattern": edge, "vcap": 3, "ecap": 2, "budget": 900}


def _rerun_argv(report):
    """The argv that re-runs a report's command from its config and seed."""
    argv = report["command"].split()
    for key, value in report["config"].items():
        if value is not None:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    if "seed" in report:
        argv += ["--seed", str(report["seed"])]
    return argv


def test_report_config_reruns_it(tmp_path):
    p4 = write_hg(tmp_path / "p4.json", ell_path(2, 1, 4))
    k3, k5 = (write_hg(tmp_path / f"k{n}.json", clique(2, n)) for n in (3, 5))
    edge = write_hg(tmp_path / "e.json", clique(2, 2))
    runs = [
        ["arrows", "--host", k5, "--pattern", k3, "--budget", "500"],
        ["ramsey", "--pattern", k3, "--cap", "7"],
        ["size-ramsey", "upper", "--pattern", p4, "--max-host-edges", "12", "--seed", "3"],
        ["size-ramsey", "exact", "--pattern", edge, "--vcap", "4", "--ecap", "3",
         "--budget", "900"],
        ["randomlab", "pipeline", "--n", "16", "--p", "0.6", "--m", "4", "--seed", "5",
         "--coloring-scheme", "majority"],
        ["gadget-audit", "--t", "2", "--q", "2", "--seed", "4"],
    ]
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    for argv in runs:
        assert main(argv + ["--out", str(first)]) == 0, argv
        report = load(first)
        assert main(_rerun_argv(report) + ["--out", str(again)]) == 0, argv
        rerun = load(again)
        report.pop("timestamp")
        rerun.pop("timestamp")
        assert rerun == report, argv


def _report_text(path):
    """A report file's text without its timestamp line."""
    lines = path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith('  "timestamp": '))


_P4_WITNESS = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [2, 4]]
_UPPER_WITNESS = [[0, 3], [0, 4], [2, 3], [2, 4], [2, 6], [3, 6], [4, 6], [5, 6]]


def test_report_texts_are_pinned(tmp_path):
    # the report bodies follow the field order of their records, so a field
    # moved in a record must show here
    p4 = write_hg(tmp_path / "p4.json", ell_path(2, 1, 4))
    k3, k5, k6 = (write_hg(tmp_path / f"k{n}.json", clique(2, n)) for n in (3, 5, 6))
    budget = 100_000_000
    expected = {
        "arrows-k5": (["arrows", "--host", k5, "--pattern", k3], {
            "version": "0.1.0", "command": "arrows",
            "config": {"host": k5, "pattern": k3, "budget": budget},
            "result": "NotArrows", "nodes": 4,
            "certificate": ["R", "R", "B", "B", "B", "R", "B", "B", "R", "R"],
        }),
        "arrows-k6": (["arrows", "--host", k6, "--pattern", k3], {
            "version": "0.1.0", "command": "arrows",
            "config": {"host": k6, "pattern": k3, "budget": budget},
            "result": "Arrows", "nodes": 3,
        }),
        "ramsey": (["ramsey", "--pattern", k3, "--cap", "8"], {
            "version": "0.1.0", "command": "ramsey",
            "config": {"pattern": k3, "cap": 8, "budget": budget},
            "ramsey_number": 6, "result": "Found",
        }),
        "gadget-audit": (["gadget-audit", "--t", "2", "--q", "2", "--seed", "0"], {
            "version": "0.1.0", "command": "gadget-audit",
            "config": {"t": 2, "q": 2},
            "seed": 0, "tree_vertices": 7, "tree_edges": 3, "rooted_automorphisms": 8,
            "family_size": 2, "pairwise_isomorphic": [[True, False], [False, True]],
            "max_degree": [3, 3], "union_vertices": 14, "independence_number": 10,
            "independence_bound": 8 * 14 / 9, "independence_ok": True,
        }),
        "exact": (["size-ramsey", "exact", "--pattern", p4, "--vcap", "7", "--ecap", "7"], {
            "version": "0.1.0", "command": "size-ramsey exact",
            "config": {"pattern": p4, "vcap": 7, "ecap": 7, "budget": budget},
            "lower": 7, "upper": 7,
            "witness_host": {"k": 2, "n": 5, "edges": _P4_WITNESS},
            "methods": {}, "caps": {"vcap": 7, "ecap": 7},
        }),
        "upper": (["size-ramsey", "upper", "--pattern", p4, "--seed", "1"], {
            "version": "0.1.0", "command": "size-ramsey upper",
            "config": {"pattern": p4, "max_host_edges": 18, "budget": budget},
            "seed": 1, "lower": 3, "upper": 8,
            "witness_host": {"k": 2, "n": 7, "edges": _UPPER_WITNESS},
            "methods": {"clique-host": 10, "random-host": 8}, "caps": {},
        }),
        "randomlab": (["randomlab", "pipeline", "--n", "16", "--p", "0.6", "--m", "4",
                       "--seed", "1"], {
            "version": "0.1.0", "command": "randomlab pipeline",
            "config": {"n": 16, "k": 3, "p": 0.6, "d": None, "m": 4, "coloring": None,
                       "coloring_scheme": "random"},
            "seed": 1, "graph_edges": 76,
            "clique_stats": {"t_ell": {"1": 16, "2": 76, "3": 138}, "t_k": 138,
                             "deg_k_max": 37, "nu": None, "lambda": None},
            "rounds": [{"status": "PathFound", "trash": [], "a_set": [0, 1, 12, 14],
                        "x": 0, "y": 0}],
            "accounting": {
                "sought_color": "B", "t_sought": 73, "t_other": 65, "t_k": 138,
                "sum_x": 0, "sum_y": 0, "z_c": 0, "c_set": [],
                "found_path": [0, 1, 12, 14], "verdict_sought_bound": None,
                "verdict_x_bound": True, "max_edge_x_count": 0,
                "trash_families_disjoint": True, "round_cap": 48,
                "round_cap_exceeded": False,
            },
        }),
    }
    for name, (argv, report) in expected.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert _report_text(out) == json.dumps(report, indent=2) + "\n", name


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--n 60 --k 3 --p 0.2 --m 10 --seed 2 --coloring-scheme random",
         "eec6552dc60aebdb"),  # 7 rounds, NoSeed
        ("--n 90 --k 3 --p 0.2 --m 10 --seed 2 --coloring-scheme majority",
         "b9f977bc6f2792ef"),  # 7 rounds, PathFound
        ("--n 60 --k 4 --p 0.35 --m 10 --seed 2 --coloring-scheme random",
         "fb55dad63e4f332d"),
        ("--n 90 --k 4 --p 0.2 --m 10 --seed 1 --coloring-scheme random",
         "3c4ad0936f05a7ac"),  # NoSeed, z_c = 151
    ],
)
def test_randomlab_report_digests_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "r.json"
    assert main(["randomlab", "pipeline", *argv.split(), "--out", str(out)]) == 0
    report = load(out)
    report.pop("timestamp")
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("m", [0, 1, 2, 7, 63, 64, 65, 500, 5000])
def test_random_coloring_draws_what_choice_draws(m):
    star = KUniformHypergraph(2, m + 1, tuple((0, v) for v in range(1, m + 1)))
    for seed in range(300):
        rng = random.Random(seed)
        want = tuple(rng.choice((RED, BLUE)) for _ in star.edges)
        assert _random_coloring(star, seed).colors == want, seed


def test_randomlab_pipeline_deterministic(tmp_path):
    args = ["randomlab", "pipeline", "--n", "18", "--k", "3", "--p", "0.45",
            "--m", "4", "--seed", "11"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(r1)]) == 0
    assert main(args + ["--out", str(r2)]) == 0
    a, b = load(r1), load(r2)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b
    assert a["seed"] == 11
    acc = a["accounting"]
    assert acc["t_sought"] + acc["t_other"] == acc["t_k"]
    assert acc["trash_families_disjoint"] is True


def test_gadget_audit(tmp_path):
    rep = tmp_path / "ga.json"
    assert main(["gadget-audit", "--t", "2", "--q", "2", "--seed", "0",
                 "--out", str(rep)]) == 0
    d = load(rep)
    assert d["tree_vertices"] == 7
    assert d["rooted_automorphisms"] == 8
    assert d["independence_ok"] is True
    assert len(d["pairwise_isomorphic"]) == d["family_size"]


def test_bad_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["arrows", "--host", str(bad), "--pattern", str(bad)]) == 1
    missing = str(tmp_path / "missing.json")
    assert main(["arrows", "--host", missing, "--pattern", missing]) == 1


@pytest.mark.parametrize("host_text, coloring_text", [
    ('{"k": 2, "n": 3, "edges": 5}', None),
    ('{"k": "2", "n": 3, "edges": [[0, 1]]}', None),
    ('[[0, 1], [1, 2]]', None),
    ('{"k": 2, "n": 3, "edges": [[0.0, 1]]}', None),
    ('{"k": 2, "n": 3, "edges": [[0, 1]]}', "5"),
], ids=["edges-int", "k-string", "top-level-array", "float-vertex", "coloring-int"])
def test_mistyped_json_exit_1(tmp_path, capsys, host_text, coloring_text):
    host = tmp_path / "host.json"
    host.write_text(host_text)
    pattern = write_hg(tmp_path / "p.json", ell_path(2, 1, 2))
    argv = ["embed", "--pattern", pattern, "--host", str(host)]
    if coloring_text is not None:
        coloring = tmp_path / "c.json"
        coloring.write_text(coloring_text)
        argv += ["--color", "red", "--coloring", str(coloring)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_huge_vertex_count_exit_1(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text('{"k": 2, "n": 1180591620717411303424, "edges": [[0, 1]]}')
    for argv in (["color", "majority", "--host", str(host)],
                 ["arrows", "--host", str(host), "--pattern", str(host)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_deeply_nested_json_exit_1(tmp_path, capsys):
    # the JSON decoder recurses once per nesting level
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["arrows", "--host", str(deep), "--pattern", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_embed_long_path_without_recursion_limit(tmp_path, capsys):
    # a recursive copy search nested one frame per pattern vertex
    path = write_hg(tmp_path / "p.json", ell_path(2, 1, 1500))
    assert main(["embed", "--pattern", path, "--host", path]) == 0
    assert json.loads(capsys.readouterr().out) == list(range(1500))


def test_embed_isolated_vertices_fast(tmp_path, capsys):
    edge = write_hg(tmp_path / "e.json", KUniformHypergraph.from_edges(2, 65_536, [(0, 1)]))
    start = time.perf_counter()
    assert main(["embed", "--pattern", edge, "--host", edge]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out) == list(range(65_536))


def test_size_ramsey_edgeless_pattern_exit_1(tmp_path, capsys):
    edgeless = write_hg(tmp_path / "e.json", KUniformHypergraph.from_edges(2, 0, []))
    for mode in ("upper", "exact"):
        assert main(["size-ramsey", mode, "--pattern", edgeless]) == 1
        assert capsys.readouterr().err.startswith("error:")


# -- fuzzing every file-reading subcommand -----------------------------------

_json_keys = st.sampled_from(["k", "n", "edges"]) | st.text(max_size=3)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_json_keys, kids, max_size=4),
    max_leaves=10,
)


@st.composite
def _hypergraph_like(draw):
    """A valid small hypergraph dict, often with one field or edge broken."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(0, 7))
    pool = list(itertools.combinations(range(n), k))
    edges = sorted(draw(st.sets(st.sampled_from(pool), max_size=8))) if pool else []
    data = {"k": k, "n": n, "edges": [list(e) for e in edges]}
    field = draw(st.sampled_from([None, None, "k", "n", "edges", "edge"]))
    if field == "edge":
        vertex = st.integers(-1, 8) | _json_values
        data["edges"].append(draw(st.lists(vertex, max_size=5)))
    elif field is not None:
        data[field] = draw(st.integers(-1, 9) | st.integers() | _json_values)
    return data


_colorings = st.lists(st.sampled_from(["R", "B", "G"]), max_size=8) | _json_values


def _file_texts(values):
    """JSON text of drawn values, plus truncated and free-form malformed text."""
    dumped = values.map(json.dumps)
    return (
        dumped
        | st.tuples(dumped, st.integers(0, 40)).map(lambda t: t[0][: t[1]])
        | st.text(max_size=20)
    )


_FUZZ_COMMANDS = [
    ["construct", "blowup", "--host", "H", "--k", "3", "--l", "1"],
    ["construct", "clique-hypergraph", "--host", "H", "--k", "3"],
    ["arrows", "--host", "H", "--pattern", "P", "--budget", "500"],
    ["embed", "--pattern", "P", "--host", "H", "--budget", "500"],
    ["embed", "--pattern", "P", "--host", "H", "--color", "blue",
     "--coloring", "C", "--budget", "500"],
    ["color", "random", "--host", "H"],
    ["color", "majority", "--host", "H"],
    ["color", "degree-threshold", "--host", "H", "--n", "4"],
    ["color", "vhigh-vlow", "--host", "H"],
    ["ramsey", "--pattern", "P", "--cap", "5", "--budget", "500"],
    ["size-ramsey", "upper", "--pattern", "P", "--max-host-edges", "6", "--budget", "500"],
    ["size-ramsey", "exact", "--pattern", "P", "--vcap", "5", "--ecap", "4",
     "--budget", "500"],
    ["randomlab", "pipeline", "--n", "8", "--p", "0.6", "--m", "2",
     "--coloring", "C"],
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    host=_file_texts(_hypergraph_like() | _json_values),
    pattern=_file_texts(_hypergraph_like() | _json_values),
    coloring=_file_texts(_colorings),
)
def test_fuzzed_input_files_exit_cleanly(tmp_path, capsys, host, pattern, coloring):
    files = {"H": tmp_path / "host.json", "P": tmp_path / "pattern.json",
             "C": tmp_path / "coloring.json"}
    files["H"].write_text(host)
    files["P"].write_text(pattern)
    files["C"].write_text(coloring)
    for template in _FUZZ_COMMANDS:
        argv = [str(files.get(a, a)) for a in template]
        argv += ["--out", str(tmp_path / "out.json")] if template[0] != "embed" else []
        assert main(argv) in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err


def test_majority_coloring_of_an_edgeless_host_with_a_huge_k(tmp_path):
    # a fuzzed host file; an edgeless host may carry any k, so the
    # colouring must not walk range(k) edge columns
    host = tmp_path / "host.json"
    host.write_text('{"k": 274877906945, "n": 1, "edges": []}')
    out = tmp_path / "out.json"
    assert main(["color", "majority", "--host", str(host), "--out", str(out)]) == 0
    assert load(out) == []


def test_randomlab_pipeline_with_a_huge_k_stops_at_the_first_empty_order(tmp_path):
    # no order past an empty one has a clique, so t_ell stops there and
    # holds t_k; it used to enumerate every order below k
    out = tmp_path / "out.json"
    argv = ["randomlab", "pipeline", "--n", "8", "--p", "0.6", "--m", "2",
            "--k", "1000000000000", "--out", str(out)]
    assert main(argv) == 0
    stats = load(out)["clique_stats"]
    assert stats["t_ell"] == {"1": 8, "2": 14, "3": 4, "4": 0, "1000000000000": 0}
    assert stats["t_k"] == 0


# -- fuzzing the numeric arguments ---------------------------------------------


@pytest.mark.parametrize("argv", [
    ["randomlab", "pipeline", "--n", "8", "--k", "2", "--d", "1", "--m", "2"],
    ["construct", "gadget", "--t", "-1"],
    ["construct", "gadget-family", "--t", "-1"],
    ["construct", "star-tree", "--k", "1", "--n", "5"],
    ["randomlab", "pipeline", "--n", "8", "--p", "0.5", "--m", "0"],
    ["randomlab", "pipeline", "--n", "0", "--d", "1", "--m", "2"],
    ["size-ramsey", "exact", "--pattern", "K3", "--vcap", "-3"],
    ["size-ramsey", "exact", "--pattern", "K3", "--ecap", "-3"],
    ["randomlab", "pipeline", "--n", "8", "--p", "1.5", "--m", "2"],
    ["randomlab", "pipeline", "--n", "8", "--d", "1", "--m", "2", "--k", "1000000000000"],
    ["randomlab", "pipeline", "--n", "8", "--d", "1", "--m", "2", "--k", str(10**200)],
    ["size-ramsey", "upper", "--pattern", "K3", "--max-host-edges", "-3"],
    ["ramsey", "--pattern", "K3", "--cap", "-3"],
    ["ramsey", "--pattern", "K3", "--cap", "8", "--budget", "-3"],
    ["arrows", "--host", "K3", "--pattern", "K3", "--budget", "-3"],
    ["size-ramsey", "upper", "--pattern", "K3", "--budget", "-3"],
    ["size-ramsey", "exact", "--pattern", "K3", "--budget", "-3"],
    ["embed", "--pattern", "K3", "--host", "K3", "--budget", "-3"],
])
def test_bad_numbers_exit_with_one_line(tmp_path, capsys, argv):
    k3 = write_hg(tmp_path / "k3.json", clique(2, 3))
    argv = [k3 if a == "K3" else a for a in argv]
    argv += ["--out", str(tmp_path / "out.json")] if argv[0] != "embed" else []
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["arrows", "--host", "h.json"],
    ["arrows", "--host", "h.json", "--pattern", "p.json", "--budget", "x"],
    ["construct", "no-such-kind"],
    ["no-such-command"],
    [],
    ["size-ramsey", "upper", "--pattern", "p.json", "--ramsey-cap", "5"],
    ["size-ramsey", "upper", "--pattern", "p.json", "--strategies", "clique-host"],
    ["size-ramsey", "upper", "--pattern", "p.json", "--vcap", "3"],
    ["size-ramsey", "upper", "--pattern", "p.json", "--ecap", "1"],
    ["size-ramsey", "exact", "--pattern", "p.json", "--max-host-edges", "1"],
    ["size-ramsey", "exact", "--pattern", "p.json", "--seed", "5"],
    ["size-ramsey", "--pattern", "p.json", "exact"],
    ["arrows", "--host", "h.json", "--pattern", "p.json", "--certificate", "c.json"],
])
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own exit code is 2, which is kept for exhausted budgets
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


_HOST_KINDS = ("blowup", "clique-hypergraph")  # these read a --host file


def test_fuzzed_numeric_arguments_exit_cleanly(tmp_path, capsys):
    host = write_hg(tmp_path / "k6.json", clique(2, 6))
    out = str(tmp_path / "out.json")
    rng = random.Random(6)
    small = lambda: str(rng.randint(-1, 4))
    for _ in range(100):
        t, q = str(rng.randint(-1, 3)), small()
        command = rng.choice(["construct", "color", "randomlab", "gadget-audit"])
        if command == "construct":
            kind = rng.choice([k for k in _CONSTRUCTORS if k not in _HOST_KINDS])
            argv = ["construct", kind, "--k", small(), "--l", small(),
                    "--n", str(rng.randint(-1, 12)), "--t", t, "--q", q]
        elif command == "color":
            scheme = rng.choice(["random", "majority", "degree-threshold", "vhigh-vlow"])
            argv = ["color", scheme, "--host", host, "--n", small(), "--d", small(),
                    "--t", t, "--q", q]
        elif command == "randomlab":
            k = small() if rng.random() < 0.9 else "1000000000000"
            argv = ["randomlab", "pipeline", "--n", str(rng.randint(-1, 12)),
                    "--k", k, "--m", small()]
            if rng.random() < 0.6:
                argv += ["--p", rng.choice(["-0.5", "0", "0.4", "1", "1.5"])]
            if rng.random() < 0.6:
                argv += ["--d", rng.choice(["-1", "0", "1", "2.5"])]
        elif t == "3" and int(q) >= 3:
            continue  # about 7 s of isomorphism tests, not a crash
        else:
            argv = ["gadget-audit", "--t", t, "--q", q]
        argv += ["--seed", "1", "--out", out]
        if t == "2" and int(q) >= 3 and ("gadget-family" in argv or "vhigh-vlow" in argv
                                          or command == "gadget-audit"):
            # t = 2 has fewer than 3 non-isomorphic gadgets; sampling still
            # raises out of main (ROADMAP item 7)
            with pytest.raises(ExhaustedPermutationsError):
                main(argv)
            continue
        assert main(argv) in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err
