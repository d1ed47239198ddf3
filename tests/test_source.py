import ast
import importlib.util
import json
from pathlib import Path

import pytest

from ramseyforge.cli import main
from ramseyforge.constructions import clique
from ramseyforge.hypergraph import KUniformHypergraph

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p
    for p in (ROOT / "src" / "ramseyforge").glob("*.py")
    if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    # hypergraph and embedding import each other, so hypergraph alone
    # imports from embedding inside its functions
    tree = ast.parse(path.read_text())
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and node not in tree.body
        and not (path.name == "hypergraph.py" and getattr(node, "module", None) == "embedding")
    ]
    assert not nested, f"{path.name}: imports inside functions at lines {nested}"


def _bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_trace_sites_resolve():
    # the benchmark's --trace mode rebinds these names; a moved or renamed
    # function must fail here, not only in a traced bench run
    tracing = _bench_tracing()
    for site in tracing.SITES:
        tracing.resolve(site)


def test_bench_trace_layers_record_spans(tmp_path):
    # a site that resolves but is no longer called would silently drop its
    # layer from a traced run; run one small call of each traced command
    # and look for a span of every layer
    tracing = _bench_tracing()
    k3, k5, star = (tmp_path / f"{name}.json" for name in ("k3", "k5", "star"))
    k3.write_text(clique(2, 3).to_json())
    k5.write_text(clique(2, 5).to_json())
    star.write_text(KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3)]).to_json())
    out = tmp_path / "report.json"
    runs = [
        ["arrows", "--host", str(k5), "--pattern", str(k3)],
        ["ramsey", "--pattern", str(k3), "--cap", "6"],
        # K1,3: the exact scan dedupes hosts with equal invariants
        ["size-ramsey", "exact", "--pattern", str(star), "--vcap", "6", "--ecap", "5"],
        ["size-ramsey", "upper", "--pattern", str(star), "--max-host-edges", "10"],
        ["gadget-audit", "--t", "2", "--q", "2"],
        ["randomlab", "pipeline", "--n", "16", "--p", "0.6", "--m", "4", "--seed", "1"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 0, argv
    finally:
        tracer.uninstall()
    missing = {layer for _, _, layer in tracing.SITES} - set(tracer.names)
    assert not missing, sorted(missing)
    # the pipeline ran last, so out holds its report
    t_k = json.loads(out.read_text())["clique_stats"]["t_k"]
    assert t_k > 0
    assert tracer.counts[("constructions.clique_hypergraph", "edges")] == t_k


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/ramseyforge/*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O drops assert statements; a check the program relies on
    # raises AssertionError explicitly
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert statements at lines {found}"


def _calls_by_function(tree):
    """Function name -> the plain names it calls, nested definitions
    counted apart from the function that holds them."""
    calls: dict[str, set[str]] = {}
    defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn in defs:
        names = calls.setdefault(fn.name, set())
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            todo.extend(ast.iter_child_nodes(node))
    return calls


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/ramseyforge/*.py")), ids=lambda p: p.name)
def test_no_recursive_functions(path):
    # a recursive search is bounded by the interpreter stack, not by its
    # node budget; every search runs on an explicit stack
    calls = _calls_by_function(ast.parse(path.read_text()))
    cyclic = []
    for name in calls:
        seen, todo = set(), [name]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee in calls and callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        if name in seen:
            cyclic.append(name)
    assert not cyclic, f"{path.name}: {', '.join(cyclic)}"


def test_only_stabiliser_orbits_pins_the_copy_search():
    # vertex symmetry has one routine; another pinned copy search would be
    # a second stabiliser chain beside embedding.stabiliser_orbits
    pinning = []
    for path in sorted(ROOT.glob("src/ramseyforge/*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk is breadth first, so a nested function's name overwrites
        # that of the function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(kw.arg == "_pins" for kw in node.keywords):
                pinning.append((path.name, owner.get(node)))
    assert pinning == [("embedding.py", "stabiliser_orbits")]


def test_budget_defaults_live_in_errors():
    # an answer is exact only relative to the node cap its search ran under,
    # so each default cap is a named constant of errors.py, stated once
    literals = [
        f"{path.name}:{node.lineno}"
        for path in sorted(ROOT.glob("src/ramseyforge/*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value >= 1_000_000
    ]
    assert not literals, f"budget-sized integer literals outside errors.py: {literals}"


def test_every_errors_constant_is_read_elsewhere():
    # a default cap or host cap that no module reads is a dead setting
    errors = ROOT / "src" / "ramseyforge" / "errors.py"
    constants = {
        target.id
        for node in ast.parse(errors.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in sorted(ROOT.glob("src/ramseyforge/*.py"))
        if path != errors
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    assert constants and not constants - read, f"unread in errors.py: {sorted(constants - read)}"


def test_no_module_reads_the_environment():
    # every setting that shapes a run is a parsed option, and so appears in
    # its report's config
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(ROOT.glob("src/ramseyforge/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(a.name in ("environ", "getenv") for a in node.names)
    ]
    assert not reads, (
        f"os.environ or os.getenv read at {reads}: a setting that shapes a run "
        "is a CLI option, recorded in its report's config; a variable that "
        "cannot change a report, such as the log level of ROADMAP item 6, "
        "must be exempted here by name"
    )


def test_every_private_definition_is_used():
    # a module-level helper that nothing calls is dead code left behind
    # when its caller moved on
    trees = [ast.parse(p.read_text()) for p in sorted(ROOT.glob("src/ramseyforge/*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert not defined - used, f"private definitions never referenced: {sorted(defined - used)}"
