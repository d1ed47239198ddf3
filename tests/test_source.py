import ast
import importlib.util
from pathlib import Path

import pytest

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


def test_bench_trace_sites_resolve():
    # the benchmark's --trace mode rebinds these names; a moved or renamed
    # function must fail here, not only in a traced bench run
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for site in tracing.SITES:
        tracing.resolve(site)
