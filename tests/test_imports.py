"""Every import in the package, the scripts, the benchmarks and the tests is used, and every
module of the package is one that the package itself imports."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/gmchan", "scripts", "bench", "tests") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nimport x.y\n__all__ = ['e']\nx.y.z\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_library_imports_every_module_it_ships():
    # a module that neither gmchan nor its CLI imports (a sampler only tests read, say)
    # belongs in tests/ or scripts/, not in src/gmchan
    src = ROOT / "src"
    shipped = sorted(".".join(p.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
                     for p in (src / "gmchan").rglob("*.py"))
    code = "import json, sys, gmchan, gmchan.cli; print(json.dumps(sorted(sys.modules)))"
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = [name for name in json.loads(proc.stdout) if name.split(".")[0] == "gmchan"]
    assert loaded == shipped
