"""Source scans: soundness guards must survive `python -O`, which strips
`assert`, the package imports nothing beyond its declared dependencies and
not dataclasses, every function the benchmark's tracer wraps exists and a
call through data reaches its lattice span, importing the package root
loads no module, every public name, private module-level function or class
and module constant of the package has a reader outside the tests (a
function the tracer wraps counts as read), and no module but linalg reads a
private attribute of Matrix or Subspace."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hblcert").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise an exception instead"


def _imported(path: Path) -> list[str]:
    """The top-level names of the modules a source file imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return [name.split(".")[0] for name in modules]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    # numpy is the only float dependency; scipy is not installed with the package.
    assert "scipy" not in _imported(path), f"{path.name}: imports scipy"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_imports(path):
    # The records are NamedTuples: dataclasses imports inspect, and with it
    # ast, dis and tokenize, some 10 ms of every hblcert process's start-up.
    assert "dataclasses" not in _imported(path), f"{path.name}: imports dataclasses"


def test_importing_the_package_loads_no_module():
    # The package root re-exports nothing, so each name is imported from the
    # module that defines it and a process loads only the modules it uses.
    script = "import sys, hblcert\nprint([m for m in sys.modules if m.startswith('hblcert.')])"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _trace_targets() -> tuple[tuple[str, str, str], ...]:
    return _tracing().TARGETS


def test_trace_targets_resolve():
    # bench/tracing.py wraps these names from outside the package, so a
    # rename in src/ would otherwise surface only when a traced run starts.
    targets = _trace_targets()
    missing = []
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert targets and not missing, missing


def test_the_tracer_reaches_the_lattice_through_data():
    # The benchmark calls and wraps data.generate_lattice, which data serves
    # from hblcert.lattice. A wrapped name that no call reaches would read 0
    # in every per-layer lattice metric, with no warning.
    data = importlib.import_module("hblcert.data")
    lattice = importlib.import_module("hblcert.lattice")
    fixtures = importlib.import_module("hblcert.fixtures")
    original = lattice.generate_lattice
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        result = data.generate_lattice(fixtures.loomis_whitney_datum(2))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("data.generate_lattice") == 1
    assert tracer.lattice_size == len(result.subspaces)
    assert data.generate_lattice is lattice.generate_lattice is original
    assert importlib.import_module("hblcert.builder").generate_lattice is original


def _trees() -> dict[Path, ast.Module]:
    paths = [p for d in ("src", "bench", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def _names(node: ast.AST) -> list[str]:
    """Every name a node reads: bare names, attributes and imported names."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.alias):
            found.append(sub.name.split(".")[-1])
    return found


def _attributes(node: ast.AST) -> list[str]:
    return [sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]


def _qualified(node: ast.AST) -> list[str]:
    """Every "Owner.attr" a node reads through a bare name, such as Class.method."""
    return [f"{sub.value.id}.{sub.attr}" for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)]


def _is_static(meth: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in meth.decorator_list)


def test_every_public_name_has_a_caller():
    # A public function, class or method of the package must be used by the
    # package, the benchmark or the scripts, not only by tests. A module
    # function or a "Class.method" the tracer wraps counts as read. A static
    # method counts as read only through "Class.method", so a method of the
    # same name on another class does not stand in for it.
    trees = _trees()
    named = Counter(name for tree in trees.values() for name in _names(tree))
    named.update(attr for _, attr, _ in _trace_targets() if "." not in attr)
    read = Counter(name for tree in trees.values() for name in _attributes(tree))
    read.update(attr.split(".")[1] for _, attr, _ in _trace_targets() if "." in attr)
    qualified = Counter(name for tree in trees.values() for name in _qualified(tree))
    qualified.update(attr for _, attr, _ in _trace_targets() if "." in attr)
    unused = []
    for path in SOURCES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if named[node.name] - _names(node).count(node.name) <= 0:
                unused.append(f"{path.name}: {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in node.body:
                if not isinstance(meth, ast.FunctionDef) or meth.name.startswith("_"):
                    continue
                if _is_static(meth):
                    key = f"{node.name}.{meth.name}"
                    uses = qualified[key] - _qualified(meth).count(key)
                else:
                    uses = read[meth.name] - _attributes(meth).count(meth.name)
                if uses <= 0:
                    unused.append(f"{path.name}: {node.name}.{meth.name}")
    assert not unused, f"no caller outside tests: {unused}"


def _module_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the bare-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def test_every_private_name_and_constant_is_read():
    # The public test above skips private functions and classes and every
    # module constant, so a helper or a cap whose last reader went would stay
    # unseen. Each must be read by the package, the benchmark or the scripts
    # somewhere besides its own definition; dunder names are exempt.
    trees = _trees()
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unread = []
    for path in SOURCES:
        for node in trees[path].body:
            constant = not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            own = _names(node)
            for name in _module_names(node):
                if name.startswith("__"):
                    continue
                if (constant or name.startswith("_")) and named[name] - own.count(name) <= 0:
                    unread.append(f"{path.name}: {name}")
    assert not unread, f"not read outside tests: {unread}"


def test_no_module_reads_private_matrix_or_subspace_attributes():
    # A Matrix or Subspace is read through its public form (den and ints,
    # echelon and basis); a private attribute, such as a cached second form,
    # is linalg's own, so no other module may read one.
    linalg = importlib.import_module("hblcert.linalg")
    private = {name for cls in (linalg.Matrix, linalg.Subspace) for name in vars(cls)
               if name.startswith("_") and not name.startswith("__")}
    found = [f"{path.name}:{node.lineno} .{node.attr}" for path in SOURCES
             if path.name != "linalg.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, f"private Matrix or Subspace attributes read outside linalg: {found}"
