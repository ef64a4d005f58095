"""Source hygiene: no module imports a name it never uses, no
definition in the package goes unused, and the runtime needs only numpy."""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "haarlab").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(name bound, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _referenced(tree):
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                names.add(base.id)
        annotation = getattr(node, "annotation", None) or \
            getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            names |= _referenced(ast.parse(annotation.value, mode="eval"))
    return names


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":  # imports there are re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _referenced(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree) if name not in used]
    assert unused == []


def _definitions(tree):
    """(name, first line, last line, is a method) of every module-level
    function, class and assigned name, and of every method; dunders are
    left out."""
    def spans(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield node.name, node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield target.id, node

    for name, node in spans(tree.body):
        yield name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            yield from ((n, m.lineno, m.end_lineno, True)
                        for n, m in spans(node.body)
                        if isinstance(m, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)))


def _reached(tree):
    """(name, line, is an attribute access) of every name the module's
    code reaches: names read, attribute names (x.name), names imported,
    and names in string annotations, at the annotation's line.
    Docstrings and comments reach nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False)
                        for alias in node.names)
        annotation = getattr(node, "annotation", None) or \
            getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            names = _referenced(ast.parse(annotation.value, mode="eval"))
            yield from ((name, annotation.lineno, False) for name in names)


def test_no_unreferenced_definitions():
    """Every definition in src/haarlab is reached by package code
    outside its own body.  A module-level name may also be named in
    perfbench, whose tracer looks some up by name (so any word there
    counts).  A method is reached only by an attribute access, x.name:
    a bare name or a perfbench word of the same spelling is some other
    thing.  Neither tests nor haarlab/__init__.py's re-exports count:
    code that only they reach belongs in tests/oracles.py or nowhere."""
    package = sorted((ROOT / "src" / "haarlab").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in package}
    reached = defaultdict(list)     # name -> [(path, line, attribute)]
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name, line, attribute in _reached(tree):
            reached[name].append((path, line, attribute))
    perfbench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        perfbench.update(re.findall(r"\w+", path.read_text()))
    unused = []
    for path, tree in trees.items():
        for name, first, last, method in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or \
                    name in perfbench and not method:
                continue
            if all(p == path and first <= line <= last
                   or method and not attribute
                   for p, line, attribute in reached[name]):
                unused.append(f"{path.relative_to(ROOT)}:{first}: {name}")
    assert unused == []


def test_no_qr_factorization_in_the_package():
    """sample_haar_unitary builds its unitary from Householder
    reflectors; no module of the package factors a matrix by QR, so the
    sampler has one path."""
    found = []
    for path in sorted((ROOT / "src" / "haarlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "qr"
                  or isinstance(node, ast.alias) and node.name == "qr"]
    assert found == []


def test_package_raises_no_bare_value_error():
    """Bad input raises a HaarlabError (itself a ValueError), never a
    bare ValueError, so the CLI can map exactly the package's own
    errors onto exit codes and let a bug show its traceback."""
    found = []
    for path in sorted((ROOT / "src" / "haarlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


_INEXACT = re.compile(r"^(linalg|random|fft|float|complex|double|cdouble|"
                      r"longdouble|clongdouble|single|csingle|half|inexact)")
_CONSTRUCTORS = {"array", "asarray", "zeros", "ones", "empty", "full", "eye",
                 "identity", "arange", "linspace", "fromiter", "frombuffer"}


def test_exact_layer_uses_numpy_only_as_an_integer_container():
    """exact.py and haar_expect.py keep Python ints in numpy object arrays:
    no np.linalg, np.random or float/complex dtype is named there, every
    dtype passed (or astype target) is object or int, no array is built
    without one (the default is float64), and nothing is imported from
    numpy by name."""
    found = []
    for name in ("exact.py", "haar_expect.py"):
        path = ROOT / "src" / "haarlab" / name
        tree = ast.parse(path.read_text(), filename=str(path))
        numpy_names = {"np", "numpy"} | {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "numpy"}
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "numpy":
                found.append(f"{where}: from {node.module} import")
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in numpy_names and _INEXACT.match(node.attr):
                found.append(f"{where}: {node.value.id}.{node.attr}")
            if not isinstance(node, ast.Call):
                continue
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                dtypes += node.args[:1]
            elif isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in numpy_names and \
                    func.attr in _CONSTRUCTORS and not dtypes:
                found.append(f"{where}: {func.attr} without a dtype")
            found += [f"{where}: dtype {ast.unparse(d)}" for d in dtypes
                      if not (isinstance(d, ast.Name)
                              and d.id in ("object", "int"))]
    assert found == []


_RUNTIME_SCRIPT = """
import sys, tempfile
import haarlab
from haarlab import cli, densities, verify
densities.arcsine_law()
densities.kesten_mckay_law()
assert verify.CHECKS["mu2_oracle"](0).passed
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["figure1", "--N", "32", "--replicas", "2",
                     "--outdir", tmp]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_does_not_import_scipy():
    """Building both limit laws, the Kesten-McKay density check and a
    figure1 run leave scipy unimported: numpy is the only runtime
    dependency."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", _RUNTIME_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
