"""The package namespace: every exported name resolves, none is listed twice,
importing it loads no scipy, no module reads the environment, one
function applies the digit map, and no float field is named like a bound."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ecfrac


def test_all_names_resolve_once():
    names = ecfrac.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ecfrac, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # scipy.special alone costs about 0.4 s and 25 MB at import; a fresh
    # interpreter shows whether anything in the package pulls in any of scipy.
    src = Path(ecfrac.__file__).resolve().parents[1]
    script = ("import sys, ecfrac, ecfrac.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_numpy():
    # numpy costs about 0.14 s and 13 MB at import, and only sampling uses
    # it; a fresh interpreter shows whether importing the package loads it.
    src = Path(ecfrac.__file__).resolve().parents[1]
    script = "import sys, ecfrac, ecfrac.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_module_names_scipy():
    # scipy is a test-only oracle: no module of the package mentions it,
    # not even behind a lazy import.
    package = Path(ecfrac.__file__).resolve().parent
    mentions = [f"{path.name}:{number}"
                for path in sorted(package.glob("*.py"))
                for number, line in enumerate(path.read_text().splitlines(), 1)
                if "scipy" in line]
    assert mentions == []


def test_no_module_reads_the_environment():
    # Every setting is an argument or a CLI flag; a module that read the
    # environment would make documents depend on state no manifest records.
    package = Path(ecfrac.__file__).resolve().parent
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name)
                     else [alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            if {"environ", "getenv"} & set(names):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_one_digit_walk():
    # expansion._walk is the one loop that applies the digit map; a divmod
    # anywhere else would be a second digit walk to keep in step with it.
    package = Path(ecfrac.__file__).resolve().parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "divmod":
                enclosing = [f.name for f in functions
                             if f.lineno <= node.lineno <= f.end_lineno]
                callers.add((path.stem, enclosing[-1] if enclosing else None))
    assert callers == {("expansion", "_walk")}


def test_no_float_field_is_named_like_a_bound():
    # A field named *_lo or *_hi reads as one end of a bound; a float there
    # is an estimate, so every such field holds an exact or enclosed value.
    package = Path(ecfrac.__file__).resolve().parent
    floats = {"float", "float | None", "Optional[float]"}
    named = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", [])]
            if not (isinstance(node, ast.ClassDef)
                    and any(ast.unparse(d).endswith("dataclass") for d in decorators)):
                continue
            named += [f"{path.name}:{field.lineno} {field.target.id}"
                      for field in node.body
                      if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                      and field.target.id.endswith(("_lo", "_hi"))
                      and ast.unparse(field.annotation) in floats]
    assert named == []
