"""The package namespace: every exported name resolves, none is listed twice,
importing it loads no scipy, no module reads the environment, one
function applies the digit map, no float field is named like a bound, only
the functions that some caller runs at another precision take prec,
every CLI flag is read, and the CLI defines no exception class."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import ecfrac
from ecfrac import cli


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


def test_cli_defines_no_exception_class():
    # A usage error is a ValueError, which main prints as "error: ..." and
    # turns into exit code 2; an exception class of the CLI's own would be
    # a second path to the same message and code.
    tree = ast.parse(Path(cli.__file__).read_text())
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)]
    assert defined == []


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


def test_prec_only_where_a_caller_sets_another():
    # A prec parameter that every caller leaves at its default is a setting
    # no one uses; the cap DP and all weighted from it, and legendre_numeric,
    # run at DEFAULT_PRECISION_BITS.  The numerics core takes prec throughout
    # (tail_threshold runs interval_exp at 128 to 2048 bits).  Elsewhere:
    # legendre_numeric calls its pressure as fn(theta, DEFAULT_PRECISION_BITS),
    # and perfbench's fn(theta, prec=None) wrappers pass that prec on to
    # pressure and rate; rate forwards its prec to xi_b and the golden
    # constants, and the tests run rate at 400 bits and the golden constants
    # at 53, 128, 300 and 400.  In numerics only the module-level private
    # helpers are checked: _outward and _as_interval are handed the varying
    # precision of their callers, and the others run at DEFAULT_PRECISION_BITS.
    package = Path(ecfrac.__file__).resolve().parent
    takers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "numerics":
            candidates = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name.startswith("_")]
        else:
            candidates = list(ast.walk(tree))
        scopes = {child: node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body}
        for node in candidates:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    "prec" in [a.arg for a in node.args.args + node.args.kwonlyargs]:
                name = f"{scopes[node]}.{node.name}" if node in scopes else node.name
                takers.add((path.stem, name))
    assert takers == {
        ("deviations", "GoldenConstants.compute"), ("deviations", "pressure"),
        ("deviations", "rate"), ("deviations", "xi_b"),
        ("numerics", "_as_interval"), ("numerics", "_outward"),
    }


def test_every_cli_flag_is_read():
    # A flag that no handler reads is accepted and then ignored.  Every dest
    # the parser defines must appear as args.<dest> outside the parser; the
    # mc flags that only one task reads are checked through _MC_TASK_FLAGS.
    def dests(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                yield action.dest
                for sub in action.choices.values():
                    yield from dests(sub)
            elif not isinstance(action, argparse._HelpAction):
                yield action.dest

    tree = ast.parse(Path(cli.__file__).read_text())
    parser_def = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "_build_parser")
    inside = set(ast.walk(parser_def))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node not in inside
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    read |= set(cli._MC_TASK_FLAGS)
    assert set(dests(cli._build_parser())) - read == set()
