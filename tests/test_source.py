import ast
import os
import pathlib
import subprocess
import sys

import cliquehub

SOURCES = sorted(pathlib.Path(cliquehub.__file__).parent.glob("*.py"))


def test_no_asserts_in_the_package():
    # invariants must raise InternalError: assert statements vanish under
    # python -O, and an AssertionError escapes the CLI as a traceback
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append("%s:%d AssertionError" % (path.name,
                                                           node.lineno))
    assert SOURCES
    assert found == []


def test_no_catch_all_handlers_in_the_package():
    # a catch-all turns an InternalError or a CapabilityError into data or
    # into the wrong exit code; handlers must name what they can act on
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                found.append("%s:%d bare except" % (path.name, node.lineno))
                continue
            names = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            for name in names:
                if isinstance(name, ast.Name) and name.id in (
                        "Exception", "BaseException"):
                    found.append("%s:%d except %s" % (path.name, node.lineno,
                                                      name.id))
    assert SOURCES
    assert found == []


def test_cli_import_loads_no_scipy():
    # scipy.optimize and scipy.special take about 0.5 s to import, so only
    # the functions that call them may import them
    probe = ("import sys, cliquehub.cli; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy')))")
    src = str(pathlib.Path(cliquehub.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
