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


def test_no_module_imports_scipy_optimize():
    # psi's simplex search lives in the package; scipy.optimize alone costs
    # about 0.6 s to import
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, alias.name)
                         for alias in node.names]
            else:
                continue
            if any((n + ".").startswith("scipy.optimize.") for n in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert SOURCES
    assert found == []


def test_only_planar_inverts_the_surrogate():
    # T_k(a, b) = P*(b) + a^(v/2) is defined in planar.py, and so are its
    # inverses on the axes, a = s^(2/v) and b = P*^-1(1 + s); the edge-f
    # solver reads them there instead of restating them
    found = []
    for path in SOURCES:
        if path.name == "planar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr == "inverse":
                found.append("%s:%d .inverse(" % (path.name, node.lineno))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                    and any(isinstance(e, ast.BinOp)
                            and isinstance(e.op, ast.Div)
                            and isinstance(e.left, ast.Constant)
                            and e.left.value == 2
                            for e in ast.walk(node.right)):
                found.append("%s:%d ** (2 / ...)" % (path.name, node.lineno))
    assert SOURCES
    assert found == []


def test_only_motifs_and_planar_read_the_structure_off_a_plan():
    # motifs.py classifies a motif once, and planar.Surrogate alone decides
    # from that which motifs the surrogate covers; no other module may read
    # a plan's regularity, isolated vertices or components
    found = []
    for path in SOURCES:
        if path.name in ("motifs.py", "planar.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "regular", "iso", "components"):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "plan") or (
                        isinstance(owner, ast.Attribute)
                        and owner.attr == "plan"):
                    found.append("%s:%d .%s" % (path.name, node.lineno,
                                                node.attr))
    assert SOURCES
    assert found == []


def test_only_the_cli_runs_psis_dual_route():
    # sample and nmf need only psi's optimizers, which direct_route gives;
    # psi_solve adds the dual route, which only the psi command reports.
    # Importing psi_solve is not calling it.
    found = []
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name == "psi_solve":
                    found.append("%s:%d psi_solve(" % (path.name,
                                                      node.lineno))
    assert SOURCES
    assert found == []


HAMILTONIAN = ('{"family": ["K12", "C3"], "terms": ['
               '{"k": 0, "beta": 0.7, "gamma": 0.6}, '
               '{"k": 1, "beta": 0.4, "shift": 1.2, "gamma": 0.5}]}')


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.special takes about 0.3 s to import, so only the functions that
    # call it may import it; neither the import nor psi nor sample reach one
    ham = tmp_path / "h.json"
    ham.write_text(HAMILTONIAN)
    src = str(pathlib.Path(cliquehub.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv in (None,
                 ["psi", "--hamiltonian", str(ham)],
                 ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
                  "--hamiltonian", str(ham)]):
        run = "" if argv is None else \
            "assert cliquehub.cli.main(%r) == 0; " % (argv,)
        probe = ("import sys, cliquehub.cli; " + run +
                 "print(' '.join(['scipy:'] + sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["scipy:"], argv
