import argparse
import ast
import collections
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import cliquehub
import cliquehub.cli

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


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: psi's simplex search, the
    # mean-field entropy and the enumeration oracle live in the package;
    # scipy.special alone costs about 0.3 s to import, scipy.optimize 0.6 s
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
            if any(n.split(".")[0] == "scipy" for n in names):
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


def test_the_cli_prints_once_from_main():
    # commands return (exit code, payload); main writes the manifest and
    # then prints through _emit, so a failed write leaves stdout empty
    path = pathlib.Path(cliquehub.cli.__file__)
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("print", "_emit"):
                found.append((getattr(top, "name", None), func.id))
            elif isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Attribute) and func.value.attr == "stdout":
                found.append((getattr(top, "name", None), "stdout"))
    assert sorted(found) == [("_emit", "print"), ("main", "_emit")]


HAMILTONIAN = ('{"family": ["K12", "C3"], "terms": ['
               '{"k": 0, "beta": 0.7, "gamma": 0.6}, '
               '{"k": 1, "beta": 0.4, "shift": 1.2, "gamma": 0.5}]}')


def _package_env():
    src = str(pathlib.Path(cliquehub.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.special takes about 0.3 s to import; neither the import nor the
    # commands that once reached scipy (psi, sample, nmf, phi-np) load it
    ham = tmp_path / "h.json"
    ham.write_text(HAMILTONIAN)
    env = _package_env()
    for argv in (None,
                 ["psi", "--hamiltonian", str(ham)],
                 ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
                  "--hamiltonian", str(ham)],
                 ["nmf", "--n", "8", "--p", "0.2", "--hamiltonian", str(ham)],
                 ["phi-np", "--n", "8", "--p", "0.2", "--motifs", "C3",
                  "--s", "1.0"]):
        run = "" if argv is None else \
            "assert cliquehub.cli.main(%r) == 0; " % (argv,)
        probe = ("import sys, cliquehub.cli; " + run +
                 "print(' '.join(['scipy:'] + sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["scipy:"], argv


# (argv, exit code, engine modules it may load); None is the import alone.
# Loading no engine means loading no numpy either.
IMPORT_SCOPES = [
    (None, 0, ()),
    (["--version"], 0, ()),
    (["--help"], 0, ()),
    (["no-such-command"], 1, ()),
    (["hom-density", "--motif", "C3", "--table", "t.json"], 0, ("motifs",)),
    (["planar-phi", "--motifs", "C3,C4", "--s", "1.0,2.0"], 0,
     ("motifs", "planar")),
    (["emit-figure", "--scenario", "fig2A", "--out", "fig"], 0,
     ("motifs", "planar")),
    (["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta", "2.0"], 0,
     ("motifs", "planar", "hamiltonian")),
    (["psi", "--hamiltonian", "h.json"], 0,
     ("motifs", "planar", "hamiltonian")),
    (["finner-check", "--suite", "random", "--count", "2"], 0, ("finner",)),
    (["finner-check", "--instance", "i.json"], 0, ("finner",)),
    (["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
      "--hamiltonian", "h.json"], 0,
     ("motifs", "planar", "hamiltonian", "sampler")),
    (["nmf", "--n", "8", "--p", "0.2", "--hamiltonian", "h.json"], 0,
     ("motifs", "planar", "hamiltonian", "nmf")),
    (["phi-np", "--n", "8", "--p", "0.2", "--motifs", "C3", "--s", "1.0"], 0,
     ("motifs", "planar", "hamiltonian", "nmf")),
]


@pytest.mark.parametrize("argv,code,engines", IMPORT_SCOPES)
def test_each_command_loads_only_the_engines_it_runs(tmp_path, argv, code,
                                                     engines):
    # a fresh interpreter compiles every module it imports, which the
    # commands pay for when no bytecode is cached
    (tmp_path / "h.json").write_text(HAMILTONIAN)
    (tmp_path / "t.json").write_text(
        '{"n": 4, "triangle": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}')
    (tmp_path / "i.json").write_text(
        '{"spaces": [[1.0]], "system": [{"A": [0], "lambda": 1.0}], '
        '"functions": [{"A_index": 0, "values": [1.0]}]}')
    run = "0" if argv is None else "cliquehub.cli.main(%r)" % (argv,)
    probe = ("import sys, cliquehub.cli; code = %s; print(code, *sorted("
             "m for m in sys.modules if m == 'numpy' "
             "or m.startswith('cliquehub.')))" % run)
    proc = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert int(last[0]) == code, proc.stderr
    loaded = {m.partition(".")[2] or m for m in last[1:]} - {"cli", "errors"}
    allowed = set(engines) | ({"numpy"} if engines else set())
    assert loaded <= allowed, argv


# the names the package exported, by home module
PUBLIC = {
    "errors": ("CapabilityError", "CliqueHubError", "DegeneracyError",
               "DomainError"),
    "motifs": ("Motif", "WeightTable", "hom_density", "motif_from_name"),
    "planar": ("PlanarProgram", "overlay_matrix", "phi_solve"),
    "hamiltonian": ("EdgeFModel", "HamiltonianSpec", "edge_f_solve",
                    "psi_solve"),
    "nmf": ("NmfProblem", "nmf_solve", "phi_np_solve"),
    "sampler": ("ErgmChain", "detect_structure", "run_experiment"),
    "finner": ("ProductInstance", "finner_integral", "recover_factors"),
}


def test_the_public_names_are_their_home_modules_objects():
    for home, names in PUBLIC.items():
        module = importlib.import_module("cliquehub." + home)
        for name in names:
            assert getattr(cliquehub, name) is getattr(module, name), name
            assert name in dir(cliquehub)
    assert sorted(cliquehub.__all__) == sorted(
        name for names in PUBLIC.values() for name in names)
    with pytest.raises(AttributeError):
        cliquehub.no_such_name
    # the import alone loads no engine and no numpy, and importing a
    # submodule by name still works
    probe = ("import sys, cliquehub; print(*sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith('cliquehub'))); "
             "from cliquehub import nmf; print(nmf.__name__, "
             "nmf.nmf_solve is cliquehub.nmf_solve)")
    proc = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cliquehub", "cliquehub.nmf True"]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # with scipy unimportable, one run of each subcommand still exits 0
    ham = tmp_path / "h.json"
    ham.write_text(HAMILTONIAN)
    table = tmp_path / "t.json"
    table.write_text('{"n": 4, "triangle": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}')
    runs = [
        ["hom-density", "--motif", "C3", "--table", str(table)],
        ["planar-phi", "--motifs", "C3,C4", "--s", "1.0,2.0"],
        ["psi", "--hamiltonian", str(ham)],
        ["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta", "2.0"],
        ["nmf", "--n", "8", "--p", "0.2", "--hamiltonian", str(ham)],
        ["phi-np", "--n", "8", "--p", "0.2", "--motifs", "C3", "--s", "1.0"],
        ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
         "--hamiltonian", str(ham)],
        ["finner-check", "--suite", "random", "--count", "2"],
        ["emit-figure", "--scenario", "fig2A", "--out", str(tmp_path / "f")],
    ]
    subs = next(action for action in cliquehub.cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    assert [argv[0] for argv in runs] == list(subs.choices)
    probe = ("import sys; sys.modules['scipy'] = None; import cliquehub.cli; "
             "print([cliquehub.cli.main(argv) for argv in %r])" % (runs,))
    proc = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * len(runs)), proc.stderr


BENCH = sorted((pathlib.Path(cliquehub.__file__).parents[2]
                / "perfbench").glob("*.py"))

# Package functions that no package code and no benchmark code calls, each
# kept for a reason.  WeightTable.to_json_dict shares its name with
# Motif.to_json_dict and perfbench calls a parser's error, so both count as
# reached by name.
UNCALLED = {
    # criterion 6 judges the sampler by exact enumeration
    "sampler.exact_enumerate", "sampler.transition_matrix",
    "sampler.empirical_distribution", "sampler.total_variation",
    # criterion 7 judges the inequality and the one-function stability form
    "finner.holder_stability_check", "finner.tensor_product_instance",
    "finner.calderon_instance",
    # the planned nmf --diagnostics reports it
    "nmf.stability_probe",
    # the tests' window on one heat-bath probability, named in the README
    "sampler.ErgmChain.edge_probability",
    # file format writers, kept beside their readers
    "hamiltonian.hamiltonian_to_json_dict", "finner.instance_to_dict",
}


def _uses(tree):
    """How often each identifier occurs in a tree: names, attributes and
    imported names."""
    uses = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.rpartition(".")[2]] += 1
    return uses


def test_every_package_function_has_a_caller():
    # the package holds what its commands and the acceptance judges use; a
    # function only tests reach belongs in the tests, and UNCALLED may only
    # shrink.  A name is reached when it occurs in the package outside its
    # own definition, or anywhere in perfbench/, whose tracer patches
    # functions by their names as strings.
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SOURCES if path.name != "__init__.py"}
    package = sum((_uses(tree) for tree in trees.values()),
                  collections.Counter())
    bench = set()
    for path in BENCH:
        tree = ast.parse(path.read_text(), str(path))
        bench.update(_uses(tree))
        bench.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str))
    uncalled = set()
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                defs += [("%s.%s" % (top.name, node.name), node)
                         for node in top.body
                         if isinstance(node, ast.FunctionDef)
                         and not (node.name.startswith("__")
                                  and node.name.endswith("__"))]
            for qualname, node in defs:
                if node.name not in bench and \
                        package[node.name] == _uses(node)[node.name]:
                    uncalled.add("%s.%s" % (module, qualname))
    assert BENCH
    assert sorted(uncalled - UNCALLED) == []
    assert sorted(UNCALLED - uncalled) == []


def _averaged(expr):
    """The two names a midpoint averages, for 0.5 * (x + y), (x + y) / 2 and
    0.5 * x + 0.5 * y; the empty set for any other expression."""
    def halved(e):
        if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Mult):
            for const, other in ((e.left, e.right), (e.right, e.left)):
                if isinstance(const, ast.Constant) and const.value == 0.5:
                    return other
        if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Div) and \
                isinstance(e.right, ast.Constant) and e.right.value == 2:
            return e.left
        return None

    inner = halved(expr)
    if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Add):
        parts = [inner.left, inner.right]
    elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        parts = [halved(expr.left), halved(expr.right)]
    else:
        return set()
    if all(isinstance(p, ast.Name) for p in parts):
        return {p.id for p in parts}
    return set()


def _loops(node, function=None):
    """(enclosing function name, loop) for every for and while loop."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _loops(child, child.name)
            continue
        if isinstance(child, (ast.For, ast.While)):
            yield function, child
        yield from _loops(child, function)


def test_one_bisection():
    # motifs.bracket_root is the one rule that halves a bracket: a loop that
    # assigns the midpoint of two names back to one of them is a second one
    found = set()
    for path in SOURCES:
        for function, loop in _loops(ast.parse(path.read_text(), str(path))):
            pairs = []
            for node in ast.walk(loop):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and \
                            isinstance(node.value, ast.Tuple):
                        pairs += zip(target.elts, node.value.elts)
                    else:
                        pairs.append((target, node.value))
            mids = {t.id: _averaged(v) for t, v in pairs
                    if isinstance(t, ast.Name) and _averaged(v)}
            for target, value in pairs:
                ends = _averaged(value) or (
                    mids.get(value.id, set())
                    if isinstance(value, ast.Name) else set())
                if isinstance(target, ast.Name) and target.id in ends:
                    found.add("%s:%s" % (path.name, function))
    assert sorted(found) == ["motifs.py:bracket_root"]


def _fraction_step(expr):
    """True for an end of an interval plus or minus a fixed share of its
    width, as in lo + c * (hi - lo) or hi - (hi - lo) * c, where c is a
    constant or a name and lo and hi are names."""
    if not (isinstance(expr, ast.BinOp)
            and isinstance(expr.op, (ast.Add, ast.Sub))):
        return False
    pairs = [(expr.left, expr.right)]
    if isinstance(expr.op, ast.Add):
        pairs.append((expr.right, expr.left))
    for end, step in pairs:
        if not (isinstance(end, ast.Name) and isinstance(step, ast.BinOp)
                and isinstance(step.op, ast.Mult)):
            continue
        for share, width in ((step.left, step.right),
                             (step.right, step.left)):
            if isinstance(share, (ast.Constant, ast.Name)) and \
                    isinstance(width, ast.BinOp) and \
                    isinstance(width.op, ast.Sub) and \
                    isinstance(width.left, ast.Name) and \
                    isinstance(width.right, ast.Name) and \
                    end.id in (width.left.id, width.right.id):
                return True
    return False


def test_one_line_search():
    # _max_1d halves on the sign of a slope through bracket_root; a loop
    # that moves a constant fraction into an interval, as golden section
    # does with lo + c * (hi - lo), is a second 1-D search
    found = set()
    for path in SOURCES:
        for function, loop in _loops(ast.parse(path.read_text(), str(path))):
            if path.name == "motifs.py" and function == "bracket_root":
                continue
            if any(_fraction_step(node) for node in ast.walk(loop)):
                found.add("%s:%s" % (path.name, function))
    assert sorted(found) == []


def _method(tree, cls, name):
    owner = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    return owner, next(node for node in owner.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == name)


def _called(node, names):
    """Calls in node of a function or method named in names, as written."""
    return [ast.unparse(call.func) for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and (call.func.id if isinstance(call.func, ast.Name) else
                 getattr(call.func, "attr", None)) in names]


def test_one_heat_bath_step():
    # ErgmChain._step is the one step body: step and sweep both feed it, so
    # the chain takes the heat-bath logistic at one call site, and a sweep
    # takes its draws from the replayed block, never from scalar calls,
    # whether made in sweep, in the replay or through step
    path = pathlib.Path(cliquehub.__file__).parent / "sampler.py"
    tree = ast.parse(path.read_text(), str(path))
    chain, sweep = _method(tree, "ErgmChain", "sweep")
    _, body = _method(tree, "ErgmChain", "_step")
    draws = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_pair_draws")
    logistic = ("_heat_bath_probability", "_sigmoid", "exp")
    assert _called(chain, logistic) == _called(body, logistic) == [
        "_heat_bath_probability"]
    scalar = ("integers", "random", "step")
    assert _called(sweep, scalar) == _called(draws, scalar) == []
