"""The command line's contract under hostile input.

Every run of cli.main exits 0, 1, 2 or 3.  A failure prints nothing to
stdout and one `error:<kind>:<message>` line to stderr (a usage error may
put argparse's usage text above it); a success prints one line of JSON
that holds no NaN or Infinity.  A traceback, a numpy warning or a
non-finite number in a result breaks the contract.
"""

import contextlib
import io
import json
import typing
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from cliquehub import cli, finner


class File(typing.NamedTuple):
    """A file the run reads: bytes are written as they are, anything else
    as JSON, which spells non-finite floats NaN and Infinity."""

    content: object
    suffix: str = ".json"


OUT = "<out>"
NUMBERS = ("0", "1", "-1", "0.5", "1e-300", "1e300", "nan", "inf", "-inf")
JSON_NUMBERS = tuple(float(v) for v in NUMBERS)


def hostile_or(valid, hostile):
    """A valid value or a hostile one: each run then usually gets past the
    checks of the flags it does not stress, and the one it stresses reaches
    the solver."""
    return st.one_of(st.just(valid), hostile)


def number(valid):
    return hostile_or(valid, st.sampled_from(NUMBERS))


def json_number(valid):
    return hostile_or(valid, st.sampled_from(JSON_NUMBERS))


def listed(valid, item, sep=","):
    return hostile_or(valid, st.lists(item, min_size=1, max_size=3).map(
        sep.join))


# integer flags also get small sizes, so --n stays small
count = st.sampled_from(NUMBERS + ("2", "3", "8"))
MOTIFS = ("C3", "C4", "K11", "K12", "K13", "K4", "K10", "X")
motif = hostile_or("C3", st.sampled_from(MOTIFS))
seed = st.sampled_from(("0", "1", "-1", "abc"))

hamiltonian = st.fixed_dictionaries({
    "family": hostile_or(["C3"], st.lists(motif, min_size=1, max_size=2)),
    "terms": st.lists(st.fixed_dictionaries(
        {"k": hostile_or(0, st.sampled_from((1, 2, -1))),
         "beta": json_number(1.0), "gamma": json_number(0.3)},
        optional={"shift": json_number(1.0)}), max_size=2),
}).map(File)
table = st.one_of(
    st.fixed_dictionaries({
        "n": st.sampled_from((0, 1, 2, 3)),
        "triangle": st.lists(json_number(0.5), max_size=3)}).map(File),
    st.binary(max_size=32).map(lambda blob: File(blob, ".bin")))
mass = st.one_of(st.sampled_from(([1.0], [0.5, 0.5])),
                 st.lists(json_number(1.0), min_size=1, max_size=2))
instance = st.fixed_dictionaries({
    "spaces": st.lists(mass, min_size=1, max_size=2),
    "system": st.lists(st.fixed_dictionaries({
        "A": st.lists(hostile_or(0, st.sampled_from((-1, 1, 2))),
                      min_size=1, max_size=2),
        "lambda": json_number(0.5)}), min_size=1, max_size=2),
    "functions": st.lists(st.fixed_dictionaries({
        "A_index": st.sampled_from((0, 1)),
        "values": st.lists(json_number(1.0), min_size=1, max_size=4)}),
        min_size=1, max_size=2),
}).map(File)

FLAG = st.just(None)  # a store_true flag


def command(name, required, optional):
    """argv for one subcommand: every required flag, each optional flag
    present or not, and --out pointing at the scratch folder.  A value is
    joined to its flag by "=", so that argparse takes -1 as a value and not
    as an option."""
    def pair(flag, value):
        return st.just((flag,)) if value is FLAG else \
            value.map(lambda v: (flag, v) if isinstance(v, File)
                      else ("%s=%s" % (flag, v),))
    parts = [pair(flag, value) for flag, value in required.items()]
    parts += [st.one_of(st.just(()), pair(flag, value))
              for flag, value in dict(optional, **{"--seed": seed}).items()]
    return st.tuples(*parts).map(
        lambda got: [name] + [x for part in got for x in part]
        + ["--out", OUT])


size = hostile_or("8", count)
motifs = listed("C3", st.sampled_from(MOTIFS))
targets = listed("1", st.sampled_from(NUMBERS))
COMMANDS = st.one_of(
    command("hom-density", {"--motif": motif, "--table": table},
            {"--scale": number("1"),
             "--engine": st.sampled_from(("auto", "generic", "exhaustive",
                                          "bogus"))}),
    command("planar-phi", {"--motifs": motifs, "--s": targets},
            {"--emit-region": st.just("region.csv"),
             "--emit-curves": st.just("curves.json")}),
    command("psi", {"--hamiltonian": hamiltonian}, {}),
    command("edge-f", {"--motif": motif, "--gamma": number("0.5")},
            {"--beta": number("1"), "--shift": number("1"),
             "--beta-grid": listed("0:1:0.5", st.sampled_from(NUMBERS),
                                   sep=":"),
             "--emit": st.just("phase.csv")}),
    command("nmf", {"--n": size, "--p": number("0.5"),
                    "--hamiltonian": hamiltonian},
            {"--emit": st.just("q.bin")}),
    command("phi-np", {"--n": size, "--p": number("0.5"), "--motifs": motifs,
                       "--s": targets},
            {"--emit": st.just("q.bin")}),
    command("sample", {"--n": size, "--p": number("0.5"),
                       "--sweeps": hostile_or("2", count)},
            {"--hamiltonian": hamiltonian, "--burnin": count,
             "--chains": count, "--thin": count, "--detect": FLAG,
             "--delta-hub": number("0.5"), "--xi": number("0.5"),
             "--emit-traj": st.just("traj.csv"),
             "--emit-graph": st.just("final.bin")}),
    command("finner-check", {},
            {"--instance": instance, "--recover": FLAG,
             "--suite": st.sampled_from(("random", "nope")),
             "--count": count}),
    command("emit-figure",
            {"--scenario": st.sampled_from(("fig2A", "fig3", "nope"))}, {}),
)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(folder, argv):
    """(exit code, stdout, stderr lines, warnings) of one in-process run,
    with each File written to the folder and OUT replaced by a subfolder."""
    args = []
    for k, arg in enumerate(argv):
        if isinstance(arg, File):
            path = folder / ("in%d%s" % (k, arg.suffix))
            if isinstance(arg.content, bytes):
                path.write_bytes(arg.content)
            else:
                path.write_text(json.dumps(arg.content))
            arg = str(path)
        elif arg == OUT:
            arg = str(folder / "out")
        args.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue().splitlines(), caught


def no_constant(name):
    raise ValueError("%s in a result" % name)


def check_contract(folder, argv):
    code, out, err, caught = run(folder, argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
        json.loads(out, parse_constant=no_constant)
        return code, out, err
    assert out == "", (argv, out)
    assert err and err[-1].startswith("error:"), (argv, err)
    if len(err) > 1:  # argparse's usage text, then one error:usage: line
        assert err[0].startswith("usage:"), (argv, err)
        assert err[-1].startswith("error:usage:"), (argv, err)
        assert not any(line.startswith("error:") for line in err[:-1]), err
    return code, out, err


NON_FINITE_NMF = File({"family": ["C3"],
                       "terms": [{"k": 0, "beta": 1e300, "gamma": 0.3}]})


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(argv=COMMANDS)
@example(argv=["edge-f", "--motif", "K11", "--gamma", "0.5", "--beta", "1"])
@example(argv=["phi-np", "--n", "8", "--p", "0.5", "--motifs", "C3",
               "--s", "0"])
@example(argv=["nmf", "--n", "8", "--p", "1e-100",
               "--hamiltonian", NON_FINITE_NMF])
def test_main_keeps_its_contract_on_any_input(folder, argv):
    check_contract(folder, argv)


VALID_INSTANCE = finner.instance_to_dict(finner.ProductInstance(
    [[0.5, 0.5], [1.0]], [((0,), 0.5), ((1,), 0.5)], [[1.0, 0.5], [1.0]]))


def instance_with(vertices):
    doc = json.loads(json.dumps(VALID_INSTANCE))
    doc["system"][1]["A"] = vertices
    return File(doc)


@pytest.mark.parametrize("argv, message", [
    (["planar-phi", "--motifs", "C3", "--s", "abc"],
     "error:domain:bad float list: could not convert string to float: "
     "'abc'"),
    (["edge-f", "--motif", "C3", "--gamma", "1", "--beta-grid", "1:2"],
     "error:domain:--beta-grid wants lo:hi:step"),
    (["finner-check", "--suite", "nope"],
     "error:domain:unknown suite 'nope'"),
    (["finner-check", "--suite", "random", "--seed", "abc"],
     "error:usage:argument --seed: invalid seed 'abc': want a non-negative "
     "integer"),
    (["hom-density", "--motif", "C3", "--table", File(b"abc", ".bin")],
     "error:domain:weight table blob too short"),
    (["hom-density", "--motif", "C3", "--table", File(bytes(5), ".bin")],
     "error:domain:weight table blob has 1 bytes after the count, "
     "expected 0"),
    (["hom-density", "--motif", "C3", "--table", File({"triangle": []})],
     "error:domain:bad weight table json: 'n'"),
    (["hom-density", "--motif", "C3",
      "--table", File({"n": 3, "triangle": [0.5]})],
     "error:domain:triangle length does not match n"),
    (["planar-phi", "--s", "1", "--motifs",
      File({"name": "dup", "vertices": 3,
            "edges": [[0, 1], [1, 2], [0, 1]]})],
     "error:domain:duplicate edge (0, 1)"),
    (["finner-check", "--instance", instance_with([-1])],
     "error:domain:set vertex out of range"),
    (["finner-check", "--instance", instance_with([5])],
     "error:domain:bad instance document: list index out of range"),
    (["planar-phi", "--motifs", "C3,K13", "--s", "1,1"],
     "error:domain:family mixes maximum degrees [2, 3]; the planar problem "
     "takes one maximum degree"),
])
def test_each_input_check_prints_its_line(folder, argv, message):
    code, out, err = check_contract(folder, argv)
    assert code == 1
    assert err[-1] == message

