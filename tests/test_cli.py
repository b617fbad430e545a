import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from cliquehub import cli, finner, nmf, sampler
from cliquehub.errors import (CapabilityError, CliqueHubError,
                              DegeneracyError, DomainError, InternalError)
from cliquehub.motifs import WeightTable, motif_from_name
from cliquehub.hamiltonian import (HamiltonianSpec, HamiltonianTerm,
                                   hamiltonian_to_json_dict)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def triangle_file(tmp_path, beta=1.0):
    spec = HamiltonianSpec(("C3",), (HamiltonianTerm(0, beta, 1.0, 1.0 / 3.0),))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(hamiltonian_to_json_dict(spec)))
    return str(path)


def er_table(n, p, rng):
    """Erdos-Renyi adjacency matrix as a WeightTable."""
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    x = (upper & (rng.random((n, n)) < p)).astype(np.float64)
    x = x + x.T
    return WeightTable(x)


def test_planar_phi_example_output(capsys):
    code, out, err = run_cli(capsys, ["planar-phi", "--motifs", "C3",
                                      "--s", "1.0"])
    assert code == 0
    assert out == ('{"value":0.3333333333333333,'
                   '"optimizers":[[0.0,0.3333333333333333]]}\n')
    assert err == ""


def test_edge_f_example(capsys):
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "C3",
                                      "--gamma", "1.0", "--beta", "2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["phase"] == "clique"
    assert abs(doc["a_star"] - 4.0) <= 1e-6 * 4.0
    assert abs(doc["s_c"] - 3.375) <= 1e-9


def test_finner_suite_example(capsys):
    code, out, err = run_cli(capsys, ["finner-check", "--suite", "random",
                                      "--count", "10", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["max_integral"] <= 1.0 + 1e-10


def test_unknown_command_exit_1(capsys):
    # unknown commands and options (there is no --tol or --json) are usage
    # errors
    phi = ["planar-phi", "--motifs", "C3", "--s", "1.0"]
    for argv in (["warp-speed"], phi + ["--tol", "1e-6"], phi + ["--json"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("usage:")
        last = err.strip().splitlines()[-1]
        assert last.startswith("error:usage:")
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1


def test_missing_command_exit_1(capsys):
    code, out, err = run_cli(capsys, [])
    assert code == 1
    assert err.strip().splitlines()[-1] == "error:usage:missing command"


def test_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "C3",
                                      "--gamma", "5.0", "--beta", "1.0"])
    assert code == 1
    assert err.startswith("error:domain:")
    assert err.count("\n") == 1


def test_non_finite_beta_is_a_domain_error(capsys, tmp_path):
    ham = triangle_file(tmp_path, beta=float("nan"))
    for argv in (["sample", "--n", "20", "--p", "0.3", "--hamiltonian", ham,
                  "--sweeps", "2"],
                 ["psi", "--hamiltonian", ham]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv[0]
        assert out == ""
        assert err.startswith("error:domain:") and err.count("\n") == 1, err
        assert "finite" in err


def test_invalid_hamiltonian_prints_one_line_on_every_command(capsys,
                                                             tmp_path):
    spec = HamiltonianSpec(("K12", "C3"), (HamiltonianTerm(0, 1.0, 1.0, 1.6),
                                           HamiltonianTerm(1, -0.4, 1.0, 0.3)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(hamiltonian_to_json_dict(spec)))
    ham = ["--hamiltonian", str(path)]
    line = ("error:domain:invalid hamiltonian: term 0: growth condition "
            "fails: gamma=1.6 not below 1 for motif K12; term 1: beta must "
            "be positive\n")
    for argv in (["psi"], ["nmf", "--n", "8", "--p", "0.2"],
                 ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1"]):
        assert run_cli(capsys, argv + ham) == (1, "", line), argv[0]


def test_sample_numbers_invalid_terms_by_their_place_in_the_file(capsys,
                                                                 tmp_path):
    # sample drops zero-beta terms before it validates the rest; an error
    # still names the term by its place in the file, as psi does
    path = tmp_path / "h.json"
    path.write_text(json.dumps(
        {"family": ["K12", "C3"],
         "terms": [{"k": 0, "beta": 0.0, "gamma": 0.5},
                   {"k": 1, "beta": 1.0, "gamma": 0.9}]}))
    code, out, err = run_cli(capsys, ["sample", "--n", "8", "--p", "0.2",
                                      "--sweeps", "1", "--hamiltonian",
                                      str(path)])
    assert code == 1
    assert out == ""
    assert err == ("error:domain:invalid hamiltonian: term 1: growth "
                   "condition fails: gamma=0.9 not below 0.666667 for motif "
                   "C3\n")


def test_non_finite_planar_target_is_a_domain_error(capsys):
    # phi-np takes the planar targets too; a NaN one activates no floor, so
    # it never reaches the planar solve
    for command in (["planar-phi"], ["phi-np", "--n", "8", "--p", "0.2"]):
        for s in ("nan", "2.0,nan", "inf"):
            motifs = "C3" if s.count(",") == 0 else "K12,C3"
            code, out, err = run_cli(capsys, command + ["--motifs", motifs,
                                                        "--s", s])
            assert code == 1, (command[0], s)
            assert out == ""
            assert err == "error:domain:targets must be finite\n"


def test_large_planar_targets_have_finite_answers(capsys):
    # phi(C3) = s^(2/3)/2 past the hub inverse's old 1e30 bracket; a phi-np
    # target that large is out of reach of every graph on 8 vertices
    for motif, s, want in (("C3", "1e31", 2.320794416806383e+20),
                           ("C4", "1e300", 5e+149),
                           ("C3", "1e308", 1.0772173450159135e+205)):
        code, out, err = run_cli(capsys, ["planar-phi", "--motifs", motif,
                                          "--s", s])
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)
    code, out, err = run_cli(capsys, ["phi-np", "--n", "8", "--p", "0.5",
                                      "--motifs", "C3", "--s", "1e31"])
    assert (code, out) == (1, "")
    assert err == ("error:domain:density floors unreachable even at the "
                   "complete graph\n")


@pytest.mark.parametrize("error, line, code", [
    (CliqueHubError("bare"), "error:domain:bare\n", 1),
    (DegeneracyError("flat"), "error:domain:flat\n", 1),
    (CapabilityError("too big"), "error:capability:too big\n", 2),
    (OSError("no disk"), "error:domain:no disk\n", 1),
])
def test_every_error_is_reported_by_its_kind(capsys, monkeypatch, error,
                                             line, code):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "phi_solve", broken)
    assert run_cli(capsys, ["planar-phi", "--motifs", "C3", "--s", "1.0"]) \
        == (code, "", line)


def test_capability_error_exit_2(capsys, tmp_path):
    ham = triangle_file(tmp_path)
    code, out, err = run_cli(capsys, ["nmf", "--n", "99999", "--p", "0.3",
                                      "--hamiltonian", ham])
    assert code == 2
    assert err.startswith("error:capability:")


def test_sample_size_cap_exit_2(capsys, monkeypatch):
    # the largest n whose sample run fits the memory cap; the run one
    # vertex above it must stop before allocating anything
    cap = 2048
    assert sampler._sample_bytes(cap) <= sampler.SAMPLE_MEMORY
    while sampler._sample_bytes(cap + 1) <= sampler.SAMPLE_MEMORY:
        cap += 1

    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the size cap")

    monkeypatch.setattr(sampler, "ErgmChain", refuse)
    monkeypatch.setattr(sampler, "chain_rng", refuse)
    code, out, err = run_cli(capsys, ["sample", "--n", str(cap + 1),
                                      "--p", "0.1", "--sweeps", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:capability:") and err.count("\n") == 1


def test_sample_cap_admits_2896(capsys, monkeypatch):
    # with no pair list, eight n x n arrays at n=2896 fit 512 MiB; the run
    # passes the cap and reaches the chain set-up
    def stop(*args, **kwargs):
        raise DomainError("past the cap")

    monkeypatch.setattr(sampler, "ErgmChain", stop)
    monkeypatch.setattr(sampler, "chain_rng", stop)
    code, out, err = run_cli(capsys, ["sample", "--n", "2896", "--p", "0.1",
                                      "--sweeps", "1"])
    assert code == 1
    assert out == ""
    assert err == "error:domain:past the cap\n"


def test_sample_cap_ignores_the_chain_count(capsys, monkeypatch):
    # one chain is alive at a time, so four chains at n=2048 pass the cap
    # and reach the first chain's draw
    def stop(*args, **kwargs):
        raise DomainError("past the cap")

    monkeypatch.setattr(sampler, "chain_rng", stop)
    code, out, err = run_cli(capsys, ["sample", "--n", "2048", "--p", "0.1",
                                      "--sweeps", "1", "--chains", "4"])
    assert code == 1
    assert out == ""
    assert err == "error:domain:past the cap\n"


def test_sample_limit_solve_errors(capsys, monkeypatch, tmp_path):
    # a degenerate limit problem is reported in the summary; a broken
    # invariant inside the solve is not turned into data
    ham = triangle_file(tmp_path)
    argv = ["sample", "--n", "10", "--p", "0.3", "--hamiltonian", ham,
            "--sweeps", "1"]

    def degenerate(*args, **kwargs):
        raise DegeneracyError("flat objective")

    monkeypatch.setattr(sampler, "direct_route", degenerate)
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["summary"]["limit_error"] == "flat objective"

    def broken(*args, **kwargs):
        raise InternalError("invariant broke")

    monkeypatch.setattr(sampler, "direct_route", broken)
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error:internal:invariant broke\n"


def test_nmf_limit_solve_errors(capsys, monkeypatch, tmp_path):
    # a degenerate limit problem only drops the overlay starts; a broken
    # invariant inside the solve is not turned into a warning
    argv = ["nmf", "--n", "8", "--p", "0.3", "--hamiltonian",
            triangle_file(tmp_path)]

    def degenerate(*args, **kwargs):
        raise DegeneracyError("flat objective")

    monkeypatch.setattr(nmf, "direct_route", degenerate)
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["warnings"] == [
        "objective degenerate in the limit; overlay starts skipped"]

    def broken(*args, **kwargs):
        raise InternalError("invariant broke")

    monkeypatch.setattr(nmf, "direct_route", broken)
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error:internal:invariant broke\n"


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("invariant broke")

    monkeypatch.setattr(cli, "phi_solve", broken)
    code, out, err = run_cli(capsys, ["planar-phi", "--motifs", "C3",
                                      "--s", "1.0"])
    assert code == 3
    assert out == ""
    assert err == "error:internal:invariant broke\n"


def test_missing_file_exit_1(capsys):
    code, out, err = run_cli(capsys, ["psi", "--hamiltonian",
                                      "no-such-file.json"])
    assert code == 1
    assert err.startswith("error:domain:")


def test_edge_f_needs_beta(capsys):
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "C3",
                                      "--gamma", "1.0"])
    assert code == 1
    assert "beta" in err


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_emit_figure_fig3_two_rows(capsys, tmp_path):
    out_dir = tmp_path / "fig3"
    code, out, err = run_cli(capsys, ["emit-figure", "--scenario", "fig3",
                                      "--out", str(out_dir)])
    assert code == 0
    header, rows = read_csv(out_dir / "optimizers.csv")
    assert header == ["a", "b", "objective", "near_tie", "gap"]
    assert len(rows) == 2
    doc = json.loads(out)
    phi = doc["phi"]
    for a, b, obj, near, gap in rows:
        if int(near) == 0:
            assert abs(0.5 * float(a) + float(b) - phi) <= 1e-8
            assert float(gap) == 0.0
        else:
            assert float(gap) > 1e-6
    assert sum(int(r[3]) for r in rows) == 1
    for name in ("region.csv", "curves.json", "line.json", "manifest.json"):
        assert (out_dir / name).exists()


def test_emit_figure_fig2c_at_least_two_rows(capsys, tmp_path):
    out_dir = tmp_path / "fig2C"
    code, out, err = run_cli(capsys, ["emit-figure", "--scenario", "fig2C",
                                      "--out", str(out_dir)])
    assert code == 0
    header, rows = read_csv(out_dir / "optimizers.csv")
    assert len(rows) >= 2
    doc = json.loads(out)
    for a, b, obj, near, gap in rows:
        if int(near) == 0:
            assert abs(0.5 * float(a) + float(b) - doc["phi"]) <= 1e-8


def test_emit_figure_unknown_scenario(capsys):
    code, out, err = run_cli(capsys, ["emit-figure", "--scenario", "fig9"])
    assert code == 1
    assert err.startswith("error:domain:")


def test_manifest_digests_match_files(capsys, tmp_path):
    out_dir = tmp_path / "bundle"
    code, out, err = run_cli(capsys, ["emit-figure", "--scenario", "fig2A",
                                      "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["files"]) == {"region.csv", "curves.json",
                                      "optimizers.csv", "line.json"}
    for name, digest in manifest["files"].items():
        blob = (out_dir / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    assert manifest["version"]
    assert manifest["config"]["scenario"] == "fig2A"


def test_rerun_is_byte_identical(capsys, tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    for out_dir in (first, second):
        code, out, err = run_cli(capsys, ["emit-figure", "--scenario",
                                          "fig2B", "--out", str(out_dir)])
        assert code == 0
    for name in ("region.csv", "curves.json", "optimizers.csv", "line.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# combined manifest digests of the figure bundles; refactors must keep the
# emitted files byte-identical
FIGURE_DIGESTS = {
    "fig2A": "a409432c87994c3dd1a6eecc4f7aef4fc5e1018005786e6228d22f431e3e8ef8",
    "fig2B": "dbf5a0e4da9f973133d659699c39059d504407197383d35dc18cb2fef069c3c6",
    "fig2C": "afda826aa130e83e5af5c9114a69b4e75c3a6e23260d92f4ba04f6a37347551b",
    "fig2D": "cec0cd6810902adb4386dea8d845278b5206fb382358aae768aa502bd4d3cfb1",
    "fig3": "b1dc2d8219d4b1a3dfead34dd50e43bb87d5f4e781655aa25a4b595b58c492f6",
}


def test_figure_bundles_are_byte_identical_to_the_pins(capsys, tmp_path):
    got = {}
    for scenario in FIGURE_DIGESTS:
        out_dir = tmp_path / scenario
        code, out, err = run_cli(capsys, ["emit-figure", "--scenario",
                                          scenario, "--out", str(out_dir)])
        assert code == 0
        got[scenario] = json.loads(
            (out_dir / "manifest.json").read_text())["digest"]
    assert got == FIGURE_DIGESTS


def test_hom_density_binary_and_json_tables(capsys, tmp_path):
    rng = np.random.default_rng(5)
    table = er_table(9, 0.4, rng)
    bin_path = tmp_path / "g.bin"
    bin_path.write_bytes(table.to_bytes())
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps(table.to_json_dict()))
    code, out, err = run_cli(capsys, ["hom-density", "--motif", "C4",
                                      "--table", str(bin_path)])
    assert code == 0
    from_bin = json.loads(out)["value"]
    code, out, err = run_cli(capsys, ["hom-density", "--motif", "C4",
                                      "--table", str(json_path)])
    assert code == 0
    assert json.loads(out)["value"] == from_bin


def test_non_finite_weights_are_a_domain_error(capsys, tmp_path):
    table = er_table(6, 0.5, np.random.default_rng(1)).to_json_dict()
    good = tmp_path / "g.json"
    good.write_text(json.dumps(table))
    table["triangle"][3] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(table))
    for argv in (["--table", str(bad)],
                 ["--table", str(good), "--scale", "nan"],
                 ["--table", str(good), "--scale", "inf"]):
        code, out, err = run_cli(capsys, ["hom-density", "--motif", "C3"]
                                 + argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:domain:") and err.count("\n") == 1, err
        assert "finite" in err


@pytest.mark.parametrize("n", [-1, 2.5, "3", True])
def test_table_size_must_be_a_non_negative_integer(capsys, tmp_path, n):
    # n = -1 with one triangle entry passes the length check
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": n, "triangle": [0.5]}))
    code, out, err = run_cli(capsys, ["hom-density", "--motif", "C3",
                                      "--table", str(path)])
    assert code == 1
    assert out == ""
    assert err == ("error:domain:bad weight table json: n must be a "
                   "non-negative integer\n")


def test_psi_output(capsys, tmp_path):
    ham = triangle_file(tmp_path)
    code, out, err = run_cli(capsys, ["psi", "--hamiltonian", ham])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["psi"] - doc["psi_dual"]) <= 1e-6 * (1 + abs(doc["psi"]))
    assert doc["duality_gap"] >= 0.0 or abs(doc["duality_gap"]) < 1e-9


def test_edge_f_beta_grid_csv(capsys, tmp_path):
    out_path = tmp_path / "phase.csv"
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "C3",
                                      "--gamma", "1.0",
                                      "--beta-grid", "1.0:2.5:0.25",
                                      "--emit", str(out_path)])
    assert code == 0
    header, rows = read_csv(out_path)
    assert header == ["beta", "phase", "s_star", "a_star", "b_star", "psi"]
    assert len(rows) == 7
    phases = {float(r[0]): r[1] for r in rows}
    # gamma = 1 triangle: hub phase below beta_c = 16/9, clique above
    assert phases[1.0] == "hub"
    assert phases[2.0] == "clique"
    assert phases[2.5] == "clique"
    # sha256 of the table at the commit that introduced the pin; a change
    # meant to alter its bits updates this value and says why
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "c753f6011909ff80c8bd8bb5ff6b03580979a100f5da30972f108e18652b5858")
    # without --out the run record sits next to the emitted file, not in cwd
    assert (tmp_path / "manifest.json").exists()
    assert not os.path.exists("manifest.json")


def test_sample_emits_and_manifest(capsys, tmp_path):
    ham = triangle_file(tmp_path)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, [
        "sample", "--n", "24", "--p", "0.2", "--hamiltonian", ham,
        "--sweeps", "12", "--burnin", "4", "--thin", "4", "--chains", "2",
        "--seed", "9", "--detect", "--out", str(out_dir),
        "--emit-traj", "traj.csv", "--emit-graph", "final.bin"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == 2 * 3
    header, rows = read_csv(out_dir / "traj.csv")
    assert header[:3] == ["chain", "sweep", "edges"]
    assert len(rows) == doc["rows"]
    table = WeightTable.from_bytes((out_dir / "final.bin").read_bytes())
    assert table.n == 24
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["files"]) == {"traj.csv", "final.bin"}
    assert manifest["seed"] == 9


@pytest.mark.parametrize("flags,delta_hub,xi", [
    ([], 0.5, 0.05),
    (["--delta-hub", "0.25", "--xi", "0.1"], 0.25, 0.1),
])
def test_sample_manifest_records_the_detection_values(capsys, tmp_path,
                                                      flags, delta_hub, xi):
    # the defaults live in sampler alone; the record holds the values used
    assert (sampler.DELTA_HUB, sampler.XI) == (0.5, 0.05)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, [
        "sample", "--n", "8", "--p", "0.2", "--sweeps", "1", "--detect",
        "--out", str(out_dir), "--emit-traj", "traj.csv"] + flags)
    assert code == 0, err
    config = json.loads((out_dir / "manifest.json").read_text())["config"]
    assert (config["delta_hub"], config["xi"]) == (delta_hub, xi)
    assert config["detect"] is True and config["sweeps"] == 1


PINNED_FAMILY = ["K12", "C3", "C4", {"name": "P4", "vertices": 4,
                                     "edges": [[0, 1], [1, 2], [2, 3]]}]


def test_sample_outputs_match_the_pin(capsys, tmp_path):
    # the family runs the star, triangle, long-cycle and generic toggle
    # deltas; the digests pin the chain's draws, flips and cached densities
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"family": PINNED_FAMILY, "terms": [
        {"k": k, "beta": beta, "shift": 1.0, "gamma": gamma}
        for k, (beta, gamma) in enumerate(
            [(0.05, 0.6), (0.04, 0.4), (0.03, 0.3), (0.02, 0.5)])]}))
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, [
        "sample", "--n", "12", "--p", "0.3", "--hamiltonian", str(ham),
        "--sweeps", "6", "--thin", "2", "--chains", "2", "--seed", "5",
        "--out", str(out_dir), "--emit-traj", "traj.csv",
        "--emit-graph", "final.bin"])
    assert code == 0, err
    digest = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
              for name in ("traj.csv", "final.bin")}
    assert digest == {
        "traj.csv": "eb764c41216765c61f9097bcd3f2566c"
                    "f8fa9a529d1c75173d53b70e5b7e9f3e",
        "final.bin": "9c7e8fabf655d989aac66a2ce54204b3"
                     "c676b9baa07b5345a9af66981d100781"}


def test_sample_reproducible(capsys, tmp_path):
    ham = triangle_file(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, out, err = run_cli(capsys, [
            "sample", "--n", "20", "--p", "0.25", "--hamiltonian", ham,
            "--sweeps", "8", "--seed", "4", "--out", str(out_dir),
            "--emit-traj", "traj.csv"])
        assert code == 0
        outs.append((out_dir / "traj.csv").read_bytes())
    assert outs[0] == outs[1]


def test_finner_instance_recover(capsys, tmp_path):
    rng = np.random.default_rng(21)
    inst, hs = finner.tensor_product_instance(rng)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(finner.instance_to_dict(inst)))
    code, out, err = run_cli(capsys, ["finner-check", "--instance",
                                      str(path), "--recover"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_ok"] is True
    assert doc["integral"] <= 1.0 + 1e-10
    assert max(doc["residuals"]) <= 1e-9
    assert set(doc["factors"]) == {",".join(str(v) for v in c)
                                   for c in inst.classes}


@pytest.mark.parametrize("argv", [
    ["psi", "--hamiltonian", "{bad}"],
    ["nmf", "--n", "8", "--p", "0.2", "--hamiltonian", "{bad}"],
    ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
     "--hamiltonian", "{bad}"],
    ["finner-check", "--instance", "{bad}"],
    ["finner-check", "--instance", os.devnull],
    ["phi-np", "--n", "8", "--p", "0.2", "--s", "1.0", "--motifs", "{bad}"],
    ["hom-density", "--motif", "C3", "--table", "{bad}"],
], ids=["psi", "nmf", "sample", "finner", "finner-empty", "motif", "table"])
def test_malformed_json_is_a_domain_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": ["C3"], ')
    argv = [str(bad) if a == "{bad}" else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:bad ") and err.count("\n") == 1, err


GOOD_INSTANCE = {"spaces": [[1.0]], "system": [{"A": [0], "lambda": 1.0}],
                 "functions": [{"A_index": 0, "values": [1.0]}]}


SHAPE = "bad instance document: "


@pytest.mark.parametrize("key,value,message", [
    ("functions", [1], SHAPE),
    ("system", [{"A": [3], "lambda": 1.0}], SHAPE),
    ("system", [{"A": [0], "lambda": "x"}], SHAPE),
    # JSON's NaN and Infinity fail every comparison or the sum checks, so
    # each value is checked for finiteness first
    ("system", [{"A": [0], "lambda": math.nan}], "weights must be finite"),
    ("system", [{"A": [0], "lambda": math.inf}], "weights must be finite"),
    ("spaces", [[math.nan]], "masses must be finite"),
    ("spaces", [[math.inf]], "masses must be finite"),
    ("functions", [{"A_index": 0, "values": [math.nan]}],
     "function values must be finite"),
    ("functions", [{"A_index": 0, "values": [math.inf]}],
     "function values must be finite"),
    # a second space that no set uses reaches ProductInstance's own checks
    ("spaces", [[1.0], []], "each space needs a 1-d mass vector"),
    ("spaces", [[1.0], [0.0, 1.0]], "masses must be positive"),
], ids=["function-number", "vertex-past-spaces", "text-weight", "nan-weight",
        "inf-weight", "nan-mass", "inf-mass", "nan-function", "inf-function",
        "empty-space", "zero-mass"])
def test_misshapen_instance_is_a_domain_error(capsys, tmp_path, key, value,
                                              message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(GOOD_INSTANCE, **{key: value})))
    code, out, err = run_cli(capsys, ["finner-check", "--instance", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:" + message)
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("argv,document,message", [
    (["finner-check", "--instance"],
     {"spaces": [], "system": [], "functions": []},
     "instance needs at least one space"),
    # validate_hamiltonian reports what validate_family rejects
    (["psi", "--hamiltonian"],
     {"family": [{"name": "E", "vertices": 2, "edges": []}],
      "terms": [{"k": 0, "beta": 1.0, "gamma": 0.3}]},
     "invalid hamiltonian: motif E has no edges"),
], ids=["no-spaces", "edgeless-motif"])
def test_rejected_document_is_a_domain_error(capsys, tmp_path, argv, document,
                                             message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, argv + [str(path)])
    assert code == 1
    assert out == ""
    assert err == "error:domain:%s\n" % message


def test_non_string_family_entry_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"family": [5], "terms": [
        {"k": 0, "beta": 1.0, "gamma": 0.3}]}))
    code, out, err = run_cli(capsys, ["psi", "--hamiltonian", str(path)])
    assert code == 1
    assert out == ""
    assert err == ("error:domain:bad hamiltonian json: family entries must "
                   "be motif names or motif documents\n")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_finner_suite_count_below_one_is_a_domain_error(capsys, count):
    code, out, err = run_cli(capsys, ["finner-check", "--suite", "random",
                                      "--count", count])
    assert code == 1
    assert out == ""
    assert err == "error:domain:--count must be at least 1\n"


def test_finner_check_needs_mode(capsys):
    code, out, err = run_cli(capsys, ["finner-check"])
    assert code == 1
    assert err.startswith("error:domain:")


def test_phi_np_and_nmf_commands(capsys, tmp_path):
    ham = triangle_file(tmp_path)
    code, out, err = run_cli(capsys, ["nmf", "--n", "10", "--p", "0.3",
                                      "--hamiltonian", ham])
    assert code == 0
    nmf_doc = json.loads(out)
    assert nmf_doc["value"] >= nmf_doc["witness_value"] - 1e-9
    code, out, err = run_cli(capsys, ["phi-np", "--n", "10", "--p", "0.3",
                                      "--motifs", "C3", "--s", "1.5"])
    assert code == 0
    phi_doc = json.loads(out)
    assert phi_doc["value"] <= phi_doc["witness_value"] + 1e-9
    assert phi_doc["residuals"] <= 1e-6


def test_phi_np_zero_targets_print_the_flat_answer(capsys):
    # no floor is active, so the answer is 0 at Q = p and nothing runs
    code, out, err = run_cli(capsys, ["phi-np", "--n", "8", "--p", "0.5",
                                      "--motifs", "C3", "--s", "0"])
    assert (code, err) == (0, "")
    assert out == ('{"value":0.0,"iterations":0,"residuals":0.0,'
                   '"witness_value":0.0,"selected":"flat"}\n')


@pytest.mark.filterwarnings("error")
def test_non_finite_mean_field_objective_is_a_domain_error(capsys, tmp_path):
    # beta / p^3 overflows, so the gradient is inf and the step would be 0;
    # the run stops with one line and no numpy warning
    ham = tmp_path / "big.json"
    ham.write_text('{"family": ["C3"], '
                   '"terms": [{"k": 0, "beta": 1e300, "gamma": 0.3}]}')
    code, out, err = run_cli(capsys, ["nmf", "--n", "8", "--p", "1e-100",
                                      "--hamiltonian", str(ham)])
    assert (code, out) == (1, "")
    assert err == ("error:domain:mean-field objective or gradient is not "
                   "finite\n")


def test_phi_np_rerun_in_one_process_prints_the_same(capsys):
    argv = ["phi-np", "--n", "24", "--p", "0.3", "--motifs", "C3",
            "--s", "1.0"]
    first = run_cli(capsys, argv)
    assert first[0] == 0
    assert run_cli(capsys, argv) == first


def motif_file(tmp_path, name, vertices, edges):
    path = tmp_path / ("%s-%d.json" % (name, vertices))
    path.write_text(json.dumps({"name": name, "vertices": vertices,
                                "edges": edges}))
    return str(path)


PHI_NP = ["phi-np", "--n", "16", "--p", "0.2", "--s", "1.0", "--motifs"]


def test_phi_np_accepts_a_motif_file(capsys, tmp_path):
    # a path on three vertices is the 2-star, so both give one value
    path = motif_file(tmp_path, "P3", 3, [[0, 1], [1, 2]])
    code, out, err = run_cli(capsys, PHI_NP + [path])
    assert code == 0, err
    code, star, err = run_cli(capsys, PHI_NP + ["K12"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        json.loads(star)["value"], rel=1e-12)


def test_phi_np_file_motif_named_like_a_builtin(capsys, tmp_path):
    # a 2-star read from a file called "C3" is solved as the 2-star, not as
    # the triangle its name spells
    code, named_c3, err = run_cli(capsys, PHI_NP + [
        motif_file(tmp_path, "C3", 3, [[0, 1], [1, 2]])])
    assert code == 0, err
    code, star, err = run_cli(capsys, PHI_NP + ["K12"])
    assert code == 0
    code, triangle, err = run_cli(capsys, PHI_NP + ["C3"])
    assert code == 0
    value = json.loads(named_c3)["value"]
    assert value == pytest.approx(json.loads(star)["value"], rel=1e-12)
    assert value != pytest.approx(json.loads(triangle)["value"], rel=1e-3)


def table_file(tmp_path, n):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        er_table(n, 0.5, np.random.default_rng(2)).to_json_dict()))
    return str(path)


def test_exhaustive_engine_refuses_a_ninth_vertex(capsys, tmp_path):
    # the oracle names vertices by eight letters; a ninth must not fall off
    code, out, err = run_cli(capsys, [
        "hom-density", "--motif", "K9", "--table", table_file(tmp_path, 5),
        "--engine", "exhaustive"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:capability:") and err.count("\n") == 1, err


@pytest.mark.parametrize("engine, code, kind", [
    ("fast", 2, "capability"), ("bogus", 1, "domain")])
def test_hom_density_engine_errors(capsys, tmp_path, engine, code, kind):
    # the fast engine counts cliques only on a binary table, and an engine
    # name the program does not know is a domain error
    table = tmp_path / "w.json"
    table.write_text(json.dumps({"n": 4, "triangle": [0.5] * 6}))
    got, out, err = run_cli(capsys, ["hom-density", "--motif", "K4", "--table",
                                     str(table), "--engine", engine])
    assert got == code
    assert out == ""
    assert err.startswith("error:%s:" % kind) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["hom-density", "--table", "{table}", "--motif", "K5000"],
    ["hom-density", "--table", "{table}", "--motif", "C100000000"],
    ["psi", "--hamiltonian", "{ham}"],
], ids=["K5000", "C100000000", "family-entry"])
def test_oversized_motif_name_is_a_capability_error(capsys, tmp_path, argv):
    # the size in the name is checked before any edge is built
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"family": ["C100000000"], "terms": [
        {"k": 0, "beta": 1.0, "gamma": 0.3}]}))
    fill = {"{table}": table_file(tmp_path, 5), "{ham}": str(ham)}
    code, out, err = run_cli(capsys, [fill.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:capability:") and err.count("\n") == 1, err


def test_k10_names_no_motif(capsys, tmp_path):
    # K1<k> is always the k-leaf star, so K10 asks for a star without leaves
    code, out, err = run_cli(capsys, ["hom-density", "--table",
                                      table_file(tmp_path, 5), "--motif",
                                      "K10"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:") and err.count("\n") == 1, err
    assert "k-leaf star" in err


@pytest.mark.parametrize("engine", ["auto", "fast", "generic", "exhaustive"])
def test_isolated_vertices_leave_the_density_unchanged(capsys, tmp_path,
                                                       engine):
    # n^498 is past the float range, yet the density is the edge's
    table = table_file(tmp_path, 5)
    hom = ["hom-density", "--table", table, "--engine", engine, "--motif"]
    code, edge, err = run_cli(capsys, hom + ["K11"])
    assert code == 0, err
    code, out, err = run_cli(capsys, hom + [
        motif_file(tmp_path, "edge", 500, [[0, 1]])])
    assert code == 0, err
    assert json.loads(out)["value"] == json.loads(edge)["value"]
    code, out, err = run_cli(capsys, hom + [
        motif_file(tmp_path, "empty", 500, [])])
    assert code == 0, err
    assert json.loads(out)["value"] == 1.0


def test_isolated_vertices_leave_phi_np_unchanged(capsys, tmp_path):
    # phi-np also reads the density gradient, which overflowed the same way
    code, lonely, err = run_cli(capsys, PHI_NP + [
        motif_file(tmp_path, "edge", 500, [[0, 1]])])
    assert code == 0, err
    code, edge, err = run_cli(capsys, PHI_NP + ["K11"])
    assert code == 0, err
    assert lonely == edge


def padded_motif_file(tmp_path, name):
    """The built-in motif with an isolated vertex before and after it."""
    motif = motif_from_name(name)
    return motif_file(tmp_path, name, motif.vertices + 2,
                      [[u + 1, w + 1] for u, w in motif.edges])


def planar_commands(tmp_path, motif, gamma):
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"family": [motif], "terms": [
        {"k": 0, "beta": 1.0, "gamma": gamma}]}))
    return [["planar-phi", "--motifs", motif, "--s", "8.0"],
            ["psi", "--hamiltonian", str(ham)],
            ["edge-f", "--motif", motif, "--gamma", "1.0", "--beta", "1.78"]]


@pytest.mark.parametrize("name, gamma", [
    ("C3", 0.5), ("C4", 0.4), ("K12", 0.8), ("K13", 0.8)])
def test_isolated_vertices_leave_the_planar_answers_unchanged(
        capsys, tmp_path, name, gamma):
    # the planar surrogate is the core's, as the densities are; C3 and C4
    # used to lose their clique term to an isolated vertex
    padded = padded_motif_file(tmp_path, name)
    for bare, argv in zip(planar_commands(tmp_path, name, gamma),
                          planar_commands(tmp_path, padded, gamma)):
        code, want, err = run_cli(capsys, bare)
        assert code == 0, err
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert out == want, bare[0]


TWO_TRIANGLES = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]


def test_a_disconnected_motif_has_no_planar_limit(capsys, tmp_path):
    # the surrogate is defined for a connected motif only: the commands
    # that answer with it refuse two disjoint triangles, and the rest run
    # without it
    two = motif_file(tmp_path, "2C3", 6, TWO_TRIANGLES)
    commands = planar_commands(tmp_path, two, 0.25)
    for argv in commands:
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv[0]
        assert out == ""
        assert err.startswith("error:capability:") and err.count("\n") == 1
    ham = commands[1][-1]  # psi's Hamiltonian, a 2C3 term
    code, out, err = run_cli(capsys, PHI_NP + [two])
    assert code == 0, err
    assert json.loads(out)["witness_value"] is None
    code, out, err = run_cli(capsys, ["nmf", "--n", "12", "--p", "0.3",
                                      "--hamiltonian", ham])
    assert code == 0, err
    assert json.loads(out)["warnings"] == [
        "the planar surrogate needs a connected motif, not 2C3; overlay "
        "starts skipped"]
    code, out, err = run_cli(capsys, ["sample", "--n", "12", "--p", "0.3",
                                      "--sweeps", "1", "--hamiltonian", ham])
    assert code == 0, err
    assert json.loads(out)["summary"]["limit_error"] == (
        "the planar surrogate needs a connected motif, not 2C3")


def test_beta_grid_point_count_is_bounded(capsys):
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "C3", "--gamma",
                                      "1.0", "--beta-grid", "0:1e9:1e-3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:capability:") and err.count("\n") == 1, err
    assert str(cli.BETA_GRID_MAX_POINTS) in err


def test_beta_grid_counts_its_points_from_the_step(capsys, monkeypatch):
    # rounding in lo + k step passes hi by more than 1e-12 once the betas
    # reach about 1e3; the count (hi - lo) / step forgives a billionth of a
    # step, and an overflowing count is a capability error, not a crash
    betas = []
    row = types.SimpleNamespace(phase="hub", s_star=0.0, a_star=0.0,
                                b_star=0.0, psi=0.0, beta_c=1.0, s_c=1.0)

    def solve(model):
        betas.append(model.beta)
        return row

    monkeypatch.setattr(cli, "edge_f_solve", solve)
    argv = ["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta-grid"]
    code, out, err = run_cli(capsys, argv + ["0.1:7496.4:1070.9"])
    assert code == 0, err
    assert json.loads(out)["rows"] == 8
    assert betas == [0.1 + k * 1070.9 for k in range(8)]
    del betas[:]
    assert run_cli(capsys, argv + ["1.0:2.5:0.25"])[0] == 0
    assert betas == [1.0 + k * 0.25 for k in range(7)]
    code, out, err = run_cli(capsys, argv + ["0:1e308:1e-300"])
    assert (code, out) == (2, "")
    assert err.startswith("error:capability:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, reason", [
    (["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta", "inf"],
     "finite"),
    (["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta", "1.0",
      "--shift", "nan"], "finite"),
    (["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta-grid", "0:nan:1"],
     "finite"),
    (["sample", "--n", "12", "--p", "0.3", "--sweeps", "1", "--detect",
      "--xi", "nan"], "xi must lie in [0, 1/2)"),
    (["sample", "--n", "12", "--p", "0.3", "--sweeps", "1", "--detect",
      "--delta-hub", "1.5"], "delta_hub in [0, 1]"),
], ids=["beta", "shift", "beta-grid", "xi", "delta-hub"])
def test_out_of_range_model_input_is_a_domain_error(capsys, argv, reason):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:") and err.count("\n") == 1, err
    assert reason in err


@pytest.mark.parametrize("argv", [
    ["hom-density", "--motif", "C3", "--table", "{table}", "--scale",
     "1e-300"],
    ["nmf", "--n", "5", "--p", "1e-300", "--hamiltonian", "{ham}"],
    ["sample", "--n", "5", "--p", "1e-300", "--sweeps", "1",
     "--hamiltonian", "{ham}"],
    ["phi-np", "--n", "5", "--p", "1e-300", "--motifs", "C3", "--s", "1"],
    ["hom-density", "--motif", "C3", "--table", "{table}", "--scale",
     "1e-105"],
], ids=["hom-density", "nmf", "sample", "phi-np", "hom-density-overflow"])
def test_density_past_the_float_range_is_a_domain_error(capsys, tmp_path,
                                                        argv):
    # scale^e n^v underflows to 0 at 1e-300; at 1e-105 it is subnormal and
    # the triangle density of a complete graph overflows
    table = tmp_path / "full.json"
    table.write_text(json.dumps({"n": 6, "triangle": [1.0] * 15}))
    fill = {"{table}": str(table), "{ham}": triangle_file(tmp_path)}
    code, out, err = run_cli(capsys, [fill.get(a, a) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["hom-density", "--table", "{table}", "--motif"],
    ["planar-phi", "--s", "0.5", "--motifs"],
    ["edge-f", "--gamma", "0.3", "--beta", "1.0", "--motif"],
], ids=["hom-density", "planar-phi", "edge-f"])
@pytest.mark.parametrize("vertices, edges", [
    (3, [[0, 1.5], [1, 2]]),
    (3.9, [[0, 1], [1, 2]]),
], ids=["float-endpoint", "float-vertices"])
def test_non_integer_motif_document_is_a_domain_error(capsys, tmp_path, argv,
                                                      vertices, edges):
    fill = {"{table}": table_file(tmp_path, 5)}
    argv = [fill.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, argv + [
        motif_file(tmp_path, "bad", vertices, edges)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:") and err.count("\n") == 1, err
    assert "integer" in err


@pytest.mark.parametrize("k", [0.7, True, "0"])
def test_non_integer_term_index_is_a_domain_error(capsys, tmp_path, k):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"family": ["C3", "K12"], "terms": [
        {"k": k, "beta": 1.0, "gamma": 0.3}]}))
    code, out, err = run_cli(capsys, ["psi", "--hamiltonian", str(path)])
    assert code == 1
    assert out == ""
    assert err == ("error:domain:bad hamiltonian json: term index k must "
                   "be an integer\n")


def test_edge_f_overflow_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "K12", "--gamma",
                                      "0.5", "--beta", "1e308"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:") and err.count("\n") == 1, err
    assert "not finite" in err


def test_edge_f_refuses_a_single_edge(capsys):
    # for K11 the clique and hub costs are both s/2 at every s, so the
    # branches never cross and no s_c or beta_c exists
    code, out, err = run_cli(capsys, ["edge-f", "--motif", "K11", "--gamma",
                                      "0.5", "--beta", "1"])
    assert (code, out) == (1, "")
    assert err == ("error:domain:K11 has no clique-hub crossover: the clique "
                   "never costs more than the hub\n")


def test_planar_phi_region_emission(capsys, tmp_path):
    out_dir = tmp_path / "planar"
    code, out, err = run_cli(capsys, [
        "planar-phi", "--motifs", "K12,C3", "--s", "2.0,8.0",
        "--out", str(out_dir), "--emit-region", "region.csv",
        "--emit-curves", "curves.json"])
    assert code == 0
    header, rows = read_csv(out_dir / "region.csv")
    assert header == ["a", "b", "feasible", "objective"]
    assert len(rows) == 101 * 101
    assert {r[2] for r in rows} == {"0", "1"}
    curves = json.loads((out_dir / "curves.json").read_text())
    assert [c["name"] for c in curves["curves"]] == ["K12", "C3"]
    for c in curves["curves"]:
        assert len(c["points"]) >= 2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cliquehub.cli",
                           "planar-phi", "--motifs", "C3", "--s", "1.0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("command", [
    ["psi", "--hamiltonian", "{ham}"],
    ["nmf", "--n", "8", "--p", "0.2", "--hamiltonian", "{ham}"],
    ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
     "--hamiltonian", "{ham}"],
    ["finner-check", "--suite", "random", "--count", "2"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(capsys, tmp_path, command):
    # numpy's SeedSequence refuses negative entropy; the parser refuses it
    # first, with one usage line
    ham = triangle_file(tmp_path)
    argv = [a.format(ham=ham) for a in command] + ["--seed", "-1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage:")
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert err.splitlines()[-1].startswith("error:usage:argument --seed:")


def test_unusable_paths_are_domain_errors(capsys, tmp_path):
    # a directory where a file is read or written, a plain file where a
    # directory is made, and a path under a plain file: each is one
    # error:domain: line
    ham = triangle_file(tmp_path)
    folder = str(tmp_path / "dir")
    os.mkdir(folder)
    plain = str(tmp_path / "plain")
    open(plain, "w").close()
    under = os.path.join(plain, "sub")
    # the run record goes next to the emitted file
    record = str(tmp_path / "manifest.json")
    os.mkdir(record)
    cases = [
        (["hom-density", "--motif", "C3", "--table", folder],
         errno.EISDIR, folder),
        (["psi", "--hamiltonian", folder], errno.EISDIR, folder),
        (["finner-check", "--instance", folder], errno.EISDIR, folder),
        (["planar-phi", "--motifs", "C3", "--s", "1.0", "--out", plain,
          "--emit-region", "r.csv"], errno.EEXIST, plain),
        (["emit-figure", "--scenario", "fig2A", "--out", os.devnull],
         errno.EEXIST, os.devnull),
        (["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
          "--hamiltonian", ham, "--out", under, "--emit-traj", "t.csv"],
         errno.ENOTDIR, under),
    ]
    for argv, code, path in cases:
        line = "error:domain:[Errno %d] %s: %r\n" % (code, os.strerror(code),
                                                     path)
        assert run_cli(capsys, argv) == (1, "", line), argv
    # the run record is written before the result line, so a record that
    # cannot be written leaves stdout empty
    code, out, err = run_cli(capsys, ["planar-phi", "--motifs", "C3", "--s",
                                      "1.0", "--emit-region",
                                      str(tmp_path / "r.csv")])
    assert (code, out, err) == (1, "", "error:domain:[Errno %d] %s: %r\n"
                                % (errno.EISDIR, os.strerror(errno.EISDIR),
                                   record))


@pytest.mark.parametrize("command", [
    ["emit-figure", "--scenario", "fig2A"],
    ["edge-f", "--motif", "C3", "--gamma", "1.0", "--beta", "2.0",
     "--emit", "phase.csv"],
    ["nmf", "--n", "8", "--p", "0.2", "--hamiltonian", "{ham}",
     "--emit", "q.bin"],
    ["phi-np", "--n", "8", "--p", "0.2", "--motifs", "C3", "--s", "1.0",
     "--emit", "q.bin"],
    ["sample", "--n", "8", "--p", "0.2", "--sweeps", "1",
     "--hamiltonian", "{ham}", "--emit-traj", "t.csv"],
], ids=lambda argv: argv[0])
def test_an_unwritable_record_prints_no_result(capsys, tmp_path, command):
    # every command that emits files writes its record before printing
    ham = triangle_file(tmp_path)
    out_dir = tmp_path / "run"
    record = out_dir / "manifest.json"
    record.mkdir(parents=True)
    argv = [a.format(ham=ham) for a in command] + ["--out", str(out_dir)]
    assert run_cli(capsys, argv) == (
        1, "", "error:domain:[Errno %d] %s: %r\n"
        % (errno.EISDIR, os.strerror(errno.EISDIR), str(record)))


def test_manifest_names_files_by_path_from_the_record(capsys, tmp_path,
                                                       monkeypatch):
    # two emitted files with one basename keep their own digests: the
    # record sits next to the first file and names each by its path from
    # there (from the current directory for a bare file name)
    monkeypatch.chdir(tmp_path)
    os.mkdir("m1")
    os.mkdir("m2")

    def files(region, curves, folder):
        code, out, err = run_cli(capsys, [
            "planar-phi", "--motifs", "C3", "--s", "1.0",
            "--emit-region", region, "--emit-curves", curves])
        assert code == 0, err
        with open(os.path.join(folder, "manifest.json")) as fh:
            return json.load(fh)["files"]

    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    region, curves = os.path.join("m1", "x"), os.path.join("m2", "x")
    assert files(region, curves, "m1") == {
        "x": digest(region), os.path.join("..", "m2", "x"): digest(curves)}
    assert files("x", curves, ".") == {"x": digest("x"),
                                       curves: digest(curves)}
    assert digest(region) != digest(curves)
