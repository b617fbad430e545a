"""Tiny, fast checks of the benchmark harness; no benchmark command runs."""

import json
import os

import numpy as np
import pytest

import run
import workloads
from spans import Tracer


def test_benchmark_json_is_well_formed():
    with open(run.SPEC_PATH) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"]
                                              for m in spec["end_to_end"])


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert run.verdict(base, list(base), "lower", 0.1) == "unchanged"
    assert run.verdict(base, [v * 0.5 for v in base], "lower", 0.1) == "better"
    assert run.verdict(base, [v * 1.5 for v in base], "lower", 0.1) == "worse"
    assert run.verdict(base, [v * 1.5 for v in base], "higher", 0.1) == "better"
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    assert run.verdict(base, noisy, "lower", 0.1) == "unresolved"


def test_every_workload_command_parses(tmp_path):
    from cliquehub.cli import build_parser
    parser = build_parser()
    for name in workloads.NAMES:
        cmds = workloads.prepare(name, 3, str(tmp_path / name))
        assert len({c.label for c in cmds}) == len(cmds)
        for cmd in cmds:
            parser.parse_args(cmd.argv_for(str(tmp_path / "out")))


def test_oracles_agree_with_the_program():
    from cliquehub import finner
    from cliquehub.motifs import hom_density, motif_from_name
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((14, 14)) < 0.6, 1)
    adj = (upper | upper.T).astype(float)
    for name in workloads.HOM_MOTIFS:
        assert workloads._hom_oracle(name, adj) == pytest.approx(
            hom_density(motif_from_name(name), adj), rel=1e-12)
    inst = finner.instance_from_dict(workloads._tensor_instance(rng))
    assert finner.finner_integral(inst) == pytest.approx(1.0, abs=1e-12)


def test_traced_command_matches_untraced_and_spans_nest(tmp_path):
    import cliquehub.cli as cli
    import cliquehub.nmf as nmf
    argv = ["planar-phi", "--motifs", "K12,C3", "--s", "2.0,8.0",
            "--out", str(tmp_path), "--emit-curves", "curves.json"]
    original = cli.main
    plain = run._run_inprocess(cli, nmf, argv)
    with open(tmp_path / "curves.json", "rb") as fh:
        plain_curves = fh.read()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run._run_inprocess(cli, nmf, argv)
    finally:
        tracer.remove()
    assert cli.main is original
    assert traced[:2] == plain[:2]
    with open(tmp_path / "curves.json", "rb") as fh:
        assert fh.read() == plain_curves

    name, dur, self_time = tracer.arrays()
    names = [tracer.names[i] for i in name]
    assert names[0] == "cli.main" and "planar.solve" in names
    assert tracer.parent[0] == -1 and all(p >= 0 for p in tracer.parent[1:])
    assert self_time.min() >= 0.0
    assert self_time.sum() == pytest.approx(dur[0], rel=1e-9)
    # solving and writing the files are below cli.main; parsing is not
    assert 0.0 < run._covered(tracer, 0) < dur[0]

    layers = run.layer_metrics(tracer, 0, dict(tracer.counts), traced[2], 1.0)
    with open(run.SPEC_PATH) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    added_by_the_run = {"cli.import_s", "cli.import.scipy_optimize_s",
                        "cli.offcpu_s", "trace.overhead_s"}
    assert wanted - added_by_the_run <= set(layers)
    # phi_solve and the region emitter solve once each
    assert layers["planar.solve.calls"] == 2
    assert layers["planar.phi_region_emit.calls"] == 1
    assert layers["cli.main.calls"] == 1


def test_harness_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "cli-short", "--seconds", "1"]) == 2
    assert not os.path.exists(tmp_path / "src")
