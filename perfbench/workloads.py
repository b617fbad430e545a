"""The benchmark's workloads.

Each workload turns a seed into input files, lists the cliquehub command
lines that use them, and checks every command's output.  The checks hold
for any seed; the seed-0 outputs are also compared with the values pinned
in pinned.json.

Workload choice (see NOTES.md for the per-layer predictions):

* sample-tilted: heat-bath sampling at n=100 under a K12+C3 tilt.  Most of a
  sweep is toggle deltas, and K12+C3 runs both the star and the cycle delta
  paths; the command ends with a full psi solve.
* cli-short: many short commands, where interpreter start-up and imports
  dominate; the only workload that runs the Finner checks, the mean-field
  solvers, a 3-motif psi solve (thousands of planar corner solves) and the
  one-shot planar, edge-f and hom-density paths.  No sampler runs.
"""

import csv
import json
import math
import os
import struct

import numpy as np

NAMES = ("sample-tilted", "cli-short")

# growth condition: gamma < max degree / edge count of the motif
GAMMA_RANGE = {"K12": (0.4, 0.8), "C3": (0.3, 0.55), "C4": (0.2, 0.4)}
FIGURES = ("fig2A", "fig2B", "fig2C", "fig2D", "fig3")
FIGURE_FAMILY = ["K12", "C3", "C4"]
HOM_MOTIFS = ("C3", "C4", "K4", "K13")

SAMPLE_N, SAMPLE_P = 100, 0.1
SAMPLE_SWEEPS, SAMPLE_THIN, SAMPLE_CHAINS = 2, 2, 2
MF_N, MF_P = 64, 0.2
TABLE_N = 200
FINNER_COUNT = 1000

REL = 1e-9


class CheckFailed(Exception):
    """A command's output broke one of the workload's checks."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(a, b, rel=REL):
    return abs(a - b) <= rel * (1.0 + abs(b))


OUT = "{out}"


class Command:
    """One cliquehub command line plus the check of its output.

    argv is what follows the program name; OUT in it stands for the
    command's own output directory.  check(payload, out_dir) raises
    CheckFailed; payload is the parsed stdout line.  pin(payload, out_dir)
    gives the values compared with pinned.json for seed 0.
    """

    def __init__(self, label, argv, check, pin):
        self.label = label
        self.argv = argv
        self.check = check
        self.pin = pin

    def argv_for(self, out_dir):
        return [out_dir if a == OUT else a for a in self.argv]


def fields(*keys):
    return lambda payload, out_dir: {k: payload[k] for k in keys}


# ---------------------------------------------------------------------------
# inputs


def _round(x):
    return float("%.6g" % x)


def _hamiltonian(rng, family):
    terms = []
    for k, name in enumerate(family):
        lo, hi = GAMMA_RANGE[name]
        terms.append({"k": k, "beta": _round(rng.uniform(0.3, 0.8)),
                      "shift": _round(rng.uniform(0.9, 1.2)),
                      "gamma": _round(rng.uniform(lo, hi))})
    return {"family": list(family), "terms": terms}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _write_table(path, adj):
    """Binary weight table: u32 vertex count, then the strict lower
    triangle row-major as little-endian float64."""
    n = adj.shape[0]
    tri = adj[np.tril_indices(n, k=-1)]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", n) + tri.astype("<f8").tobytes())
    return path


def _read_table(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    (n,) = struct.unpack("<I", blob[:4])
    x = np.zeros((n, n))
    x[np.tril_indices(n, k=-1)] = np.frombuffer(blob[4:], dtype="<f8")
    return x + x.T


def _tensor_instance(rng):
    """A product-measure instance where the Finner bound is an equality:
    every function is a product of unit-mean per-coordinate factors, and
    singleton sets top each coordinate's covering weight up to exactly 1."""
    n = int(rng.integers(3, 5))
    spaces, factors = [], []
    for _ in range(n):
        mass = rng.random(int(rng.integers(2, 5))) + 0.1
        mass /= mass.sum()
        h = rng.random(mass.size) + 0.25
        spaces.append(mass)
        factors.append(h / float(mass @ h))
    sets = [sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                              replace=False))
            for _ in range(3)]
    raw = rng.random(len(sets)) + 0.05
    load = np.zeros(n)
    for a, lam in zip(sets, raw):
        load[a] += lam
    scale = 0.9 / max(1.0, load.max())
    system = [(a, float(lam * scale)) for a, lam in zip(sets, raw)]
    system += [([v], float(1.0 - load[v] * scale)) for v in range(n)]
    functions = []
    for idx, (a, _) in enumerate(system):
        f = np.array(1.0)
        for v in a:
            f = np.multiply.outer(f, factors[v])
        functions.append({"A_index": idx, "values": f.ravel().tolist()})
    return {"spaces": [m.tolist() for m in spaces],
            "system": [{"A": a, "lambda": lam} for a, lam in system],
            "functions": functions}


# ---------------------------------------------------------------------------
# checks shared by several commands


def _emitted(out_dir, name):
    path = os.path.join(out_dir, name)
    require(os.path.isfile(path), "missing emitted file %s" % name)
    return path


def _finite(payload, *keys):
    for key in keys:
        require(isinstance(payload.get(key), (int, float))
                and math.isfinite(payload[key]), "%s is not finite" % key)


def _check_psi(payload, out_dir):
    _finite(payload, "psi", "psi_direct", "psi_dual", "duality_gap")
    psi = payload["psi"]
    require(payload["duality_gap"] <= 1e-6 * (1.0 + abs(psi)),
            "psi direct-vs-dual gap %g too large" % payload["duality_gap"])
    require(psi == max(payload["psi_direct"], payload["psi_dual"]),
            "psi is not the larger of its two routes")


def _phi_solve(motifs, s):
    from cliquehub.planar import phi_solve
    return phi_solve(motifs, s).value


# ---------------------------------------------------------------------------
# the workloads


def _sample_tilted(rng, seed, in_dir):
    family = ["K12", "C3"]
    ham = _write_json(os.path.join(in_dir, "h_sample.json"),
                      _hamiltonian(rng, family))

    def last_row(out_dir):
        with open(_emitted(out_dir, "traj.csv")) as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == SAMPLE_CHAINS * (SAMPLE_SWEEPS // SAMPLE_THIN),
                "traj.csv row count")
        return rows[-1]

    def check(payload, out_dir):
        from cliquehub.motifs import hom_density, motif_from_name
        summary = payload["summary"]
        require("limit_error" not in summary, "sample psi solve failed")
        require(summary["cache_drift"] <= 1e-9,
                "cache drift %g" % summary["cache_drift"])
        last = last_row(out_dir)
        adj = _read_table(_emitted(out_dir, "final.bin"))
        require(int(last["edges"]) == int(round(adj.sum() / 2)),
                "last row edge count differs from the final graph")
        for k, name in enumerate(family):
            fresh = hom_density(motif_from_name(name), adj, scale=SAMPLE_P,
                                engine="generic")
            cached = float(last["t_%d" % (k + 1)])
            require(close(cached, fresh),
                    "t_%d=%r but the final graph recounts to %r"
                    % (k + 1, cached, fresh))

    def pin(payload, out_dir):
        return {"rows": payload["rows"],
                "last_row": {k: float(v) for k, v in last_row(out_dir).items()}}

    return [Command("sample",
                    ["sample", "--n", str(SAMPLE_N), "--p", str(SAMPLE_P),
                     "--hamiltonian", ham, "--sweeps", str(SAMPLE_SWEEPS),
                     "--thin", str(SAMPLE_THIN),
                     "--chains", str(SAMPLE_CHAINS), "--detect",
                     "--seed", str(seed), "--out", OUT,
                     "--emit-traj", "traj.csv", "--emit-graph", "final.bin"],
                    check, pin)]


def _hom_oracle(name, adj):
    """Homomorphism density of a binary graph by plain matrix algebra."""
    n = adj.shape[0]
    if name == "C3":
        total = np.trace(adj @ adj @ adj)
    elif name == "C4":
        total = np.sum((adj @ adj) ** 2)
    elif name == "K13":
        total = np.sum(adj.sum(axis=1) ** 3)
    else:  # K4: ordered 4-cliques through each ordered edge (i, j)
        total = 0.0
        for i in range(n):
            common = adj[np.flatnonzero(adj[i])] * adj[i][None, :]
            total += float(np.sum((common @ adj) * common))
    return float(total) / n ** (3 if name == "C3" else 4)


def _cli_short(rng, seed, in_dir):
    from cliquehub.cli import FIGURE_SCENARIOS
    upper = np.triu(rng.random((TABLE_N, TABLE_N)) < rng.uniform(0.15, 0.25), 1)
    adj = (upper | upper.T).astype(float)
    table = _write_table(os.path.join(in_dir, "graph.bin"), adj)
    inst = _write_json(os.path.join(in_dir, "inst.json"), _tensor_instance(rng))
    s2 = [_round(rng.uniform(1.0, 4.0)), _round(rng.uniform(4.0, 12.0))]
    gamma = _round(rng.uniform(0.3, 0.6))
    beta = _round(rng.uniform(0.5, 2.0))
    ham = _write_json(os.path.join(in_dir, "h_nmf.json"),
                      _hamiltonian(rng, ["K12", "C3"]))
    s_phi = _round(rng.uniform(0.5, 2.0))
    ham3 = _write_json(os.path.join(in_dir, "h_psi.json"),
                       _hamiltonian(rng, FIGURE_FAMILY))

    def check_figure(scenario):
        def check(payload, out_dir):
            want = _phi_solve(FIGURE_FAMILY, FIGURE_SCENARIOS[scenario])
            require(payload["phi"] == want, "figure phi differs from phi_solve")
            with open(_emitted(out_dir, "line.json")) as fh:
                require(json.load(fh)["phi"] == want, "line.json phi")
            for name in ("region.csv", "curves.json", "optimizers.csv"):
                _emitted(out_dir, name)
        return check

    def check_planar(payload, out_dir):
        require(payload["value"] == _phi_solve(["K12", "C3"], s2),
                "planar-phi value differs from phi_solve")
        with open(_emitted(out_dir, "region.csv")) as fh:
            require(sum(1 for _ in fh) == 101 * 101 + 1, "region.csv rows")
        with open(_emitted(out_dir, "curves.json")) as fh:
            require(len(json.load(fh)["curves"]) == 2, "curves.json curves")

    def check_edge_f(payload, out_dir):
        _finite(payload, "psi", "beta_c")
        with open(_emitted(out_dir, "phase.csv")) as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == payload["rows"] == 7, "edge-f grid rows")
        require(float(rows[-1]["psi"]) == payload["psi"], "edge-f last psi")

    def check_hom(name):
        def check(payload, out_dir):
            want = _hom_oracle(name, adj)
            require(payload["n"] == TABLE_N, "hom-density n")
            require(close(payload["value"], want), "hom-density %s=%r, "
                    "oracle %r" % (name, payload["value"], want))
        return check

    def check_nmf(payload, out_dir):
        _finite(payload, "value", "witness_value")
        require(payload["value"] >= payload["witness_value"] - 1e-9,
                "nmf value below its witness")
        _emitted(out_dir, "q.bin")

    def check_phi_np(payload, out_dir):
        _finite(payload, "value", "witness_value")
        require(payload["value"] <= payload["witness_value"] + 1e-9,
                "phi-np value above its witness")
        require(payload["residuals"] == 0.0, "phi-np residual is not zero")
        _emitted(out_dir, "q.bin")

    def check_suite(payload, out_dir):
        require(payload["all_ok"] is True, "finner suite not all_ok")
        require(payload["count"] == FINNER_COUNT, "finner suite count")

    def check_instance(payload, out_dir):
        require(payload["bound_ok"] is True, "finner bound fails")
        require(close(payload["integral"], 1.0),
                "tensor instance integral %r is not 1" % payload["integral"])
        require(max(payload["residuals"]) <= 1e-9, "recovery residual")

    cmds = [Command("figure-" + sc,
                    ["emit-figure", "--scenario", sc, "--out", OUT],
                    check_figure(sc), fields("phi"))
            for sc in FIGURES]
    cmds.append(Command(
        "planar-phi", ["planar-phi", "--motifs", "K12,C3",
                       "--s", ",".join(map(repr, s2)), "--out", OUT,
                       "--emit-region", "region.csv",
                       "--emit-curves", "curves.json"],
        check_planar, fields("value")))
    cmds.append(Command(
        "edge-f", ["edge-f", "--motif", "C3", "--gamma", repr(gamma),
                   "--beta-grid", "1.0:2.5:0.25", "--out", OUT,
                   "--emit", "phase.csv"],
        check_edge_f, fields("psi", "beta_c", "s_c")))
    cmds.append(Command(
        "edge-f-K12", ["edge-f", "--motif", "K12", "--gamma", repr(gamma),
                       "--beta", repr(beta)],
        lambda payload, out_dir: _finite(payload, "psi"), fields("psi")))
    for name in HOM_MOTIFS:
        cmds.append(Command(
            "hom-" + name, ["hom-density", "--motif", name, "--table", table],
            check_hom(name), fields("value")))
    # the optimizer list is not pinned: near-duplicate points are reported
    cmds.append(Command(
        "psi", ["psi", "--hamiltonian", ham3, "--seed", str(seed)],
        _check_psi, fields("psi")))
    cmds.append(Command(
        "nmf", ["nmf", "--n", str(MF_N), "--p", str(MF_P),
                "--hamiltonian", ham, "--seed", str(seed), "--out", OUT,
                "--emit", "q.bin"],
        check_nmf, fields("value", "witness_value")))
    cmds.append(Command(
        "phi-np", ["phi-np", "--n", str(MF_N), "--p", str(MF_P),
                   "--motifs", "C3", "--s", repr(s_phi), "--seed", str(seed),
                   "--out", OUT, "--emit", "q.bin"],
        check_phi_np, fields("value", "witness_value")))
    cmds.append(Command(
        "finner-suite", ["finner-check", "--suite", "random",
                         "--count", str(FINNER_COUNT), "--seed", str(seed)],
        check_suite, fields("max_integral")))
    cmds.append(Command(
        "finner-instance", ["finner-check", "--instance", inst, "--recover"],
        check_instance, fields("integral")))
    return cmds


_BUILDERS = {"sample-tilted": _sample_tilted, "cli-short": _cli_short}


def prepare(name, seed, in_dir):
    """Write the workload's inputs for this seed into in_dir and return its
    command list."""
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(NAMES.index(name),)))
    return _BUILDERS[name](rng, seed, in_dir)
