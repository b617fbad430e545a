"""Command-line entry point wiring all solvers and emitters together.

Every run is deterministic: all randomness flows from --seed.  `sample`
gives chain k a Philox stream on SeedSequence(entropy=seed, spawn_key=(k,)),
`finner-check --suite` draws instance k from default_rng on the same
sub-seed, and `psi` (dual starts) and `nmf` (random starts) draw from
default_rng(seed); the other commands draw nothing.  Emitted CSV and JSON
files format floats with Python's shortest round-trip repr, so reruns with
the same inputs are byte-identical; a manifest.json records the resolved
configuration and a sha256 digest per output file.

Each subcommand returns (exit code, payload); main writes the manifest and
only then prints the payload, so stdout holds one JSON line or nothing.

Exit codes: 0 success, 1 domain or validation problem, 2 capability limit,
3 a broken internal invariant.
Errors print one machine-parsable line to stderr: error:<kind>:<message>.
"""

import argparse
import csv
import datetime
import importlib
import json
import math
import os
import sys

from . import __version__
from .errors import CapabilityError, CliqueHubError, DomainError


def _engine(module, name):
    """A stand-in for `name` from the engine module `module` that imports
    the module on its first call, so a command loads only the engines it
    runs.  The commands call these module globals, which the benchmark's
    tracer rebinds."""
    def forward(*args, **kwargs):
        home = importlib.import_module("." + module, __package__)
        return getattr(home, name)(*args, **kwargs)
    forward.__name__ = forward.__qualname__ = name
    return forward


hom_density = _engine("motifs", "hom_density")
phi_solve = _engine("planar", "phi_solve")
phi_region_emit = _engine("planar", "phi_region_emit")
psi_solve = _engine("hamiltonian", "psi_solve")
edge_f_solve = _engine("hamiltonian", "edge_f_solve")
load_hamiltonian = _engine("hamiltonian", "load_hamiltonian")
nmf_solve = _engine("nmf", "nmf_solve")
phi_np_solve = _engine("nmf", "phi_np_solve")
run_experiment = _engine("sampler", "run_experiment")


FIGURE_SCENARIOS = {
    "fig2A": (2.0, 15.0, 100.0),
    "fig2B": (2.0, 24.0, 100.0),
    "fig2C": (4.0, 25.0, 100.0),
    "fig2D": (4.0, 31.5, 100.0),
    "fig3": (12.0, 88.0, 1000.0),
}
FIGURE_FAMILY = ("K12", "C3", "C4")
# one edge-f solve takes a few milliseconds, so this is about a minute
BETA_GRID_MAX_POINTS = 10000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error:usage:%s\n" % message.replace("\n", " "))
        raise SystemExit(1)


def _plain(obj):
    """json's hook for numpy values: an array becomes a list, a numpy scalar
    its Python value.  np.float64 is a float and never reaches here."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _emit(payload):
    """Stdout is always one line of compact JSON."""
    print(json.dumps(payload, separators=(",", ":"), default=_plain))


def _sha256(path):
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


class Manifest:
    """Collects emitted files and writes the run record."""

    def __init__(self, argv, args, out_dir=None):
        self.command = list(argv)
        self.args = args  # read at finish, after the command fills defaults
        self.seed = getattr(args, "seed", None)
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.out_dir = out_dir
        self.files = {}  # path as written -> sha256

    def resolve(self, name):
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            return os.path.join(self.out_dir, name)
        return name

    def add(self, path):
        self.files[path] = _sha256(path)

    def write_text(self, name, text):
        path = self.resolve(name)
        with open(path, "w") as fh:
            fh.write(text)
        self.add(path)
        return path

    def write_bytes(self, name, blob):
        path = self.resolve(name)
        with open(path, "wb") as fh:
            fh.write(blob)
        self.add(path)
        return path

    def write_csv(self, name, header, rows):
        # cells are str, int, float or None; csv writes a float by its repr
        path = self.resolve(name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.add(path)
        return path

    def finish(self):
        import hashlib
        if not self.files:
            return None
        if self.out_dir is not None:
            folder = self.out_dir
        else:
            # without --out the record goes next to the first file it hashes
            folder = os.path.dirname(next(iter(self.files)))
        # keys are relative to the record, so files with one basename in
        # two folders keep their own digests
        files = {os.path.relpath(path, folder or os.curdir): digest
                 for path, digest in self.files.items()}
        combined = hashlib.sha256()
        for name in sorted(files):
            combined.update(("%s:%s\n" % (name, files[name])).encode())
        body = {
            "command": self.command,
            "config": {k: v for k, v in sorted(vars(self.args).items())
                       if k != "func" and v is not None},
            "seed": self.seed,
            "version": __version__,
            "started": self.started,
            "finished": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "files": files,
            "digest": combined.hexdigest(),
        }
        path = os.path.join(folder, "manifest.json")
        with open(path, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _load_table(path):
    from .motifs import WeightTable, load_json
    if path.endswith(".json"):
        return WeightTable.from_json_dict(load_json(path, "weight table"))
    with open(path, "rb") as fh:
        return WeightTable.from_bytes(fh.read())


def _motif_list(text):
    from .motifs import resolve_motif
    return [resolve_motif(name.strip()) for name in text.split(",")
            if name.strip()]


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as bad:
        raise DomainError("bad float list: %s" % bad)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_hom_density(args, manifest):
    from .motifs import resolve_motif
    motif = resolve_motif(args.motif)
    table = _load_table(args.table)
    value = hom_density(motif, table, scale=args.scale, engine=args.engine)
    return 0, {"motif": motif.name, "n": table.n, "scale": args.scale,
               "value": value}


def _write_region(manifest, motifs, s, region_name, curves_name):
    """Write the feasibility grid as CSV and the per-motif boundary curves
    as JSON; a None name skips that file."""
    rows, curves = phi_region_emit(motifs, s)
    if region_name:
        manifest.write_csv(region_name, ["a", "b", "feasible", "objective"],
                           [(a, b, int(ok), obj) for a, b, ok, obj in rows])
    if curves_name:
        doc = {"curves": [{"motif": k, "name": motifs[k].name,
                           "points": curves[k]} for k in sorted(curves)]}
        manifest.write_text(curves_name,
                            json.dumps(doc, separators=(",", ":")) + "\n")


def cmd_planar_phi(args, manifest):
    motifs = _motif_list(args.motifs)
    s = _float_list(args.s)
    sol = phi_solve(motifs, s)
    if args.emit_region or args.emit_curves:
        _write_region(manifest, motifs, s, args.emit_region, args.emit_curves)
    return 0, {"value": sol.value,
               "optimizers": [[o.a, o.b] for o in sol.optimizers]}


def cmd_psi(args, manifest):
    spec = load_hamiltonian(args.hamiltonian)
    sol = psi_solve(spec, seed=args.seed)
    return 0, {"psi": sol.psi, "psi_direct": sol.psi_direct,
               "psi_dual": sol.psi_dual, "duality_gap": sol.duality_gap,
               "optimizers": sol.optimizers, "s_star": sol.s_star,
               "warnings": sol.warnings}


def cmd_edge_f(args, manifest):
    from .motifs import resolve_motif
    from .hamiltonian import EdgeFModel
    motif = resolve_motif(args.motif)
    if args.beta is None and not args.beta_grid:
        raise DomainError("edge-f wants --beta or --beta-grid")
    if args.beta_grid:
        try:
            lo, hi, step = (float(v) for v in args.beta_grid.split(":"))
        except ValueError:
            raise DomainError("--beta-grid wants lo:hi:step")
        if (not all(math.isfinite(v) for v in (lo, hi, step))
                or step <= 0 or hi < lo):
            raise DomainError("--beta-grid wants finite lo <= hi and step > 0")
        # whole steps from lo to hi, forgiving rounding up to a billionth
        # of a step; int(steps) + 1 points, checked while steps is a float
        # that may be too large for an int
        steps = (hi - lo) / step + 1e-9
        if steps >= BETA_GRID_MAX_POINTS:
            raise CapabilityError("--beta-grid limited to %d points"
                                  % BETA_GRID_MAX_POINTS)
        betas = [lo + k * step for k in range(int(steps) + 1)]
    else:
        betas = [args.beta]
    rows = []
    last = None
    for beta in betas:
        sol = edge_f_solve(EdgeFModel(motif, beta, args.gamma, args.shift))
        rows.append((beta, sol.phase, sol.s_star, sol.a_star, sol.b_star,
                     sol.psi))
        last = sol
    if args.emit:
        manifest.write_csv(args.emit,
                           ["beta", "phase", "s_star", "a_star", "b_star",
                            "psi"], rows)
    return 0, {"phase": last.phase, "s_star": last.s_star,
               "a_star": last.a_star, "b_star": last.b_star,
               "psi": last.psi, "beta_c": last.beta_c, "s_c": last.s_c,
               "rows": len(rows)}


def cmd_nmf(args, manifest):
    from .nmf import NmfProblem
    spec = load_hamiltonian(args.hamiltonian)
    prob = NmfProblem(args.n, args.p, spec=spec)
    sol = nmf_solve(prob, seed=args.seed)
    if args.emit:
        manifest.write_bytes(args.emit, sol.table.to_bytes())
    return 0, {"value": sol.value,
               "iterations": sol.diagnostics["iterations"],
               "residuals": sol.grad_norm,
               "witness_value": sol.diagnostics["witness_value"],
               "warnings": sol.warnings}


def cmd_phi_np(args, manifest):
    from .nmf import NmfProblem
    motifs = _motif_list(args.motifs)
    s = _float_list(args.s)
    prob = NmfProblem(args.n, args.p, s=s, family=tuple(motifs))
    sol = phi_np_solve(prob)
    if args.emit:
        manifest.write_bytes(args.emit, sol.table.to_bytes())
    return 0, {"value": sol.value,
               "iterations": len(sol.diagnostics["candidates"]),
               "residuals": sol.residual,
               "witness_value": sol.diagnostics["witness_value"],
               "selected": sol.diagnostics["selected"]}


def cmd_sample(args, manifest):
    from .motifs import WeightTable
    from .sampler import DELTA_HUB, XI
    # the defaults live in sampler; the manifest records the values used
    if args.delta_hub is None:
        args.delta_hub = DELTA_HUB
    if args.xi is None:
        args.xi = XI
    spec = load_hamiltonian(args.hamiltonian) if args.hamiltonian else None
    result = run_experiment(
        n=args.n, p=args.p, sweeps=args.sweeps, spec=spec, chains=args.chains,
        burnin=args.burnin, thin=args.thin, seed=args.seed,
        delta_hub=args.delta_hub, xi=args.xi, detect=args.detect)
    if args.emit_traj:
        manifest.write_csv(args.emit_traj, result.columns, result.rows)
    if args.emit_graph:
        manifest.write_bytes(args.emit_graph,
                             WeightTable(result.final).to_bytes())
    return 0, {"rows": len(result.rows), "summary": result.summary}


def cmd_finner_check(args, manifest):
    from . import finner
    if args.instance is None and args.suite is None:
        raise DomainError("finner-check wants --instance or --suite")
    if args.instance is not None:
        inst = finner.load_instance(args.instance)
        value = finner.finner_integral(inst)
        ok = value <= 1.0 + 1e-10
        payload = {"integral": value, "bound_ok": ok, "classes": inst.classes}
        if args.recover:
            family, residuals = finner.recover_factors(inst)
            payload["residuals"] = residuals
            payload["factors"] = {
                ",".join(str(v) for v in members): h.ravel()
                for members, h in family.items()}
        return (0 if ok else 1), payload
    if args.suite != "random":
        raise DomainError("unknown suite %r" % args.suite)
    if args.count < 1:
        raise DomainError("--count must be at least 1")
    import numpy as np
    worst = 0.0
    for k in range(args.count):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=args.seed, spawn_key=(k,)))
        inst = finner.random_instance(rng)
        worst = max(worst, finner.finner_integral(inst))
    ok = worst <= 1.0 + 1e-10
    return (0 if ok else 1), {"count": args.count, "max_integral": worst,
                              "all_ok": ok}


def cmd_emit_figure(args, manifest):
    from .planar import DEDUP_TOL
    if args.scenario not in FIGURE_SCENARIOS:
        raise DomainError("unknown scenario %r (choices: %s)"
                          % (args.scenario,
                             ", ".join(sorted(FIGURE_SCENARIOS))))
    s = FIGURE_SCENARIOS[args.scenario]
    motifs = _motif_list(",".join(FIGURE_FAMILY))
    sol = phi_solve(motifs, s)
    _write_region(manifest, motifs, s, "region.csv", "curves.json")
    opt_rows = [(o.a, o.b, 0.5 * o.a + o.b, 0, 0.0) for o in sol.optimizers]
    runner = None
    taken = [(o.a, o.b) for o in sol.optimizers]
    for a, b, obj in sorted(sol.candidates, key=lambda r: r[2]):
        if any(abs(a - x) + abs(b - y) <= DEDUP_TOL for x, y in taken):
            continue
        runner = (a, b, obj, 1, obj - sol.value)
        break
    if runner is not None:
        opt_rows.append(runner)
    manifest.write_csv("optimizers.csv",
                       ["a", "b", "objective", "near_tie", "gap"], opt_rows)
    line_doc = {"phi": sol.value, "coefficients": [0.5, 1.0],
                "equation": "0.5*a + b = phi", "s": list(s)}
    manifest.write_text("line.json",
                        json.dumps(line_doc, separators=(",", ":")) + "\n")
    return 0, {"scenario": args.scenario, "phi": sol.value,
               "optimizers": [[o.a, o.b] for o in sol.optimizers],
               "rows": len(opt_rows)}


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def _seed(text):
    """--seed: numpy's SeedSequence takes non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            "invalid seed %r: want a non-negative integer" % text)
    return value


def _common(sub):
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--out", default=None, help="directory for emitted files")


def build_parser():
    parser = _Parser(prog="cliquehub",
                     description="clique-hub variational solvers, samplers, "
                                 "and inequality checks")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("hom-density", parents=[], help="motif density")
    sub.add_argument("--motif", required=True)
    sub.add_argument("--table", required=True)
    sub.add_argument("--scale", type=float, default=1.0)
    sub.add_argument("--engine", default="auto")
    _common(sub)
    sub.set_defaults(func=cmd_hom_density)

    sub = subs.add_parser("planar-phi", help="planar variational problem")
    sub.add_argument("--motifs", required=True)
    sub.add_argument("--s", required=True)
    sub.add_argument("--emit-region", default=None)
    sub.add_argument("--emit-curves", default=None)
    _common(sub)
    sub.set_defaults(func=cmd_planar_phi)

    sub = subs.add_parser("psi", help="tilted optimization value")
    sub.add_argument("--hamiltonian", required=True)
    _common(sub)
    sub.set_defaults(func=cmd_psi)

    sub = subs.add_parser("edge-f", help="single-motif phase solver")
    sub.add_argument("--motif", required=True)
    sub.add_argument("--gamma", type=float, required=True)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--shift", type=float, default=1.0)
    sub.add_argument("--beta-grid", default=None, metavar="LO:HI:STEP")
    sub.add_argument("--emit", default=None)
    _common(sub)
    sub.set_defaults(func=cmd_edge_f)

    sub = subs.add_parser("nmf", help="mean-field upper bound")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--hamiltonian", required=True)
    sub.add_argument("--emit", default=None)
    _common(sub)
    sub.set_defaults(func=cmd_nmf)

    sub = subs.add_parser("phi-np", help="entropy under density floors")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--motifs", required=True)
    sub.add_argument("--s", required=True)
    sub.add_argument("--emit", default=None)
    _common(sub)
    sub.set_defaults(func=cmd_phi_np)

    sub = subs.add_parser("sample", help="heat-bath chains with detection")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--hamiltonian", default=None)
    sub.add_argument("--sweeps", type=int, required=True)
    sub.add_argument("--burnin", type=int, default=0)
    sub.add_argument("--chains", type=int, default=1)
    sub.add_argument("--thin", type=int, default=1)
    sub.add_argument("--detect", action="store_true")
    sub.add_argument("--delta-hub", type=float, default=None)
    sub.add_argument("--xi", type=float, default=None)
    sub.add_argument("--emit-traj", default=None)
    sub.add_argument("--emit-graph", default=None)
    _common(sub)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("finner-check", help="product inequality checks")
    sub.add_argument("--instance", default=None)
    sub.add_argument("--recover", action="store_true")
    sub.add_argument("--suite", default=None)
    sub.add_argument("--count", type=int, default=100)
    _common(sub)
    sub.set_defaults(func=cmd_finner_check)

    sub = subs.add_parser("emit-figure", help="figure data bundles")
    sub.add_argument("--scenario", required=True)
    _common(sub)
    sub.set_defaults(func=cmd_emit_figure)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    if getattr(args, "command", None) is None or not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        sys.stderr.write("error:usage:missing command\n")
        return 1
    manifest = Manifest(argv, args, out_dir=getattr(args, "out", None))
    try:
        code, payload = args.func(args, manifest)
        manifest.finish()
        _emit(payload)
    except (OSError, CliqueHubError) as exc:
        # an OSError is a path that is missing, a directory, or under a
        # plain file: a domain error
        err = exc if isinstance(exc, CliqueHubError) else DomainError
        sys.stderr.write("error:%s:%s\n"
                         % (err.kind, str(exc).replace("\n", " ")))
        return err.exit_code
    return code


if __name__ == "__main__":
    sys.exit(main())
