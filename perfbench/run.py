"""cliquehub benchmark harness.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from the seed, then repeats its command sequence
until S seconds have passed, one command at a time (a closed loop with one
client).  With --trace 0 every command runs as `python -m cliquehub.cli` in a
fresh subprocess and the run reports the end-to-end metrics of
BENCHMARK.json.  With --trace 1 every command runs in this process through
cliquehub.cli.main, once plainly and once with spans recorded, and the run
reports the per-layer metrics.  Every command's output is checked.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --all [--record results.json]

runs every workload 10 times untraced (seeds 0..9), 3 more times untraced on
seed 0 and once traced, and prints each metric's median and quartiles with
its unit and sample count.

    python3 perfbench/run.py --compare OLD.json NEW.json

compares two such results files under the bounds in BENCHMARK.json.
"""

import os

# one BLAS/OpenMP thread, for the children and for this process; it must be
# set before numpy loads here
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_VARS)

import argparse
import collections
import contextlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# a `--version` set-up sample is taken between commands whenever this many
# seconds have passed since the last one, so the samples span the whole run
SETUP_EVERY_S = 4.0
# --all: untraced runs per workload on distinct seeds, plus same-seed repeats
# of seed 0 that separate host noise from input variation
RUNS = 10
REPEATS = 3
IMPORTTIME_REPS = 3
CHILD_TIMEOUT = 150.0
# pinned seed-0 values may move this much: solvers that iterate to a
# tolerance can take a slightly different path after a refactor
PIN_REL = 1e-6

import workloads  # noqa: E402  (numpy loads after the thread variables)


def _load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# environment record


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _calibration_s():
    """A fixed pure-Python loop that runs no cliquehub code; its time shows
    how fast this host was during the run."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return _median(times)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_vars": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")},
            "machine": platform.machine(),
            "calibration_s": _calibration_s()}


# ---------------------------------------------------------------------------
# running commands


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


ChildResult = collections.namedtuple(
    "ChildResult", "code stdout stderr wall cpu rss_mb")


def run_child(argv, env, log_dir):
    """Run one subprocess to completion and time it with os.wait4."""
    out_path = os.path.join(log_dir, "stdout")
    err_path = os.path.join(log_dir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=log_dir)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return ChildResult(proc.returncode, stdout, stderr, wall,
                       usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)


def cli_argv(args):
    return [sys.executable, "-m", "cliquehub.cli"] + list(args)


class Verifier:
    """Checks each command's output: exit code, the workload's check, pinned
    values for seed 0, and byte-identical stdout and emitted files on every
    later repetition of the same command."""

    def __init__(self, name, seed):
        self.first = {}
        self.outputs = {}
        self.failures = []
        self.pins = None
        if seed == 0:
            with open(os.path.join(HERE, "pinned.json")) as fh:
                self.pins = json.load(fh).get(name, {})

    def __call__(self, cmd, code, stdout, out_dir):
        try:
            workloads.require(code == 0, "exit code %d" % code)
            digest = _manifest_digest(out_dir)
            if cmd.label in self.first:
                workloads.require(self.first[cmd.label] == (stdout, digest),
                                  "output differs from the first repetition")
                return True
            payload = json.loads(stdout.decode().strip().splitlines()[-1])
            cmd.check(payload, out_dir)
            pinned = cmd.pin(payload, out_dir)
            if self.pins is not None:
                _compare_pins(self.pins.get(cmd.label), pinned)
            self.first[cmd.label] = (stdout, digest)
            self.outputs[cmd.label] = pinned
            return True
        except (workloads.CheckFailed, ValueError, KeyError, IndexError,
                TypeError, OSError) as exc:
            self.failures.append("%s: %s: %s" % (cmd.label,
                                                 type(exc).__name__, exc))
            return False


def _manifest_digest(out_dir):
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)["digest"]


def _compare_pins(want, got):
    workloads.require(want is not None, "no pinned value")
    if isinstance(want, dict):
        workloads.require(isinstance(got, dict) and set(want) == set(got),
                          "pinned keys differ")
        for key in want:
            _compare_pins(want[key], got[key])
    else:
        workloads.require(workloads.close(float(got), float(want), PIN_REL),
                          "value %r differs from pinned %r" % (got, want))


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def setup_time(env, log_dir):
    """Wall time of `cliquehub --version` in a fresh interpreter."""
    res = run_child(cli_argv(["--version"]), env, log_dir)
    if res.code != 0:
        raise SystemExit("cliquehub --version failed: %s"
                         % res.stderr.decode(errors="replace").strip())
    return res.wall


def run_untraced(name, seed, seconds):
    work = _fresh_dir(os.path.join(WORK, "%s-s%d-t0" % (name, seed)))
    env = _child_env()
    cmds = workloads.prepare(name, seed, os.path.join(work, "inputs"))
    setup_time(env, work)  # may write bytecode caches; not counted
    verify = Verifier(name, seed)
    rounds, cmd_walls, sample_rates, setup = [], {}, [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    last_setup = -math.inf
    while not rounds or time.perf_counter() - t_start < seconds:
        wall = cpu = rss = 0.0
        for cmd in cmds:
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                last_setup = time.perf_counter()
                setup.append(setup_time(env, work))
            out_dir = _fresh_dir(os.path.join(work, "out", cmd.label))
            res = run_child(cli_argv(cmd.argv_for(out_dir)), env, out_dir)
            attempted += 1
            failed += not verify(cmd, res.code, res.stdout, out_dir)
            wall += res.wall
            cpu += res.cpu
            rss = max(rss, res.rss_mb)
            cmd_walls.setdefault(cmd.label, []).append(res.wall)
            if cmd.label == "sample":
                sweeps = workloads.SAMPLE_CHAINS * workloads.SAMPLE_SWEEPS
                sample_rates.append(sweeps / res.wall)
        rounds.append((wall, cpu, rss))
    all_walls = [w for walls in cmd_walls.values() for w in walls]
    metrics = {
        "setup_s": (_median(setup), len(setup)),
        "wall_s": (_median([r[0] for r in rounds]), len(rounds)),
        "cpu_s": (_median([r[1] for r in rounds]), len(rounds)),
        "peak_rss_mb": (_median([r[2] for r in rounds]), len(rounds)),
        "cmd_p50_s": (_median(all_walls), len(all_walls)),
    }
    extra = {"failed_frac": (failed / attempted, "ratio", attempted)}
    if sample_rates:
        extra["sweeps_per_s"] = (_median(sample_rates), "1/s",
                                 len(sample_rates))
    return {"metrics": metrics, "extra": extra, "attempted": attempted,
            "failed": failed, "failures": verify.failures,
            "outputs": verify.outputs, "rounds": len(rounds),
            "commands": len(cmds),
            "samples": {"setup_s": setup, "rounds": rounds,
                        "cmd_s": cmd_walls}}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def import_times(env, log_dir):
    """cli.import_s and cli.import.scipy_optimize_s from -X importtime."""
    total, scipy_opt = [], []
    for _ in range(IMPORTTIME_REPS):
        res = run_child([sys.executable, "-X", "importtime", "-c",
                         "import cliquehub.cli"], env, log_dir)
        tops, opt = 0, 0
        for line in res.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue  # the header line
            cumulative, module = int(parts[1]), parts[2][1:].rstrip()
            if module == "cliquehub.cli":  # top level: includes the package
                tops = cumulative
            elif module.strip() == "scipy.optimize" and not opt:
                opt = cumulative
        total.append(tops / 1e6)
        scipy_opt.append(opt / 1e6)
    return _median(total), _median(scipy_opt)


def _run_inprocess(cli, nmf, argv):
    nmf.clear_phi_cache()  # phi-np caches solutions across calls
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue().encode(), wall, cpu


def _covered(tracer, root):
    """Time inside the spans directly below the `cli.main` span at index
    `root`: the command's wall time less parsing and the
    command functions' own glue code."""
    return sum(tracer.end[i] - tracer.start[i]
               for i in range(root + 1, len(tracer.start))
               if tracer.parent[i] == root)


def layer_metrics(tracer, first, counts_before, wall_traced, coverage):
    """Per-layer metrics of one traced round, from the spans recorded since
    index `first`."""
    import numpy as np
    name, dur, self_time = tracer.arrays(first)
    out = {}
    for sid, span in enumerate(tracer.names):
        mask = name == sid
        calls = int(mask.sum())
        total = float(dur[mask].sum())
        out[span + ".calls"] = calls
        out[span + ".self_s"] = float(self_time[mask].sum())
        out[span + ".per_call_us"] = 1e6 * total / calls if calls else 0.0
        out[span + ".total_s"] = total
    counts = {k: v - counts_before[k] for k, v in tracer.counts.items()}
    steps = counts["sampler.steps"]
    out["sampler.step_us"] = (1e6 * out["sampler.sweep.total_s"] / steps
                              if steps else 0.0)
    out["sampler.flip_ratio"] = counts["sampler.flips"] / steps if steps else 0.0
    out["sampler.sweeps_per_s"] = (
        out["sampler.sweep.calls"] / out["sampler.sweep.total_s"]
        if out["sampler.sweep.calls"] else 0.0)
    out["sampler.max_drift"] = tracer.max_drift
    out["nmf.pga_iterations"] = counts["nmf.pga_iterations"]
    # planar solves per psi solve, over the psi solves a command asks for
    # itself; the psi solve nmf_solve makes inside is left out
    parent = np.asarray(tracer.parent, dtype=np.int64)
    all_names = np.asarray(tracer.name, dtype=np.int64)
    psi_id = tracer.names.index("hamiltonian.psi_solve")
    nmf_id = tracer.names.index("nmf.nmf_solve")

    def ancestor(idx, sid):
        p = parent[idx]
        while p >= 0 and all_names[p] != sid:
            p = parent[p]
        return p

    own_psi = {int(idx) for idx in np.flatnonzero(name == psi_id) + first
               if ancestor(idx, nmf_id) < 0}
    inside = sum(ancestor(idx, psi_id) in own_psi
                 for idx in np.flatnonzero(name == tracer.names.index(
                     "planar.solve")) + first)
    out["hamiltonian.planar_solves_per_psi"] = (inside / len(own_psi)
                                                if own_psi else 0.0)
    out["planar.solve.share"] = out["planar.solve.self_s"] / wall_traced
    out["motifs.hom_density_delta.share"] = (
        out["motifs.hom_density_delta.self_s"] / wall_traced)
    out["trace.coverage"] = coverage
    return out


def run_traced(name, seed, seconds):
    import cliquehub.cli as cli
    import cliquehub.nmf as nmf
    from spans import Tracer

    work = _fresh_dir(os.path.join(WORK, "%s-s%d-t1" % (name, seed)))
    env = _child_env()
    cmds = workloads.prepare(name, seed, os.path.join(work, "inputs"))
    import_s, scipy_opt_s = import_times(env, work)
    verify = Verifier(name, seed)
    tracer = Tracer()
    # one unmeasured pass, so lazy imports and first-call costs fall on
    # neither side of the traced-minus-untraced difference
    for cmd in cmds:
        _run_inprocess(cli, nmf, cmd.argv_for(
            _fresh_dir(os.path.join(work, "warm", cmd.label))))
    rounds, labels = [], []
    attempted = failed = 0
    coverage_min = 1.0
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        first = len(tracer.start)
        counts_before = dict(tracer.counts)
        wall_plain = wall_traced = offcpu = covered = 0.0
        for cmd in cmds:
            plain_dir = _fresh_dir(os.path.join(work, "plain", cmd.label))
            traced_dir = _fresh_dir(os.path.join(work, "traced", cmd.label))
            runs = {}
            # alternate the order so warm-up costs fall on both sides
            for traced in ((False, True) if len(rounds) % 2 == 0
                           else (True, False)):
                out_dir = traced_dir if traced else plain_dir
                if traced:
                    tracer.current_command = len(labels)
                    span_first = len(tracer.start)
                    tracer.install()
                try:
                    runs[traced] = _run_inprocess(cli, nmf,
                                                  cmd.argv_for(out_dir))
                finally:
                    tracer.remove()
                if traced:
                    labels.append(cmd.label)
                    share = _covered(tracer, span_first) / runs[True][2]
                    coverage_min = min(coverage_min, share)
                    covered += share * runs[True][2]
            attempted += 1
            code, stdout, wall, cpu = runs[True]
            ok = verify(cmd, code, stdout, traced_dir)
            same = (runs[False][:2] == runs[True][:2] and
                    _manifest_digest(plain_dir) == _manifest_digest(traced_dir))
            if not same:
                verify.failures.append("%s: traced output differs from "
                                       "untraced" % cmd.label)
            failed += not (ok and same)
            wall_plain += runs[False][2]
            wall_traced += wall
            offcpu += wall - cpu
        layers = layer_metrics(tracer, first, counts_before, wall_traced,
                               covered / wall_traced)
        layers["cli.offcpu_s"] = offcpu
        layers["trace.overhead_s"] = wall_traced - wall_plain
        rounds.append(layers)
    tracer.save(os.path.join(work, "spans.npz"), labels)
    metrics = {"cli.import_s": (import_s, IMPORTTIME_REPS),
               "cli.import.scipy_optimize_s": (scipy_opt_s, IMPORTTIME_REPS)}
    for key in rounds[0]:
        metrics[key] = (_median([r[key] for r in rounds]), len(rounds))
    extra = {"trace.coverage_min": (coverage_min, "ratio", len(labels))}
    return {"metrics": metrics, "extra": extra, "attempted": attempted,
            "failed": failed, "failures": verify.failures,
            "outputs": verify.outputs, "rounds": len(rounds),
            "commands": len(cmds)}


# ---------------------------------------------------------------------------
# reporting


def run_one(name, seed, seconds, trace):
    spec = _load_spec()
    result = (run_traced if trace else run_untraced)(name, seed, seconds)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value, samples = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %14.6g %-6s n=%d" % (m["name"], value, m["unit"],
                                          samples))
    for key, (value, unit, samples) in result["extra"].items():
        print("%-40s %14.6g %-6s n=%d (not a BENCHMARK.json metric)"
              % (key, value, unit, samples))
    for failure in result["failures"]:
        print("check failed: %s" % failure)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "rounds": result["rounds"],
              "commands": result["commands"],
              "extra": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in result["extra"].items()},
              "failures": result["failures"], "outputs": result["outputs"],
              "samples": result.get("samples"),
              "environment": environment()}
    line = {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    record.update(line)
    print("workload=%s seed=%d trace=%d rounds=%d commands/round=%d "
          "calibration_s=%.4f" % (name, seed, int(trace), result["rounds"],
                                  result["commands"],
                                  record["environment"]["calibration_s"]))
    return record, line


def _summaries(records):
    """{workload: {metric: [values]}} over the given records."""
    out = {}
    for rec in records:
        per = out.setdefault(rec["workload"], {})
        for key, m in list(rec["metrics"].items()) + list(rec["extra"].items()):
            per.setdefault(key, []).append(m["value"])
    return out


def _untraced(doc):
    """The untraced records of a results file, one per seed."""
    return [r for r in doc["records"]
            if r["trace"] == 0 and not r.get("repeat")]


def run_all(seconds, record_path):
    spec = _load_spec()
    records = []
    plan = ([(s, 0, False) for s in range(RUNS)] +
            [(0, 0, True)] * REPEATS + [(0, 1, False)])
    with tempfile.TemporaryDirectory(dir=_fresh_dir(WORK)) as tmp:
        for name in workloads.NAMES:
            for seed, trace, repeat in plan:
                path = os.path.join(tmp, "run.json")
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload",
                     name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--record", path],
                    stdout=subprocess.DEVNULL, timeout=900)
                if proc.returncode != 0:
                    raise SystemExit("run failed: %s seed %d" % (name, seed))
                with open(path) as fh:
                    records.append(dict(json.load(fh), repeat=repeat))
                print("done %s seed=%d trace=%d" % (name, seed, trace),
                      file=sys.stderr)
    doc = {"environment": environment(), "runs_per_workload": RUNS,
           "same_seed_repeats": REPEATS,
           "seconds": seconds, "records": records}
    if record_path:
        with open(record_path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print_table(doc, spec)


def print_table(doc, spec):
    units = {m["name"]: m["unit"] for g in ("end_to_end", "per_layer")
             for m in spec[g]}
    groups = [("end-to-end (untraced, one run per seed)", _untraced(doc)),
              ("end-to-end (untraced, seed 0 repeated)",
               [r for r in doc["records"] if r["trace"] == 0 and r["seed"] == 0]),
              ("per-layer (traced)",
               [r for r in doc["records"] if r["trace"] == 1])]
    for title, recs in groups:
        print("\n%s" % title)
        for name, per in _summaries(recs).items():
            failed = sum(r["failed"] for r in recs if r["workload"] == name)
            attempted = sum(r["attempted"] for r in recs
                            if r["workload"] == name)
            print("  %s  (failed %d of %d commands)" % (name, failed,
                                                        attempted))
            for key, values in per.items():
                q1, q3 = _quartiles(values)
                unit = units.get(key) or next(
                    r["extra"][key]["unit"] for r in recs if key in r["extra"])
                med = _median(values)
                print("    %-40s median %12.6g  q1 %12.6g  q3 %12.6g  "
                      "spread %6.3f  %-6s n=%d"
                      % (key, med, q1, q3, (q3 - q1) / med if med else 0.0,
                         unit, len(values)))


# ---------------------------------------------------------------------------
# compare mode


def verdict(old, new, better, bound):
    """better / worse / unchanged / unresolved for two samples of a metric.

    `bound` is the share of the old median by which the metric may worsen;
    None means the metric has no bound and only separated quartiles count.
    """
    sign = 1.0 if better == "lower" else -1.0
    old = [sign * v for v in old]  # from here on, lower is better
    new = [sign * v for v in new]
    mo, mn = _median(old), _median(new)
    (o1, o3), (n1, n3) = _quartiles(old), _quartiles(new)
    spread = max((o3 - o1) / abs(mo) if mo else 0.0,
                 (n3 - n1) / abs(mn) if mn else 0.0)
    if bound is not None and spread > bound:
        if max(new) < min(old):
            return "better"
        if min(new) > max(old):
            return "worse"
        return "unresolved"
    if bound is not None and mn - mo > bound * abs(mo):
        return "worse"
    if n3 < o1 and mo - mn > o3 - o1:
        return "better"
    if bound is None and n1 > o3:
        return "worse"
    return "unchanged"


def compare(old_path, new_path):
    spec = _load_spec()
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [("failed_frac", "ratio", "lower", None),
                ("sweeps_per_s", "1/s", "higher", None)]
    so, sn = _summaries(_untraced(old)), _summaries(_untraced(new))
    print("%-14s %-12s %-6s %12s %23s %12s %23s %8s  %s"
          % ("workload", "metric", "unit", "old median", "old q1..q3",
             "new median", "new q1..q3", "ratio", "verdict"))
    for name in workloads.NAMES:
        for key, unit, better, bound in metrics:
            a, b = so.get(name, {}).get(key), sn.get(name, {}).get(key)
            if not a or not b:
                continue
            (a1, a3), (b1, b3) = _quartiles(a), _quartiles(b)
            ma, mb = _median(a), _median(b)
            ratio = mb / ma if ma else (1.0 if mb == ma else math.inf)
            print("%-14s %-12s %-6s %12.6g %11.5g..%-11.5g %12.6g "
                  "%11.5g..%-11.5g %8.4f  %s (n=%d/%d)"
                  % (name, key, unit, ma, a1, a3, mb, b1, b3, ratio,
                     verdict(a, b, better, bound), len(a), len(b)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="write the full run record (or, with --all, "
                             "the results file) here")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if not os.path.isfile(os.path.join(SRC, "cliquehub", "cli.py")):
        sys.stderr.write("error: no cliquehub sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    seconds = (args.seconds if args.seconds is not None
               else _load_spec()["run_seconds"])
    if args.all:
        run_all(seconds, args.record)
        return 0
    if args.workload is None:
        parser.error("--workload, --all or --compare is required")
    record, line = run_one(args.workload, args.seed, seconds, args.trace)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
