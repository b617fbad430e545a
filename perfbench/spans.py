"""Span recording for the traced benchmark run.

The tracer wraps public cliquehub functions under the name each caller looks
them up by (a module global or a class attribute), so no program code
changes.  Each call records one span: name, start, end, parent span and
command id.  Spans live in flat arrays in memory and are written once, when
the benchmark ends.  A span's self time is its duration minus the time its
child spans cover; calls on one thread nest, so the children of a span never
overlap.
"""

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, class or None, attribute, span name).  One entry per place a
# caller looks the function up; entries sharing a span name form one layer
# metric.
SPAN_SITES = (
    ("cliquehub.cli", None, "main", "cli.main"),
    # file input and output of the commands: tables, CSV, JSON, manifests
    ("cliquehub.cli", None, "_load_table", "cli.io"),
    ("cliquehub.cli", None, "_emit", "cli.io"),
    ("cliquehub.cli", "Manifest", "write_csv", "cli.io"),
    ("cliquehub.cli", "Manifest", "write_text", "cli.io"),
    ("cliquehub.cli", "Manifest", "write_bytes", "cli.io"),
    ("cliquehub.cli", "Manifest", "finish", "cli.io"),
    ("cliquehub.sampler", None, "hom_density_delta", "motifs.hom_density_delta"),
    ("cliquehub.sampler", None, "hom_density", "motifs.hom_density"),
    ("cliquehub.nmf", None, "hom_density", "motifs.hom_density"),
    ("cliquehub.cli", None, "hom_density", "motifs.hom_density"),
    ("cliquehub.nmf", None, "hom_density_grad", "motifs.hom_density_grad"),
    ("cliquehub.planar", None, "indep_poly", "motifs.indep_poly"),
    ("cliquehub.hamiltonian", None, "indep_poly", "motifs.indep_poly"),
    ("cliquehub.motifs", "IndepPoly", "inverse", "motifs.indep_poly"),
    ("cliquehub.planar", "PlanarProgram", "solve", "planar.solve"),
    ("cliquehub.cli", None, "phi_solve", "planar.phi_solve"),
    ("cliquehub.cli", None, "phi_region_emit", "planar.phi_region_emit"),
    ("cliquehub.cli", None, "psi_solve", "hamiltonian.psi_solve"),
    ("cliquehub.sampler", None, "psi_solve", "hamiltonian.psi_solve"),
    ("cliquehub.nmf", None, "psi_solve", "hamiltonian.psi_solve"),
    ("cliquehub.sampler", None, "h_value", "hamiltonian.h_value"),
    ("cliquehub.nmf", None, "h_value", "hamiltonian.h_value"),
    ("cliquehub.hamiltonian", None, "h_value", "hamiltonian.h_value"),
    ("cliquehub.cli", None, "edge_f_solve", "hamiltonian.edge_f_solve"),
    ("cliquehub.cli", None, "load_hamiltonian", "hamiltonian.load_hamiltonian"),
    ("cliquehub.cli", None, "nmf_solve", "nmf.nmf_solve"),
    ("cliquehub.cli", None, "phi_np_solve", "nmf.phi_np_solve"),
    ("cliquehub.nmf", None, "nmf_objective", "nmf.nmf_objective"),
    ("cliquehub.nmf", None, "nmf_gradient", "nmf.nmf_gradient"),
    ("cliquehub.cli", None, "run_experiment", "sampler.run_experiment"),
    ("cliquehub.sampler", "ErgmChain", "sweep", "sampler.sweep"),
    ("cliquehub.sampler", "ErgmChain", "resync", "sampler.resync"),
    ("cliquehub.sampler", None, "detect_structure", "sampler.detect_structure"),
    ("cliquehub.finner", None, "finner_integral", "finner.finner_integral"),
    ("cliquehub.finner", None, "random_instance", "finner.random_instance"),
    ("cliquehub.finner", None, "recover_factors", "finner.recover_factors"),
    ("cliquehub.finner", None, "load_instance", "finner.load_instance"),
)


def _owner(module, cls):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records spans and counts while installed; a no-op once removed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.current_command = -1
        self.counts = {"sampler.steps": 0, "sampler.flips": 0,
                       "nmf.pga_iterations": 0}
        self.max_drift = 0.0
        self._stack = []
        self._saved = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module, cls, attr, span in SPAN_SITES:
            self._patch(_owner(module, cls), attr, self._span_wrapper(span))
        chain = _owner("cliquehub.sampler", "ErgmChain")
        self._patch(chain, "set_edge", self._count_flips)
        self._patch(chain, "sweep", self._count_steps)
        self._patch(chain, "resync", self._track_drift)
        self._patch(_owner("cliquehub.cli", None), "nmf_solve",
                    self._count_pga)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make):
        # class attributes come from __dict__ so methods stay plain functions
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span_wrapper(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        stack = self._stack

        def make(original):
            # bound methods as locals keep the per-call cost down
            name, parent, command = (self.name.append, self.parent.append,
                                     self.command.append)
            start, end = self.start, self.end

            def wrapper(*args, **kwargs):
                idx = len(start)
                name(sid)
                parent(stack[-1] if stack else -1)
                command(self.current_command)
                end.append(0.0)
                stack.append(idx)
                start.append(perf_counter())
                try:
                    return original(*args, **kwargs)
                finally:
                    end[idx] = perf_counter()
                    stack.pop()
            return wrapper
        return make

    def _count_flips(self, original):
        def wrapper(chain, i, j, value):
            if chain.adj[i, j] != (1.0 if value else 0.0):
                self.counts["sampler.flips"] += 1
            return original(chain, i, j, value)
        return wrapper

    def _count_steps(self, original):
        def wrapper(chain, rng):
            before = chain.steps
            out = original(chain, rng)
            self.counts["sampler.steps"] += chain.steps - before
            return out
        return wrapper

    def _track_drift(self, original):
        def wrapper(chain):
            drift = original(chain)
            self.max_drift = max(self.max_drift, drift)
            return drift
        return wrapper

    def _count_pga(self, original):
        def wrapper(*args, **kwargs):
            sol = original(*args, **kwargs)
            self.counts["nmf.pga_iterations"] += sum(
                r["iterations"] for r in sol.diagnostics["restarts"])
            return sol
        return wrapper

    # -- results --------------------------------------------------------

    def arrays(self, first=0):
        """Spans recorded since index `first`, as numpy arrays, plus each
        span's self time."""
        name = np.array(self.name[first:], dtype=np.int64)
        start = np.array(self.start[first:])
        end = np.array(self.end[first:])
        parent = np.array(self.parent[first:], dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        return name, dur, dur - child

    def save(self, path, commands):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent),
                 command=np.asarray(self.command),
                 commands=np.array(commands))
