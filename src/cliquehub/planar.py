"""Two-dimensional clique-hub variational problems.

For a family of motifs F_1..F_m with a common maximum degree and excess
targets s_1..s_m, the planar problem minimizes a/2 + b over the region where
every surrogate density T_k(a, b) reaches 1 + s_k.  Each T_k is nondecreasing
in both coordinates, so the feasible region is upward closed and the optimum
sits where at least two constraints (counting the coordinate axes) are
active.  The solver enumerates those corner candidates exactly: axis
endpoints of each level curve plus pairwise curve intersections.  A numpy
sign scan of two curves' gap on 513 heights picks the intersections, and
bracket_root halves each sign change on Surrogate.level_a, the plain-float
form of the level curve, down to adjacent floats.

PlanarProgram.value(s) returns phi(s) alone from the feasible candidates;
solve(s) shares that work and adds the optimizers with their active
constraints, the near ties and the levels.  overlay_sizes and overlay_matrix
plant an optimizer (a, b) at finite n as a clique I and a hub J, Q^{I,J}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError, InternalError
# perfbench/spans.py looks indep_poly up here to time it
from .motifs import bracket_root, indep_poly, validate_family  # noqa: F401

TIE_TOL = 1e-9
DEDUP_TOL = 1e-8
NEAR_WINDOW = 0.1
FEAS_TOL = 1e-12
ACTIVE_TOL = 1e-7
REGION_GRID = 101  # points on each axis of phi_region_emit's grid


@dataclass
class PlanarOptimizer:
    a: float
    b: float
    active: list  # 0-based motif indices, plus "a=0" / "b=0" markers


@dataclass
class PlanarSolution:
    value: float
    optimizers: list
    near_ties: list = field(default_factory=list)  # (a, b, objective gap)
    candidates: list = field(default_factory=list)  # (a, b, objective)
    # motif index -> (target, a where the level set meets the a axis or None
    # for an irregular motif, b where it meets the b axis); positive targets
    levels: dict = field(default_factory=dict)


class Surrogate:
    """T(a, b) = P_{F*}(b) + a^(v/2) [F regular] of one motif F, inverted: a
    on a level curve, and the clique amplitude a = s^(2/v) and hub amplitude
    b = P_{F*}^{-1}(1 + s) where T = 1 + s on each axis.  T is F's core's, as
    F's densities are.  A disconnected core has none; this is the one gate."""

    def __init__(self, motif):
        plan = motif.plan.core.plan
        if len(plan.components) > 1:
            raise CapabilityError("the planar surrogate needs a connected "
                                  "motif, not %s" % motif.name)
        self.v = plan.core.vertices
        self.regular = plan.regular
        self.hub_poly = plan.hub_poly
        self.power = 2.0 / self.v

    def curve_a(self, target, b):
        """a where T(a, b) = target at each height of the array b, 0 where
        P_{F*}(b) reaches it."""
        rest = target - self.hub_poly(b)
        return np.where(rest > 0.0, np.maximum(rest, 0.0) ** self.power, 0.0)

    def level_a(self, target, b):
        """curve_a at one plain float b, in plain floats: Horner over
        P_{F*}'s coefficients, then Python's **.  numpy's array power can
        differ from Python's in the last bit, so every value that is kept or
        written, and every sign that a halving reads, comes from here."""
        rest = 0.0
        for c in self.hub_poly.rev:
            rest = rest * b + c
        rest = target - rest
        return rest ** self.power if rest > 0.0 else 0.0

    def clique(self, s):
        return s ** self.power

    def clique_deriv(self, s):
        return self.power * s ** (self.power - 1.0)

    def hub(self, s):
        return self.hub_poly.inverse(1.0 + s)

    def phi(self, s):
        """This motif's own phi(s) = min(a/2, b), b if irregular; an array."""
        s = np.asarray(s, dtype=float)
        b = np.array([self.hub(x) for x in s.flat]).reshape(s.shape)
        return np.minimum(0.5 * self.clique(s), b) if self.regular else b


class PlanarProgram:
    """A motif family compiled once so many targets can be solved quickly."""

    def __init__(self, motifs, allow_mixed_max_degree=False):
        family = validate_family(motifs, allow_mixed_max_degree)
        self.surrogates = [Surrogate(m) for m in family.motifs]

    def t_values(self, a, b):
        """T_k(a, b) = P_{F_k*}(b) + a^(v_k/2) [F_k regular] for every motif;
        a and b may be arrays."""
        out = []
        for t in self.surrogates:
            val = t.hub_poly(b)
            if t.regular:
                val = val + a ** (t.v / 2.0)
            out.append(val)
        return np.array(out)

    def excess(self, a, b):
        """s(a, b) = T(a, b) - 1, the excess vector at a point."""
        return np.maximum(self.t_values(a, b) - 1.0, 0.0)

    def _crossings(self, i, j, levels):
        """Points where the level curves of motifs i and j meet."""
        (ti, ai, bi), (tj, aj, bj) = levels[i], levels[j]
        si, sj = self.surrogates[i], self.surrogates[j]
        ci, cj = si.level_a, sj.level_a
        if ai is None and aj is None:
            # two horizontal lines: no new corner
            return []
        if ai is None or aj is None:
            c, t, b = (ci, ti, bj) if aj is None else (cj, tj, bi)
            return [(c(t, b), b)]
        hi = min(bi, bj)
        if hi <= 0:
            return []

        def da(b):
            return ci(ti, b) - cj(tj, b)

        # the scan's signs pick the candidates; level_a gives the rest
        grid = np.linspace(0.0, hi, 513)
        d = si.curve_a(ti, grid) - sj.curve_a(tj, grid)
        pts = [(ci(ti, b), b) for b in grid[d == 0.0].tolist()]
        for t in np.flatnonzero(d[:-1] * d[1:] < 0.0).tolist():
            lo, up = grid[t:t + 2].tolist()
            sign = 1.0 if da(lo) > 0.0 else -1.0
            lo, up = bracket_root(lambda x: sign * da(x) > 0.0, lo, up)
            b = 0.5 * (lo + up)  # rounds to one of the two adjacent ends
            pts.append((0.5 * (ci(ti, b) + cj(tj, b)), b))
        return pts

    def _active(self, levels, a, b):
        """The constraints and axes that hold with equality at (a, b)."""
        t = self.t_values(a, b)
        out = [k for k, (target, _, _) in levels.items()
               if abs(t[k] - target) <= ACTIVE_TOL * max(1.0, target)]
        if a <= ACTIVE_TOL:
            out.append("a=0")
        if b <= ACTIVE_TOL:
            out.append("b=0")
        return out

    def _feasible(self, s):
        """Check the targets s and return (levels, feasible): the levels of
        the positive targets and the feasible corners as (a, b, a/2 + b),
        unsorted.  With no positive target the one corner is the origin."""
        s = tuple(float(v) for v in np.atleast_1d(np.asarray(s, dtype=float)))
        if len(s) != len(self.surrogates):
            raise DomainError("need one target per motif")
        if not all(math.isfinite(sk) for sk in s):
            raise DomainError("targets must be finite")
        if any(sk < 0.0 for sk in s):
            raise DomainError("targets must be nonnegative")
        levels = {
            k: (1.0 + sk, t.clique(sk) if t.regular else None, t.hub(sk))
            for k, (t, sk) in enumerate(zip(self.surrogates, s)) if sk > 0.0
        }
        if not levels:
            return levels, [(0.0, 0.0, 0.0)]

        raw = []
        for _, a_axis, b_axis in levels.values():
            raw.append((0.0, b_axis))
            if a_axis is not None:
                raw.append((a_axis, 0.0))
        for i, j in itertools.combinations(levels, 2):
            raw.extend(self._crossings(i, j, levels))

        keys = list(levels)
        targets = np.array([levels[k][0] for k in keys])
        t = self.t_values(*np.array(raw).T)[keys]
        ok = np.all(t >= _feasible_floor(targets)[:, None], axis=0)
        feasible = [(a, b, 0.5 * a + b)
                    for (a, b), good in zip(raw, ok.tolist()) if good]
        if not feasible:
            raise DomainError("no feasible corner candidate found")
        return levels, feasible

    def value(self, s):
        """phi(s), the least a/2 + b over the feasible corners: the value
        solve(s) reports, bit for bit, without building its optimizers."""
        return min(obj for _, _, obj in self._feasible(s)[1])

    def solve(self, s, tie_tol=TIE_TOL):
        levels, feasible = self._feasible(s)
        if not levels:
            return PlanarSolution(
                0.0, [PlanarOptimizer(0.0, 0.0, ["a=0", "b=0"])],
                candidates=feasible)

        feasible.sort(key=lambda r: (r[2], r[0], r[1]))
        value = feasible[0][2]

        chosen = []
        near = []
        for a, b, obj in feasible:
            gap = obj - value
            if gap <= tie_tol:
                if all(abs(a - o.a) + abs(b - o.b) > DEDUP_TOL for o in chosen):
                    chosen.append(
                        PlanarOptimizer(a, b, self._active(levels, a, b)))
            elif gap <= NEAR_WINDOW:
                if all(abs(a - q[0]) + abs(b - q[1]) > DEDUP_TOL for q in near):
                    near.append((a, b, gap))

        chosen.sort(key=lambda o: (o.a, o.b))
        for o in chosen:
            if len(o.active) < 2:
                raise InternalError(
                    "optimizer (%g, %g) has fewer than two active constraints"
                    % (o.a, o.b))
        return PlanarSolution(value, chosen, near, feasible, levels)


def _feasible_floor(target):
    """The least density that meets a target: the target less FEAS_TOL
    relative to max(1, target), so a corner found by halving counts."""
    return target - FEAS_TOL * np.maximum(1.0, target)


def phi_solve(motifs, s, tie_tol=TIE_TOL):
    """Minimize a/2 + b subject to T_k(a, b) >= 1 + s_k for all k."""
    return PlanarProgram(motifs).solve(s, tie_tol)


def phi_region_emit(motifs, s):
    """Feasibility grid rows and per-motif level-curve polylines.

    Returns (rows, curves): rows are (a, b, feasible, objective) tuples;
    curves maps motif index -> list of (a, b) points along T_k = 1 + s_k.
    """
    prog = PlanarProgram(motifs)
    sol = prog.solve(s)
    levels = sol.levels
    a_max = 1.25 * max([a for _, a, _ in levels.values() if a is not None]
                       + [2.0 * o.a for o in sol.optimizers] + [1.0])
    b_max = 1.25 * max([b for _, _, b in levels.values()]
                       + [2.0 * o.b for o in sol.optimizers] + [1.0])
    aa, bb = np.meshgrid(np.linspace(0.0, a_max, REGION_GRID),
                         np.linspace(0.0, b_max, REGION_GRID), indexing="ij")
    t = prog.t_values(aa, bb)
    ok = np.ones(aa.shape, dtype=bool)
    for k, (target, _, _) in levels.items():
        ok &= t[k] >= _feasible_floor(target)
    rows = list(zip(aa.ravel().tolist(), bb.ravel().tolist(),
                    ok.ravel().tolist(), (0.5 * aa + bb).ravel().tolist()))
    curves = {}
    for k, (target, a_axis, b_axis) in levels.items():
        if a_axis is None:
            curves[k] = [(a, b_axis)
                         for a in np.linspace(0.0, a_max, 201).tolist()]
        else:
            # these points are written to files whose digests are pinned
            curves[k] = [(prog.surrogates[k].level_a(target, b), b)
                         for b in np.linspace(0.0, b_axis, 201).tolist()]
    return rows, curves


def overlay_matrix(n, p, clique, hub):
    """Planted overlay Q^{I,J} on n vertices: 1 on pairs inside the clique
    set I and on pairs joining a hub row of J to a vertex outside J, p on
    every other pair, 0 on the diagonal."""
    idx_i = np.array(clique, dtype=int)
    idx_j = np.array(hub, dtype=int)
    if set(idx_i.tolist()) & set(idx_j.tolist()):
        raise DomainError("clique and hub sets must be disjoint")
    if idx_i.size + idx_j.size > n:
        raise DomainError("overlay does not fit in n vertices")
    m = np.full((n, n), p)
    if idx_i.size:
        m[np.ix_(idx_i, idx_i)] = 1.0
    if idx_j.size:
        outside = np.ones(n, dtype=bool)
        outside[idx_j] = False
        comp = np.flatnonzero(outside)
        m[np.ix_(idx_j, comp)] = 1.0
        m[np.ix_(comp, idx_j)] = 1.0
    np.fill_diagonal(m, 0.0)
    return m


def overlay_sizes(n, p, delta, a, b, factor=1.0, rounding=math.floor):
    """Clique and hub sizes for amplitudes (a, b): rounding(factor |I|) and
    rounding(factor |J|) with |I| = sqrt(a p^delta) n and |J| = b p^delta n.

    Negative amplitudes are solver round-off and count as zero.  The clique
    is capped at n and the hub at n - clique, so the overlay always fits.
    """
    a, b = max(a, 0.0), max(b, 0.0)
    k_clique = min(int(rounding(factor * (math.sqrt(a * p ** delta) * n))), n)
    k_hub = min(int(rounding(factor * (b * p ** delta * n))), n - k_clique)
    return k_clique, k_hub
