"""Two-dimensional clique-hub variational problems.

For a family of motifs F_1..F_m with a common maximum degree and excess
targets s_1..s_m, the planar problem minimizes a/2 + b over the region where
every surrogate density T_k(a, b) reaches 1 + s_k.  Each T_k is nondecreasing
in both coordinates, so the feasible region is upward closed and the optimum
sits where at least two constraints (counting the coordinate axes) are
active.  The solver enumerates those corner candidates exactly: axis
endpoints of each level curve plus pairwise curve intersections found by a
sign scan refined with bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalError
from .motifs import indep_poly, validate_family

TIE_TOL = 1e-9
DEDUP_TOL = 1e-8
NEAR_WINDOW = 0.1
FEAS_TOL = 1e-8
ACTIVE_TOL = 1e-7


@dataclass
class PlanarOptimizer:
    a: float
    b: float
    active: list  # 0-based motif indices, plus "a=0" / "b=0" markers


@dataclass
class PlanarSolution:
    value: float
    optimizers: list
    s: tuple
    tolerance: float
    near_ties: list = field(default_factory=list)  # (a, b, objective gap)
    candidates: list = field(default_factory=list)  # (a, b, objective)


class _Constraint:
    """The level set T_k(a, b) = 1 + s_k for one motif, at a fixed s_k."""

    def __init__(self, index, poly, regular, v, s_k):
        self.index = index
        self.poly = poly
        self.regular = regular
        self.v = v
        self.s = float(s_k)
        self.target = 1.0 + self.s
        self.b_star = poly.inverse(self.target)
        self.a_star = self.s ** (2.0 / v) if regular else None

    def curve_a(self, b):
        """a-coordinate of the level curve at height b (arrays welcome)."""
        rest = self.target - self.poly(b)
        if np.isscalar(rest) or rest.shape == ():
            rest = max(float(rest), 0.0)
            return rest ** (2.0 / self.v)
        return np.where(rest > 0.0, np.maximum(rest, 0.0) ** (2.0 / self.v), 0.0)

    def value(self, a, b):
        out = self.poly(b)
        if self.regular:
            out = out + a ** (self.v / 2.0)
        return out


def _bisect_curves(c1, c2, lo, hi):
    f = lambda b: c1.curve_a(b) - c2.curve_a(b)
    flo = f(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _intersections(c1, c2):
    """Intersection points of two level curves in the closed quadrant."""
    pts = []
    if c1.regular and c2.regular:
        hi = min(c1.b_star, c2.b_star)
        if hi <= 0:
            return pts
        grid = np.linspace(0.0, hi, 513)
        d = c1.curve_a(grid) - c2.curve_a(grid)
        for t in range(len(grid) - 1):
            if d[t] == 0.0:
                pts.append((float(c1.curve_a(grid[t])), float(grid[t])))
            if d[t] * d[t + 1] < 0.0:
                b0 = _bisect_curves(c1, c2, grid[t], grid[t + 1])
                a0 = 0.5 * (c1.curve_a(b0) + c2.curve_a(b0))
                pts.append((float(a0), float(b0)))
        if d[-1] == 0.0:
            pts.append((float(c1.curve_a(hi)), float(hi)))
    elif c1.regular != c2.regular:
        reg, irr = (c1, c2) if c1.regular else (c2, c1)
        b = irr.b_star
        pts.append((float(reg.curve_a(b)), float(b)))
    # two irregular constraints give parallel horizontal lines: no new corner
    return pts


class PlanarProgram:
    """A motif family compiled once so many targets can be solved quickly."""

    def __init__(self, motifs, allow_mixed_max_degree=False):
        self.family = validate_family(motifs, allow_mixed_max_degree)
        self.motifs = self.family.motifs
        self.delta = self.family.delta
        self.polys = [indep_poly(m.star_core()) for m in self.motifs]
        self.regular = [m.edge_count > 0 and m.is_regular for m in self.motifs]
        self.vs = [m.vertices for m in self.motifs]
        self.m = len(self.motifs)

    def t_values(self, a, b):
        """T_k(a, b) for every motif; a and b may be arrays."""
        out = []
        for poly, reg, v in zip(self.polys, self.regular, self.vs):
            val = poly(b)
            if reg:
                val = val + a ** (v / 2.0)
            out.append(val)
        return np.array(out)

    def excess(self, a, b):
        """s(a, b) = T(a, b) - 1, the excess vector at a point."""
        return np.maximum(self.t_values(a, b) - 1.0, 0.0)

    def solve(self, s, tie_tol=TIE_TOL):
        s = tuple(float(v) for v in np.atleast_1d(np.asarray(s, dtype=float)))
        if len(s) != self.m:
            raise DomainError("need one target per motif")
        if not all(math.isfinite(sk) for sk in s):
            raise DomainError("targets must be finite")
        if any(sk < 0.0 for sk in s):
            raise DomainError("targets must be nonnegative")
        cons = [
            _Constraint(k, self.polys[k], self.regular[k], self.vs[k], sk)
            for k, sk in enumerate(s) if sk > 0.0
        ]
        if not cons:
            sol = PlanarSolution(
                0.0, [PlanarOptimizer(0.0, 0.0, ["a=0", "b=0"])], s, tie_tol)
            sol.candidates = [(0.0, 0.0, 0.0)]
            return sol

        raw = []
        for c in cons:
            raw.append((0.0, c.b_star))
            if c.regular:
                raw.append((c.a_star, 0.0))
        for i in range(len(cons)):
            for j in range(i + 1, len(cons)):
                raw.extend(_intersections(cons[i], cons[j]))

        feasible = []
        for a, b in raw:
            if a < 0 or b < 0:
                continue
            ok = all(
                c.value(a, b) >= c.target - FEAS_TOL * max(1.0, c.target)
                for c in cons
            )
            if ok:
                feasible.append((float(a), float(b), 0.5 * a + b))
        if not feasible:
            raise DomainError("no feasible corner candidate found")

        feasible.sort(key=lambda t: (t[2], t[0], t[1]))
        value = feasible[0][2]

        chosen = []
        near = []
        for a, b, obj in feasible:
            gap = obj - value
            if gap <= tie_tol:
                if all(abs(a - o.a) + abs(b - o.b) > DEDUP_TOL for o in chosen):
                    chosen.append(PlanarOptimizer(a, b, _active(cons, a, b)))
            elif gap <= NEAR_WINDOW:
                if all(abs(a - q[0]) + abs(b - q[1]) > DEDUP_TOL for q in near):
                    near.append((a, b, gap))

        chosen.sort(key=lambda o: (o.a, o.b))
        for o in chosen:
            if len(o.active) < 2:
                raise InternalError(
                    "optimizer (%g, %g) has fewer than two active constraints"
                    % (o.a, o.b))
        return PlanarSolution(value, chosen, s, tie_tol, near, feasible)


def _active(cons, a, b):
    out = []
    for c in cons:
        if abs(c.value(a, b) - c.target) <= ACTIVE_TOL * max(1.0, c.target):
            out.append(c.index)
    if a <= ACTIVE_TOL:
        out.append("a=0")
    if b <= ACTIVE_TOL:
        out.append("b=0")
    return out


def phi_solve(motifs, s, tie_tol=TIE_TOL):
    """Minimize a/2 + b subject to T_k(a, b) >= 1 + s_k for all k."""
    return PlanarProgram(motifs).solve(s, tie_tol)


def phi_region_emit(motifs, s, na=101, nb=101):
    """Feasibility grid rows and per-motif level-curve polylines.

    Returns (rows, curves): rows are (a, b, feasible, objective) tuples;
    curves maps motif index -> list of (a, b) points along T_k = 1 + s_k.
    """
    prog = PlanarProgram(motifs)
    s = tuple(float(v) for v in np.atleast_1d(np.asarray(s, dtype=float)))
    sol = prog.solve(s)
    cons = [
        _Constraint(k, prog.polys[k], prog.regular[k], prog.vs[k], sk)
        for k, sk in enumerate(s) if sk > 0.0
    ]
    spread = [c.a_star for c in cons if c.a_star is not None]
    spread += [2.0 * o.a for o in sol.optimizers]
    a_max = 1.25 * max(spread + [1.0])
    b_max = 1.25 * max([c.b_star for c in cons]
                       + [2.0 * o.b for o in sol.optimizers] + [1.0])
    rows = []
    for a in np.linspace(0.0, a_max, na):
        for b in np.linspace(0.0, b_max, nb):
            ok = all(c.value(a, b) >= c.target for c in cons)
            rows.append((float(a), float(b), bool(ok), 0.5 * a + b))
    curves = {}
    for c in cons:
        pts = []
        if c.regular:
            for b in np.linspace(0.0, c.b_star, 201):
                pts.append((float(c.curve_a(b)), float(b)))
        else:
            for a in np.linspace(0.0, a_max, 201):
                pts.append((float(a), float(c.b_star)))
        curves[c.index] = pts
    return rows, curves
