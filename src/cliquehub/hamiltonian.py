"""Hamiltonians built from motif excesses and their variational values.

A Hamiltonian is h(x) = sum_k beta_k * (x_k - c_k)_+^(gamma_k) over the
densities of a motif family.  The growth condition gamma_k < Delta / e(F_k)
(strict) keeps the planar objective h(T(a, b)) - a/2 - b bounded above; the
value psi is its supremum, computed directly in the (a, b) plane by
direct_route, which alone gives the optimizers, and certified through the
dual sup_s { h(1 + s) - phi(s) } in psi_solve.

The single-motif model with f(x) = (x - shift)_+^(gamma / e(F)) gets a
dedicated solver that locates the hub/clique branch maximizers, the branch
crossover s_c, and the critical coupling beta_c where the clique branch takes
over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DegeneracyError, DomainError
# perfbench/spans.py looks indep_poly up here to time it
from .motifs import (_is_int, indep_poly, load_json,  # noqa: F401
                     motif_from_name, resolve_motif, validate_family)
from .planar import PlanarProgram, Surrogate

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HamiltonianTerm:
    k: int
    beta: float
    shift: float = 1.0
    gamma: float = 0.5


@dataclass
class HamiltonianSpec:
    family: tuple
    terms: tuple
    allow_degenerate: bool = False

    def __post_init__(self):
        self.family = tuple(resolve_motif(m) for m in self.family)
        self.terms = tuple(
            t if isinstance(t, HamiltonianTerm) else HamiltonianTerm(**t)
            for t in self.terms
        )


@dataclass
class ValidationReport:
    ok: bool
    delta: int
    errors: list = field(default_factory=list)  # (term index or None, message)
    warnings: list = field(default_factory=list)


def validate_hamiltonian(spec):
    errors = []
    warnings = []
    try:
        family = validate_family(spec.family, allow_mixed_max_degree=True)
    except DomainError as exc:
        return ValidationReport(False, 0, [(None, str(exc))], [])
    warnings.extend(family.warnings)
    delta = family.delta
    for idx, term in enumerate(spec.terms):
        if not 0 <= term.k < len(spec.family):
            errors.append((idx, "term references motif %d outside the family"
                           % term.k))
            continue
        if not all(math.isfinite(v) for v in (term.beta, term.shift, term.gamma)):
            errors.append((idx, "beta, shift and gamma must be finite"))
            continue
        if term.beta <= 0:
            errors.append((idx, "beta must be positive"))
        if term.gamma <= 0:
            errors.append((idx, "gamma must be positive"))
            continue
        # each motif's own max degree governs boundedness of its planar term;
        # for same-degree families this is the usual Delta / e(F_k) bound
        motif = spec.family[term.k]
        bound = motif.plan.max_degree / motif.edge_count
        if term.gamma >= bound:
            msg = ("growth condition fails: gamma=%g not below %g for motif %s"
                   % (term.gamma, bound, motif.name))
            if spec.allow_degenerate:
                warnings.append(msg + " (allow_degenerate set)")
            else:
                errors.append((idx, msg))
    return ValidationReport(not errors, delta, errors, warnings)


def checked_hamiltonian(spec, positions=None):
    """The validation report, or a DomainError naming every error.  Term i
    is reported as positions[i], its place in the caller's term list."""
    rep = validate_hamiltonian(spec)
    if not rep.ok:
        raise DomainError("invalid hamiltonian: " + "; ".join(
            m if i is None else "term %d: %s" % (
                i if positions is None else positions[i], m)
            for i, m in rep.errors))
    return rep


def _h_terms(spec, x, maximum):
    out = 0.0
    for t in spec.terms:
        out = out + t.beta * maximum(x[t.k] - t.shift, 0.0) ** t.gamma
    return out


def h_value(spec, x):
    """h(x) for a density vector x (vectorized over trailing shapes)."""
    return _h_terms(spec, np.asarray(x, dtype=float), np.maximum)


def h_float(spec, x):
    """h(x) for a sequence of Python floats, as a Python float.  It makes
    h_value's operations in the same order, and Python's ** and numpy's
    scalar ** both call the C library's pow, so the bits are the same.
    Where Python's ** overflows, h_value gives numpy's inf or nan."""
    try:
        return _h_terms(spec, x, max)
    except OverflowError:
        return float(h_value(spec, x))


def _motif_json(motif):
    """The motif's name when that name resolves to it, else its document."""
    try:
        if motif_from_name(motif.name) == motif:
            return motif.name
    except (CapabilityError, DomainError):
        pass
    return motif.to_json_dict()


def hamiltonian_to_json_dict(spec):
    return {
        "family": [_motif_json(m) for m in spec.family],
        "terms": [
            {"k": t.k, "beta": t.beta, "shift": t.shift, "gamma": t.gamma}
            for t in spec.terms
        ],
        "allow_degenerate": spec.allow_degenerate,
    }


def hamiltonian_from_json_dict(d):
    try:
        family = tuple(d["family"])
        if not all(isinstance(m, (str, dict)) for m in family):
            raise DomainError("bad hamiltonian json: family entries must be "
                              "motif names or motif documents")
        if not all(_is_int(t["k"]) for t in d["terms"]):
            raise DomainError("bad hamiltonian json: term index k must be "
                              "an integer")
        terms = tuple(
            HamiltonianTerm(t["k"], float(t["beta"]),
                            float(t.get("shift", 1.0)),
                            float(t["gamma"]))
            for t in d["terms"]
        )
        degenerate = d.get("allow_degenerate", False)
        if not isinstance(degenerate, bool):
            raise DomainError("bad hamiltonian json: allow_degenerate must "
                              "be true or false")
        return HamiltonianSpec(family, terms, degenerate)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError("bad hamiltonian json: %s" % exc)


def load_hamiltonian(path):
    return hamiltonian_from_json_dict(load_json(path, "hamiltonian"))


# ---------------------------------------------------------------------------
# psi via direct planar maximization and via the dual over excess targets


@dataclass
class PsiSolution:
    psi: float
    psi_direct: float
    psi_dual: float
    duality_gap: float
    optimizers: list        # (a, b) pairs
    s_star: list            # excess vectors at the optimizers
    warnings: list = field(default_factory=list)


def _direct_objective(spec, prog):
    def g(a, b):
        return h_value(spec, prog.t_values(a, b)) - 0.5 * a - b
    return g


def _find_box(g):
    size = 4.0
    for _ in range(44):
        axis = np.linspace(0.0, size, 41)
        aa, bb = np.meshgrid(axis, axis, indexing="ij")
        with np.errstate(over="ignore"):
            vals = g(aa, bb)
        inner = vals.max()
        ring = max(vals[-1, :].max(), vals[:, -1].max())
        margin = max(1.0, 1e-9 * abs(inner))
        if np.isfinite(inner) and ring <= inner - margin:
            return size
        size *= 2.0
    raise DegeneracyError(
        "objective appears unbounded; the growth condition is violated")


def _distinct(points, radius):
    """The points in order, dropping each point x that lies within L1
    distance radius * (1 + |x|_1) of an earlier kept point."""
    kept = []
    for x in points:
        scale = radius * (1.0 + sum(abs(u) for u in x))
        if all(sum(abs(u - v) for u, v in zip(x, y)) > scale for y in kept):
            kept.append(x)
    return kept


class _MaxFev(Exception):
    """The evaluation budget of a _nelder_mead run is spent."""


def _nelder_mead(fun, x0, xatol, fatol, maxiter, maxfev):
    """Minimize fun from x0 by the Nelder-Mead simplex method.

    The steps are scipy 1.17's minimize(method="Nelder-Mead") without
    bounds, step for step: the same initial simplex, coefficients
    (1, 2, 0.5, 0.5), sorts and stops, so x, fun, nfev and nit agree with
    it bit for bit.  As there, the maxfev stop may cut a shrink short,
    leaving the moved vertices' old values in fsim.  Returns
    (x, fun, nfev, nit).
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(np.copy(x))

    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # scipy sorts the first simplex twice; a sort is unstable in general
    sim, fsim = by_value(*by_value(sim, fsim))
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        except _MaxFev:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim), nfev, nit


@dataclass
class DirectRoute:
    value: float
    optimizers: list        # (a, b) pairs
    s_star: list            # excess vectors at the optimizers
    points: list            # (a, b, value) where each simplex run ended
    program: PlanarProgram
    warnings: list


def direct_route(spec):
    """psi's direct route alone: the sup of g(a, b) = h(T(a, b)) - a/2 - b
    over a, b >= 0 and the points that attain it.

    Nelder-Mead runs from the ten best grid points and from the maxima on
    the two axes give the value.  The optimizers are the runs that reach it
    plus the planar optimizers at their excess vectors, with near-duplicates
    merged, so they need nothing from the dual route.
    """
    report = checked_hamiltonian(spec)
    prog = PlanarProgram(spec.family, allow_mixed_max_degree=True)
    g = _direct_objective(spec, prog)
    size = _find_box(g)

    axis = np.concatenate([[0.0], np.geomspace(1e-4, size, 60)])
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    vals = g(aa, bb)
    flat = np.argsort(vals.ravel())[::-1][:10]
    starts = [(aa.ravel()[i], bb.ravel()[i]) for i in flat]
    # the maxima on the two axes give each phase of a tie its own start;
    # zeros_like keeps t_values rectangular when a motif is irregular
    b_hub = _max_1d(lambda t: g(np.zeros_like(t), t), 0.0, size)[0]
    a_clique = _max_1d(lambda t: g(t, np.zeros_like(t)), 0.0, size)[0]
    starts += [(0.0, b_hub), (a_clique, 0.0)]

    def neg(u):
        return -g(u[0] * u[0], u[1] * u[1])

    psi_direct = -np.inf
    direct_pts = []
    for a0, b0 in starts:
        x, fun, _, _ = _nelder_mead(neg, [math.sqrt(a0), math.sqrt(b0)],
                                    xatol=1e-10, fatol=1e-14,
                                    maxiter=4000, maxfev=4000)
        a, b = x[0] ** 2, x[1] ** 2
        val = -fun
        direct_pts.append((a, b, val))
        psi_direct = max(psi_direct, val)

    cands = [(a, b) for a, b, val in direct_pts]
    for a, b, val in direct_pts:
        if val < psi_direct - 1e-6 * (1.0 + abs(psi_direct)):
            continue
        sol = prog.solve(prog.excess(a, b))
        cands.extend((o.a, o.b) for o in sol.optimizers)

    scored = sorted(
        ((a, b, g(np.float64(a), np.float64(b))) for a, b in cands),
        key=lambda t: -t[2])
    window = 1e-8 * (1.0 + abs(psi_direct))
    cut = scored[0][2] - window
    # a value tie of w pins a smooth maximum's argument only to about
    # sqrt(w), so tied candidates closer than that are one optimizer
    radius = math.sqrt(window)
    opts = sorted(_distinct(
        [(float(a), float(b)) for a, b, val in scored if val >= cut], radius))
    s_star = _distinct(
        [tuple(float(x) for x in prog.excess(a, b)) for a, b in opts], radius)

    warnings = list(report.warnings)
    if len(opts) > 16:
        warnings.append("optimizer count exceeds 16; the set may be a continuum")
    return DirectRoute(psi_direct, opts, s_star, direct_pts, prog, warnings)


def psi_solve(spec, seed=0):
    """psi by both routes: direct_route in the (a, b) plane, which alone
    gives the optimizers, and the dual sup_s {h(1 + s) - phi(s)} over the
    nonnegative orthant, which certifies psi through the gap.  The seed
    moves only the dual's random starts."""
    direct = direct_route(spec)
    prog = direct.program
    m = len(prog.surrogates)

    def dual_val(s):
        if not np.all(np.isfinite(s)) or s.max(initial=0.0) > 1e100:
            return -math.inf
        return float(h_value(spec, 1.0 + s) - prog.solve(s).value)

    def neg_dual(u):
        return -dual_val(u * u)

    rng = np.random.default_rng(seed)
    dual_starts = [np.maximum(prog.excess(a, b), 0.0)
                   for a, b, val in direct.points[:2]]
    dual_starts.append(np.zeros(m))
    dual_starts.append(np.ones(m))
    for _ in range(2):
        dual_starts.append(rng.uniform(0.0, 4.0, size=m) ** 2)
    explored = []
    for s0 in dual_starts:
        x, fun, _, _ = _nelder_mead(neg_dual, np.sqrt(np.maximum(s0, 0.0)),
                                    xatol=1e-6, fatol=1e-10,
                                    maxiter=400, maxfev=400)
        explored.append((fun, x))
    explored.sort(key=lambda t: t[0])
    psi_dual = -np.inf
    for fun0, x0 in explored[:2]:
        fun = _nelder_mead(neg_dual, x0, xatol=1e-10, fatol=1e-14,
                           maxiter=1500, maxfev=1500)[1]
        psi_dual = max(psi_dual, -fun)

    psi = max(direct.value, psi_dual)
    gap = abs(direct.value - psi_dual)
    return PsiSolution(psi, direct.value, psi_dual, gap, direct.optimizers,
                       direct.s_star, direct.warnings)


# ---------------------------------------------------------------------------
# single-motif models with f(x) = (x - shift)_+^(gamma / e(F))


@dataclass
class EdgeFModel:
    motif: object
    beta: float
    gamma: float
    shift: float = 1.0

    def __post_init__(self):
        self.motif = validate_family([self.motif]).motifs[0]  # has edges
        if not (math.isfinite(self.beta) and math.isfinite(self.shift)):
            raise DomainError("beta and shift must be finite")
        if self.beta < 0:
            raise DomainError("beta must be nonnegative")
        delta = self.motif.plan.max_degree
        if not 0 < self.gamma < delta:
            raise DomainError("gamma must lie strictly inside (0, %d)" % delta)
        if self.shift < 0:
            raise DomainError("shift must be nonnegative")

    @property
    def exponent(self):
        return self.gamma / self.motif.edge_count


@dataclass
class EdgeFSolution:
    s_c: float          # branch crossover; None for irregular motifs
    beta_c: float       # critical coupling; None for irregular motifs
    beta_o: float
    phase: str          # "hub", "clique", or "tie"
    s_hub: float
    value_hub: float
    s_clique: float     # None for irregular motifs
    value_clique: float
    s_star: float
    a_star: float       # clique amplitude at the clique maximizer
    b_star: float       # hub amplitude at the hub maximizer
    psi: float
    ambiguous: bool
    warnings: list = field(default_factory=list)


def _golden(fun, lo, hi):
    x1 = hi - GOLD * (hi - lo)
    x2 = lo + GOLD * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(140):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLD * (hi - lo)
            f2 = fun(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLD * (hi - lo)
            f1 = fun(x1)
        if hi - lo < 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
    x = 0.5 * (lo + hi)
    return x, fun(x)


def _max_1d(fun, lo, hi, dfun=None, grid_n=1601):
    """Grid scan plus golden-section refinement with plateau detection.

    Returns (argmax, max, ambiguous); golden section runs from the
    best grid cell and from up to 7 other near-optimal cells, and the runs
    count as ambiguous when their arguments disagree by 1e-5 while the
    values agree to 1e-9.
    """
    if hi <= lo:
        return lo, float(fun(np.float64(lo))), False
    grid = np.linspace(lo, hi, grid_n)
    vals = fun(grid)
    order = np.argsort(vals)[::-1]
    top = vals[order[0]]
    scale = 1.0 + abs(top)
    cells = [int(order[0])]
    for idx in order[1:]:
        if vals[idx] < top - 1e-9 * scale:
            break
        if all(abs(int(idx) - c) > 1 for c in cells):
            cells.append(int(idx))
        if len(cells) >= 8:
            break
    results = []
    for c in cells:
        g_lo = grid[max(c - 1, 0)]
        g_hi = grid[min(c + 1, grid_n - 1)]
        x, v = _golden(lambda t: float(fun(np.float64(t))), g_lo, g_hi)
        if dfun is not None and g_lo < x < g_hi:
            for _ in range(8):
                d1 = dfun(x)
                step = 1e-7 * (1.0 + abs(x))
                d2 = (dfun(x + step) - dfun(x - step)) / (2 * step)
                if not np.isfinite(d1) or not np.isfinite(d2) or d2 >= 0:
                    break
                x_new = x - d1 / d2
                if not g_lo <= x_new <= g_hi:
                    break
                x = x_new
            v2 = float(fun(np.float64(x)))
            if v2 >= v:
                v = v2
        results.append((x, v))
    results.sort(key=lambda t: -t[1])
    x_best, v_best = results[0]
    # endpoint maxima are exact; prefer them over golden-section dust
    for end in (lo, hi):
        v_end = float(fun(np.float64(end)))
        if v_end >= v_best:
            x_best, v_best = end, v_end
    close = [x for x, v in results if v >= v_best - 1e-9 * scale]
    spread = max(close) - min(close) if len(close) > 1 else 0.0
    ambiguous = spread >= 1e-5 * (1.0 + abs(x_best))
    return float(x_best), float(v_best), bool(ambiguous)


def _grow_domain(fun, lo, hi, label):
    """Double hi until fun on [lo, hi] ends 1 below its maximum and peaks
    before the last tenth of the interval."""
    while True:
        vals = fun(np.linspace(lo, hi, 257))
        if vals[-1] <= vals.max() - 1.0 and np.argmax(vals) < 0.9 * len(vals):
            return hi
        hi *= 2.0
        if hi > 2.0 ** 52:
            raise DegeneracyError("%s branch appears unbounded" % label)


def solve_s_c(motif):
    """Crossover where the clique cost half s^(2/v) meets the hub cost."""
    motif = resolve_motif(motif)
    t = Surrogate(motif)
    if not t.regular:
        raise DomainError("s_c needs a regular motif")
    # a regular core is its own star core

    def q(s):
        return t.hub_poly(0.5 * t.clique(s)) - (1.0 + s)

    # q > 0 where the clique costs more than the hub; for a single edge the
    # two costs are both s/2, q is 0 everywhere and nothing crosses
    lo = 1e-6
    while q(lo) <= 0.0 and lo > 1e-14:
        lo /= 10.0
    if q(lo) <= 0.0:
        raise DomainError("%s has no clique-hub crossover: the clique never "
                          "costs more than the hub" % motif.name)
    hi = max(2.0 * lo, 1.0)
    while q(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise DomainError("no crossover bracket found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(6):
        h = 1e-8 * (1.0 + s)
        dq = (q(s + h) - q(s - h)) / (2 * h)
        if dq == 0:
            break
        s = s - q(s) / dq
    return float(s)


class _Branches:
    """Closed-form hub/clique branch objectives for one edge-f model."""

    def __init__(self, model):
        self.surrogate = Surrogate(model.motif)
        self.gq = model.exponent
        self.shift = model.shift
        self.s_c = solve_s_c(model.motif) if self.surrogate.regular else None

    def f(self, x):
        return np.maximum(np.asarray(x, dtype=float) - self.shift, 0.0) ** self.gq

    def f_prime(self, x):
        rest = np.maximum(np.asarray(x, dtype=float) - self.shift, 0.0)
        safe = np.where(rest > 0.0, rest, 1.0)
        return np.where(rest > 0.0, self.gq * safe ** (self.gq - 1.0), 0.0)

    def branch_max(self, beta, branch, grid_n=1601):
        """(argmax, max, ambiguous) of the "hub" branch over b, on [0, b_c]
        for a regular motif, or of the "clique" branch over s >= s_c."""
        f, f_prime, t = self.f, self.f_prime, self.surrogate
        if branch == "hub":
            # parameterized by b: s = P(b) - 1, cost b
            p, lo = t.hub_poly, 0.0

            def value(b):
                return beta * f(p(b)) - b

            def slope(b):
                return beta * f_prime(p(b)) * p.deriv(b) - 1.0
        else:
            # in s directly: value beta f(1+s) - s^(2/v)/2
            clique, clique_deriv, lo = t.clique, t.clique_deriv, self.s_c

            def value(s):
                return beta * f(1.0 + s) - 0.5 * clique(np.asarray(s, float))

            def slope(s):
                return beta * f_prime(1.0 + s) - 0.5 * clique_deriv(s)
        if branch == "hub" and t.regular:
            hi = 0.5 * t.clique(self.s_c)
        else:
            hi = _grow_domain(value, lo, max(2.0 * lo, 8.0), branch)
        return _max_1d(value, lo, hi, dfun=slope, grid_n=grid_n)


# beta_c and beta_o read only the core, the exponent and the shift
_CRITICAL = {}


def _critical(model):
    core = model.motif.plan.core
    key = (core.vertices, core.edges, model.exponent, model.shift)
    if key not in _CRITICAL:
        _CRITICAL[key] = (solve_beta_c(model), solve_beta_o(model))
    return _CRITICAL[key]


def solve_beta_c(model):
    """Smallest coupling where the clique branch value overtakes the hub."""
    if not Surrogate(model.motif).regular:
        return None
    br = _Branches(model)

    def gap(beta):
        return (br.branch_max(beta, "hub", grid_n=501)[1]
                - br.branch_max(beta, "clique", grid_n=501)[1])

    lo, hi = 0.0, 1.0
    while gap(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0 ** 20:
            raise DomainError("beta_c bracket exceeded the doubling cap")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_beta_o(model):
    """inf over s > 0 of phi(s) / (f(1+s) - f(1)); 0 when shift <= 1."""
    if model.shift <= 1.0:
        return 0.0
    br = _Branches(model)

    def ratio(s):
        den = br.f(1.0 + s) - br.f(1.0)
        phi = br.surrogate.phi(s)
        with np.errstate(divide="ignore"):
            return np.where(den > 0.0, phi / np.where(den > 0, den, 1.0), np.inf)

    lo = br.shift - 1.0
    grid = np.concatenate([lo + np.geomspace(1e-9, 1.0, 200),
                           np.geomspace(max(lo + 1.0, 1.0), 1e6, 200)])
    vals = ratio(grid)
    i = int(np.argmin(vals))
    g_lo = grid[max(i - 1, 0)]
    g_hi = grid[min(i + 1, len(grid) - 1)]
    x, neg_val = _golden(lambda t: -float(ratio(np.float64(t))), g_lo, g_hi)
    return float(min(vals[i], -neg_val))


# an overflowing branch is reported as a DomainError below, not a warning
@np.errstate(over="ignore", invalid="ignore")
def edge_f_solve(model):
    br = _Branches(model)
    beta = model.beta
    b_star, value_hub, amb_h = br.branch_max(beta, "hub")
    s_hub = float(br.surrogate.hub_poly(b_star)) - 1.0
    phase, psi, s_star, a_star = "hub", value_hub, s_hub, None
    beta_c, beta_o = _critical(model)
    s_clique, value_clique, amb_c = None, -math.inf, False
    if br.surrogate.regular:
        s_clique, value_clique, amb_c = br.branch_max(beta, "clique")
        a_star = br.surrogate.clique(s_clique)
        tie_scale = 1.0 + abs(value_hub) + abs(value_clique)
        if abs(value_hub - value_clique) <= 1e-12 * tie_scale:
            phase = "tie"
        elif value_clique > value_hub:
            phase = "clique"
        psi = max(value_hub, value_clique)
        s_star = s_hub if phase == "hub" else s_clique
    if not (math.isfinite(value_hub) and math.isfinite(psi)
            and value_clique < math.inf):
        raise DomainError("edge-f branch values are not finite at beta=%g"
                          % beta)
    ambiguous = bool(amb_h or amb_c)
    warnings = (["branch maximizer is flat beyond 1e-5; reporting one end"]
                if ambiguous else [])
    return EdgeFSolution(br.s_c, beta_c, beta_o, phase,
                         s_hub, value_hub, s_clique, value_clique,
                         s_star, a_star, b_star, psi, ambiguous, warnings)

