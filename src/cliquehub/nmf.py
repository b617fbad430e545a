"""Finite-size product-measure optimization over edge probability matrices.

Two problems share the same machinery: maximizing r*h(t(F, Q/p)) - Ent_p(Q)
over symmetric matrices Q, and minimizing Ent_p(Q) subject to density floors
t(F_k, Q/p) >= 1 + s_k.  Clique-hub overlay matrices supply warm starts,
certified lower bounds for the first problem, and upper-bound witnesses for
the second.  An alignment probe measures how close a given Q sits to the
nearest overlay suggested by the planar program.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DegeneracyError, DomainError, InternalError
# psi_solve is not called here; perfbench's tracer wraps it on this module
from .hamiltonian import direct_route, h_value, psi_solve  # noqa: F401
from .motifs import (WeightTable, _as_matrix, hom_density, hom_density_grad,
                     rate, resolve_motif, validate_family)
from .planar import PlanarProgram, PlanarSolution

N_CAP = 256
EPS_CLIP = 1e-9
DBL_MIN = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# entropy


def rel_entr(x, y):
    """x log(x/y) elementwise, branch for branch as scipy.special.rel_entr:
    NaN in gives NaN, x = 0 with y >= 0 gives 0, and any other x <= 0 or
    y <= 0 gives +inf."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    out = np.where(np.isnan(x) | np.isnan(y), np.nan,
                   np.where((x == 0.0) & (y >= 0.0), 0.0, np.inf))
    ok = (x > 0.0) & (y > 0.0)
    x, y = x[ok], y[ok]
    value = np.empty_like(x)
    # log1p is more accurate where x and y are close; where x/y underflows
    # or overflows, the logarithms are taken first
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = x / y
        near = (0.5 < ratio) & (ratio < 2.0)
        value[near] = x[near] * np.log1p((x[near] - y[near]) / y[near])
        plain = ~near & (ratio > DBL_MIN) & (ratio < np.inf)
        value[plain] = x[plain] * np.log(ratio[plain])
        far = ~near & ~plain
        value[far] = x[far] * (np.log(x[far]) - np.log(y[far]))
    out[ok] = value
    return out


def relative_entropy(q, p):
    """I_p(q) = q log(q/p) + (1-q) log((1-q)/(1-p)), elementwise."""
    q = np.asarray(q, dtype=float)
    return rel_entr(q, p) + rel_entr(1.0 - q, 1.0 - p)


def entropy(table, p):
    """Sum of I_p over unordered pairs i < j (diagonal excluded)."""
    x = _as_matrix(table)
    n = x.shape[0]
    iu = np.triu_indices(n, k=1)
    return float(np.sum(relative_entropy(x[iu], p)))


def entropy_grad(table, p):
    """Derivative of the pair entropy with respect to each unordered weight."""
    x = _as_matrix(table)
    q = np.clip(x, EPS_CLIP, 1.0 - EPS_CLIP)
    g = np.log(q * (1.0 - p) / (p * (1.0 - q)))
    np.fill_diagonal(g, 0.0)
    return g


# ---------------------------------------------------------------------------
# problems and clique-hub overlays


@dataclass
class NmfProblem:
    """Finite-size problem data: n vertices, base density p, and either a
    Hamiltonian (for the tilted maximization) or a target vector s (for the
    entropy minimization under density floors)."""

    n: int
    p: float
    spec: object = None
    s: tuple = None
    family: tuple = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("need at least two vertices")
        if self.n > N_CAP:
            raise CapabilityError("n exceeds the %d-vertex cap" % N_CAP)
        if not 0.0 < self.p < 1.0:
            raise DomainError("p must lie in (0, 1)")
        if (self.spec is None) == (self.s is None):
            raise DomainError("give exactly one of spec or s")
        if self.spec is not None:
            self.family = tuple(self.spec.family)
        else:
            if self.family is None:
                raise DomainError("target mode needs an explicit family")
            self.family = tuple(resolve_motif(m) for m in self.family)
            self.s = tuple(float(v) for v in self.s)
            if len(self.s) != len(self.family):
                raise DomainError("s length must match the family")
            if not all(math.isfinite(v) for v in self.s):
                raise DomainError("targets must be finite")
            if any(v < 0.0 for v in self.s):
                raise DomainError("targets must be nonnegative")
        fam = validate_family(self.family, allow_mixed_max_degree=True)
        self.delta = fam.delta

    @property
    def rate(self):
        return rate(self.n, self.p, self.delta)


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


# ---------------------------------------------------------------------------
# objective, gradient, projected ascent


def _project(Q):
    Q = np.clip(Q, EPS_CLIP, 1.0 - EPS_CLIP)
    Q = 0.5 * (Q + Q.T)
    np.fill_diagonal(Q, 0.0)
    return Q


def _densities(prob, x):
    return np.array([hom_density(f, x, scale=prob.p) for f in prob.family])


def _h_partials(spec, t):
    g = np.zeros(len(spec.family))
    for term in spec.terms:
        excess = t[term.k] - term.shift
        if excess > 0.0:
            g[term.k] += term.beta * term.gamma * excess ** (term.gamma - 1.0)
    return g


def nmf_objective(prob, Q):
    """Value of r h(t) - Ent_p(Q) and the density vector t."""
    x = _as_matrix(Q)
    t = _densities(prob, x)
    val = prob.rate * float(h_value(prob.spec, t)) - entropy(x, prob.p)
    return val, t


def nmf_gradient(prob, Q):
    """Gradient of the tilted objective under the pair-weight convention."""
    x = _as_matrix(Q)
    t = _densities(prob, x)
    hp = _h_partials(prob.spec, t)
    g = np.zeros_like(x)
    for k, f in enumerate(prob.family):
        if hp[k] != 0.0:
            g += hp[k] * hom_density_grad(f, x, scale=prob.p)
    g = prob.rate * g - entropy_grad(x, prob.p)
    np.fill_diagonal(g, 0.0)
    return g


def _finite(fn, Q):
    """fn(Q), a value or a gradient, computed with numpy's overflow and
    invalid warnings off; a DomainError when any entry is not finite, as
    happens when beta or 1/p is past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = fn(Q)
    if not np.isfinite(out).all():
        raise DomainError("mean-field objective or gradient is not finite")
    return out


def _pga(value_fn, grad_fn, Q0, max_iter, tol):
    """Projected gradient ascent with Barzilai-Borwein steps and a monotone
    safeguard.  Returns the best iterate seen."""
    Q = _project(np.array(Q0, dtype=float))
    val = _finite(value_fn, Q)
    g = _finite(grad_fn, Q)
    best_Q, best_val = Q, val
    step = 1.0 / (1.0 + float(np.abs(g).max()))
    pg_norm = math.inf
    done = 0
    for it in range(max_iter):
        done = it + 1
        Qn = _project(Q + step * g)
        vn = _finite(value_fn, Qn)
        halvings = 0
        while vn < val - 1e-12 * (1.0 + abs(val)) and halvings < 40:
            step *= 0.5
            halvings += 1
            Qn = _project(Q + step * g)
            vn = _finite(value_fn, Qn)
        if halvings >= 40 and vn < val:
            break
        gn = _finite(grad_fn, Qn)
        d_q = Qn - Q
        d_g = gn - g
        den = float(np.vdot(d_g, d_g))
        if den > 0.0:
            step = min(max(abs(float(np.vdot(d_q, d_g))) / den, 1e-12), 1e3)
        else:
            step = min(step * 2.0, 1e3)
        pg_norm = float(np.linalg.norm(_project(Qn + gn) - Qn))
        Q, val, g = Qn, vn, gn
        if val > best_val:
            best_Q, best_val = Q, val
        if pg_norm <= tol * (1.0 + abs(val)):
            break
    return best_Q, best_val, done, pg_norm


# ---------------------------------------------------------------------------
# tilted maximization


@dataclass
class NmfSolution:
    value: float
    table: WeightTable
    t: np.ndarray
    grad_norm: float
    diagnostics: dict
    warnings: list = field(default_factory=list)


def _warm_starts(prob, seed):
    """Flat start, clique-hub overlays at the limit optimizers with size
    perturbations of +-20 percent, and three random matrices."""
    n, p = prob.n, prob.p
    flat = np.full((n, n), p)
    np.fill_diagonal(flat, 0.0)
    starts = [("flat", flat)]
    witnesses = []
    warnings = []
    try:
        for a, b in direct_route(prob.spec).optimizers:
            for f in (0.8, 1.0, 1.2):
                ki, kj = overlay_sizes(n, p, prob.delta, a, b, factor=f)
                label = "overlay(%g,%g)x%g" % (a, b, f)
                starts.append((label, overlay_matrix(
                    n, p, range(ki), range(ki, ki + kj))))
                if f == 1.0:
                    witnesses.append(starts[-1])
    except DegeneracyError:
        warnings.append("objective degenerate in the limit; overlay starts skipped")
    except CapabilityError as err:
        warnings.append("%s; overlay starts skipped" % err)
    rng = np.random.default_rng(seed)
    for r in range(3):
        m = rng.uniform(EPS_CLIP, 1.0 - EPS_CLIP, size=(n, n))
        starts.append(("random%d" % r, 0.5 * (m + m.T)))
    return starts, witnesses, warnings


def nmf_solve(prob, max_iter=300, seed=0):
    """Maximize r h(t(F, Q/p)) - Ent_p(Q) by multi-start projected ascent.

    The returned value never falls below the objective at Q = p or at any
    clique-hub overlay used as a warm start; both floors are checked.
    """
    if prob.spec is None:
        raise DomainError("nmf_solve needs a Hamiltonian problem")
    starts, witnesses, warnings = _warm_starts(prob, seed)

    def value_fn(Q):
        return nmf_objective(prob, Q)[0]

    def grad_fn(Q):
        return nmf_gradient(prob, Q)

    results = []
    for idx, (label, Q0) in enumerate(starts):
        Q, val, iters, pg = _pga(value_fn, grad_fn, Q0, max_iter, 1e-6)
        results.append({"restart": idx, "label": label, "value": val,
                        "iterations": iters, "grad_norm": pg})
        results[-1]["_Q"] = Q
    # exact overlay and flat matrices compete directly so the certified
    # floors hold with no box-clipping slack
    floor_vals = []
    for label, m in witnesses:
        v = _finite(value_fn, m)
        floor_vals.append(v)
        results.append({"restart": len(results), "label": label + ":exact",
                        "value": v, "iterations": 0, "grad_norm": math.nan,
                        "_Q": m})
    flat = starts[0][1]
    flat_val = _finite(value_fn, flat)
    results.append({"restart": len(results), "label": "flat:exact",
                    "value": flat_val, "iterations": 0, "grad_norm": math.nan,
                    "_Q": flat})

    results.sort(key=lambda r: (-r["value"],
                                r["grad_norm"] if np.isfinite(r["grad_norm"])
                                else math.inf,
                                r["restart"]))
    best = results[0]
    value = best["value"]
    if value < flat_val:
        raise InternalError("flat-start floor violated")
    if any(value < v for v in floor_vals):
        raise InternalError("overlay witness floor violated")
    Q = best["_Q"]
    t = _densities(prob, Q)
    diag = {
        "restarts": [{k: v for k, v in r.items() if k != "_Q"}
                     for r in results],
        "witness_value": max(floor_vals) if floor_vals else flat_val,
        "iterations": best["iterations"],
    }
    gn = best["grad_norm"]
    return NmfSolution(value=value, table=WeightTable(Q), t=t,
                       grad_norm=gn if np.isfinite(gn) else 0.0,
                       diagnostics=diag, warnings=warnings)


# ---------------------------------------------------------------------------
# entropy minimization under density floors


@dataclass
class PhiNpSolution:
    value: float
    table: WeightTable
    t: np.ndarray
    residual: float
    diagnostics: dict


def clear_phi_cache():
    """Does nothing: phi_np_solve keeps no state between calls.

    perfbench/run.py still calls it before each in-process command; the next
    benchmark change drops that call, and then this function.
    """


def _inflate_to_feasible(prob, active, Q0):
    """Floor the matrix at p, then blend toward its saturated version until
    every active density floor holds; the blend parameter is bisected.  Falls
    back to blending toward the all-ones matrix when the support is too thin.
    Returns None when even the complete graph misses a target."""
    p = prob.p
    base = np.maximum(_as_matrix(Q0), p)
    np.fill_diagonal(base, 0.0)

    def feasible(x):
        for k, target in active:
            if hom_density(prob.family[k], x, scale=p) < target:
                return False
        return True

    def blend(lam, top):
        x = p + lam * (top - p)
        np.fill_diagonal(x, 0.0)
        return x

    for top in (base, np.ones_like(base)):
        top = np.minimum(top, 1.0)
        if not feasible(blend(1.0, top)):
            continue
        lo, hi = 0.0, 1.0
        if feasible(blend(0.0, top)):
            return blend(0.0, top)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(blend(mid, top)):
                hi = mid
            else:
                lo = mid
        return blend(hi, top)
    return None


def _penalty_descent(prob, active, Q0):
    """Minimize Ent_p(Q) + rho sum_k (target_k - t_k)_+^2 over the clipped
    box, multiplying rho by ten each round."""
    p = prob.p
    rho = float(prob.n) ** 2

    def make_fns(rho_now):
        def value_fn(Q):
            t = _densities(prob, Q)
            pen = 0.0
            for k, target in active:
                pen += max(0.0, target - t[k]) ** 2
            return -(entropy(Q, p) + rho_now * pen)

        def grad_fn(Q):
            t = _densities(prob, Q)
            g = -entropy_grad(Q, p)
            for k, target in active:
                viol = target - t[k]
                if viol > 0.0:
                    g += 2.0 * rho_now * viol * hom_density_grad(
                        prob.family[k], Q, scale=p)
            return g
        return value_fn, grad_fn

    Q = np.array(_as_matrix(Q0), dtype=float)
    for _ in range(8):
        value_fn, grad_fn = make_fns(rho)
        Q, _, _, _ = _pga(value_fn, grad_fn, Q, 150, 1e-8)
        rho *= 10.0
    return Q


def phi_np_solve(prob):
    """Minimize Ent_p(Q) subject to t(F_k, Q/p) >= 1 + s_k for s_k > 0.

    Zero targets impose no constraint, so s = 0 returns exactly zero at
    Q = p.  Clique-hub witnesses built from the limit optimizers compete
    with a penalty descent started at the best of them; the reported value
    is the best feasible entropy, which by construction never exceeds any
    witness.  The answer depends on prob alone.
    """
    if prob.s is None:
        raise DomainError("phi_np_solve needs a target problem")
    p, n = prob.p, prob.n
    active = [(k, 1.0 + sk) for k, sk in enumerate(prob.s) if sk > 0.0]
    flat = np.full((n, n), p)
    np.fill_diagonal(flat, 0.0)
    if not active:
        sol = PhiNpSolution(value=0.0, table=WeightTable(flat),
                            t=_densities(prob, flat), residual=0.0,
                            diagnostics={"candidates": [], "selected": "flat",
                                         "witness_value": 0.0})
        return sol

    candidates = []
    try:
        prog = PlanarProgram(prob.family, allow_mixed_max_degree=True)
        limit = prog.solve(prob.s)
    except CapabilityError:  # no planar limit: no witnesses
        limit = PlanarSolution(None, [])
    points = [(o.a, o.b) for o in limit.optimizers]
    points += [(a, b) for a, b, _ in limit.near_ties]
    witness_vals = []
    for a, b in points:
        for rounding in (math.floor, math.ceil):
            ki, kj = overlay_sizes(n, p, prob.delta, a, b, rounding=rounding)
            overlay = overlay_matrix(n, p, range(ki), range(ki, ki + kj))
            fixed = _inflate_to_feasible(prob, active, overlay)
            if fixed is not None:
                witness_vals.append(entropy(fixed, p))
                candidates.append(("witness(%d,%d)" % (ki, kj), fixed))

    start = candidates[int(np.argmin(witness_vals))][1] if witness_vals \
        else np.ones_like(flat)
    refined = _penalty_descent(prob, active, start)
    fixed = _inflate_to_feasible(prob, active, refined)
    if fixed is not None:
        candidates.append(("descent", fixed))

    rows = []
    best = None
    for label, q in candidates:
        t = _densities(prob, q)
        viol = max((target - t[k] for k, target in active), default=0.0)
        feas = viol <= 1e-9
        ent = entropy(q, p)
        rows.append({"label": label, "entropy": ent, "violation": max(viol, 0.0),
                     "feasible": bool(feas)})
        if feas and (best is None or ent < best[1]):
            best = (label, ent, q, t, max(viol, 0.0))
    if best is None:
        raise DomainError("density floors unreachable even at the complete graph")
    label, value, Q, t, residual = best
    if any(value > w + 1e-9 for w in witness_vals):
        raise InternalError("witness dominance violated")
    diag = {"candidates": rows, "selected": label,
            "witness_value": min(witness_vals) if witness_vals else None}
    return PhiNpSolution(value=value, table=WeightTable(np.clip(Q, 0.0, 1.0)),
                         t=t, residual=residual, diagnostics=diag)


# ---------------------------------------------------------------------------
# alignment probe


def stability_probe(prob, Q):
    """Distance from Q to the nearest aligned clique-hub overlay.

    For every limit optimizer (a, b) with overlay_sizes (k_I, k_J) the probe
    picks hub rows as the k_J rows of largest total mass, then clique rows as
    the k_I remaining rows of largest mass within the remainder, and reports
    the scaled Frobenius distance to that overlay.  Reported only; nothing
    here is a convergence guarantee.
    """
    if prob.s is None:
        raise DomainError("stability_probe needs a target problem")
    x = _as_matrix(Q)
    n, p = prob.n, prob.p
    prog = PlanarProgram(prob.family, allow_mixed_max_degree=True)
    limit = prog.solve(prob.s)
    scale = n * p ** (prob.delta / 2.0)
    reports = []
    for opt in limit.optimizers:
        ki, kj = overlay_sizes(n, p, prob.delta, opt.a, opt.b)
        order = np.argsort(-x.sum(axis=1), kind="stable")
        hub = np.sort(order[:kj])
        rest = np.sort(order[kj:])
        sub = x[np.ix_(rest, rest)]
        order2 = np.argsort(-sub.sum(axis=1), kind="stable")
        clique = np.sort(rest[order2[:ki]])
        dist = float(np.linalg.norm(x - overlay_matrix(n, p, clique, hub))
                     / scale)
        reports.append({"a": opt.a, "b": opt.b,
                        "clique": tuple(int(v) for v in clique),
                        "hub": tuple(int(v) for v in hub), "distance": dist})
    reports.sort(key=lambda r: r["distance"])
    return {"distance": reports[0]["distance"] if reports else math.nan,
            "reports": reports}
