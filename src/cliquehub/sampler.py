"""Single-edge heat-bath dynamics for tilted random graphs, exact enumeration
at tiny sizes, and degree-threshold structure detection with certificates.

The stationary law tilts ER(p) by exp(r * H(G/p)) where H applies the tilt
function h to the homomorphism density vector.  Each step resamples one
uniformly chosen pair with the exact conditional probability, so detailed
balance holds by construction.  Structure detection thresholds degrees for
hub rows, then greedily densifies the high-degree remainder into an
almost-clique, and reports edge-count and spectral certificates.
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .errors import CapabilityError, DomainError, InternalError
# psi_solve is not called here; perfbench's tracer wraps it on this module
from .hamiltonian import (HamiltonianSpec, checked_hamiltonian, direct_route,
                          h_float, h_value, psi_solve)  # noqa: F401
# hom_density_delta is reached through toggle_rule; the name stays here
# because perfbench's tracer wraps it on this module
from .motifs import (_as_matrix, hom_density, hom_density_delta, rate,
                     toggle_rule, validate_family)
from .nmf import overlay_matrix, overlay_sizes

CLAMP = 700.0
ENUM_MAX_VERTICES = 6
KERNEL_MAX_STATES = 4096
RESYNC_SWEEPS = 64
# a sweep reads its random words this many at a time; the chunk is held as
# Python ints, about 36 bytes each
DRAW_CHUNK = 512
# detection defaults: hub rows have degree at least (1 - DELTA_HUB) n, and a
# clique block has inner density at least 1 - 2 XI
DELTA_HUB = 0.5
XI = 0.05
# run_experiment refuses runs whose resident arrays would pass this many bytes
SAMPLE_MEMORY = 2 ** 29


def _sample_bytes(n):
    """Bytes a sample run holds at n vertices: 8 n^2 for each of seven
    working n x n float64 arrays (chain state, start draw, detection copies,
    overlay, norm workspace) plus the final graph.  One chain is alive at a
    time, so the chain count does not enter."""
    return 8 * n * n * 8


def _sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _clamp(x):
    """What min(CLAMP, max(-CLAMP, x)) gives, NaN to -CLAMP and -0.0 kept,
    in two comparisons: the one clamp of the chain and of the exact law."""
    return (x if x < CLAMP else CLAMP) if x > -CLAMP else -CLAMP


def _heat_bath_probability(x, logit):
    """The chance that a heat-bath step sets a pair to 1 when that raises
    the tilt r H by x: sigmoid(clamp(x) + logit p)."""
    return _sigmoid(_clamp(x) + logit)


def _live_spec(spec):
    """Drop zero-beta terms; return (effective spec or None, family, delta).

    A spec whose surviving term list is empty represents H identically zero
    and is returned as None.
    """
    if spec is None:
        return None, (), None
    kept = [i for i, t in enumerate(spec.terms) if t.beta != 0.0]
    if not kept:
        return None, tuple(spec.family), validate_family(
            spec.family, allow_mixed_max_degree=True).delta
    live = HamiltonianSpec(tuple(spec.family),
                           tuple(spec.terms[i] for i in kept),
                           allow_degenerate=spec.allow_degenerate)
    # errors name each term by its place in the caller's list
    return live, tuple(live.family), checked_hamiltonian(live, kept).delta


def chain_rng(seed, chain):
    """Counter-based generator stream, fully determined by (seed, chain)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chain),))
    return np.random.Generator(np.random.Philox(ss))


def _pair_draws(rng, m):
    """Yield pairs (k, u), each what int(rng.integers(m)) and then
    rng.random() give, from the 64-bit words of rng's Philox stream read
    DRAW_CHUNK at a time.  Once closed it leaves rng where those scalar
    calls would have left it.

    This replays numpy's own algorithms: k is Lemire's 32-bit bounded
    integer, fed half-words through Philox's has_uint32/uinteger buffer,
    low half first; u is (w >> 11) 2^-53 from one whole word; m = 1 draws
    no word for k.
    """
    bits = getattr(rng, "bit_generator", None)
    if not isinstance(bits, np.random.Philox):
        raise CapabilityError("a sweep replays numpy's Philox draws, not %s"
                              % type(rng if bits is None else bits).__name__)
    if not 1 <= m <= 2 ** 32:
        raise CapabilityError("a sweep draws from at most 2^32 pairs")
    chunk = DRAW_CHUNK
    state = bits.state  # where the current chunk starts
    has, half = state["has_uint32"], state["uinteger"]
    words, used = bits.random_raw(chunk).tolist(), 0
    # a product whose low half falls below this is redrawn
    reject = (2 ** 32 - m) % m
    try:
        while True:
            k = 0
            if m > 1:
                while True:
                    if has:
                        has, x = 0, half
                    else:
                        if used == chunk:
                            state = bits.state
                            words, used = bits.random_raw(chunk).tolist(), 0
                        w = words[used]
                        used += 1
                        x, half, has = w & 0xFFFFFFFF, w >> 32, 1
                    x *= m
                    if x & 0xFFFFFFFF >= reject:
                        break
                k = x >> 32
            if used == chunk:
                state = bits.state
                words, used = bits.random_raw(chunk).tolist(), 0
            u = (words[used] >> 11) * 2.0 ** -53
            used += 1
            yield k, u
    finally:
        state["has_uint32"], state["uinteger"] = has, half
        bits.state = state
        bits.random_raw(used, output=False)


class ErgmChain:
    """Mutable single-chain state: adjacency, degrees, cached densities,
    counters.

    The table is binary, so the degree vector deg is exact in floats.  Each
    motif of the family gets a toggle rule compiled from its plan when the
    chain is built; the rules and h run on Python floats.
    """

    def __init__(self, n, p, spec=None, adjacency=None):
        if n < 2:
            raise DomainError("need at least two vertices")
        if not 0.0 < p < 1.0:
            raise DomainError("p must lie in (0, 1)")
        self.n = int(n)
        self.p = float(p)
        self.spec, self.family, self.delta = _live_spec(spec)
        self.r = rate(n, p, self.delta) if self.spec is not None else 0.0
        self.logit = math.log(p / (1.0 - p))
        if adjacency is None:
            adj = np.zeros((n, n))
        else:
            adj = np.array(_as_matrix(adjacency), dtype=float)
            if adj.shape != (n, n):
                raise DomainError("adjacency shape mismatch")
            if not np.all((adj == 0.0) | (adj == 1.0)):
                raise DomainError("adjacency must be binary")
        np.fill_diagonal(adj, 0.0)
        self.adj = adj
        self.deg = adj.sum(axis=1).tolist()
        # pair k is the k-th of combinations(range(n), 2), row i from offsets[i]
        self.pair_count = self.n * (self.n - 1) // 2
        self.offsets = [i * (2 * self.n - i - 1) // 2 for i in range(self.n)]
        self._t = self._fresh_t().tolist()
        self._rules = [toggle_rule(f, adj, self.deg, self.p)
                       for f in self.family]
        self.steps = 0
        self.flips = 0
        self.sweeps = 0
        self.max_drift = 0.0

    @property
    def t(self):
        """The cached density vector of the family."""
        return np.array(self._t)

    def _fresh_t(self):
        return np.array([hom_density(f, self.adj, scale=self.p)
                         for f in self.family])

    def _step(self, k, u):
        """The heat-bath step on pair k, the k-th of combinations(range(n),
        2).  Returns the probability q that the step sets the pair to 1
        and, given a uniform u, sets the pair to 1 if u < q and to 0
        otherwise."""
        offsets = self.offsets
        i = bisect_right(offsets, k) - 1
        j = k - offsets[i] + i + 1
        a = self.adj.item(i, j)
        spec = self.spec
        if spec is None:
            deltas, q = None, self.p
        else:
            t = self._t
            deltas = [rule(i, j, a) for rule in self._rules]
            if a:
                t_hi, t_lo = t, list(map(sub, t, deltas))
            else:
                t_hi, t_lo = list(map(add, t, deltas)), t
            dh = h_float(spec, t_hi) - h_float(spec, t_lo)
            q = _heat_bath_probability(self.r * dh, self.logit)
        if u is not None and (u < q) != a:  # the drawn value is not a
            self._flip(i, j, a, deltas)
        return q

    def _flip(self, i, j, a, deltas):
        """Toggle pair {i, j}, whose value is a; deltas are its density
        changes, or None to compute them."""
        value = 1.0 - a
        if self._rules:
            if deltas is None:
                deltas = [rule(i, j, a) for rule in self._rules]
            self._t = list(map(add if value else sub, self._t, deltas))
        self.adj[i, j] = self.adj[j, i] = value
        self.deg[i] += value - a
        self.deg[j] += value - a
        self.flips += 1

    def _check_pair(self, i, j):
        # the toggle rules and the degree vector assume a pair of distinct
        # vertices; step draws only such pairs
        if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
            raise DomainError("bad edge (%d, %d)" % (i, j))

    def edge_probability(self, i, j):
        """Heat-bath probability that pair {i, j} is set to 1."""
        self._check_pair(i, j)
        i, j = min(i, j), max(i, j)
        return self._step(self.offsets[i] + j - i - 1, None)

    def set_edge(self, i, j, value):
        self._check_pair(i, j)
        a = self.adj.item(i, j)
        if (1.0 if value else 0.0) != a:
            self._flip(i, j, a, None)

    def step(self, rng):
        self._step(int(rng.integers(self.pair_count)), rng.random())
        self.steps += 1

    def sweep(self, rng):
        """pair_count steps, with the draws of as many step(rng) calls."""
        body = self._step
        draws = _pair_draws(rng, self.pair_count)
        done = 0
        try:
            for k, u in itertools.islice(draws, self.pair_count):
                body(k, u)
                done += 1
        finally:
            draws.close()
            self.steps += done
        self.sweeps += 1
        if self.sweeps % RESYNC_SWEEPS == 0:
            self.resync()

    def resync(self):
        """Replace cached densities with a fresh computation; track drift.
        The degree vector must equal the table's row sums exactly."""
        if self.deg != self.adj.sum(axis=1).tolist():
            raise InternalError("degree vector disagrees with the table")
        fresh = self._fresh_t()
        if len(fresh):
            drift = float(np.max(np.abs(fresh - self.t) / (1.0 + np.abs(fresh))))
            self.max_drift = max(self.max_drift, drift)
        self._t = fresh.tolist()
        return self.max_drift

    def edge_count(self):
        return int(round(self.adj.sum() / 2.0))


# ---------------------------------------------------------------------------
# exact enumeration and kernels


@dataclass
class EnumerationResult:
    lam: float
    log_z: float
    nu: np.ndarray
    t_table: np.ndarray
    pairs: list


def _state_tables(n, p, spec):
    """Every graph on n vertices: densities, Hamiltonian values and rate.

    Returns (live, pairs, t_table, h, r); h[s] is H at state s as a float
    and r the tilt rate, or h None and r 0 when the tilt is trivial.
    """
    live, family, delta = _live_spec(spec)
    pairs = list(itertools.combinations(range(n), 2))
    states = 1 << len(pairs)
    t_table = np.zeros((states, len(family)))
    if live is None:
        return live, pairs, t_table, None, 0.0
    for s in range(states):
        adj = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            if s >> k & 1:
                adj[i, j] = adj[j, i] = 1.0
        t_table[s] = [hom_density(f, adj, scale=p) for f in family]
    h = [float(h_value(live, row)) for row in t_table]
    return live, pairs, t_table, h, rate(n, p, delta)


def exact_enumerate(n, p, spec=None, engine="logsumexp"):
    """Exhaustive tilted law over all graphs on n vertices.

    Returns the log normalizing constant relative to ER(p), the partition
    function on the absolute scale, and the exact distribution over states
    (bit k of the state index is pair k of combinations(range(n), 2)).
    """
    if n > ENUM_MAX_VERTICES:
        raise CapabilityError("exact enumeration supports n <= %d"
                              % ENUM_MAX_VERTICES)
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie in (0, 1)")
    live, pairs, t_table, h, r = _state_tables(n, p, spec)
    m = len(pairs)
    states = 1 << m
    ecount = np.array([bin(s).count("1") for s in range(states)])
    log_base = ecount * math.log(p) + (m - ecount) * math.log1p(-p)
    if live is None:
        lam = 0.0
        log_w = log_base
    else:
        tilt = np.array([_clamp(r * hs) for hs in h])
        log_w = log_base + tilt
        if engine == "logsumexp":
            top = float(log_w.max())
            lam = top + math.log(float(np.exp(log_w - top).sum()))
        elif engine == "direct":
            total = 0.0
            for s in range(states):
                w = 1.0
                for k in range(m):
                    w *= p if s >> k & 1 else 1.0 - p
                w *= math.exp(tilt[s])
                total += w
            lam = math.log(total)
        else:
            raise DomainError("unknown engine %r" % engine)
    nu = np.exp(log_w - (lam if live is not None else 0.0))
    total = float(nu.sum())
    if abs(total - 1.0) > 1e-12:
        raise DomainError("enumeration failed to normalize")
    nu = nu / total
    if abs(float(nu.sum()) - 1.0) > 1e-14:
        raise InternalError("enumeration lost normalization")
    log_z = lam - m * math.log1p(-p)
    return EnumerationResult(lam=lam, log_z=log_z, nu=nu, t_table=t_table,
                             pairs=pairs)


def _probability_table(n, p, spec):
    """Exact heat-bath probabilities: table[s][k] is the chance that the
    step on pair k from state s sets the pair to 1.  Returns (table, m)."""
    _, pairs, _, h, r = _state_tables(n, p, spec)
    m = len(pairs)
    if h is None:
        return [[p] * m for _ in range(1 << m)], m
    logit = math.log(p / (1.0 - p))
    table = []
    for s in range(1 << m):
        dh = [h[s | 1 << k] - h[s & ~(1 << k)] for k in range(m)]
        table.append([_heat_bath_probability(r * d, logit) for d in dh])
    return table, m


def transition_matrix(n, p, spec=None):
    """Single-step heat-bath kernel over all 2^C(n,2) states."""
    m = n * (n - 1) // 2
    states = 1 << m
    if states > KERNEL_MAX_STATES:
        raise CapabilityError("kernel supports at most %d states"
                              % KERNEL_MAX_STATES)
    table, _ = _probability_table(n, p, spec)
    kernel = np.zeros((states, states))
    for s in range(states):
        for k in range(m):
            q = table[s][k]
            kernel[s, s | (1 << k)] += q / m
            kernel[s, s & ~(1 << k)] += (1.0 - q) / m
    return kernel


def empirical_distribution(n, p, spec=None, steps=10 ** 6, seed=0):
    """State-occupation frequencies of a heat-bath chain started empty."""
    table, m = _probability_table(n, p, spec)
    rng = chain_rng(seed, 0)
    ks = rng.integers(0, m, size=steps).tolist()
    us = rng.random(steps).tolist()
    counts = [0] * (1 << m)
    state = 0
    for k, u in zip(ks, us):
        bit = 1 << k
        if u < table[state][k]:
            state |= bit
        else:
            state &= ~bit
        counts[state] += 1
    return np.array(counts, dtype=float) / float(steps)


def total_variation(dist_a, dist_b):
    return 0.5 * float(np.abs(np.asarray(dist_a) - np.asarray(dist_b)).sum())


# ---------------------------------------------------------------------------
# spectral distance and structure certificates


def spectral_distance(x, y):
    """Operator norm (largest singular value) of the difference."""
    a = _as_matrix(x)
    b = _as_matrix(y)
    if a.shape != b.shape:
        raise DomainError("shape mismatch")
    return float(np.linalg.norm(a - b, 2))


def almost_certificate(adj, clique, hub, p, delta):
    """Edge-count slack: the smallest xi for which the clique block has at
    least |I|^2 - 2 xi n^2 p^delta (ordered) ones and the hub rows carry at
    least |J|(n-|J|) - xi n^2 p^delta edges to the outside."""
    a = _as_matrix(adj)
    n = a.shape[0]
    scale = float(n) ** 2 * p ** delta
    xi = 0.0
    clique = np.asarray(sorted(clique), dtype=int)
    hub = np.asarray(sorted(hub), dtype=int)
    if clique.size >= 2:
        got = float(a[np.ix_(clique, clique)].sum())
        deficit = clique.size ** 2 - got
        xi = max(xi, deficit / (2.0 * scale))
    if hub.size >= 1:
        outside = np.ones(n, dtype=bool)
        outside[hub] = False
        comp = np.flatnonzero(outside)
        got = float(a[np.ix_(hub, comp)].sum())
        deficit = hub.size * (n - hub.size) - got
        xi = max(xi, deficit / scale)
    return xi


def spectral_certificate(adj, clique, hub, p, delta):
    """Spectral slack: ||G - Q^{I,J}|| / (n p^{delta/2})."""
    a = _as_matrix(adj)
    n = a.shape[0]
    dist = spectral_distance(a, overlay_matrix(n, p, clique, hub))
    return dist / (n * p ** (delta / 2.0))


@dataclass
class StructureReport:
    clique: tuple
    hub: tuple
    xi1: float
    xi2: float


def detect_structure(adj, p, delta, delta_hub=DELTA_HUB, xi=XI,
                     spectral=True):
    """Degree-threshold hub detection plus greedy clique densification.

    Hub rows are those of degree at least (1 - delta_hub) n.  Clique
    candidates are the remaining vertices whose degree away from the hub is
    at least np + sqrt(n); the candidate set is peeled (drop the vertex of
    lowest inner degree while the inner density is below 1 - 2 xi) and then
    greedily grown back in vertex order.  Returns the clique and hub as
    sorted tuples with the edge-count slack xi1 and, when spectral is set,
    the spectral slack xi2 (NaN otherwise).
    """
    a = _as_matrix(adj)
    if not np.all((a == 0.0) | (a == 1.0)):
        raise DomainError("detection needs a binary graph")
    n = a.shape[0]
    deg = a.sum(axis=1)
    is_hub = deg >= (1.0 - delta_hub) * n
    hub = np.flatnonzero(is_hub)
    rest = np.flatnonzero(~is_hub)
    # 0/1 sums are exact in float64, so subtracting the hub columns gives
    # the same degrees as summing the rest x rest block
    deg_rest = deg[rest] - a[np.ix_(rest, hub)].sum(axis=1)
    thr = n * p + math.sqrt(n)
    group = rest[deg_rest >= thr].tolist()
    target = 1.0 - 2.0 * xi
    while len(group) >= 3:
        block = a[np.ix_(group, group)]
        inner = block.sum(axis=1)
        density = float(inner.sum()) / (len(group) * (len(group) - 1))
        if density >= target:
            break
        drop = int(np.argmin(inner))
        group.pop(drop)
    if len(group) < 3:
        group = []
    if group:
        free = ~is_hub
        free[group] = False
        others = np.flatnonzero(free)
        # inner[k] is a[others[k], group].sum() for the current group
        inner = a[np.ix_(others, group)].sum(axis=1)
        total = float(a[np.ix_(group, group)].sum())
        for k, v in enumerate(others.tolist()):
            if inner[k] >= target * len(group):
                grown = total + inner[k] + a[group, v].sum() + a[v, v]
                size = len(group) + 1
                if grown / (size * (size - 1)) >= target:
                    group.append(v)
                    total = grown
                    inner += a[others, v]
        group = sorted(group)

    clique = tuple(group)
    hub = tuple(hub.tolist())
    xi1 = almost_certificate(a, clique, hub, p, delta)
    xi2 = spectral_certificate(a, clique, hub, p, delta) \
        if spectral else math.nan
    return StructureReport(clique=clique, hub=hub, xi1=xi1, xi2=xi2)


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class ExperimentResult:
    columns: list
    rows: list
    summary: dict
    final: np.ndarray


def run_experiment(n, p, sweeps, spec=None, chains=1, burnin=0, thin=1,
                   seed=0, delta_hub=DELTA_HUB, xi=XI, detect=True):
    """Run heat-bath chains one after another and record thinned rows.

    Each chain starts from an ER(p) draw and is released before the next
    one is built; `final` is the last chain's graph.  Rows follow the
    trajectory layout (chain, sweep, edges, t_1..t_m, hubSize, cliqueSize,
    xi1, xi2), chain by chain in sweep order.  The spectral certificate xi2
    is computed for n <= 512 and is NaN above.
    """
    if n < 2:
        raise DomainError("need at least two vertices")
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie in (0, 1)")
    if sweeps < 1:
        raise DomainError("sweeps must be positive")
    if chains < 1 or burnin < 0 or thin < 1:
        raise DomainError("bad chain controls")
    if not (0.0 <= xi < 0.5 and 0.0 <= delta_hub <= 1.0):
        raise DomainError("xi must lie in [0, 1/2) and delta_hub in [0, 1]")
    need = _sample_bytes(n)
    if need > SAMPLE_MEMORY:
        raise CapabilityError(
            "sample at n=%d needs about %d MiB, over the %d MiB cap"
            % (n, need >> 20, SAMPLE_MEMORY >> 20))

    live, family, delta = _live_spec(spec)
    m = len(family)
    columns = (["chain", "sweep", "edges"]
               + ["t_%d" % (k + 1) for k in range(m)]
               + ["hubSize", "cliqueSize", "xi1", "xi2"])
    rows = []
    summary_drift = 0.0
    for c in range(chains):
        rng = chain_rng(seed, c)
        draw = np.triu(rng.random((n, n)) < p, k=1).astype(float)
        chain = ErgmChain(n, p, spec, adjacency=draw + draw.T)
        del draw
        for _ in range(burnin):
            chain.sweep(rng)
        for s in range(1, sweeps + 1):
            chain.sweep(rng)
            if s % thin:
                continue
            if detect:
                rep = detect_structure(chain.adj, p,
                                       delta if delta is not None else 1,
                                       delta_hub=delta_hub, xi=xi,
                                       spectral=n <= 512)
                hub_size, clique_size = len(rep.hub), len(rep.clique)
                xi1, xi2 = rep.xi1, rep.xi2
            else:
                hub_size = clique_size = 0
                xi1 = xi2 = math.nan
            rows.append([c, s, chain.edge_count()]
                        + [float(v) for v in chain.t]
                        + [hub_size, clique_size, xi1, xi2])
        chain.resync()
        summary_drift = max(summary_drift, chain.max_drift)
        final = chain.adj
        del chain

    summary = {"cache_drift": summary_drift, "rate": rate(n, p, delta)
               if delta is not None else None}
    if live is not None:
        try:
            limit = direct_route(live)
            summary["limit_optimizers"] = limit.optimizers
            summary["target_sizes"] = [overlay_sizes(n, p, delta, a, b)
                                       for a, b in limit.optimizers]
        except (DomainError, CapabilityError) as err:  # reported, not fatal
            summary["limit_error"] = str(err)
    return ExperimentResult(columns=columns, rows=rows, summary=summary,
                            final=final)
