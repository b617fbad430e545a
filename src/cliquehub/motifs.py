"""Motifs, weighted graphs, independence polynomials and homomorphism densities.

The homomorphism density of a motif F in a weighted graph X at scale s is

    t(F, X/s) = n^{-v(F)} * sum over all maps phi: V(F) -> [n] of
                prod over edges {u,w} of F of (X[phi(u), phi(w)] / s)

Maps are not required to be injective; the zero diagonal of X kills any map
that collapses an edge.  Three engines compute the underlying weighted
homomorphism sum: closed-form fast paths (cycles via traces, stars via row
sums, cliques via bitset backtracking on binary graphs), a generic einsum
contraction over the motif's edge list, and the same contraction read
straight off the motif, kept as a plan-free reference oracle.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError

LETTERS = "abcdefgh"
# the largest cycle length, leaf count or clique size a built-in name may
# ask for; a name alone would otherwise build any number of edge tuples
NAME_MAX_SIZE = 64
# C<l>, K1<k>, K<r>: K1 is tried first, so K1<k> is always a star
_NAME = re.compile(r"(C|K1|K)([0-9]+)")
GENERIC_MAX_MAPS = 1e10
EXHAUSTIVE_MAX_MAPS = 1e8


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Motif:
    """A small simple graph used as a counting pattern."""

    name: str
    vertices: int
    edges: tuple

    def __post_init__(self):
        if not _is_int(self.vertices) or self.vertices < 1:
            raise DomainError("motif vertices must be a positive integer")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise DomainError("edges must be pairs")
            u, w = e
            if not (_is_int(u) and _is_int(w)):
                raise DomainError("edge endpoints must be integers")
            if not (0 <= u < w < self.vertices):
                raise DomainError("edge endpoints must satisfy 0 <= u < w < vertices")
            if (u, w) in seen:
                raise DomainError("duplicate edge %s" % str(e))
            seen.add((u, w))

    @property
    def edge_count(self):
        return len(self.edges)

    @functools.cached_property
    def plan(self):
        """The motif classified once; every engine but the exhaustive
        reference reads it."""
        return _compile(self)

    def to_json_dict(self):
        return {"name": self.name, "vertices": self.vertices,
                "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json_dict(d):
        try:
            edges = tuple(sorted(tuple(sorted(e)) for e in d["edges"]))
            return Motif(str(d["name"]), d["vertices"], edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("bad motif json: %s" % exc)


# the built-in constructors hand out one shared instance per size, so a
# motif's compiled plan is reused by every caller that names it
@functools.lru_cache(maxsize=None)
def cycle_motif(length):
    if length < 3:
        raise DomainError("cycles need length >= 3")
    edges = tuple(sorted(tuple(sorted((i, (i + 1) % length))) for i in range(length)))
    return Motif("C%d" % length, length, edges)


@functools.lru_cache(maxsize=None)
def star_motif(leaves):
    if leaves < 1:
        raise DomainError("stars need at least one leaf")
    return Motif("K1%d" % leaves, leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


@functools.lru_cache(maxsize=None)
def clique_motif(size):
    if size < 2:
        raise DomainError("cliques need size >= 2")
    return Motif("K%d" % size, size, tuple(itertools.combinations(range(size), 2)))


def motif_from_name(name):
    """Resolve built-in names: C<l> cycles, K1<k> stars, K<r> cliques.

    K1<k> always names the k-leaf star (K15 has five leaves), so cliques of
    10 or more vertices have no built-in name.  A size over NAME_MAX_SIZE is
    a CapabilityError, raised before any edge is built.
    """
    match = _NAME.fullmatch(name)
    if match is None:
        raise DomainError("unknown motif name %r" % name)
    kind, digits = match.groups()
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(NAME_MAX_SIZE)) or int(digits) > NAME_MAX_SIZE:
        raise CapabilityError("built-in motif names go up to size %d"
                              % NAME_MAX_SIZE)
    size = int(digits)
    if kind == "C":
        return cycle_motif(size)
    if kind == "K":
        return clique_motif(size)
    if size < 1:
        raise DomainError("motif name %r: K1<k> names the k-leaf star and "
                          "needs k >= 1; cliques of 10 or more vertices have "
                          "no built-in name" % name)
    return star_motif(size)


def load_json(path, what):
    """The JSON document at path; text that is not JSON is a DomainError
    that names what the file should hold."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DomainError("bad %s json: %s" % (what, exc))


def resolve_motif(spec):
    """Accept a Motif, a built-in name, or a path to a motif json file."""
    if isinstance(spec, Motif):
        return spec
    if isinstance(spec, dict):
        return Motif.from_json_dict(spec)
    try:
        return motif_from_name(spec)
    except DomainError as err:
        # a built-in pattern keeps its own message when no file has the name
        unresolved = (err if _NAME.fullmatch(spec)
                      else DomainError("cannot resolve motif %r" % spec))
    try:
        return Motif.from_json_dict(load_json(spec, "motif"))
    except OSError:
        raise unresolved from None


# ---------------------------------------------------------------------------
# independence polynomial


class IndepPoly:
    """P(x) = 1 + sum over nonempty independent sets U of x^|U|.

    Strictly increasing on x >= 0, so the inverse on [1, inf) is well defined.
    """

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs[0] != 1.0:
            raise DomainError("independence polynomial must have constant term 1")
        # plain-float copies keep the scalar Horner loops off numpy scalars
        self._rev = [float(c) for c in self.coeffs[::-1]]
        self._rev_deriv = [float(k * self.coeffs[k])
                           for k in range(len(self.coeffs) - 1, 0, -1)]

    def __call__(self, x):
        # Horner; plain arithmetic for scalars, numpy for arrays
        if isinstance(x, (float, int)):
            y = 0.0
            for c in self._rev:
                y = y * x + c
            return y
        y = np.zeros_like(np.asarray(x, dtype=float))
        for c in self._rev:
            y = y * x + c
        return y if y.shape else float(y)

    def deriv(self, x):
        y = 0.0
        for c in self._rev_deriv:
            y = y * x + c
        return y

    def inverse(self, y):
        """Solve P(b) = y for b >= 0; requires y >= 1."""
        y = float(y)
        if y < 1.0 - 1e-12:
            raise DomainError("inverse of independence polynomial needs y >= 1")
        if y <= 1.0:
            return 0.0
        hi = 1.0
        while self(hi) < y:
            hi *= 2.0
            if hi > 1e30:
                raise DomainError("inverse bracket failed")
        lo = 0.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if self(mid) < y:
                lo = mid
            else:
                hi = mid
        b = 0.5 * (lo + hi)
        # Newton polish
        for _ in range(6):
            d = self.deriv(b)
            if d <= 0:
                break
            b = max(0.0, b - (self(b) - y) / d)
        if abs(self(b) - y) > 1e-12 * max(1.0, abs(y)):
            raise DomainError("independence polynomial inverse did not converge")
        return b


def indep_poly(motif):
    """Independence polynomial of a motif by subset enumeration."""
    v = motif.vertices
    if v > 24:
        raise CapabilityError("independence polynomial limited to 24 vertices")
    nbr = [0] * v
    for u, w in motif.edges:
        nbr[u] |= 1 << w
        nbr[w] |= 1 << u
    counts = [0] * (v + 1)
    counts[0] = 1

    def grow(mask, last, size):
        counts[size] += 1
        for nxt in range(last + 1, v):
            if not (mask & nbr[nxt]) and not (mask >> nxt) & 1:
                grow(mask | (1 << nxt), nxt, size + 1)

    for start in range(v):
        grow(1 << start, start, 1)
    while counts and counts[-1] == 0:
        counts.pop()
    return IndepPoly(counts)


# ---------------------------------------------------------------------------
# weighted graph container


class WeightTable:
    """Symmetric [0,1] weight matrix with zero diagonal."""

    def __init__(self, matrix):
        x = np.array(matrix, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise DomainError("weight table must be square")
        if x.shape[0] > 0:
            if not np.all(np.isfinite(x)):
                raise DomainError("weights must be finite")
            if np.max(np.abs(x - x.T)) > 1e-12:
                raise DomainError("weight table must be symmetric")
            if np.max(np.abs(np.diag(x))) > 1e-12:
                raise DomainError("weight table diagonal must be zero")
            if x.min() < -1e-12 or x.max() > 1.0 + 1e-12:
                raise DomainError("weights must lie in [0, 1]")
        x = np.clip(x, 0.0, 1.0)
        np.fill_diagonal(x, 0.0)
        self.matrix = x

    @property
    def n(self):
        return self.matrix.shape[0]

    # -- wire formats ------------------------------------------------------
    # binary: u32 little-endian vertex count, then the strict lower triangle
    # row-major ((1,0), (2,0), (2,1), (3,0), ...) as little-endian float64.

    def to_bytes(self):
        n = self.n
        tri = self.matrix[np.tril_indices(n, k=-1)]
        return struct.pack("<I", n) + tri.astype("<f8").tobytes()

    @staticmethod
    def from_bytes(blob):
        if len(blob) < 4:
            raise DomainError("weight table blob too short")
        (n,) = struct.unpack("<I", blob[:4])
        want = n * (n - 1) // 2
        # counted in bytes, so a body that ends inside a float64 is caught
        if len(blob) - 4 != 8 * want:
            raise DomainError("weight table blob has %d bytes after the "
                              "count, expected %d" % (len(blob) - 4, 8 * want))
        body = np.frombuffer(blob[4:], dtype="<f8")
        x = np.zeros((n, n))
        x[np.tril_indices(n, k=-1)] = body
        x = x + x.T
        return WeightTable(x)

    def to_json_dict(self):
        tri = self.matrix[np.tril_indices(self.n, k=-1)]
        return {"n": self.n, "triangle": [float(v) for v in tri]}

    @staticmethod
    def from_json_dict(d):
        try:
            n = d["n"]
            tri = np.asarray(d["triangle"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("bad weight table json: %s" % exc)
        if not _is_int(n) or n < 0:
            raise DomainError("bad weight table json: n must be a "
                              "non-negative integer")
        if tri.size != n * (n - 1) // 2:
            raise DomainError("triangle length does not match n")
        x = np.zeros((n, n))
        x[np.tril_indices(n, k=-1)] = tri
        return WeightTable(x + x.T)


# ---------------------------------------------------------------------------
# motif plans: each motif is classified once


@dataclass(frozen=True)
class MotifPlan:
    """Every fact about a motif that an engine reads, derived once from its
    edge list, so a motif's isolated vertices cost nothing.

    kind is "empty" (no edges), "cycle", "star", "clique" or "generic", and
    size is the cycle length, the number of star leaves or the clique size.
    The classification is of the core, the motif without its iso isolated
    vertices (an edgeless motif keeps one); components are the connected
    components of the core.  The generic engine and the gradients contract
    the core's edge list, and every density is the core's.  max_degree is
    the motif's maximum degree, and a regular motif has no isolated vertex
    and all degrees equal.
    """

    kind: str
    size: int
    iso: int
    core: Motif
    components: tuple = ()
    max_degree: int = 0
    regular: bool = False

    @functools.cached_property
    def hub_poly(self):
        """Independence polynomial of the star core, the subgraph induced
        on the maximum-degree vertices (every vertex when there is no
        edge); built on first use, as indep_poly stops at 24 vertices."""
        if self.kind == "empty":
            star = Motif(self.core.name + "*", self.core.vertices + self.iso, ())
        else:
            top = sorted(u for u, d in _degrees(self.core).items()
                         if d == self.max_degree)
            star = _induced(self.core, top, self.core.name + "*")
        return indep_poly(star)


def _degrees(motif):
    """Degree of each vertex that has an edge."""
    return collections.Counter(u for e in motif.edges for u in e)


def _induced(motif, keep, name):
    """The subgraph induced on the increasing vertex list keep, relabeled
    in that order, with its edges sorted."""
    remap = {u: i for i, u in enumerate(keep)}
    return Motif(name, len(keep), tuple(sorted(
        (remap[u], remap[w]) for u, w in motif.edges
        if u in remap and w in remap)))


def _compile(motif):
    deg = _degrees(motif)
    if not deg:
        core = motif if motif.vertices == 1 else Motif(motif.name, 1, ())
        return MotifPlan("empty", 0, motif.vertices - 1, core)
    live = sorted(deg)
    iso = motif.vertices - len(live)
    core = _induced(motif, live, motif.name + "'") if iso else motif
    v, e = core.vertices, core.edge_count
    low, high = min(deg.values()), max(deg.values())
    components = _components(core)
    if len(components) == 1 and v >= 3 and e == v and low == high == 2:
        kind, size = "cycle", v
    elif e == v - 1 and high == v - 1:
        # v - 1 edges at one vertex leave every other vertex a leaf
        kind, size = "star", v - 1
    elif e == v * (v - 1) // 2:
        kind, size = "clique", v
    else:
        kind, size = "generic", 0
    return MotifPlan(kind, size, iso, core, components, high,
                     not iso and low == high)


def _components(core):
    """Connected components of an isolate-free motif, relabeled; a connected
    motif is its own single component."""
    adj = {}
    for u, w in core.edges:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    parts = []
    seen = set()
    for v0 in sorted(adj):
        if v0 in seen:
            continue
        stack = [v0]
        seen.add(v0)
        verts = []
        while stack:
            u = stack.pop()
            verts.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        parts.append(sorted(verts))
    if len(parts) == 1:
        return (core,)
    return tuple(_induced(core, verts, "%s~%d" % (core.name, idx))
                 for idx, verts in enumerate(parts))


# ---------------------------------------------------------------------------
# homomorphism engines (weighted sums; densities divide by s^e * n^v)


def _as_matrix(table):
    if isinstance(table, WeightTable):
        return table.matrix
    return np.asarray(table, dtype=np.float64)


def _is_binary(x):
    return bool(np.all((x == 0.0) | (x == 1.0)))


def _n_power(n, k):
    """n^k as a float, or a DomainError where Python's ** would overflow."""
    try:
        return float(n) ** k
    except OverflowError:
        raise DomainError("%d^%d is past the float range" % (n, k)) from None


def hom_sum_fast(motif, x):
    """Closed-form weighted homomorphism sum, or None if no fast path fits."""
    plan = motif.plan
    n = x.shape[0]
    if plan.kind == "empty":
        return _n_power(n, motif.vertices)
    scale_iso = _n_power(n, plan.iso)

    if plan.kind == "cycle":
        if _is_binary(x):
            # integer matrix powers stay exact in float64, so binary
            # inputs get integer counts with no eigenvalue roundoff
            power = x
            for _ in range(plan.size - 1):
                power = power @ x
            return scale_iso * float(np.trace(power))
        w = np.linalg.eigvalsh(x)
        return scale_iso * float(np.sum(w ** plan.size))

    if plan.kind == "star":
        r = x.sum(axis=1)
        return scale_iso * float(np.sum(r ** plan.size))

    if plan.kind == "clique" and _is_binary(x):
        masks = []
        for i in range(n):
            m = 0
            row = x[i]
            for j in range(n):
                if row[j] != 0.0:
                    m |= 1 << j
            masks.append(m)
        r = plan.size
        total = _count_cliques(masks, n, r)
        return scale_iso * float(total * math.factorial(r))

    return None


def _count_cliques(masks, n, r):
    """Number of unordered r-cliques via bitset intersection backtracking."""
    if r == 0:
        return 1
    count = 0

    def rec(cand, depth):
        nonlocal count
        if depth == r:
            count += 1
            return
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            rec(cand & masks[v] & ~((1 << (v + 1)) - 1), depth + 1)

    rec((1 << n) - 1, 0)
    return count


@functools.lru_cache(maxsize=1024)
def _contraction_plan(edges, out, n):
    """Subscripts, greedy einsum path and map count for contracting the edge
    tuple on an n-vertex table; the path depends only on the shapes.

    Vertex i is LETTERS[i].  The greedy pairwise path keeps intermediates no
    bigger than the table, and the map count is the number of index tuples
    its steps run over.
    """
    if max(max(e) for e in edges) >= len(LETTERS):
        raise CapabilityError("contractions support motifs up to %d vertices"
                              % len(LETTERS))
    terms = [LETTERS[u] + LETTERS[w] for u, w in edges]
    free = "".join(LETTERS[v] for v in out)
    subs = ",".join(terms) + "->" + free
    ops = [np.broadcast_to(0.0, (n, n))] * len(terms)
    path = tuple(np.einsum_path(subs, *ops, optimize=True)[0])
    live = [set(t) for t in terms]
    maps = 0.0
    for step in path[1:]:
        joined = set().union(*(live[i] for i in step))
        maps += float(n) ** len(joined)
        live = [t for i, t in enumerate(live) if i not in step]
        live.append(joined & set(free).union(*live))
    return subs, path, maps


def _contract(edges, x, out=(), max_maps=math.inf):
    """Sum over maps of the edge list's vertices into [n] of the product of
    x[image of u, image of w] over its edges (u, w), keeping the vertices
    listed in out as free indices, in that order; max_maps bounds the index
    tuples the contraction runs over."""
    edges = tuple(edges)
    subs, path, maps = _contraction_plan(edges, tuple(out), x.shape[0])
    if maps > max_maps:
        raise CapabilityError("contraction limited to %g maps" % max_maps)
    return np.einsum(subs, *[x] * len(edges), optimize=path)


def hom_sum_generic(motif, x):
    """Contraction of the core's edge list, times n per isolated vertex."""
    plan = motif.plan
    n = x.shape[0]
    if plan.kind == "empty":
        return _n_power(n, motif.vertices)
    total = float(_contract(plan.core.edges, x, max_maps=GENERIC_MAX_MAPS))
    return total * _n_power(n, plan.iso)


def hom_sum_exhaustive(motif, x):
    """Reference oracle: full tensor contraction over all maps.

    It reads the motif's edge list directly rather than its plan, so it
    stays independent of the classification the other engines share.
    """
    n = x.shape[0]
    if not motif.edges:
        return _n_power(n, motif.vertices)
    live = sorted({u for e in motif.edges for u in e})
    if len(live) > len(LETTERS):
        raise CapabilityError("exhaustive engine limited to %d motif vertices"
                              % len(LETTERS))
    if float(n) ** len(live) > EXHAUSTIVE_MAX_MAPS:
        raise CapabilityError("exhaustive engine limited to %g maps"
                              % EXHAUSTIVE_MAX_MAPS)
    letter = dict(zip(live, LETTERS))
    subs = ",".join(letter[u] + letter[w] for u, w in motif.edges)
    ops = [x] * motif.edge_count
    total = float(np.einsum(subs + "->", *ops, optimize=True))
    return total * _n_power(n, motif.vertices - len(live))


def hom_sum(motif, table, engine="auto"):
    x = _as_matrix(table)
    if engine == "auto":
        fast = hom_sum_fast(motif, x)
        if fast is not None:
            return fast
        return hom_sum_generic(motif, x)
    if engine == "fast":
        fast = hom_sum_fast(motif, x)
        if fast is None:
            raise CapabilityError("no fast path for motif %s" % motif.name)
        return fast
    if engine == "generic":
        return hom_sum_generic(motif, x)
    if engine == "exhaustive":
        return hom_sum_exhaustive(motif, x)
    raise DomainError("unknown engine %r" % engine)


def _density_divisor(core, n, scale):
    """scale^e n^v for the core; a divisor that underflows to 0 or
    overflows is a DomainError."""
    try:
        norm = scale ** core.edge_count * float(n) ** core.vertices
    except OverflowError:  # Python's ** raises where numpy's gives inf
        norm = math.inf
    if norm == 0.0:
        raise DomainError("density normalizer underflows at scale %g" % scale)
    if norm == math.inf:
        raise DomainError("density normalizer overflows at scale %g and %d "
                          "vertices" % (scale, n))
    return norm


def _not_finite(core, scale):
    return DomainError("density of %s at scale %g is not finite"
                       % (core.name, scale))


def _normalize(total, core, n, scale):
    """A hom sum, toggle delta or gradient of the core divided by
    scale^e n^v; an underflowed divisor or a non-finite result is a
    DomainError."""
    norm = _density_divisor(core, n, scale)
    # the largest magnitude, divided as a Python float, which never warns
    peak = (abs(total) if isinstance(total, float)
            else float(np.abs(total).max(initial=0.0)))
    if not math.isfinite(peak / norm):
        raise _not_finite(core, scale)
    return total / norm


def hom_density(motif, table, scale=1.0, engine="auto"):
    """t(F, X/scale) for a WeightTable or plain symmetric matrix."""
    x = _as_matrix(table)
    n = x.shape[0]
    if n == 0:
        raise DomainError("empty graph")
    if not 0.0 < scale < math.inf:
        raise DomainError("scale must be positive and finite")
    # isolated vertices multiply a hom sum and its n^v normalizer alike, so
    # every density is the core's; dropping them keeps n^iso from overflowing
    core = motif.plan.core
    return _normalize(hom_sum(core, x, engine=engine), core, n, scale)


# ---------------------------------------------------------------------------
# toggle deltas: change in the homomorphism sum when edge {i,j} goes 0 -> 1


def _star_delta(leaves, ri, rj):
    """A star's gain when rows i and j, of weighted degrees ri and rj
    without the pair, gain the edge: the maps centered at i or j that use
    it.  Integer degrees give the exact integer."""
    return ((ri + 1) ** leaves - ri ** leaves
            + (rj + 1) ** leaves - rj ** leaves)


def _triangle_delta(xi, xj):
    """tr((B+E)^3) - tr(B^3) = 6 (B^2)_ij from rows i and j; the zero
    diagonal makes the uncleared rows give the same dot product."""
    return 6.0 * float(xi.dot(xj))


def _cycle_delta(ell, x, i, j):
    """tr((B+E)^ell) - tr(B^ell) with B = x minus edge ij, E the ij pair.

    The difference telescopes to sum_k tr(E B^k (B+E)^(ell-1-k)).  With
    U = [e_i, e_j], each term sums the products of B^k U, columns swapped,
    and (B+E)^(ell-1-k) U.  B and B+E are x plus a multiple of E, which
    swaps rows i and j, so both powers share one product with x per step
    and the table is never copied.
    """
    n = x.shape[0]
    w = np.repeat([-x[i, j], 1.0 - x[i, j]], 2)
    # v[k] holds the columns B^k e_i, B^k e_j, (B+E)^k e_i, (B+E)^k e_j
    v = np.zeros((ell, n, 4))
    v[0, i, 0::2] = v[0, j, 1::2] = 1.0
    for k in range(1, ell):
        np.matmul(x, v[k - 1], out=v[k])
        v[k, i] += w * v[k - 1, j]
        v[k, j] += w * v[k - 1, i]
    return float(np.sum(v[:, :, 1::-1] * v[::-1, :, 2:]))


def hom_sum_delta(motif, table, i, j):
    """hom_sum with edge {i,j} present minus with it absent.

    The current value of the edge in `table` does not matter; the base graph
    B is the table with that edge cleared.  Stars, triangles and cliques
    cost O(n) (cliques plus a count inside the common neighborhood of i and
    j); C_l for l >= 4 costs O(l n^2), and every other motif two recounts
    (for generic motifs, two edge-list contractions), each on a copy of
    the table.
    """
    x = _as_matrix(table)
    n = x.shape[0]
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise DomainError("bad edge (%d, %d)" % (i, j))
    plan = motif.plan
    kind, size = plan.kind, plan.size
    if kind == "empty":
        return 0.0
    if kind == "star":
        d = _star_delta(size, x[i].sum() - x[i, j], x[j].sum() - x[i, j])
    elif kind == "cycle" and size == 3:
        d = _triangle_delta(x[i], x[j])
    elif kind == "cycle":
        d = _cycle_delta(size, x, i, j)
    elif kind == "clique" and _is_binary(x[i]) and _is_binary(x[j]):
        # r(r-1) ways to pin an ordered motif edge on (i, j); with binary
        # rows i and j the rest is a K_{r-2} count on their common neighbors
        common = np.flatnonzero(x[i] * x[j])
        d = size * (size - 1) * hom_sum(clique_motif(size - 2),
                                        x[np.ix_(common, common)])
    else:
        b0 = x.copy()
        b0[i, j] = b0[j, i] = 0.0
        b1 = b0.copy()
        b1[i, j] = b1[j, i] = 1.0
        return hom_sum(motif, b1) - hom_sum(motif, b0)
    return _n_power(n, plan.iso) * float(d)


def hom_density_delta(motif, table, i, j, scale=1.0):
    x = _as_matrix(table)
    n = x.shape[0]
    core = motif.plan.core
    return _normalize(hom_sum_delta(core, x, i, j), core, n, scale)


def toggle_rule(motif, adj, deg, scale):
    """Compile hom_density_delta(motif, adj, i, j, scale) for a binary
    table adj whose row sums the caller keeps in the list deg.

    rule(i, j, a), with a the pair's current value (0.0 or 1.0) and i, j a
    valid pair, gives the same value.  Stars read deg and the triangle
    takes one row dot product, both on Python floats and divided by the
    divisor computed once; every other motif calls hom_density_delta.
    """
    plan = motif.plan
    core, kind, size = plan.core, plan.kind, plan.size
    if kind == "star":
        def change(i, j, a):
            return _star_delta(size, deg[i] - a, deg[j] - a)
    elif kind == "cycle" and size == 3:
        rows = list(adj)  # views, so they follow the caller's flips

        def change(i, j, a):
            return _triangle_delta(rows[i], rows[j])
    else:
        return lambda i, j, a: hom_density_delta(motif, adj, i, j, scale)
    norm = _density_divisor(core, adj.shape[0], scale)

    def rule(i, j, a):
        try:
            d = change(i, j, a) / norm
        except OverflowError:  # Python's ** raises where numpy's gives inf
            d = math.inf
        if not math.isfinite(d):
            raise _not_finite(core, scale)
        return d
    return rule


# ---------------------------------------------------------------------------
# gradients of the homomorphism sum

GRAD_MAX_OPS = 2.0e8


def _pinned_clique_grad(x, r):
    # contraction over the r-2 free vertices of a clique with edge (0, 1) pinned
    edges = [(p, c) for c in range(2, r) for p in (0, 1)]
    edges += itertools.combinations(range(2, r), 2)
    return _contract(edges, x, (0, 1), max_maps=GRAD_MAX_OPS)


def _pinned_edge_grad(core, x):
    # sum of pinned-edge contractions over the motif's edges, both orientations;
    # a generic component has three or more edges, so at least one endpoint
    # of the pinned edge stays in the rest
    n = x.shape[0]
    total = np.zeros((n, n))
    ones = np.ones(n)
    for u, w in core.edges:
        rest = [e for e in core.edges if e != (u, w)]
        present = {c for e in rest for c in e}
        out = tuple(c for c in (u, w) if c in present)
        d = _contract(rest, x, out, max_maps=GRAD_MAX_OPS)
        # an endpoint of degree one drops out of the other edges; broadcast it
        if w not in present:
            d = np.outer(d, ones)
        elif u not in present:
            d = np.outer(ones, d)
        total += d + d.T
    return total


def _component_grad(comp, x):
    plan = comp.plan
    if plan.kind == "cycle":
        return 2.0 * plan.size * np.linalg.matrix_power(x, plan.size - 1)
    if plan.kind == "star":
        k = plan.size
        r = x.sum(axis=1)
        rk = r ** (k - 1) if k > 1 else np.ones_like(r)
        return float(k) * np.add.outer(rk, rk)
    if plan.kind == "clique":
        r = plan.size
        return float(r * (r - 1)) * _pinned_clique_grad(x, r)
    return _pinned_edge_grad(comp, x)


def hom_sum_grad(motif, table):
    """Gradient of hom_sum with respect to the unordered pair weights.

    Returns a symmetric zero-diagonal matrix G where G[i, j] is the derivative
    of hom_sum(motif, x) when x[i, j] and x[j, i] move together.  Disconnected
    motifs use the product rule across components; isolated vertices only
    contribute the usual n^iso factor.
    """
    x = _as_matrix(table)
    n = x.shape[0]
    plan = motif.plan
    out = np.zeros((n, n))
    if plan.kind == "empty":
        return out
    scale = _n_power(n, plan.iso)
    comps = plan.components
    for idx, comp in enumerate(comps):
        rest = scale
        for jdx, other in enumerate(comps):
            if jdx != idx:
                rest *= hom_sum(other, x)
        out += rest * _component_grad(comp, x)
    np.fill_diagonal(out, 0.0)
    return out


def hom_density_grad(motif, table, scale=1.0):
    """Gradient of hom_density under the same pair-weight convention."""
    x = _as_matrix(table)
    n = x.shape[0]
    core = motif.plan.core
    return _normalize(hom_sum_grad(core, x), core, n, scale)


# ---------------------------------------------------------------------------
# rate normalization


def rate(n, p, delta):
    """Gibbs tilt normalization n^2 p^delta log(1/p)."""
    if not 0 < p < 1:
        raise DomainError("p must lie in (0, 1)")
    if n < 1:
        raise DomainError("n must be positive")
    return float(n) ** 2 * p ** delta * math.log(1.0 / p)


@dataclass
class MotifFamily:
    """An ordered family of motifs sharing a maximum degree."""

    motifs: tuple
    delta: int
    warnings: list = field(default_factory=list)


def validate_family(motifs, allow_mixed_max_degree=False):
    motifs = tuple(resolve_motif(m) for m in motifs)
    if not motifs:
        raise DomainError("family must contain at least one motif")
    for m in motifs:
        if m.edge_count == 0:
            raise DomainError("motif %s has no edges" % m.name)
    degs = sorted({m.plan.max_degree for m in motifs})
    warnings = []
    if len(degs) > 1:
        if not allow_mixed_max_degree:
            raise DomainError(
                "family mixes maximum degrees %s; the planar problem takes "
                "one maximum degree" % degs)
        warnings.append(
            "family mixes maximum degrees %s; using the largest" % degs)
    return MotifFamily(motifs, max(degs), warnings)
