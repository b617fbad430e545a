"""Brute-force checks for a product-space Holder-type inequality.

Instances carry finite probability spaces, a weighted set system over the
coordinates, and one nonnegative unit-bounded function per set.  The weighted
product integral is computed exactly, the one-function Holder stability bound
is checked with its explicit constant, and near-equality instances are
decomposed into per-class factor functions by the inductive contraction
scheme.  The random fixture families at the end feed finner-check --suite
and the acceptance suite.
"""

import itertools
import math

import numpy as np

from .errors import CapabilityError, DomainError, load_json

STATE_CAP = 1.0e7


def holder_constant(lam):
    """sqrt(2 / (lam (1 - lam))), the two-function stability constant."""
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    return math.sqrt(2.0 / (lam * (1.0 - lam)))


class ProductInstance:
    """A weighted set system with one function per set.

    spaces: list of 1-d mass vectors, each positive and summing to one.
    system: list of (vertices tuple, weight) pairs; repeats allowed.
    functions: one nonnegative tensor per system entry, indexed by the
    sorted vertices of its set, with mean at most one.
    """

    def __init__(self, spaces, system, functions):
        self.spaces = []
        for mass in spaces:
            m = np.asarray(mass, dtype=float)
            if m.ndim != 1 or m.size == 0:
                raise DomainError("each space needs a 1-d mass vector")
            if not np.all(np.isfinite(m)):
                raise DomainError("masses must be finite")
            if np.any(m <= 0.0):
                raise DomainError("masses must be positive")
            if abs(m.sum() - 1.0) > 1e-9:
                raise DomainError("masses must sum to 1")
            self.spaces.append(m / m.sum())
        n = len(self.spaces)
        if n == 0:
            raise DomainError("instance needs at least one space")
        if len(system) != len(functions):
            raise DomainError("one function per system entry required")
        self.system = []
        for verts, lam in system:
            a = tuple(sorted(set(int(v) for v in verts)))
            if len(a) != len(tuple(verts)):
                raise DomainError("set vertices must be distinct")
            if not a:
                raise DomainError("empty sets are not allowed")
            if a[0] < 0 or a[-1] >= n:
                raise DomainError("set vertex out of range")
            lam = float(lam)
            if not math.isfinite(lam):
                raise DomainError("weights must be finite")
            if lam <= 0.0:
                raise DomainError("weights must be positive")
            self.system.append((a, lam))
        for v in range(n):
            load = sum(lam for a, lam in self.system if v in a)
            if load > 1.0 + 1e-12:
                raise DomainError("weights covering a coordinate exceed 1")
        self.functions = []
        for (a, lam), values in zip(self.system, functions):
            f = np.asarray(values, dtype=float)
            shape = tuple(self.spaces[v].size for v in a)
            if f.shape != shape:
                raise DomainError("function shape %s does not match set %s"
                                  % (f.shape, a))
            if not np.all(np.isfinite(f)):
                raise DomainError("function values must be finite")
            if np.any(f < 0.0):
                raise DomainError("functions must be nonnegative")
            if self.set_integral(a, f) > 1.0 + 1e-12:
                raise DomainError("function mean exceeds 1")
            self.functions.append(f)
        self.classes = _equivalence_classes(n, [a for a, _ in self.system])

    @property
    def num_vertices(self):
        return len(self.spaces)

    @property
    def num_states(self):
        total = 1
        for m in self.spaces:
            total *= m.size
        return total

    def set_measure(self, verts):
        """Product mass tensor over the listed coordinates."""
        return _measure(self.spaces, verts)

    def set_integral(self, verts, values):
        return float((self.set_measure(verts) * values).sum())


def _measure(spaces, verts):
    """Outer product of spaces[v] over verts, in the order listed."""
    out = np.array(1.0)
    for v in verts:
        out = np.multiply.outer(out, spaces[v])
    return out


def _equivalence_classes(n, sets):
    """Partition coordinates so every set is a union of classes.

    Two coordinates fall in the same class when no set separates them,
    i.e. each set contains both or neither.
    """
    key = {}
    for v in range(n):
        key[v] = tuple(v in a for a in sets)
    classes = {}
    for v in range(n):
        classes.setdefault(key[v], []).append(v)
    return tuple(sorted(tuple(c) for c in classes.values()))


def instance_from_dict(data):
    # a document of the wrong shape (a number for a list, a vertex past the
    # spaces, text for a weight) fails somewhere in here; all of it is input
    try:
        spaces = data["spaces"]
        system = [(entry["A"], entry["lambda"]) for entry in data["system"]]
        raw_fns = [(entry["A_index"], entry["values"])
                   for entry in data["functions"]]
        if sorted(idx for idx, _ in raw_fns) != list(range(len(system))):
            raise DomainError("functions must cover each system entry once")
        functions = [None] * len(system)
        for idx, values in raw_fns:
            idx = int(idx)
            verts = tuple(sorted(set(system[idx][0])))
            shape = tuple(len(spaces[v]) for v in verts)
            flat = np.asarray(values, dtype=float)
            if flat.size != int(np.prod(shape)):
                raise DomainError("function %d has %d values, expected %d"
                                  % (idx, flat.size, int(np.prod(shape))))
            functions[idx] = flat.reshape(shape)
        return ProductInstance(spaces, system, functions)
    except KeyError as bad:
        raise DomainError("instance document missing %s" % bad)
    except (IndexError, TypeError, ValueError) as bad:
        raise DomainError("bad instance document: %s" % bad)


def instance_to_dict(inst):
    return {
        "spaces": [m.tolist() for m in inst.spaces],
        "system": [{"A": list(a), "lambda": lam} for a, lam in inst.system],
        "functions": [{"A_index": i, "values": f.ravel().tolist()}
                      for i, f in enumerate(inst.functions)],
    }


def load_instance(path):
    return instance_from_dict(load_json(path, "instance"))


# ---------------------------------------------------------------------------
# the product integral


def _broadcast(inst, verts, values):
    """View a per-set tensor over the full product space."""
    shape = [1] * inst.num_vertices
    for axis, v in enumerate(verts):
        shape[v] = values.shape[axis]
    return values.reshape(shape)


def finner_integral(inst):
    """Exact weighted product integral over the full state space."""
    if inst.num_states > STATE_CAP:
        raise CapabilityError("state space has %d points (cap %g)"
                              % (inst.num_states, STATE_CAP))
    total = inst.set_measure(range(inst.num_vertices))
    for (verts, lam), f in zip(inst.system, inst.functions):
        total = total * _broadcast(inst, verts, f) ** lam
    return float(total.sum())


# ---------------------------------------------------------------------------
# stability of the one-function inequality


def holder_stability_check(g, lam, nu):
    """Check the two-point stability bound for a single function.

    Requires mean(g) <= 1.  With eps = 1 - mean(g^lam), the L1 distance
    of g from the constant 1 must stay below 2 sqrt(2/(lam(1-lam))) sqrt(eps).
    Returns (eps, bound, l1 distance, pass flag).
    """
    g = np.asarray(g, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if g.shape != nu.shape or np.any(nu <= 0.0) or abs(nu.sum() - 1.0) > 1e-9:
        raise DomainError("nu must be a positive probability vector over g")
    if np.any(g < 0.0):
        raise DomainError("g must be nonnegative")
    mean = float((g * nu).sum())
    if mean > 1.0 + 1e-12:
        raise DomainError("mean of g exceeds 1")
    eps = max(0.0, 1.0 - float((g ** lam * nu).sum()))
    bound = 2.0 * holder_constant(lam) * math.sqrt(eps)
    l1 = float((np.abs(g - 1.0) * nu).sum())
    return eps, bound, l1, l1 <= bound + 1e-10


# ---------------------------------------------------------------------------
# factor recovery


def _merge_classes(inst):
    """Collapse each equivalence class into a single coordinate.

    Returns (spaces, system, functions, classes) where classes records, per
    new coordinate, the original vertices it absorbed (sorted).
    """
    classes = inst.classes
    index_of = {}
    for ci, members in enumerate(classes):
        for v in members:
            index_of[v] = ci
    spaces = [_measure(inst.spaces, members).ravel() for members in classes]
    system = []
    functions = []
    for (verts, lam), f in zip(inst.system, inst.functions):
        cls = sorted(set(index_of[v] for v in verts))
        order = [v for ci in cls for v in classes[ci]]
        perm = [verts.index(v) for v in order]
        merged = np.transpose(f, perm).reshape(
            [spaces[ci].size for ci in cls])
        system.append((tuple(cls), lam))
        functions.append(merged)
    return spaces, system, functions, classes


def _pad_cover(spaces, system, functions):
    """Add unit factors on singletons until every coordinate has load 1."""
    system = list(system)
    functions = list(functions)
    for v in range(len(spaces)):
        load = sum(lam for a, lam in system if v in a)
        if load < 1.0 - 1e-12:
            system.append(((v,), 1.0 - load))
            functions.append(np.ones(spaces[v].size))
    return system, functions


def _recover(vertices, spaces, system, functions):
    """Inductive factor construction on a merged, exactly covered system.

    vertices is the sorted list of live coordinate labels; system entries
    are tuples over those labels.  Returns a dict label -> unit-mean factor.
    """
    if len(vertices) == 1:
        v = vertices[0]
        f0 = functions[0]
        mean = float((_measure(spaces, (v,)) * f0).sum())
        if mean <= 0.0:
            return {v: np.ones(spaces[v].size)}
        return {v: f0 / mean}

    full = [i for i, (a, _) in enumerate(system) if len(a) == len(vertices)]
    if len(full) == len(system):
        raise DomainError("system does not separate its coordinates")
    if full:
        lam_star = sum(system[i][1] for i in full)
        keep = [i for i in range(len(system)) if i not in full]
        scaled = [(system[i][0], system[i][1] / (1.0 - lam_star))
                  for i in keep]
        kept_fns = [functions[i] for i in keep]
        return _recover(vertices, spaces, scaled, kept_fns)

    h = {}
    for pivot in (vertices[0], vertices[1]):
        sub_system = []
        sub_functions = []
        for (a, lam), f in zip(system, functions):
            if pivot not in a:
                sub_system.append((a, lam))
                sub_functions.append(f)
                continue
            rest = tuple(u for u in a if u != pivot)
            if not rest:
                continue
            axis = a.index(pivot)
            g = np.tensordot(f, spaces[pivot], axes=([axis], [0]))
            sub_system.append((rest, lam))
            sub_functions.append(g)
        sub = _recover([u for u in vertices if u != pivot],
                       spaces, sub_system, sub_functions)
        if pivot == vertices[0]:
            h.update(sub)
        else:
            h[vertices[0]] = sub[vertices[0]]
    return h


def recover_factors(inst):
    """Build per-class factors and report per-set L1 residuals.

    The recursion contracts one coordinate at a time with the two smallest
    labels as pivots; full-size sets are first absorbed by reweighting the
    rest.  Residuals compare each input function with the product of the
    recovered factors over its classes, in L1 of the set's product measure.
    """
    spaces, merged, functions, classes = _merge_classes(inst)
    system, functions = _pad_cover(spaces, merged, functions)
    h = _recover(list(range(len(spaces))), spaces, system, functions)
    family = {}
    for ci, members in enumerate(classes):
        mean = float((spaces[ci] * h[ci]).sum())
        if mean > 0.0:
            h[ci] = h[ci] / mean
        shape = tuple(inst.spaces[v].size for v in members)
        family[members] = h[ci].reshape(shape)
    residuals = []
    # merged[k] holds the classes of inst.system[k]; padding only appends
    for (verts, _), f, (cls, _) in zip(inst.system, inst.functions, merged):
        order = [v for ci in cls for v in classes[ci]]
        prod = _measure(h, cls).reshape([inst.spaces[v].size for v in order])
        perm = [order.index(v) for v in verts]
        prod = np.transpose(prod, perm)
        resid = inst.set_integral(verts, np.abs(f - prod))
        residuals.append(resid)
    return family, residuals


# ---------------------------------------------------------------------------
# fixture builders: finner-check --suite draws random_instance; criterion 7
# judges the inequality on all three families


def _random_spaces(rng, n, max_space):
    """n probability vectors of 2 to max_space points each."""
    spaces = []
    for _ in range(n):
        size = int(rng.integers(2, max_space + 1))
        mass = rng.random(size) + 0.1
        spaces.append(mass / mass.sum())
    return spaces


def _random_sets(rng, n, max_sets):
    """1 to max_sets random nonempty subsets of range(n), with raw weights.

    Returns (sets, raw, peak): peak is the largest raw load on any
    coordinate, floored at 1, so weights raw * c / peak keep each load <= c.
    """
    count = int(rng.integers(1, max_sets + 1))
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, n + 1))
        sets.append(tuple(sorted(rng.choice(n, size=size, replace=False))))
    raw = rng.random(count) + 0.05
    load = np.zeros(n)
    for a, lam in zip(sets, raw):
        for v in a:
            load[v] += lam
    return sets, raw, max(1.0, load.max())


def random_instance(rng):
    """A random valid instance: 1 to 4 spaces of 2 to 4 points, 1 to 5 sets."""
    n = int(rng.integers(1, 5))
    spaces = _random_spaces(rng, n, 4)
    sets, raw, peak = _random_sets(rng, n, 5)
    scale = float(rng.random() * 0.9 + 0.1) / peak
    system = [(a, lam * scale) for a, lam in zip(sets, raw)]
    functions = []
    for a, _ in system:
        shape = tuple(spaces[v].size for v in a)
        f = rng.random(shape) + 0.05
        mass = _measure(spaces, a)
        f = f / float((f * mass).sum())
        f = f * float(rng.random() * 0.5 + 0.5)
        functions.append(f)
    return ProductInstance(spaces, system, functions)


def random_unit_factors(rng, spaces):
    """One positive unit-mean factor per coordinate."""
    hs = []
    for mass in spaces:
        h = rng.random(mass.size) + 0.25
        hs.append(h / float((h * mass).sum()))
    return hs


def tensor_product_instance(rng, max_vertices=4, max_space=4, max_sets=4):
    """An exact-equality instance built from per-coordinate factors.

    Sets get products of shared unit-mean factors; every coordinate is
    topped up with a singleton carrying the same factor so its covering
    weight is exactly 1, which keeps the product integral at 1.
    """
    n = int(rng.integers(2, max_vertices + 1))
    spaces = _random_spaces(rng, n, max_space)
    hs = random_unit_factors(rng, spaces)
    sets, raw, peak = _random_sets(rng, n, max_sets)
    scale = 0.9 / peak
    system = [(a, lam * scale) for a, lam in zip(sets, raw)]
    for v in range(n):
        slack = 1.0 - sum(lam for a, lam in system if v in a)
        system.append(((v,), slack))
    functions = [_measure(hs, a) for a, _ in system]
    return ProductInstance(spaces, system, functions), hs


def calderon_instance(rng):
    """All 3-subsets of 4 coordinates, weight 1/3 each, random functions."""
    n = 4
    spaces = []
    for _ in range(n):
        mass = rng.random(3) + 0.1
        spaces.append(mass / mass.sum())
    system = [(a, 1.0 / (n - 1))
              for a in itertools.combinations(range(n), n - 1)]
    functions = []
    for a, _ in system:
        shape = tuple(spaces[v].size for v in a)
        f = rng.random(shape) + 0.05
        mass = _measure(spaces, a)
        functions.append(f / float((f * mass).sum()))
    return ProductInstance(spaces, system, functions)
