import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquehub.errors import CapabilityError, DomainError
from cliquehub.motifs import (
    NAME_MAX_SIZE,
    Motif,
    WeightTable,
    clique_motif,
    cycle_motif,
    er_table,
    hom_density,
    hom_density_delta,
    hom_density_grad,
    hom_sum,
    hom_sum_delta,
    hom_sum_exhaustive,
    hom_sum_fast,
    hom_sum_generic,
    hom_sum_grad,
    indep_poly,
    motif_from_name,
    rate,
    resolve_motif,
    star_motif,
    toggle_rule,
    validate_family,
)

# small connected graphs used as cross-engine fixtures
SMALL_GRAPHS = {
    "P3": (3, [(0, 1), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "bull": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "K13": (4, [(0, 1), (0, 2), (0, 3)]),
}


def random_table(n, p, seed, binary=True):
    rng = np.random.default_rng(seed)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    if binary:
        x = (upper & (rng.random((n, n)) < p)).astype(float)
    else:
        x = np.where(upper, rng.random((n, n)), 0.0)
    x = x + x.T
    return WeightTable(x)


def test_motif_basic_properties():
    c3 = motif_from_name("C3")
    assert c3.vertices == 3
    assert c3.edge_count == 3
    assert c3.max_degree == 2
    assert c3.is_regular
    c4 = motif_from_name("C4")
    assert c4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    star = motif_from_name("K13")
    assert star.max_degree == 3
    assert not star.is_regular
    assert star.star_core().vertices == 1
    edge = motif_from_name("K11")
    assert edge.is_regular and edge.vertices == 2
    k4 = motif_from_name("K4")
    assert k4.degrees == (3, 3, 3, 3)


def test_motif_name_errors():
    with pytest.raises(DomainError):
        motif_from_name("C2")
    with pytest.raises(DomainError):
        motif_from_name("K1")
    with pytest.raises(DomainError):
        motif_from_name("9")


def test_motif_names_are_capped_before_anything_is_built():
    assert motif_from_name("C%d" % NAME_MAX_SIZE).vertices == NAME_MAX_SIZE
    assert motif_from_name("K%d" % NAME_MAX_SIZE).vertices == NAME_MAX_SIZE
    assert motif_from_name("K1%d" % NAME_MAX_SIZE).edge_count == NAME_MAX_SIZE
    for name in ("C%d" % (NAME_MAX_SIZE + 1), "K%d" % (NAME_MAX_SIZE + 1),
                 "K1%d" % (NAME_MAX_SIZE + 1), "K5000", "C100000000",
                 "C" + "9" * 5000):
        with pytest.raises(CapabilityError):
            motif_from_name(name)
    # K1<k> is always a star: K15 has five leaves and K10 none
    assert motif_from_name("K15").plan.kind == "star"
    for name in ("K10", "K100", "K1000"):
        with pytest.raises(DomainError, match="k-leaf star"):
            resolve_motif(name)
    # only ASCII digits spell a size
    with pytest.raises(DomainError, match="unknown motif name"):
        motif_from_name("C\u00b3")


def test_oversized_motif_name_allocates_nothing():
    # the cap is checked on the digit string, before any edge tuple exists
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError):
            motif_from_name("K5000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_motif_validation():
    with pytest.raises(DomainError):
        Motif("loop", 2, ((0, 0),))
    with pytest.raises(DomainError):
        Motif("oob", 2, ((0, 2),))
    with pytest.raises(DomainError):
        Motif("dup", 3, ((0, 1), (1, 0)))
    # motif documents must use integers; bools are not vertex counts
    for vertices, edges in ((3, [[0, 1.5], [1, 2]]), (3, [[0, True], [1, 2]]),
                            (3.9, [[0, 1], [1, 2]]), (True, [])):
        with pytest.raises(DomainError, match="integer"):
            resolve_motif({"name": "bad", "vertices": vertices,
                           "edges": edges})


def test_motif_json_round_trip():
    for name in ("C3", "C5", "K13", "K4"):
        m = motif_from_name(name)
        again = resolve_motif(m.to_json_dict())
        assert again.edges == m.edges
        assert again.vertices == m.vertices


def test_indep_poly_coefficients():
    assert list(indep_poly(motif_from_name("C3")).coeffs) == [1.0, 3.0]
    assert list(indep_poly(motif_from_name("C4")).coeffs) == [1.0, 4.0, 2.0]
    assert list(indep_poly(motif_from_name("C5")).coeffs) == [1.0, 5.0, 5.0]
    assert list(indep_poly(motif_from_name("K13")).coeffs) == [1.0, 4.0, 3.0, 1.0]
    assert list(indep_poly(motif_from_name("K4")).coeffs) == [1.0, 4.0]
    # star core of a star is its center
    assert list(indep_poly(motif_from_name("K13").star_core()).coeffs) == [1.0, 1.0]


def test_indep_poly_inverse_round_trip():
    rng = np.random.default_rng(3)
    for name in ("C3", "C4", "C5", "K13"):
        p = indep_poly(motif_from_name(name))
        for b in rng.uniform(0.0, 9.0, size=20):
            assert abs(p.inverse(p(float(b))) - b) < 1e-9 * (1.0 + b)
    with pytest.raises(DomainError):
        indep_poly(motif_from_name("C3")).inverse(0.5)


def test_weight_table_validation():
    x = np.zeros((3, 3))
    x[0, 1] = 0.5
    with pytest.raises(DomainError):
        WeightTable(x)  # asymmetric
    y = np.eye(3)
    with pytest.raises(DomainError):
        WeightTable(y)  # nonzero diagonal
    z = np.zeros((3, 3))
    z[0, 1] = z[1, 0] = 1.5
    with pytest.raises(DomainError):
        WeightTable(z)  # out of range


def test_weight_table_round_trips():
    t = random_table(9, 0.5, seed=11, binary=False)
    again = WeightTable.from_bytes(t.to_bytes())
    assert np.array_equal(again.matrix, t.matrix)
    again2 = WeightTable.from_json_dict(t.to_json_dict())
    assert np.allclose(again2.matrix, t.matrix)
    b = random_table(7, 0.4, seed=12, binary=True)
    again3 = WeightTable.from_bytes(b.to_bytes()).matrix
    assert np.array_equal(again3, b.matrix)
    assert np.all((again3 == 0.0) | (again3 == 1.0))


def test_er_table_is_binary_and_seeded():
    rng = np.random.default_rng(5)
    t = er_table(20, 0.3, rng)
    assert np.all((t.matrix == 0.0) | (t.matrix == 1.0))
    assert np.array_equal(t.matrix, t.matrix.T)
    assert np.all(np.diag(t.matrix) == 0)
    t2 = er_table(20, 0.3, np.random.default_rng(5))
    assert np.array_equal(t.matrix, t2.matrix)


def test_hom_sum_known_values():
    # triangle graph: 6 ordered embeddings of the triangle motif
    tri = WeightTable(np.array([[0., 1., 1.], [1., 0., 1.], [1., 1., 0.]]))
    assert hom_sum(motif_from_name("C3"), tri) == pytest.approx(6.0)
    # edge density of the triangle graph
    assert hom_density(motif_from_name("K11"), tri, scale=1.0) == \
        pytest.approx(2.0 / 3.0)
    # triangles in K4: 4 choose 3 times 6 orderings
    k4 = WeightTable(np.ones((4, 4)) - np.eye(4))
    assert hom_sum(motif_from_name("C3"), k4) == pytest.approx(24.0)
    # 2-stars count ordered paths: center has n-1 choices squared
    assert hom_sum(motif_from_name("K12"), k4) == pytest.approx(4 * 3 * 3)


def test_hom_engines_agree_binary():
    names = ["K11", "K12", "K13", "C3", "C4", "C5", "K3", "K4"]
    for seed in range(6):
        table = random_table(8, 0.55, seed=seed)
        for name in names:
            m = motif_from_name(name)
            exact = hom_sum_exhaustive(m, table.matrix)
            fast = hom_sum_fast(m, table.matrix)
            generic = hom_sum_generic(m, table.matrix)
            if fast is not None:
                assert fast == pytest.approx(exact, rel=1e-10, abs=1e-9), name
            assert generic == pytest.approx(exact, rel=1e-10, abs=1e-9), name


def test_hom_engines_agree_weighted():
    for seed in range(4):
        table = random_table(7, 0.0, seed=seed, binary=False)
        for name, (v, edges) in SMALL_GRAPHS.items():
            m = Motif(name, v, tuple(edges))
            exact = hom_sum_exhaustive(m, table.matrix)
            generic = hom_sum_generic(m, table.matrix)
            assert generic == pytest.approx(exact, rel=1e-9, abs=1e-9), name
            fast = hom_sum_fast(m, table.matrix)
            if fast is not None:
                assert fast == pytest.approx(exact, rel=1e-9, abs=1e-9), name


def test_hom_disconnected_and_isolated():
    # disconnected motif factorizes over components
    two_edges = Motif("2K2", 4, ((0, 1), (2, 3)))
    table = random_table(6, 0.5, seed=9)
    edge = motif_from_name("K11")
    want = hom_sum(edge, table) ** 2
    assert hom_sum(two_edges, table) == pytest.approx(want, rel=1e-10)
    # isolated vertices multiply by n per vertex
    lonely = Motif("edge_plus_iso", 3, ((0, 1),))
    assert hom_sum(lonely, table) == pytest.approx(
        6.0 * hom_sum(edge, table), rel=1e-10)


@st.composite
def motif_and_table(draw):
    # up to 6 vertices, so isolated vertices and disconnected motifs occur
    v = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(v), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    motif = Motif("F", v, tuple(e for e, k in zip(pairs, keep) if k))
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) \
        else st.floats(0.0, 1.0)
    upper = draw(st.lists(entry, min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    x = np.zeros((n, n))
    x[np.triu_indices(n, 1)] = upper
    return motif, x + x.T


@settings(max_examples=200, deadline=None)
@given(motif_and_table())
def test_engines_match_the_exhaustive_oracle(case):
    motif, x = case
    exact = hom_sum_exhaustive(motif, x)
    binary = bool(np.all((x == 0.0) | (x == 1.0)))
    for engine in ("auto", "generic"):
        got = hom_sum(motif, x, engine=engine)
        if binary:
            assert got == exact, engine
        else:
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-9), engine
    grad = hom_sum_grad(motif, x)
    h = 1e-5
    for i, j in itertools.combinations(range(x.shape[0]), 2):
        hi = x.copy()
        hi[i, j] = hi[j, i] = x[i, j] + h
        lo = x.copy()
        lo[i, j] = lo[j, i] = x[i, j] - h
        fd = (hom_sum(motif, hi) - hom_sum(motif, lo)) / (2.0 * h)
        assert abs(grad[i, j] - fd) <= 1e-6 * max(1.0, abs(fd)), (i, j)


@pytest.mark.parametrize("binary", [True, False])
def test_paths_count_walks(binary):
    # a path on e + 1 vertices has homomorphism sum 1^T X^e 1
    x = random_table(200, 0.1 if binary else 0.0, seed=8, binary=binary).matrix
    ones = np.ones(200)
    for e in (2, 3, 4):
        path = Motif("P%d" % (e + 1), e + 1, tuple((k, k + 1) for k in range(e)))
        walks = ones @ np.linalg.matrix_power(x, e) @ ones
        for engine in ("auto", "generic"):
            got = hom_sum(path, x, engine=engine)
            if binary:
                assert got == walks, (path.name, engine)
            else:
                assert got == pytest.approx(walks, rel=1e-12), (path.name,
                                                                engine)


def test_hom_density_scale():
    table = random_table(10, 0.5, seed=21)
    m = motif_from_name("C3")
    s = 0.3
    direct = hom_sum(m, table) / (0.3 ** 3 * 10 ** 3)
    assert hom_density(m, table, scale=s) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-105])
def test_density_below_the_float_range_is_a_domain_error(scale):
    # at 1e-300 the normalizer scale^3 n^3 underflows to 0; at 1e-105 it is
    # subnormal and the triangle density overflows
    table = random_table(10, 0.5, seed=21)
    m = motif_from_name("C3")
    for density in (lambda: hom_density(m, table, scale=scale),
                    lambda: hom_density_delta(m, table, 0, 1, scale=scale),
                    lambda: hom_density_grad(m, table, scale=scale)):
        with pytest.raises(DomainError):
            density()


def test_hom_generic_caps():
    big = clique_motif(9)  # 9 vertices exceeds the generic cap
    table = random_table(12, 0.9, seed=2)
    with pytest.raises(CapabilityError):
        hom_sum(big, table, engine="generic")
    # a weighted K5 is one contraction step over all five vertices, so it
    # runs over 101^5 > GENERIC_MAX_MAPS index tuples
    with pytest.raises(CapabilityError):
        hom_sum(clique_motif(5), random_table(101, 0.0, seed=4, binary=False),
                engine="generic")
    with pytest.raises(CapabilityError):
        hom_sum(cycle_motif(8), random_table(14, 0.5, seed=3),
                engine="exhaustive")


def test_hom_delta_matches_recompute():
    rng = np.random.default_rng(17)
    names = ["K11", "K12", "K13", "K14", "C3", "C4", "C5", "C6", "K3", "K4",
             "K5"]
    motifs = [motif_from_name(n) for n in names] + [
        Motif("P4", 4, ((0, 1), (1, 2), (2, 3))),
        Motif("C3+iso", 4, ((0, 1), (0, 2), (1, 2))),
        Motif("2K2", 4, ((0, 1), (2, 3)))]

    def check(x, i, j):
        with_edge = x.copy()
        with_edge[i, j] = with_edge[j, i] = 1.0
        without = x.copy()
        without[i, j] = without[j, i] = 0.0
        for m in motifs:
            delta = hom_sum_delta(m, x, i, j)
            want = hom_sum(m, with_edge) - hom_sum(m, without)
            assert delta == pytest.approx(want, rel=1e-9, abs=1e-7), m.name

    for seed in range(5):
        table = random_table(12, 0.5, seed=100 + seed)
        for _ in range(5):
            i = int(rng.integers(0, 12))
            j = int(rng.integers(0, 12))
            if i == j:
                continue
            check(table.matrix, i, j)
    # weighted table whose rows i and j are binary: the clique delta only
    # needs those two rows to be binary
    x = random_table(12, 0.0, seed=200, binary=False).matrix
    i, j = 2, 7
    for v in (i, j):
        row = (rng.random(12) < 0.7).astype(float)
        row[v] = 0.0
        x[v, :] = x[:, v] = row
    check(x, i, j)
    check(x, 3, 9)  # rows with weighted entries take the generic path


@pytest.mark.parametrize("ell", range(4, 9))
def test_cycle_delta_is_exact_on_binary_tables(ell):
    # binary counts are integers far below 2^53, so the telescoped delta must
    # equal the difference of two recounts exactly, present edge or absent
    rng = np.random.default_rng(ell)
    motif = cycle_motif(ell)
    for seed in range(4):
        n = int(rng.integers(8, 40))
        x = random_table(n, 0.3, seed=300 + seed).matrix
        for _ in range(5):
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            with_edge = x.copy()
            with_edge[i, j] = with_edge[j, i] = 1.0
            without = x.copy()
            without[i, j] = without[j, i] = 0.0
            want = hom_sum(motif, with_edge) - hom_sum(motif, without)
            assert hom_sum_delta(motif, x, i, j) == want


def test_hom_density_delta_scaling():
    table = random_table(9, 0.6, seed=30)
    m = motif_from_name("C4")
    got = hom_density_delta(m, table, 0, 5, scale=0.4)
    want = hom_sum_delta(m, table, 0, 5) / (0.4 ** 4 * 9 ** 4)
    assert got == pytest.approx(want, rel=1e-12)


def test_rate_value():
    assert rate(100, 0.1, 2) == pytest.approx(100 ** 2 * 0.01 * math.log(10.0))


def test_validate_family_rules():
    fam = validate_family(["K12", "C3", "C4"])
    assert fam.delta == 2
    with pytest.raises(DomainError):
        validate_family(["C3", "K13"])  # mixed max degree
    mixed = validate_family(["C3", "K13"], allow_mixed_max_degree=True)
    assert mixed.delta == 3
    assert mixed.warnings
    with pytest.raises(DomainError):
        validate_family([])
    with pytest.raises(DomainError):
        validate_family([Motif("none", 2, ())])


def test_hom_sum_grad_matches_finite_differences():
    from cliquehub.motifs import hom_sum_grad

    rng = np.random.default_rng(7)
    n = 9
    m = rng.uniform(0.1, 0.9, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    motifs = [motif_from_name(s) for s in ["C3", "C4", "C5", "K12", "K13", "K4", "K2"]]
    motifs.append(Motif("P4", 4, ((0, 1), (1, 2), (2, 3))))
    motifs.append(Motif("paw", 4, ((0, 1), (0, 2), (1, 2), (2, 3))))
    motifs.append(Motif("2K2", 4, ((0, 1), (2, 3))))
    motifs.append(Motif("C3+iso", 5, ((0, 1), (0, 2), (1, 2))))
    h = 1e-6
    for mo in motifs:
        grad = hom_sum_grad(mo, m)
        assert np.allclose(grad, grad.T)
        assert np.all(np.diag(grad) == 0.0)
        for i, j in [(0, 1), (2, 5), (3, 7), (1, 8)]:
            hi = m.copy()
            hi[i, j] += h
            hi[j, i] += h
            lo = m.copy()
            lo[i, j] -= h
            lo[j, i] -= h
            fd = (hom_sum(mo, hi) - hom_sum(mo, lo)) / (2.0 * h)
            assert abs(grad[i, j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_hom_sum_grad_closed_forms():
    from cliquehub.motifs import hom_sum_grad

    t = random_table(8, 0.0, seed=40, binary=False)
    x = t.matrix
    g3 = hom_sum_grad(motif_from_name("C3"), x)
    expect = 6.0 * (x @ x)
    np.fill_diagonal(expect, 0.0)
    assert np.allclose(g3, expect)
    g_star = hom_sum_grad(motif_from_name("K12"), x)
    r = x.sum(axis=1)
    exp_star = 2.0 * np.add.outer(r, r)
    np.fill_diagonal(exp_star, 0.0)
    assert np.allclose(g_star, exp_star)


def test_hom_sum_grad_cap():
    from cliquehub.motifs import hom_sum_grad

    big = random_table(40, 0.5, seed=41)
    with pytest.raises(CapabilityError):
        hom_sum_grad(motif_from_name("K6"), big.matrix)


def test_hom_density_grad_scaling():
    from cliquehub.motifs import hom_density_grad, hom_sum_grad

    t = random_table(7, 0.0, seed=42, binary=False)
    mo = motif_from_name("C4")
    g = hom_density_grad(mo, t, scale=0.3)
    expect = hom_sum_grad(mo, t.matrix) / (0.3 ** 4 * 7.0 ** 4)
    assert np.allclose(g, expect)


def test_star_toggle_rule_overflow_is_a_domain_error():
    # Python's ** raises OverflowError where numpy's gives inf; the rule
    # turns both into the non-finite DomainError of hom_density_delta
    star = star_motif(120)
    adj = np.zeros((2, 2))
    rule = toggle_rule(star, adj, [0.0, 0.0], 0.5)
    assert rule(0, 1, 0.0) == hom_density_delta(star, adj, 0, 1, scale=0.5)
    rule = toggle_rule(star, adj, [400.0, 400.0], 0.5)
    with pytest.raises(DomainError, match="not finite"):
        rule(0, 1, 0.0)


def test_overflowed_density_divisor_is_a_domain_error():
    # 400^121 is past the float range, so the 120-leaf star's density has
    # no divisor at 400 vertices, whatever the table
    star = star_motif(120)
    adj = np.zeros((400, 400))
    with pytest.raises(DomainError, match="normalizer overflows"):
        hom_density(star, adj, scale=0.5)
    with pytest.raises(DomainError, match="normalizer overflows"):
        hom_density_delta(star, adj, 0, 1, scale=0.5)
    with pytest.raises(DomainError, match="normalizer overflows"):
        toggle_rule(star, adj, [0.0] * 400, 0.5)
