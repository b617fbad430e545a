import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from cliquehub.errors import CapabilityError, DomainError, InternalError
from cliquehub.hamiltonian import HamiltonianSpec, HamiltonianTerm, h_value
from cliquehub.motifs import hom_density, hom_density_delta, motif_from_name
from cliquehub import sampler
from cliquehub.nmf import overlay_matrix
from cliquehub.sampler import (
    CLAMP,
    ErgmChain,
    _pair_draws,
    _probability_table,
    _sample_bytes,
    _sigmoid,
    _state_tables,
    almost_certificate,
    chain_rng,
    detect_structure,
    empirical_distribution,
    exact_enumerate,
    run_experiment,
    spectral_certificate,
    spectral_distance,
    total_variation,
    transition_matrix,
)


def triangle_spec(beta):
    return HamiltonianSpec(("C3",), (HamiltonianTerm(0, beta, 1.0, 1.0 / 3.0),))


def er_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    up = np.triu((rng.random((n, n)) < p).astype(float), 1)
    return up + up.T


def planted_graph(n, p, clique, hub, seed):
    """ER(p) background with a forced clique block and hub rows."""
    g = er_graph(n, p, seed)
    for a in clique:
        for b in clique:
            if a != b:
                g[a, b] = 1.0
    for a in hub:
        for b in range(n):
            if b != a and b not in hub:
                g[a, b] = g[b, a] = 1.0
    return g


def test_edge_probability_is_p_without_hamiltonian():
    chain = ErgmChain(8, 0.37)
    for i, j in ((0, 1), (2, 5), (6, 7)):
        assert chain.edge_probability(i, j) == 0.37
    # a spec whose terms all have beta 0 is dropped before simulation
    dead = triangle_spec(0.0)
    chain2 = ErgmChain(8, 0.37, spec=dead)
    assert chain2.edge_probability(0, 1) == 0.37


def test_enumeration_engines_agree():
    for p in (0.3, 0.5):
        for beta in (0.0, 1.0):
            spec = triangle_spec(beta)
            a = exact_enumerate(4, p, spec)
            b = exact_enumerate(4, p, spec, engine="direct")
            assert abs(a.lam - b.lam) <= 1e-10
            assert abs(a.nu.sum() - 1.0) <= 1e-14
            if beta == 0.0:
                assert a.lam == 0.0
                assert b.lam == 0.0


def test_enumeration_log_sum_exp_matches_scipy():
    # the max-shifted log-sum-exp against scipy's on the criterion-6 specs
    n = 4
    for p in (0.3, 0.5):
        for beta in (0.0, 1.0):
            spec = triangle_spec(beta)
            live, pairs, _, h, r = _state_tables(n, p, spec)
            m = len(pairs)
            edges = np.array([bin(s).count("1") for s in range(1 << m)])
            log_w = edges * math.log(p) + (m - edges) * math.log1p(-p)
            if live is not None:
                log_w = log_w + np.clip(r * np.array(h), -CLAMP, CLAMP)
            lam = exact_enumerate(n, p, spec).lam
            assert abs(lam - scipy.special.logsumexp(log_w)) <= 1e-13


def test_enumeration_zero_hamiltonian_on_two_vertices():
    # C3 has no homomorphisms into a 2-vertex graph, so the tilt is trivial
    res = exact_enumerate(2, 0.4, triangle_spec(1.0))
    assert abs(res.lam) <= 1e-12
    assert np.allclose(res.nu, [0.6, 0.4], atol=1e-14)


def test_enumeration_log_partition_shift():
    spec = triangle_spec(1.0)
    res = exact_enumerate(4, 0.5, spec)
    m = 6
    assert abs(res.log_z - (res.lam + m * math.log(2.0))) <= 1e-12


def test_stationarity_and_detailed_balance():
    for p in (0.3, 0.5):
        for beta in (0.0, 1.0):
            spec = triangle_spec(beta)
            enum = exact_enumerate(4, p, spec)
            kernel = transition_matrix(4, p, spec)
            assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-13
            resid = np.max(np.abs(enum.nu @ kernel - enum.nu))
            assert resid <= 1e-12
            flow = enum.nu[:, None] * kernel
            assert np.max(np.abs(flow - flow.T)) <= 1e-13


def test_empirical_distribution_approaches_stationary():
    spec = triangle_spec(1.0)
    enum = exact_enumerate(4, 0.5, spec)
    emp = empirical_distribution(4, 0.5, spec, steps=200000, seed=1)
    assert total_variation(emp, enum.nu) < 0.05


def test_chain_step_matches_exact_kernel():
    # the chain's own heat-bath probability against the enumeration table,
    # over every state and pair, for a family using each delta path
    n, p = 5, 0.4
    spec = HamiltonianSpec(("K12", "C3", "C4", "K4"),
                           (HamiltonianTerm(0, 0.8, 1.0, 0.6),
                            HamiltonianTerm(1, 1.0, 1.0, 0.4),
                            HamiltonianTerm(2, 0.9, 1.0, 0.3),
                            HamiltonianTerm(3, 1.2, 1.0, 0.3)))
    table, m = _probability_table(n, p, spec)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert m == len(pairs)
    for state, row in enumerate(table):
        adj = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            if state >> k & 1:
                adj[i, j] = adj[j, i] = 1.0
        chain = ErgmChain(n, p, spec, adjacency=adj)
        for k, (i, j) in enumerate(pairs):
            assert abs(chain.edge_probability(i, j) - row[k]) <= 1e-12, \
                (state, i, j)


def test_cached_density_drift_stays_small():
    chain = ErgmChain(16, 0.3, spec=triangle_spec(1.0))
    rng = chain_rng(7, 0)
    for _ in range(10000):
        chain.step(rng)
    assert chain.resync() <= 1e-8
    assert chain.max_drift <= 1e-8
    # set_edge keeps the cached densities current after a probability query
    # and flips of the pairs next to it
    chain.edge_probability(0, 1)
    chain.set_edge(1, 2, chain.adj[1, 2] == 0.0)
    chain.set_edge(0, 2, chain.adj[0, 2] == 0.0)
    chain.set_edge(0, 1, chain.adj[0, 1] == 0.0)
    assert np.allclose(chain.t, chain._fresh_t(), rtol=0.0, atol=1e-12)


# one motif per toggle rule: two stars, the triangle, a long cycle, a
# clique and a generic motif (the path on four vertices)
RULE_FAMILY = ("K12", "K13", "C3", "C4", "K4",
               {"name": "P4", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]})


@pytest.mark.parametrize("n, p, seed, steps", [(12, 0.3, 0, 3000),
                                               (30, 0.15, 1, 1500)])
def test_toggle_rules_match_hom_density_delta(n, p, seed, steps):
    # every compiled rule against hom_density_delta at every step, and the
    # heat-bath probability and cached densities against the same chain
    # kept with numpy arrays and h_value, bit for bit
    spec = HamiltonianSpec(RULE_FAMILY, tuple(
        HamiltonianTerm(k, 0.05, 1.0, 0.3) for k in range(len(RULE_FAMILY))))
    family = spec.family
    chain = ErgmChain(n, p, spec, adjacency=er_graph(n, p, seed))
    assert len(chain._rules) == len(family)
    t_ref = chain._fresh_t()
    draws = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(steps):
        k, u = int(draws.integers(len(pairs))), float(draws.random())
        i, j = pairs[k]
        a = float(chain.adj[i, j])
        want = np.array([hom_density_delta(f, chain.adj, i, j, scale=p)
                         for f in family])
        got = [rule(i, j, a) for rule in chain._rules]
        assert got == want.tolist(), (i, j)
        t_hi = t_ref if a else t_ref + want
        t_lo = t_ref - want if a else t_ref
        dh = float(h_value(chain.spec, t_hi) - h_value(chain.spec, t_lo))
        z = min(CLAMP, max(-CLAMP, chain.r * dh)) + chain.logit
        assert chain.edge_probability(i, j) == _sigmoid(z)
        flips = chain.flips
        chain.step(StubGenerator(k, u))
        if chain.flips > flips:
            t_ref = t_ref - want if a else t_ref + want
    assert 0 < chain.flips < chain.steps
    assert np.array_equal(chain.t, t_ref)
    assert chain.deg == chain.adj.sum(axis=1).tolist()


def test_resync_checks_the_degree_vector():
    chain = ErgmChain(10, 0.3, spec=triangle_spec(1.0),
                      adjacency=er_graph(10, 0.3, 4))
    rng = chain_rng(4, 0)
    chain.sweep(rng)
    chain.resync()
    chain.deg[3] += 1.0
    with pytest.raises(InternalError, match="degree"):
        chain.resync()


@pytest.mark.filterwarnings("error")
def test_non_finite_toggle_delta_is_a_domain_error():
    # at p = 1e-107 and n = 100 the triangle divisor p^3 n^3 is about
    # 1e-315, subnormal but not 0: no triangle keeps t at 0, and one common
    # neighbor makes the pair's density change overflow
    n = 100
    adj = np.zeros((n, n))
    adj[0, 2] = adj[2, 0] = adj[1, 2] = adj[2, 1] = 1.0
    chain = ErgmChain(n, 1e-107, spec=triangle_spec(1.0), adjacency=adj)
    assert chain.t.tolist() == [0.0]
    with pytest.raises(DomainError, match="not finite"):
        chain.edge_probability(0, 1)
    with pytest.raises(DomainError, match="not finite"):
        chain.step(StubGenerator(0, 0.5))
    assert chain.steps == 0 and chain.adj[0, 1] == 0.0
    # a pair without a common neighbor still has a finite (zero) change
    assert chain.edge_probability(0, 3) == pytest.approx(1e-107)


@pytest.mark.parametrize("spec", [None, "tilted"])
@pytest.mark.parametrize("i, j", [(3, 3), (-1, 2), (0, 10), (10, 0)])
def test_public_pair_methods_check_the_pair(spec, i, j):
    # a loop or a wrapped index would corrupt the degree vector and the
    # zero diagonal the toggle rules rely on
    chain = ErgmChain(10, 0.3, spec=triangle_spec(1.0) if spec else None,
                      adjacency=er_graph(10, 0.3, 5))
    adj, deg = chain.adj.copy(), list(chain.deg)
    with pytest.raises(DomainError, match="bad edge"):
        chain.set_edge(i, j, 1)
    with pytest.raises(DomainError, match="bad edge"):
        chain.edge_probability(i, j)
    assert np.array_equal(chain.adj, adj) and chain.deg == deg


class StubGenerator:
    """Hands the chain a fixed pair index and a fixed uniform."""

    def __init__(self, k, u):
        self.k, self.u = k, u

    def integers(self, high):
        assert 0 <= self.k < high
        return self.k

    def random(self):
        return self.u


def test_step_toggles_pair_k_of_combinations():
    # draw k picks the k-th pair of combinations(range(n), 2); a uniform of
    # 0 always sets it and 1 always clears it, so the pair flips both ways
    for n in range(2, 10):
        pairs = list(itertools.combinations(range(n), 2))
        chain = ErgmChain(n, 0.4)
        for k, (i, j) in enumerate(pairs):
            for u, want in ((0.0, 1.0), (1.0, 0.0)):
                before = chain.adj.copy()
                chain.step(StubGenerator(k, u))
                changed = np.argwhere(chain.adj != before)
                assert changed.tolist() == [[i, j], [j, i]], (n, k)
                assert chain.adj[i, j] == want
        assert chain.steps == chain.flips == 2 * len(pairs)


def test_flips_count_the_adjacency_changes():
    chain = ErgmChain(10, 0.3, spec=triangle_spec(1.0))
    rng = chain_rng(2, 0)
    changes = 0
    for _ in range(400):
        before = chain.adj.copy()
        chain.step(rng)
        changes += int(np.any(chain.adj != before))
    assert chain.steps == 400
    assert 0 < chain.flips == changes < 400


def test_chain_without_hamiltonian_matches_er_density():
    chain = ErgmChain(30, 0.3)
    rng = chain_rng(3, 0)
    counts = []
    for _ in range(200):
        chain.sweep(rng)
        counts.append(chain.edge_count())
    pairs = 30 * 29 / 2
    mean = np.mean(counts[50:])
    sd = math.sqrt(pairs * 0.3 * 0.7)
    assert abs(mean - pairs * 0.3) < 4 * sd


def test_chain_rng_streams():
    a = chain_rng(11, 0).random(4)
    b = chain_rng(11, 1).random(4)
    c = chain_rng(11, 0).random(4)
    assert not np.allclose(a, b)
    assert np.allclose(a, c)


def same_state(a, b):
    """Two bit generator states, nested dicts of ints and arrays, agree."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


# 4,191,960 pairs at n = 2896, the largest sample; 2^31 + 11 rejects often
@pytest.mark.parametrize("m", [1, 3, 7, 4950, 4191960, 2 ** 31 + 11])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("chunk", [1, 2, 3, 512])
def test_pair_draws_replay_the_scalar_draws(m, seed, buffered, chunk,
                                            monkeypatch):
    # the replay gives what int(integers(m)), random() give pair by pair and
    # leaves the generator where they leave it, whether the half-word buffer
    # starts empty or full; chunks of 1 to 3 words refill inside a pair and
    # carry a buffered half-word over the refill.  A numpy release that
    # changes either algorithm fails here: the sweep has no fallback.
    want_rng, got_rng = chain_rng(seed, 0), chain_rng(seed, 0)
    if buffered:
        want_rng.integers(5)
        got_rng.integers(5)
        assert got_rng.bit_generator.state["has_uint32"] == 1
    count = 700 if chunk < 512 else 3000
    want = [(int(want_rng.integers(m)), want_rng.random())
            for _ in range(count)]
    monkeypatch.setattr(sampler, "DRAW_CHUNK", chunk)
    draws = _pair_draws(got_rng, m)
    got = [pair for _, pair in zip(range(count), draws)]
    draws.close()
    assert got == want
    assert same_state(got_rng.bit_generator.state,
                      want_rng.bit_generator.state)
    assert got_rng.random() == want_rng.random()
    assert got_rng.integers(m) == want_rng.integers(m)


@pytest.mark.parametrize("stop", [0, 1, 2, 5, 6])
def test_pair_draws_stopped_early_leave_the_scalar_state(stop, monkeypatch):
    # a consumer that stops after some pairs, or before the first, leaves
    # the generator after exactly that many scalar pairs
    want_rng, got_rng = chain_rng(7, 0), chain_rng(7, 0)
    for _ in range(stop):
        want_rng.integers(4950)
        want_rng.random()
    monkeypatch.setattr(sampler, "DRAW_CHUNK", 3)
    draws = _pair_draws(got_rng, 4950)
    for _ in range(stop):
        next(draws)
    draws.close()
    assert same_state(got_rng.bit_generator.state,
                      want_rng.bit_generator.state)


def k12_c3_spec():
    return HamiltonianSpec(("K12", "C3"), (HamiltonianTerm(0, 0.7, 1.0, 0.6),
                                           HamiltonianTerm(1, 0.4, 1.0, 0.45)))


def assert_twins(chain, twin, rng, twin_rng):
    assert np.array_equal(chain.adj, twin.adj)
    assert chain.deg == twin.deg and chain._t == twin._t
    assert (chain.flips, chain.steps) == (twin.flips, twin.steps)
    assert same_state(rng.bit_generator.state, twin_rng.bit_generator.state)


def test_sweep_equals_pair_count_steps():
    # a sweep is pair_count calls of step on the same generator, bit for bit
    n, p = 12, 0.2
    chain, twin = (ErgmChain(n, p, k12_c3_spec(),
                             adjacency=er_graph(n, p, 8)) for _ in range(2))
    rng, twin_rng = chain_rng(8, 0), chain_rng(8, 0)
    for sweeps in range(1, 4):
        chain.sweep(rng)
        for _ in range(twin.pair_count):
            twin.step(twin_rng)
        assert_twins(chain, twin, rng, twin_rng)
        assert chain.sweeps == sweeps and twin.sweeps == 0
    assert 0 < chain.flips < chain.steps == 3 * chain.pair_count


def test_sweep_stopped_by_a_domain_error_leaves_the_step_state():
    # the non-finite delta of test_non_finite_toggle_delta_is_a_domain_error,
    # met at step 411 of the first sweep on this seed: the sweep stops where
    # step stops, with the generator where step leaves it
    n = 100
    adj = np.zeros((n, n))
    adj[0, 2] = adj[2, 0] = adj[1, 2] = adj[2, 1] = 1.0
    chain, twin = (ErgmChain(n, 1e-107, spec=triangle_spec(1.0),
                             adjacency=adj) for _ in range(2))
    rng, twin_rng = chain_rng(0, 0), chain_rng(0, 0)
    with pytest.raises(DomainError, match="not finite"):
        chain.sweep(rng)
    with pytest.raises(DomainError, match="not finite"):
        for _ in range(twin.pair_count):
            twin.step(twin_rng)
    assert chain.steps == 410 and chain.sweeps == 0
    assert_twins(chain, twin, rng, twin_rng)


@pytest.mark.parametrize("rng", [np.random.default_rng(0),
                                 np.random.Generator(np.random.MT19937(0)),
                                 StubGenerator(0, 0.5)])
def test_sweep_needs_a_philox_generator(rng):
    # the replay is numpy's Philox stream; any other generator is refused
    # before a draw or a step, and step still takes it
    chain = ErgmChain(6, 0.3, spec=triangle_spec(1.0))
    state = getattr(rng, "bit_generator", None)
    state = state.state if state is not None else None
    with pytest.raises(CapabilityError, match="Philox"):
        chain.sweep(rng)
    assert chain.steps == chain.sweeps == 0
    if state is not None:
        assert same_state(rng.bit_generator.state, state)
    chain.step(rng)
    assert chain.steps == 1


def test_spectral_distance_examples():
    n = 7
    full = np.ones((n, n)) - np.eye(n)
    zero = np.zeros((n, n))
    assert abs(spectral_distance(full, zero) - (n - 1)) <= 1e-6
    assert spectral_distance(full, full) <= 1e-9
    pair = np.zeros((n, n))
    pair[1, 2] = pair[2, 1] = 1.0
    assert abs(spectral_distance(pair, zero) - 1.0) <= 1e-8
    # the norm is exact: ER(0.1) against a 5-clique overlay matches the
    # largest eigenvalue modulus, and a nilpotent difference gives 1
    g = er_graph(100, 0.1, seed=3)
    overlay = overlay_matrix(100, 0.1, range(5), ())
    want = float(np.abs(np.linalg.eigvalsh(g - overlay)).max())
    assert abs(spectral_distance(g, overlay) - want) <= 1e-12 * want
    shift = np.zeros((2, 2))
    shift[0, 1] = 1.0
    assert abs(spectral_distance(shift, np.zeros((2, 2))) - 1.0) <= 1e-12


def test_planted_structure_recovered_exactly():
    n, p, delta = 300, 0.1, 2.0
    clique = tuple(range(40))
    hub = tuple(range(40, 52))
    g = planted_graph(n, p, clique, hub, seed=5)
    report = detect_structure(g, p, delta, xi=0.05)
    assert tuple(report.clique) == clique
    assert tuple(report.hub) == hub
    assert report.xi1 < 0.05


def test_grow_back_restores_clique_members_below_the_threshold():
    n, p, delta = 300, 0.1, 2.0
    clique = tuple(range(40))
    hub = tuple(range(40, 52))
    g = planted_graph(n, p, clique, hub, seed=5)
    outside = np.ones(n, dtype=bool)
    outside[:52] = False
    for v in (3, 17, 29):
        g[v, outside] = 0.0
        g[outside, v] = 0.0
    # degree away from the hub is now 39 < np + sqrt(n), so these three
    # are not candidates and only the grow-back step can return them
    assert g[3].sum() - len(hub) < n * p + math.sqrt(n)
    report = detect_structure(g, p, delta, xi=0.05)
    assert report.clique == clique
    assert report.hub == hub


def test_er_graph_triggers_no_structure():
    g = er_graph(300, 0.1, seed=11)
    report = detect_structure(g, 0.1, 2.0, xi=0.05)
    assert len(report.clique) == 0
    assert len(report.hub) == 0


def test_detect_rejects_non_binary_input():
    g = er_graph(20, 0.3, seed=0)
    g[0, 1] = g[1, 0] = 0.5
    with pytest.raises(DomainError):
        detect_structure(g, 0.3, 2.0)


def test_certificates_on_exact_overlay():
    n, p, delta = 300, 0.1, 2.0
    clique = tuple(range(40))
    hub = tuple(range(40, 52))
    overlay = overlay_matrix(n, p, clique, hub)
    xi1 = almost_certificate(overlay, clique, hub, p, delta)
    xi2 = spectral_certificate(overlay, clique, hub, p, delta)
    # ordered pair counts miss the diagonal, so the clique side keeps
    # a deficit of exactly |I| even on the perfect overlay
    assert abs(xi1 - len(clique) / (2.0 * n * n * p ** delta)) <= 1e-12
    assert xi2 <= 1e-9


def test_certificate_containment_on_noisy_fixtures():
    n, p, delta = 200, 0.15, 2.0
    floor = 1.0 / (n * p ** (delta / 2.0))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        k_i = int(rng.integers(20, 40))
        k_j = int(rng.integers(5, 15))
        clique = tuple(range(k_i))
        hub = tuple(range(k_i, k_i + k_j))
        g = planted_graph(n, p, clique, hub, seed=seed + 100)
        # corrupt a few planted cells so the certificates are not degenerate
        drop = rng.integers(0, k_i, size=(6, 2))
        for a, b in drop:
            if a != b:
                g[clique[a], clique[b]] = g[clique[b], clique[a]] = 0.0
        a_par = (k_i / n) ** 2 / p ** delta
        b_par = (k_j / n) / p ** delta
        xi1 = almost_certificate(g, clique, hub, p, delta)
        xi2 = spectral_certificate(g, clique, hub, p, delta)
        xi = max(xi2, 2.0 * floor)
        assert xi1 <= math.sqrt(max(a_par, b_par)) * xi + 1e-9


def test_run_experiment_shapes_and_summary():
    spec = triangle_spec(0.5)
    res = run_experiment(n=40, p=0.2, sweeps=40, burnin=10, chains=2,
                         seed=9, thin=10, spec=spec, xi=0.08)
    assert res.columns == ["chain", "sweep", "edges", "t_1", "hubSize",
                          "cliqueSize", "xi1", "xi2"]
    assert len(res.rows) == 2 * 4
    assert [row[1] for row in res.rows[:4]] == [10, 20, 30, 40]
    for row in res.rows:
        assert len(row) == len(res.columns)
        assert row[2] >= 0
    assert res.summary["cache_drift"] <= 1e-8
    assert res.summary["rate"] == pytest.approx(
        40 ** 2 * 0.2 ** 2 * math.log(1 / 0.2))
    # final is the last chain's graph: it recounts to the last row
    last = res.rows[-1]
    assert last[:2] == [1, 40]
    assert int(res.final.sum()) == 2 * last[2]
    fresh = hom_density(motif_from_name("C3"), res.final, scale=0.2)
    assert abs(fresh - last[3]) <= 1e-9 * (1.0 + abs(fresh))


def test_run_experiment_memory_within_the_cap():
    # three chains with detection stay under the bound the cap is built on
    n = 80
    tracemalloc.start()
    try:
        run_experiment(n=n, p=0.1, sweeps=1, chains=3, detect=True,
                       spec=triangle_spec(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _sample_bytes(n)


def test_run_experiment_er_density():
    res = run_experiment(n=24, p=0.4, sweeps=60, burnin=20, chains=3,
                         seed=3, thin=5, detect=False)
    pairs = 24 * 23 / 2
    mean = np.mean([row[2] for row in res.rows])
    sd = math.sqrt(pairs * 0.4 * 0.6)
    assert abs(mean - pairs * 0.4) < 4 * sd
    assert res.summary["rate"] is None


def test_run_experiment_config_validation():
    with pytest.raises(DomainError):
        run_experiment(n=10, p=1.5, sweeps=5)
    with pytest.raises(DomainError):
        run_experiment(n=10, p=0.5, sweeps=0)
