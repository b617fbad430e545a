import math

import numpy as np
import pytest
import scipy.special

from cliquehub.errors import CapabilityError, DomainError
from cliquehub.hamiltonian import HamiltonianSpec, HamiltonianTerm
from cliquehub.motifs import hom_density
from cliquehub.nmf import (
    NmfProblem,
    entropy,
    entropy_grad,
    nmf_gradient,
    nmf_objective,
    nmf_solve,
    overlay_matrix,
    overlay_sizes,
    phi_np_solve,
    rel_entr,
    relative_entropy,
    stability_probe,
    _project,
)


def triangle_spec(beta, gamma=1.0 / 3.0):
    return HamiltonianSpec(("C3",), (HamiltonianTerm(0, beta, 1.0, gamma),))


def random_symmetric(n, lo, hi, seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(lo, hi, (n, n))
    q = 0.5 * (q + q.T)
    np.fill_diagonal(q, 0.0)
    return q


def test_relative_entropy_examples():
    assert abs(relative_entropy(0.25, 0.5) - 0.130812) < 1e-6
    assert relative_entropy(0.3, 0.3) == 0.0
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(entropy(pair, 0.5) - math.log(2.0)) < 1e-14


def _rel_entr_draws():
    """About 10^5 (x, y) pairs over every branch of rel_entr."""
    rng = np.random.default_rng(19)
    y = rng.uniform(1e-3, 1.0, 10000)
    near = np.concatenate([np.nextafter(0.5, 0.0) * y, 0.5 * y,
                           np.nextafter(0.5, 1.0) * y,
                           np.nextafter(2.0, 0.0) * y, 2.0 * y,
                           np.nextafter(2.0, 4.0) * y])
    tiny = 10.0 ** rng.uniform(-320.0, -300.0, 5000)
    huge = 10.0 ** rng.uniform(300.0, 305.0, 5000)
    x = np.concatenate([rng.random(30000), near, tiny, huge,
                        10.0 ** rng.uniform(-300.0, 300.0, 10000)])
    y = np.concatenate([rng.random(30000), np.tile(y, 6), huge, tiny,
                        10.0 ** rng.uniform(-300.0, 300.0, 10000)])
    return x, y


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_rel_entr_agrees_with_scipy():
    x, y = _rel_entr_draws()
    got, want = rel_entr(x, y), scipy.special.rel_entr(x, y)
    assert np.all(np.isfinite(want))
    assert np.max(_ulps(got, want)) <= 4.0
    # x = 0, and the inputs outside the domain, give identical values
    odd = np.array([0.0, -0.0, -1.0, 1.0, np.nan, np.inf, 1e-300, 1e300])
    xs, ys = np.meshgrid(odd, odd)
    np.testing.assert_array_equal(rel_entr(xs, ys),
                                  scipy.special.rel_entr(xs, ys))
    zero = np.zeros(1000)
    np.testing.assert_array_equal(rel_entr(zero, y[:1000]), zero)


def test_relative_entropy_agrees_with_scipy():
    # the two terms cancel near q = p, so the bound is on their magnitudes
    rng = np.random.default_rng(20)
    p = rng.uniform(1e-6, 1.0 - 1e-6, 100000)
    q = np.concatenate([rng.random(90000), np.zeros(2500), np.ones(2500),
                        p[95000:]])
    t1 = scipy.special.rel_entr(q, p)
    t2 = scipy.special.rel_entr(1.0 - q, 1.0 - p)
    got = relative_entropy(q, p)
    assert np.all(np.abs(got - (t1 + t2))
                  <= 4.0 * np.spacing(np.abs(t1) + np.abs(t2)))


def test_entropy_grad_formula():
    q = random_symmetric(6, 0.1, 0.9, seed=1)
    g = entropy_grad(q, 0.4)
    for i in range(6):
        for j in range(6):
            if i == j:
                assert g[i, j] == 0.0
            else:
                expect = math.log(q[i, j] * 0.6 / (0.4 * (1.0 - q[i, j])))
                assert abs(g[i, j] - expect) < 1e-12


def test_overlay_matrix_and_entropy():
    ki, kj = overlay_sizes(100, 0.1, 2, 4.0, 0.0)
    assert (ki, kj) == (20, 0)
    m = overlay_matrix(100, 0.1, range(ki), range(ki, ki + kj))
    assert abs(entropy(m, 0.1) - 190 * math.log(10.0)) < 1e-9

    m = overlay_matrix(30, 0.2, range(5), range(5, 9))
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    # hub rows connect to everything outside the hub, not to each other
    assert m[5, 6] == 0.2
    assert m[5, 0] == 1.0
    assert m[5, 29] == 1.0
    assert m[0, 1] == 1.0
    assert m[10, 20] == 0.2
    ones = 5 * 4 // 2 + 4 * (30 - 4)
    assert abs(entropy(m, 0.2) - ones * math.log(5.0)) < 1e-9

    with pytest.raises(DomainError, match="does not fit"):
        overlay_matrix(10, 0.2, range(6), range(6, 11))
    with pytest.raises(DomainError, match="disjoint"):
        overlay_matrix(10, 0.2, (0, 1), (1, 2))

    # overlay_sizes: sqrt(a p^delta) n = 17.32..., b p^delta n = 2.5
    n, p, delta, a, b = 100, 0.1, 2, 3.0, 2.5
    assert overlay_sizes(n, p, delta, a, b) == (
        math.floor(math.sqrt(a * p ** delta) * n),
        math.floor(b * p ** delta * n)) == (17, 2)
    assert overlay_sizes(n, p, delta, a, b, rounding=math.ceil) == (18, 3)
    assert overlay_sizes(n, p, delta, a, b, factor=0.8) == (13, 2)
    assert overlay_sizes(n, p, delta, a, b, factor=1.2) == (20, 3)
    # the clique is capped at n, the hub at n - clique
    assert overlay_sizes(n, p, delta, 1e6, 1.0) == (100, 0)
    assert overlay_sizes(n, p, delta, a, 1e4) == (17, 83)
    # negative amplitudes are round-off and count as zero
    assert overlay_sizes(n, p, delta, -1e-12, -1e-12) == (0, 0)
    assert overlay_sizes(n, p, delta, -1e-12, b) == (0, 2)


def test_problem_validation():
    spec = triangle_spec(1.0)
    with pytest.raises(DomainError):
        NmfProblem(n=1, p=0.5, spec=spec)
    with pytest.raises(CapabilityError):
        NmfProblem(n=300, p=0.5, spec=spec)
    with pytest.raises(DomainError):
        NmfProblem(n=10, p=1.0, spec=spec)
    with pytest.raises(DomainError):
        NmfProblem(n=10, p=0.5)
    with pytest.raises(DomainError):
        NmfProblem(n=10, p=0.5, spec=spec, s=(1.0,))
    with pytest.raises(DomainError):
        NmfProblem(n=10, p=0.5, s=(-1.0,), family=("C3",))
    with pytest.raises(DomainError):
        NmfProblem(n=10, p=0.5, s=(1.0, 2.0), family=("C3",))


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    raw = rng.uniform(-0.5, 1.5, (8, 8))
    once = _project(raw)
    twice = _project(once)
    assert np.array_equal(once, twice)
    assert np.all(np.diag(once) == 0.0)
    off = once[~np.eye(8, dtype=bool)]
    assert off.min() >= 1e-9 and off.max() <= 1.0 - 1e-9


def test_gradient_matches_finite_differences():
    spec = HamiltonianSpec(
        ("K12", "C3"),
        (HamiltonianTerm(0, 1.5, 1.0, 0.4), HamiltonianTerm(1, 2.0, 1.0, 1.0 / 3.0)),
    )
    prob = NmfProblem(n=16, p=0.3, spec=spec)
    rng = np.random.default_rng(9)
    h = 1e-6
    for trial in range(100):
        q = random_symmetric(16, 0.35, 0.9, seed=200 + trial)
        i, j = sorted(rng.choice(16, size=2, replace=False))
        grad = nmf_gradient(prob, q)
        hi = q.copy()
        hi[i, j] += h
        hi[j, i] += h
        lo = q.copy()
        lo[i, j] -= h
        lo[j, i] -= h
        fd = (nmf_objective(prob, hi)[0] - nmf_objective(prob, lo)[0]) / (2.0 * h)
        assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_zero_step_keeps_value():
    prob = NmfProblem(n=12, p=0.35, spec=triangle_spec(1.0))
    flat = np.full((12, 12), 0.35)
    np.fill_diagonal(flat, 0.0)
    v0, _ = nmf_objective(prob, flat)
    stepped = _project(flat + 0.0 * nmf_gradient(prob, flat))
    v1, _ = nmf_objective(prob, stepped)
    assert v1 == v0


def test_nmf_solve_floors_and_consistency():
    prob = NmfProblem(n=32, p=0.25, spec=triangle_spec(2.0))
    sol = nmf_solve(prob, max_iter=150, seed=3)
    flat = np.full((32, 32), 0.25)
    np.fill_diagonal(flat, 0.0)
    flat_val, _ = nmf_objective(prob, flat)
    assert sol.value >= flat_val
    assert sol.value >= sol.diagnostics["witness_value"]
    val_check, t_check = nmf_objective(prob, sol.table)
    assert abs(val_check - sol.value) < 1e-9 * (1.0 + abs(sol.value))
    assert np.allclose(t_check, sol.t)
    labels = [r["label"] for r in sol.diagnostics["restarts"]]
    assert "flat" in labels
    assert any(l.startswith("random") for l in labels)


def test_nmf_solve_needs_spec():
    prob = NmfProblem(n=12, p=0.3, s=(1.0,), family=("C3",))
    with pytest.raises(DomainError):
        nmf_solve(prob)


def test_phi_zero_targets_exact():
    prob = NmfProblem(n=24, p=0.3, s=(0.0,), family=("C3",))
    sol = phi_np_solve(prob)
    assert sol.value == 0.0
    assert sol.residual == 0.0
    assert np.all(sol.table.matrix[~np.eye(24, dtype=bool)] == 0.3)


def test_phi_np_feasible_and_dominated():
    prob = NmfProblem(n=48, p=0.2, s=(1.0,), family=("C3",))
    sol = phi_np_solve(prob)
    assert sol.value > 0.0
    assert sol.residual <= 1e-6
    t = hom_density(prob.family[0], sol.table, scale=0.2)
    assert t >= 2.0 - 1e-9
    wit = sol.diagnostics["witness_value"]
    if wit is not None:
        assert sol.value <= wit + 1e-9


def test_phi_np_monotone_chain_decreasing_solve():
    values = {}
    for s in (2.5, 2.0, 1.5, 1.0, 0.5):
        prob = NmfProblem(n=32, p=0.25, s=(s,), family=("C3",))
        values[s] = phi_np_solve(prob).value
    chain = sorted(values)
    for lo, hi in zip(chain, chain[1:]):
        assert values[lo] <= values[hi] + 1e-12


def test_phi_np_answers_from_its_problem_alone():
    def solve(s):
        sol = phi_np_solve(NmfProblem(n=24, p=0.3, s=(s,), family=("C3",)))
        return sol.value, sol.diagnostics, sol.table.to_bytes()

    first = solve(1.0)
    solve(2.0)  # a larger target solved in between changes nothing
    assert solve(1.0) == first
    assert solve(1.0) == first


def test_stability_probe_planted_hub():
    prob = NmfProblem(n=64, p=0.5, s=(2.0,), family=("C3",))
    # the limit optimizer is (0, 2/3), so the overlay hub holds 10 rows
    planted = overlay_matrix(64, 0.5, (), range(10))
    probe = stability_probe(prob, planted)
    assert probe["distance"] < 1e-12
    assert probe["reports"][0]["hub"] == tuple(range(10))


def test_stability_probe_planted_clique():
    prob = NmfProblem(n=100, p=0.3, s=(8.0,), family=("C3",))
    planted = overlay_matrix(100, 0.3, range(60), ())
    probe = stability_probe(prob, planted)
    assert probe["distance"] < 1e-12


def test_stability_probe_shifted_overlay_positive():
    prob = NmfProblem(n=64, p=0.5, s=(2.0,), family=("C3",))
    q = random_symmetric(64, 0.2, 0.8, seed=11)
    probe = stability_probe(prob, q)
    assert probe["distance"] > 0.0
    assert np.isfinite(probe["distance"])
