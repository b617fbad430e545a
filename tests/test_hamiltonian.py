import dataclasses
import json
import math

import numpy as np
import pytest

from cliquehub import hamiltonian
from cliquehub.errors import CapabilityError, DegeneracyError, DomainError
from cliquehub.hamiltonian import (
    EdgeFModel,
    HamiltonianSpec,
    HamiltonianTerm,
    edge_f_solve,
    h_float,
    h_value,
    hamiltonian_from_json_dict,
    hamiltonian_to_json_dict,
    psi_solve,
    solve_beta_c,
    solve_s_c,
    validate_hamiltonian,
)
from cliquehub.motifs import motif_from_name
from cliquehub.planar import phi_solve


def beta_c_closed(g):
    return (1.0 / g) * ((6 - 2 * g) / (6 - 3 * g)) ** ((2 - g) * (3 - g) / g)


def test_validate_growth_condition():
    good = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 0.5),))
    assert validate_hamiltonian(good).ok
    # exponent at the boundary 2/3 is rejected (open interval)
    edge = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 2 / 3),))
    assert not validate_hamiltonian(edge).ok
    # a linear triangle term fails, but passes with a warning when allowed
    lin = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 1.0),))
    assert not validate_hamiltonian(lin).ok
    lin_ok = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 1.0),),
                             allow_degenerate=True)
    rep = validate_hamiltonian(lin_ok)
    assert rep.ok and rep.warnings


def test_validate_bad_terms():
    bad_beta = HamiltonianSpec(("C3",), (HamiltonianTerm(0, -1.0, 1.0, 0.5),))
    rep = validate_hamiltonian(bad_beta)
    assert not rep.ok and rep.errors[0][0] == 0
    bad_gamma = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, -0.5),))
    assert not validate_hamiltonian(bad_gamma).ok
    bad_index = HamiltonianSpec(("C3",), (HamiltonianTerm(3, 1.0, 1.0, 0.5),))
    assert not validate_hamiltonian(bad_index).ok


def test_h_value_shape_and_json():
    spec = HamiltonianSpec(("C3", "C4"),
                           (HamiltonianTerm(0, 2.0, 1.0, 0.5),
                            HamiltonianTerm(1, 1.0, 2.0, 0.25)))
    x = np.array([5.0, 3.0])
    want = 2.0 * 4.0 ** 0.5 + 1.0 * 1.0 ** 0.25
    assert h_value(spec, x) == pytest.approx(want)
    blob = json.dumps(hamiltonian_to_json_dict(spec))
    again = hamiltonian_from_json_dict(json.loads(blob))
    assert [m.name for m in again.family] == ["C3", "C4"]
    assert again.terms == spec.terms
    with pytest.raises(DomainError):
        hamiltonian_from_json_dict({"family": ["C3"]})


def test_allow_degenerate_must_be_a_json_boolean():
    # bool("false") is True, which would turn a growth-condition error into
    # a warning
    doc = {"family": ["C3"], "terms": [{"k": 0, "beta": 1.0, "gamma": 2.0}]}
    for flag in ("false", 0, 1, None):
        with pytest.raises(DomainError, match="allow_degenerate must be "
                                              "true or false"):
            hamiltonian_from_json_dict(dict(doc, allow_degenerate=flag))
    assert not validate_hamiltonian(hamiltonian_from_json_dict(doc)).ok
    spec = hamiltonian_from_json_dict(dict(doc, allow_degenerate=True))
    assert spec.allow_degenerate is True
    assert validate_hamiltonian(spec).ok


def test_json_round_trip_keeps_an_inline_motif():
    # a family motif that no built-in name resolves to is written as its
    # document, so reading the dict back gives the same family
    tri = {"name": "tri", "vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    spec = hamiltonian_from_json_dict(
        {"family": [tri, "K12"], "terms": [{"k": 0, "beta": 1.0,
                                            "gamma": 0.3}]})
    doc = hamiltonian_to_json_dict(spec)
    assert doc["family"] == [tri, "K12"]
    again = hamiltonian_from_json_dict(json.loads(json.dumps(doc)))
    assert again.family == spec.family
    assert again.terms == spec.terms


def test_json_round_trip_keeps_a_motif_named_past_the_cap():
    # a file motif may carry a name whose built-in size is over the cap; it
    # is written as its document
    doc = {"name": "C100000000", "vertices": 3, "edges": [[0, 1], [1, 2]]}
    spec = hamiltonian_from_json_dict(
        {"family": [doc], "terms": [{"k": 0, "beta": 1.0, "gamma": 0.3}]})
    assert hamiltonian_to_json_dict(spec)["family"] == [doc]


def test_h_float_matches_h_value_bit_for_bit():
    spec = HamiltonianSpec(("K12", "C3", "C4"),
                           (HamiltonianTerm(0, 0.7, 1.0, 0.6),
                            HamiltonianTerm(1, 1.3, 0.9, 0.4),
                            HamiltonianTerm(2, 0.2, 1.2, 0.3)))
    rng = np.random.default_rng(3)
    for x in rng.random((2000, 3)) * rng.choice([0.5, 3.0, 1e3], (2000, 1)):
        assert h_float(spec, x.tolist()) == float(h_value(spec, x))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_h_float_gives_h_value_past_the_float_range():
    # Python's ** raises OverflowError where numpy's gives inf
    spec = HamiltonianSpec(("C3", "K12"), (HamiltonianTerm(0, 1.0, 0.0, 3.5),
                                           HamiltonianTerm(1, -1.0, 0.0, 0.5)))
    for x in ([1e120, 2.0], [1e120, 1e240]):
        assert h_float(spec, x) == float(h_value(spec, np.array(x))) == math.inf


def test_h_grad_matches_central_differences_of_h_value():
    # two terms share C3, one with gamma below 1 and one above; the C4 term
    # has gamma above 1, and at a C4 density below its shift the partial is
    # exactly 0
    spec = HamiltonianSpec(("K12", "C3", "C4"),
                           (HamiltonianTerm(0, 0.7, 1.0, 0.6),
                            HamiltonianTerm(1, 1.3, 0.9, 0.4),
                            HamiltonianTerm(1, 0.5, 1.5, 1.7),
                            HamiltonianTerm(2, 0.2, 1.2, 2.5)))
    step = 1e-6
    for x in ([1.8, 2.3, 2.0], [1.3, 1.2, 0.7]):
        x = np.array(x)
        grad = hamiltonian.h_grad(spec, x)
        for k, e in enumerate(np.eye(3) * step):
            central = (h_value(spec, x + e) - h_value(spec, x - e)) / (2 * step)
            assert grad[k] == pytest.approx(central, rel=1e-7), (x, k)
    assert hamiltonian.h_grad(spec, np.array([1.3, 1.2, 0.7]))[2] == 0.0


def test_psi_triangle_hub_phase():
    # raw exponent 1/3 is the triangle model at literature-scale gamma 1
    spec = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 1 / 3),))
    sol = psi_solve(spec)
    assert sol.psi == pytest.approx(2 / 3, abs=1e-7)
    assert sol.duality_gap <= 1e-6 * (1 + abs(sol.psi))
    assert any(abs(a) < 1e-5 and abs(b - 1 / 3) < 1e-4
               for a, b in sol.optimizers)
    assert any(abs(s[0] - 1.0) < 1e-3 for s in sol.s_star)


def test_psi_triangle_clique_phase():
    spec = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 2.0, 1.0, 1 / 3),))
    sol = psi_solve(spec)
    assert sol.psi == pytest.approx(2.0, abs=1e-7)
    assert any(abs(a - 4.0) < 1e-3 and abs(b) < 1e-5 for a, b in sol.optimizers)


def test_psi_empty_terms():
    sol = psi_solve(HamiltonianSpec(("C3",), ()))
    assert sol.psi == pytest.approx(0.0, abs=1e-12)
    assert len(sol.optimizers) == 1
    a, b = sol.optimizers[0]
    assert abs(a) < 1e-8 and abs(b) < 1e-8


def test_psi_rejects_invalid_and_degenerate():
    lin = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 1.0),))
    with pytest.raises(DomainError):
        psi_solve(lin)
    lin_ok = HamiltonianSpec(("C3",), (HamiltonianTerm(0, 1.0, 1.0, 1.0),),
                             allow_degenerate=True)
    with pytest.raises(DegeneracyError):
        psi_solve(lin_ok)


def test_psi_optimizers_solve_their_excess():
    # every reported psi optimizer also solves the planar problem at its
    # own excess vector
    spec = HamiltonianSpec(("K12", "C3", "C4"),
                           (HamiltonianTerm(0, 0.7, 1.0, 0.6),
                            HamiltonianTerm(1, 0.4, 1.2, 0.5),
                            HamiltonianTerm(2, 0.3, 0.8, 0.4)))
    sol = psi_solve(spec)
    assert sol.optimizers and sol.s_star
    for (a, b), s in zip(sol.optimizers, sol.s_star):
        planar = phi_solve(["K12", "C3", "C4"], s)
        assert planar.value == pytest.approx(0.5 * a + b, abs=1e-6)


def test_psi_optimizers_nonempty_when_dual_overshoots():
    # the dual route once read 3.5e-8 above the direct one here, beyond the
    # 3.2e-8 tie window, because the planar feasibility slack let it solve
    # for targets it fell short of; both routes now agree within the window
    spec = HamiltonianSpec(("K12", "C3", "C4"),
                           (HamiltonianTerm(0, 0.771528, 1.0534, 0.790497),
                            HamiltonianTerm(1, 0.340418, 1.08221, 0.394122),
                            HamiltonianTerm(2, 0.700951, 0.952358, 0.374327)))
    sol = psi_solve(spec, seed=4)
    window = 1e-8 * (1.0 + abs(sol.psi))
    assert sol.duality_gap <= window
    assert sol.optimizers and sol.s_star
    for (a, b), s in zip(sol.optimizers, sol.s_star):
        planar = phi_solve(["K12", "C3", "C4"], s)
        assert planar.value == pytest.approx(0.5 * a + b, abs=1e-6)


def test_psi_optimizers_do_not_depend_on_the_seed():
    # the seed only moves the dual route's random starts
    spec = HamiltonianSpec(("K12", "C3", "C4"),
                           (HamiltonianTerm(0, 0.7, 1.0, 0.6),
                            HamiltonianTerm(1, 0.4, 1.2, 0.5),
                            HamiltonianTerm(2, 0.3, 0.8, 0.4)))
    sol0 = psi_solve(spec, seed=0)
    sol7 = psi_solve(spec, seed=7)
    assert sol0.psi_direct == sol7.psi_direct
    assert sol0.optimizers == sol7.optimizers
    assert sol0.s_star == sol7.s_star


def sample_tilted_spec(seed):
    # the K12+C3 Hamiltonian the sampling benchmark writes for this seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0,)))
    terms = []
    for k, gamma_range in enumerate(((0.4, 0.8), (0.3, 0.55))):
        beta, shift, gamma = (float("%.6g" % rng.uniform(*r))
                              for r in ((0.3, 0.8), (0.9, 1.2), gamma_range))
        terms.append(HamiltonianTerm(k, beta, shift, gamma))
    return HamiltonianSpec(("K12", "C3"), tuple(terms))


def c3_at_beta_c(gamma):
    beta_c = solve_beta_c(EdgeFModel("C3", 1.0, gamma))
    return HamiltonianSpec(("C3",), (HamiltonianTerm(0, beta_c, 1.0,
                                                     gamma / 3),))


@pytest.mark.parametrize("make, arg", [(sample_tilted_spec, seed)
                                       for seed in range(10)]
                         + [(c3_at_beta_c, gamma)
                            for gamma in (0.3, 0.75, 1.2, 1.5, 1.8)])
def test_direct_route_gives_psis_optimizers(make, arg):
    # psi's optimizers come from the direct route alone, whatever the
    # dual's seed
    spec = make(arg)
    direct = hamiltonian.direct_route(spec)
    for seed in (0, 1, 7):
        sol = psi_solve(spec, seed=seed)
        assert sol.psi_direct == direct.value
        assert sol.optimizers == direct.optimizers
        assert sol.s_star == direct.s_star
        assert sol.warnings == direct.warnings


def test_sample_and_nmf_make_no_dual_planar_solves(monkeypatch):
    # sample and nmf read only psi's optimizers, so they make the planar
    # solves of the direct route (one per winning run) and not the dual's
    # thousand or more
    from cliquehub.nmf import NmfProblem, nmf_solve
    from cliquehub.planar import PlanarProgram
    from cliquehub.sampler import run_experiment

    calls = []
    solve = PlanarProgram.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(PlanarProgram, "solve", counted)
    spec = sample_tilted_spec(0)
    hamiltonian.direct_route(spec)
    winners = len(calls)
    assert 1 <= winners <= 12
    del calls[:]
    run_experiment(n=12, p=0.2, sweeps=1, spec=spec)
    assert len(calls) == winners
    del calls[:]
    nmf_solve(NmfProblem(n=10, p=0.2, spec=spec), max_iter=5)
    assert len(calls) == winners


def test_nelder_mead_repeats_scipy_bit_for_bit(monkeypatch):
    # psi's simplex search repeats scipy's Nelder-Mead step for step; run
    # both on every search one psi solve makes (direct starts, dual
    # exploration, dual polish) and on two test functions, at the searches'
    # own limits and at budgets of 7 and 13 evaluations
    from scipy.optimize import minimize

    runs = []
    search = hamiltonian._nelder_mead

    def record(fun, x0, **limits):
        runs.append((fun, np.array(x0, dtype=float), limits))
        return search(fun, x0, **limits)

    monkeypatch.setattr(hamiltonian, "_nelder_mead", record)
    psi_solve(HamiltonianSpec(("K12", "C3"),
                              (HamiltonianTerm(0, 0.7, 1.0, 0.6),
                               HamiltonianTerm(1, 0.4, 1.2, 0.5))))
    monkeypatch.undo()
    assert len(runs) == 12 + 6 + 2

    def rosen(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))

    def staircase(x):
        # flat steps fail the contractions, so shrinks come early and the
        # simplex values tie
        return float(np.floor(8.0 * np.sum(x ** 2)))

    limits = dict(xatol=1e-8, fatol=1e-8, maxiter=4000, maxfev=4000)
    for fun in (rosen, staircase):
        for x0 in ([-1.2, 1.0], [0.0, 0.5, -0.3], [1.3, 0.7, 0.8, 1.9]):
            runs.append((fun, np.array(x0), limits))

    def outcome(x, fun, nfev, nit):
        return repr((x.dtype, x.tolist(), fun, nfev, nit))

    cut_shrinks = 0
    for fun, x0, limits in runs:
        for maxfev in (limits["maxfev"], 7, 13):
            lim = dict(limits, maxfev=maxfev)
            seen = set()

            def seen_fun(x):
                seen.add(x.tobytes())
                return fun(x)

            res = minimize(seen_fun, x0, method="Nelder-Mead", options=lim)
            assert outcome(*search(fun, x0, **lim)) == \
                outcome(res.x, res.fun, res.nfev, res.nit)
            # a shrink cut short leaves a moved vertex never evaluated
            if maxfev > len(x0) + 1 and any(
                    v.tobytes() not in seen for v in res.final_simplex[0]):
                cut_shrinks += 1
    assert cut_shrinks >= 2


def test_max_1d_halves_on_the_slope():
    max_1d = hamiltonian._max_1d
    # a smooth interior maximum, to adjacent floats: the slope is positive
    # one float below the returned point and not at it
    third = 1.0 / 3.0

    def slope(t):
        return 2.0 * (third - t)

    x, v, ambiguous = max_1d(lambda t: -(t - third) ** 2, slope, 0.0, 1.0)
    assert (x, v, ambiguous) == (third, 0.0, False)
    assert slope(math.nextafter(x, -math.inf)) > 0.0 >= slope(x)
    # a kink, where the slope jumps from 1 to -1
    kink = math.pi / 4.0
    x, v, ambiguous = max_1d(lambda t: -abs(t - kink),
                             lambda t: 1.0 if t < kink else -1.0, 0.0, 1.0)
    assert (x, v, ambiguous) == (kink, 0.0, False)
    # endpoint maxima, where the slope keeps one sign
    assert max_1d(lambda t: -(t + 1.0) ** 2, lambda t: -2.0 * (t + 1.0),
                  0.0, 1.0) == (0.0, -1.0, False)
    assert max_1d(lambda t: t, lambda t: 1.0, 0.0, 2.0) == (2.0, 2.0, False)
    # an endpoint wins a tie with an interior maximum, which makes the
    # maximum ambiguous
    x, v, ambiguous = max_1d(lambda t: -(t * (t - 0.5)) ** 2,
                             lambda t: -2.0 * t * (t - 0.5) * (2.0 * t - 0.5),
                             0.0, 1.0)
    assert (x, v, ambiguous) == (0.0, 0.0, True)
    # two interior peaks of one height: a plateau reported as ambiguous
    x, v, ambiguous = max_1d(
        lambda t: -((t - 0.25) * (t - 0.75)) ** 2,
        lambda t: -2.0 * (t - 0.25) * (t - 0.75) * (2.0 * t - 1.0), 0.0, 1.0)
    assert x in (0.25, 0.75) and v == 0.0 and ambiguous is True


def test_s_c_triangle():
    assert solve_s_c(motif_from_name("C3")) == pytest.approx(27 / 8, abs=1e-9)
    with pytest.raises(DomainError):
        solve_s_c(motif_from_name("K12"))  # irregular


def test_s_c_needs_the_branches_to_cross():
    # a single edge has T(a, b) = 1 + a + 2b: both costs are s/2, q(s) is 0
    # for every s, and the bracket search must not bisect anyway
    for name in ("K11", "K2"):
        with pytest.raises(DomainError, match="no clique-hub crossover"):
            solve_s_c(motif_from_name(name))
    with pytest.raises(DomainError, match="K11 has no clique-hub crossover"):
        edge_f_solve(EdgeFModel("K11", 1.0, 0.5))


def test_s_c_slope_gap():
    # left slope of phi at the crossover strictly exceeds the right slope
    sc = solve_s_c(motif_from_name("C3"))
    step = 1e-6
    phi = lambda s: phi_solve(["C3"], [s]).value
    left = (phi(sc) - phi(sc - step)) / step
    right = (phi(sc + step) - phi(sc)) / step
    assert left > right + 1e-3


def test_beta_c_closed_forms():
    for g in (0.5, 1.0, 1.5):
        got = solve_beta_c(EdgeFModel("C3", 1.0, g))
        assert got == pytest.approx(beta_c_closed(g), rel=1e-6), g


def test_beta_c_bracketing():
    bc = solve_beta_c(EdgeFModel("C3", 1.0, 1.0))
    below = edge_f_solve(EdgeFModel("C3", bc * (1 - 1e-3), 1.0))
    above = edge_f_solve(EdgeFModel("C3", bc * (1 + 1e-3), 1.0))
    assert below.phase == "hub"
    assert above.phase == "clique"


def test_edge_f_triangle_values():
    sol = edge_f_solve(EdgeFModel("C3", 1.0, 1.0))
    assert sol.phase == "hub"
    assert sol.b_star == pytest.approx(1 / 3, abs=1e-8)
    assert sol.s_hub == pytest.approx(1.0, abs=1e-7)
    assert sol.psi == pytest.approx(2 / 3, abs=1e-9)
    assert sol.beta_c == pytest.approx(16 / 9, rel=1e-6)
    sol2 = edge_f_solve(EdgeFModel("C3", 2.0, 1.0))
    assert sol2.phase == "clique"
    assert sol2.a_star == pytest.approx(4.0, rel=1e-7)
    assert sol2.psi == pytest.approx(2.0, abs=1e-8)


def test_edge_f_zero_beta():
    sol = edge_f_solve(EdgeFModel("C3", 0.0, 1.0))
    assert sol.s_star == 0.0
    assert sol.psi == 0.0
    assert sol.phase == "hub"


def test_edge_f_irregular_always_hub():
    for beta in (0.5, 1.0, 3.0):
        sol = edge_f_solve(EdgeFModel("K12", beta, 1.0))
        assert sol.phase == "hub"
        assert sol.s_c is None and sol.beta_c is None
        # the hub amplitude solves P(b) = 1 + s directly; for the 2-star
        # P(b) = 1 + b so b equals the excess
        assert sol.b_star == pytest.approx(sol.s_hub, rel=1e-9)


def test_edge_f_model_validation():
    with pytest.raises(DomainError):
        EdgeFModel("C3", -1.0, 1.0)
    with pytest.raises(DomainError):
        EdgeFModel("C3", 1.0, 2.0)  # gamma at the max-degree boundary
    with pytest.raises(DomainError):
        EdgeFModel("C3", 1.0, 1.0, shift=-0.5)
    two = Motif2 = motif_from_name("K11")
    # single edge is fine; disconnected motif is not
    EdgeFModel(two, 1.0, 0.5)
    from cliquehub.motifs import Motif
    with pytest.raises(CapabilityError):
        edge_f_solve(EdgeFModel(Motif("2K2", 4, ((0, 1), (2, 3))), 1.0, 0.5))


def test_a_beta_grid_solves_beta_o_once(monkeypatch):
    # beta_c and beta_o do not depend on beta, so a grid solves each once
    calls = []
    solve = hamiltonian.solve_beta_o
    monkeypatch.setattr(hamiltonian, "_CRITICAL", {})
    monkeypatch.setattr(hamiltonian, "solve_beta_o",
                        lambda model: calls.append(model.beta) or solve(model))
    for k in range(7):
        edge_f_solve(EdgeFModel("C3", 1.0 + 0.25 * k, 1.0, shift=2.0))
    assert calls == [1.0]


def test_beta_o_cases():
    # with shift <= 1 the infimum degenerates to zero
    assert edge_f_solve(EdgeFModel("C3", 1.0, 1.0)).beta_o == 0.0
    # with shift > 1 the objective stays at zero until a positive coupling
    sol = edge_f_solve(EdgeFModel("C3", 1.0, 1.0, shift=2.0))
    assert sol.beta_o > 0.0


# every EdgeFSolution field at the commit that introduced the pin, as
# (motif, beta, gamma, shift) -> astuple(solution).  The fields are compared
# by repr, so a change in the last bit of any of them fails.  A change meant
# to alter them updates these values and says why.
EDGE_F_PIN = {
    ("C3", 1.0, 1.0, 1.0): (
        3.374999999999998, 1.7777777777777768, 0.0, "hub", 0.9999999999999993,
        0.6666666666666667, 3.374999999999998, 0.3750000000000002,
        0.9999999999999993, 2.249999999999999, 0.3333333333333331,
        0.6666666666666667, False, []),
    ("C3", 1.78, 1.0, 1.0): (
        3.374999999999998, 1.7777777777777768, 0.0, "clique",
        2.374816203414486, 1.583210802276325, 5.639751999999998, 1.5842,
        5.639751999999998, 3.168399999999999, 0.7916054011381621, 1.5842,
        False, []),
    ("C3", 2.5, 1.0, 1.0): (
        3.374999999999998, 1.7777777777777768, 0.0, "clique",
        3.3749999999999982, 2.625, 15.624999999999988, 3.1250000000000004,
        15.624999999999988, 6.2499999999999964, 1.1249999999999996,
        3.1250000000000004, False, []),
    ("K12", 1.0, 0.9, 1.0): (
        None, None, 0.0, "hub", 0.23414090776001295, 0.28617222059557124,
        None, -math.inf, 0.23414090776001295, None, 0.23414090776001284,
        0.28617222059557124, False, []),
    ("C4", 1.0, 1.0, 2.0): (
        15.999999999999991, 2.1846150111531815, 0.3820527134602766, "hub",
        2.7900950429868936, 0.6091013298743391, 15.999999999999991,
        -0.032010328734569216, 2.7900950429868936, 3.9999999999999987,
        0.54759410747568, 0.6091013298743391, False, []),
    ("K12", 3.0, 0.9, 1.5): (
        None, None, 1.3592157301534435, "hub", 2.225720619260785,
        1.6092140902076268, None, -math.inf, 2.225720619260785, None,
        2.225720619260785, 1.6092140902076268, False, []),
}


@pytest.mark.parametrize("case", list(EDGE_F_PIN), ids=repr)
def test_edge_f_solutions_match_the_pin(case):
    got = dataclasses.astuple(edge_f_solve(EdgeFModel(*case)))
    assert repr(got) == repr(EDGE_F_PIN[case])


def test_beta_o_is_the_infimum_of_the_planar_ratio():
    # beta_o = inf over s > shift - 1 of phi(s) / (f(1+s) - f(1)); scan that
    # ratio with the planar program's phi on a geometric grid above shift - 1,
    # then again on a finer one between the best point's neighbours
    # at shift 5 the C3 ratio's minimum lies on phi's clique piece, past s_c
    for name, gamma, shift in (("C3", 1.0, 2.0), ("C4", 1.0, 2.0),
                               ("K12", 0.9, 1.5), ("C3", 1.0, 5.0)):
        model = EdgeFModel(name, 1.0, gamma, shift)
        beta_o = edge_f_solve(model).beta_o

        def f(x):
            return max(x - shift, 0.0) ** model.exponent

        def ratio(s):
            return phi_solve([name], [s]).value / (f(1.0 + s) - f(1.0))

        gaps = np.geomspace(1e-6, 1e4, 1001)
        i = min(range(len(gaps)), key=lambda j: ratio(shift - 1.0 + gaps[j]))
        fine = np.geomspace(gaps[max(i - 1, 0)], gaps[min(i + 1, 1000)], 1001)
        best = min(ratio(shift - 1.0 + g) for g in fine.tolist())
        assert beta_o <= best, name
        assert beta_o == pytest.approx(best, rel=1e-6), name


def test_monotone_selection():
    # each branch maximizer is nondecreasing in beta, to 1e-7 relative
    for motif, gamma, betas in (("C3", 1.0, [0.1 * i for i in range(1, 31)]),
                                ("C3", 1.0, [1.0, 1.0]),
                                ("K12", 0.9, [0.5, 1.0, 2.0])):
        prev_hub = prev_clique = -math.inf
        for beta in betas:
            sol = edge_f_solve(EdgeFModel(motif, beta, gamma))
            assert sol.s_hub >= prev_hub - 1e-7 * (1.0 + abs(prev_hub)), \
                (motif, beta)
            prev_hub = max(prev_hub, sol.s_hub)
            if sol.s_clique is not None:
                assert sol.s_clique >= \
                    prev_clique - 1e-7 * (1.0 + abs(prev_clique)), \
                    (motif, beta)
                prev_clique = max(prev_clique, sol.s_clique)


def _l1_close(x, y, radius):
    return (sum(abs(u - v) for u, v in zip(x, y))
            <= radius * (1.0 + sum(abs(u) for u in x)))


def test_psi_reports_one_point_per_optimum():
    # the K12+C3 model of the sampling benchmark at seed 0; its direct runs
    # stop up to 1e-6 apart around one maximum
    spec = HamiltonianSpec(("K12", "C3"),
                           (HamiltonianTerm(0, 0.771469, 0.994901, 0.688937),
                            HamiltonianTerm(1, 0.362802, 1.02689, 0.46201)))
    sol = psi_solve(spec)
    radius = math.sqrt(1e-8 * (1.0 + abs(sol.psi)))
    assert sol.optimizers and sol.s_star
    for points in (sol.optimizers, sol.s_star):
        for i, x in enumerate(points):
            assert not any(_l1_close(x, y, radius) for y in points[:i])


def test_psi_keeps_both_optimizers_at_the_phase_tie():
    # at the critical coupling the hub point (0, 2/3) and the clique point
    # (4, 0) tie; merging near-duplicates must not merge them
    beta_c = solve_beta_c(EdgeFModel("C3", 1.0, 1.5))
    spec = HamiltonianSpec(("C3",), (HamiltonianTerm(0, beta_c, 1.0, 0.5),))
    sol = psi_solve(spec)
    assert len(sol.optimizers) == 2
    (a0, b0), (a1, b1) = sol.optimizers
    assert abs(a0) < 1e-6 and b0 == pytest.approx(2 / 3, abs=1e-5)
    assert a1 == pytest.approx(4.0, abs=1e-4) and abs(b1) < 1e-6
    assert len(sol.s_star) == 2


def test_psi_reports_both_phases_at_the_critical_coupling():
    # C3 at beta_c: the axis starts reach both the hub point (0, b_star) and
    # the clique point (a_star, 0) of edge_f_solve; 2% off beta_c the phase
    # that edge_f_solve names is the only optimizer
    for gamma in (0.3, 0.75, 1.2, 1.8):
        beta_c = solve_beta_c(EdgeFModel("C3", 1.0, gamma))
        for factor in (1.0, 0.98, 1.02):
            beta = beta_c * factor
            edge = edge_f_solve(EdgeFModel("C3", beta, gamma))
            hub = (0.0, edge.b_star)
            clique = (edge.a_star, 0.0)
            want = {"tie": [hub, clique], "hub": [hub],
                    "clique": [clique]}[edge.phase]
            assert edge.phase == {1.0: "tie", 0.98: "hub",
                                  1.02: "clique"}[factor]
            spec = HamiltonianSpec(
                ("C3",), (HamiltonianTerm(0, beta, 1.0, gamma / 3),))
            got = psi_solve(spec).optimizers
            assert len(got) == len(want), (gamma, factor, got)
            for (a, b), (a_want, b_want) in zip(got, want):
                assert a == pytest.approx(a_want, abs=1e-5), (gamma, factor)
                assert b == pytest.approx(b_want, abs=1e-5), (gamma, factor)
