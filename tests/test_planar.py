import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquehub.errors import DomainError
from cliquehub import planar
from cliquehub.planar import FEAS_TOL, PlanarProgram, phi_region_emit, phi_solve

FIGURE_FAMILY = ("K12", "C3", "C4")


def phi_c3_closed(s):
    # single triangle target: cheaper of the hub line and the clique curve
    return min(s / 3.0, 0.5 * s ** (2.0 / 3.0))


def test_t_values():
    # single edge: both endpoints have max degree
    assert PlanarProgram(["K11"]).t_values(2.0, 3.0)[0] == pytest.approx(9.0)
    # 2-star is irregular, only the hub part contributes
    assert PlanarProgram(["K12"]).t_values(5.0, 3.0)[0] == pytest.approx(4.0)
    assert PlanarProgram(["C3"]).t_values(4.0, 2.0)[0] == pytest.approx(
        1.0 + 6.0 + 8.0)
    assert PlanarProgram(["C4"]).t_values(9.0, 1.0)[0] == pytest.approx(
        1.0 + 4.0 + 2.0 + 81.0)


def test_surrogate_inverts_t_on_each_axis():
    # T(a, 0) and T(0, b) reach 1 + s at the clique and hub amplitudes, and
    # one motif's phi is the cheaper axis point, as the program finds
    for name in ("K11", "K12", "C3", "C4", "K13"):
        prog = PlanarProgram([name])
        t = prog.surrogates[0]
        for s in (0.5, 3.0, 40.0):
            assert prog.t_values(0.0, t.hub(s))[0] == pytest.approx(
                1.0 + s, rel=1e-12)
            if t.regular:
                assert prog.t_values(t.clique(s), 0.0)[0] == pytest.approx(
                    1.0 + s, rel=1e-12)
                step = 1e-6 * s
                assert t.clique_deriv(s) == pytest.approx(
                    (t.clique(s + step) - t.clique(s - step)) / (2 * step),
                    rel=1e-6)
            assert float(t.phi(s)) == pytest.approx(
                phi_solve([name], [s]).value, rel=1e-12)


def test_single_triangle_closed_form():
    for s in (0.1, 0.5, 1.0, 2.0, 27 / 8, 5.0, 8.0, 20.0, 100.0):
        sol = phi_solve(["C3"], [s])
        assert sol.value == pytest.approx(phi_c3_closed(s), abs=1e-9)


def test_single_triangle_crossover_tie():
    sol = phi_solve(["C3"], [27 / 8])
    assert sol.value == pytest.approx(27 / 24, abs=1e-10)
    assert len(sol.optimizers) == 2
    pts = sorted((o.a, o.b) for o in sol.optimizers)
    assert pts[0][0] == pytest.approx(0.0, abs=1e-9)
    assert pts[0][1] == pytest.approx(1.125, abs=1e-8)
    assert pts[1][0] == pytest.approx(2.25, abs=1e-8)
    assert pts[1][1] == pytest.approx(0.0, abs=1e-9)


def test_single_triangle_branch_optimizers():
    # below the crossover the hub point wins, above it the clique point
    lo = phi_solve(["C3"], [1.0])
    assert len(lo.optimizers) == 1
    assert lo.optimizers[0].a == pytest.approx(0.0, abs=1e-9)
    assert lo.optimizers[0].b == pytest.approx(1 / 3, abs=1e-9)
    hi = phi_solve(["C3"], [8.0])
    assert len(hi.optimizers) == 1
    assert hi.optimizers[0].a == pytest.approx(4.0, abs=1e-7)
    assert hi.optimizers[0].b == pytest.approx(0.0, abs=1e-9)


def test_zero_targets():
    sol = phi_solve(FIGURE_FAMILY, [0.0, 0.0, 0.0])
    assert sol.value == 0.0
    assert len(sol.optimizers) == 1
    assert sol.optimizers[0].a == 0.0 and sol.optimizers[0].b == 0.0
    # a single positive target among zeros behaves like the single-motif case
    one = phi_solve(FIGURE_FAMILY, [0.0, 1.0, 0.0])
    assert one.value == pytest.approx(1 / 3, abs=1e-9)


def test_negative_target_rejected():
    with pytest.raises(DomainError):
        phi_solve(["C3"], [-0.5])
    with pytest.raises(DomainError):
        phi_solve(["C3"], [1.0, 2.0])  # length mismatch


def test_figure_scenarios():
    prog = PlanarProgram(FIGURE_FAMILY)

    a_sol = prog.solve(np.array([2.0, 15.0, 100.0]))
    assert a_sol.value == pytest.approx(-1 + math.sqrt(51), abs=1e-8)
    assert len(a_sol.optimizers) == 1
    assert a_sol.optimizers[0].a == pytest.approx(0.0, abs=1e-9)
    assert a_sol.optimizers[0].b == pytest.approx(-1 + math.sqrt(51), abs=1e-7)

    b_sol = prog.solve(np.array([2.0, 24.0, 100.0]))
    assert len(b_sol.optimizers) == 1
    assert b_sol.optimizers[0].a == pytest.approx(math.sqrt(84), rel=1e-7)
    assert b_sol.optimizers[0].b == pytest.approx(2.0, abs=1e-7)

    c_sol = prog.solve(np.array([4.0, 25.0, 100.0]))
    assert c_sol.value == pytest.approx(7.5868549612, abs=1e-8)
    assert c_sol.optimizers[0].a == pytest.approx(4.156578513, abs=1e-6)
    assert c_sol.optimizers[0].b == pytest.approx(5.508565705, abs=1e-6)
    # the clique-corner runner-up sits just above the optimum
    assert any(abs(a - math.sqrt(52)) < 1e-4 and abs(b - 4.0) < 1e-4
               and abs(gap - 0.01869631) < 1e-6
               for a, b, gap in c_sol.near_ties)

    d_sol = prog.solve(np.array([4.0, 31.5, 100.0]))
    assert len(d_sol.optimizers) == 1
    assert d_sol.optimizers[0].a == pytest.approx(19.5 ** (2 / 3), rel=1e-7)
    assert d_sol.optimizers[0].b == pytest.approx(4.0, abs=1e-7)

    f3 = prog.solve(np.array([12.0, 88.0, 1000.0]))
    assert f3.value == pytest.approx(12 + math.sqrt(166), abs=1e-8)
    assert len(f3.optimizers) == 1
    assert f3.optimizers[0].a == pytest.approx(math.sqrt(664), rel=1e-7)
    assert f3.optimizers[0].b == pytest.approx(12.0, abs=1e-7)
    assert any(abs(a - 8.902187) < 1e-4 and abs(b - 20.479654) < 1e-4
               and abs(gap - 0.0466486) < 1e-6
               for a, b, gap in f3.near_ties)


def test_optimizers_have_two_active_constraints():
    prog = PlanarProgram(FIGURE_FAMILY)
    rng = np.random.default_rng(23)
    for _ in range(40):
        s = rng.uniform(0.0, 60.0, size=3)
        sol = prog.solve(s)
        for opt in sol.optimizers:
            assert len(opt.active) >= 2, (s, opt)
            # feasibility of every reported optimizer
            t = prog.t_values(opt.a, opt.b)
            for k in range(len(FIGURE_FAMILY)):
                assert t[k] >= 1.0 + s[k] - 1e-6 * (1.0 + s[k])


def test_phi_monotone_and_scaling():
    prog = PlanarProgram(FIGURE_FAMILY)
    rng = np.random.default_rng(4)
    for _ in range(25):
        s = rng.uniform(0.0, 30.0, size=3)
        v = prog.solve(s).value
        bigger = s + rng.uniform(0.0, 5.0, size=3)
        assert prog.solve(bigger).value >= v - 1e-9
    # phi is positive once any target is positive
    assert prog.solve(np.array([0.0, 1e-4, 0.0])).value > 0.0


def test_program_excess_round_trip():
    prog = PlanarProgram(FIGURE_FAMILY)
    s = np.array([3.0, 11.0, 47.0])
    sol = prog.solve(s)
    opt = sol.optimizers[0]
    # the optimizer's own excess vector yields the same value
    again = prog.solve(prog.excess(opt.a, opt.b))
    assert again.value == pytest.approx(sol.value, rel=1e-9)


def test_region_emit_structure():
    rows, curves = phi_region_emit(FIGURE_FAMILY, [2.0, 15.0, 100.0])
    assert len(rows) == 101 * 101
    some_feasible = [r for r in rows if r[2]]
    assert some_feasible
    for a, b, feas, obj in rows[:50]:
        assert obj == pytest.approx(0.5 * a + b, rel=1e-12)
    assert set(curves) == {0, 1, 2}
    for idx, pts in curves.items():
        assert len(pts) == 201


# sha256 of the solutions below at the commit that introduced the pin.  A
# change meant to alter any bit of them updates this value and says why.
PLANAR_PIN = "66e24c05d7b861fbd4b393bea5fcac591c987067ddbd0ec889077cd770829d66"


def test_planar_solutions_match_the_pin():
    rng = np.random.default_rng(2017)
    digest = hashlib.sha256()
    for family in (FIGURE_FAMILY, ("C3", "C4", "C5")):
        prog = PlanarProgram(family)
        for i in range(100):
            s = rng.uniform(0.0, (1.0, 10.0, 100.0, 1000.0)[i % 4], size=3)
            if i % 5 == 0:
                s[i % 3] = 0.0
            sol = prog.solve(s)
            digest.update(repr((sol.value, sol.optimizers, sol.near_ties,
                                sol.candidates)).encode())
    assert digest.hexdigest() == PLANAR_PIN


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["K12", "C3", "C4", "C5", "C6"]),
                min_size=1, max_size=3, unique=True).flatmap(
    lambda family: st.tuples(
        st.just(family),
        st.lists(st.floats(0.0, 80.0), min_size=len(family),
                 max_size=len(family)))))
def test_optimum_is_feasible_and_below_the_region_grid(case):
    family, s = case
    prog = PlanarProgram(family)
    sol = prog.solve(s)
    for opt in sol.optimizers:
        t = prog.t_values(opt.a, opt.b)
        for k, sk in enumerate(s):
            assert t[k] >= 1.0 + sk - FEAS_TOL * (1.0 + sk), (opt, k)
    rows, _ = phi_region_emit(family, s)
    best = min(obj for a, b, ok, obj in rows if ok)
    assert best >= sol.value - 1e-9


def test_value_matches_solve_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(26)
    families = (FIGURE_FAMILY, ("C3", "C4"), ("K12", "C3"), ("K12",),
                ("C3",), ("C4",))
    for family in families:
        prog = PlanarProgram(family)
        m = len(family)
        for i in range(60):
            s = rng.uniform(0.0, (1.0, 10.0, 100.0)[i % 3], size=m)
            s[rng.random(m) < 0.3] = 0.0
            assert repr(prog.value(s)) == repr(prog.solve(s).value), s
        for bad in (np.ones(m + 1), -np.ones(m), np.full(m, np.nan),
                    np.full(m, np.inf)):
            with pytest.raises(DomainError) as by_value:
                prog.value(bad)
            with pytest.raises(DomainError) as by_solve:
                prog.solve(bad)
            assert str(by_value.value) == str(by_solve.value)
    # no corner passes a feasibility floor of inf
    monkeypatch.setattr(planar, "_feasible_floor",
                        lambda target: np.full_like(target, np.inf))
    prog = PlanarProgram(FIGURE_FAMILY)
    for run in (prog.value, prog.solve):
        with pytest.raises(DomainError, match="no feasible corner"):
            run([1.0, 2.0, 3.0])


def test_level_a_keeps_the_scalar_level_curve_bits():
    # level_a gives the crossings and the curve points phi_region_emit
    # writes; it must match the scalar formula max(t - P(b), 0) ** (2 / v)
    # bit for bit, also past the hub axis point, where rest <= 0
    rng = np.random.default_rng(31)
    for name in ("K11", "K12", "C3", "C4", "C5", "C6"):
        t = PlanarProgram([name]).surrogates[0]
        for s in np.concatenate([rng.uniform(0.0, 50.0, 10),
                                 [1e-12, 1e3]]).tolist():
            b_axis = t.hub(s)
            bs = np.concatenate([np.linspace(0.0, b_axis, 40),
                                 b_axis * rng.uniform(1.0, 3.0, 10),
                                 [math.nextafter(b_axis, 0.0)]]).tolist()
            rests = [1.0 + s - t.hub_poly(b) for b in bs]
            assert min(rests) <= 0.0 < max(rests)
            for b, rest in zip(bs, rests):
                assert repr(t.level_a(1.0 + s, b)) == repr(
                    max(rest, 0.0) ** t.power), (name, s, b)
