import hashlib
import json
import math

import numpy as np
import pytest

from cliquehub.errors import CapabilityError, DomainError
from cliquehub.finner import (
    ProductInstance,
    _merge_classes,
    _pad_cover,
    calderon_instance,
    finner_integral,
    holder_constant,
    holder_stability_check,
    instance_from_dict,
    instance_to_dict,
    random_instance,
    random_unit_factors,
    recover_factors,
    tensor_product_instance,
)


# The generalized (several functions on one space) and slack-class stability
# forms are checked here; no command reports them, and criterion 7 judges the
# one-function form, holder_stability_check, in the package.


def pair_constant(lam_k, lam_l):
    """Stability constant for one pair in the generalized inequality."""
    if lam_k <= 0.0 or lam_l <= 0.0 or lam_k + lam_l > 1.0 + 1e-12:
        raise DomainError("pair weights must be positive with sum at most 1")
    lam = lam_k / (lam_k + lam_l)
    single = 2.0 * holder_constant(lam) + 1.0 / min(lam, 1.0 - lam)
    return single / math.sqrt(lam_k + lam_l)


def genholder_stability_check(fs, lams, mu):
    """Pairwise stability report for several functions on one space.

    Requires sum(lams) <= 1 and mean(f) <= 1 for each function.  Every pair
    must satisfy the L1 closeness bound with the explicit constant.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0) or abs(mu.sum() - 1.0) > 1e-9:
        raise DomainError("mu must be a positive probability vector")
    fs = [np.asarray(f, dtype=float) for f in fs]
    lams = [float(l) for l in lams]
    if len(fs) < 2 or len(fs) != len(lams):
        raise DomainError("need at least two weighted functions")
    if any(l <= 0.0 for l in lams) or sum(lams) > 1.0 + 1e-12:
        raise DomainError("weights must be positive with sum at most 1")
    prod = np.ones_like(mu)
    for f, lam in zip(fs, lams):
        if f.shape != mu.shape or np.any(f < 0.0):
            raise DomainError("functions must be nonnegative over mu")
        if float((f * mu).sum()) > 1.0 + 1e-12:
            raise DomainError("function mean exceeds 1")
        prod = prod * f ** lam
    eps = max(0.0, 1.0 - float((prod * mu).sum()))
    pairs = []
    ok = True
    for k in range(len(fs)):
        for l in range(k + 1, len(fs)):
            dist = float((np.abs(fs[k] - fs[l]) * mu).sum())
            const = pair_constant(lams[k], lams[l])
            bound = const * math.sqrt(eps)
            good = dist <= bound + 1e-10
            ok = ok and good
            pairs.append({"k": k, "l": l, "distance": dist,
                          "constant": const, "bound": bound, "pass": good})
    return {"eps": eps, "pairs": pairs, "pass": ok}


def factor_deviation(inst, family, members):
    """L1 distance of one recovered factor from the constant 1."""
    members = tuple(sorted(members))
    if members not in family:
        raise DomainError("%s is not an equivalence class" % (members,))
    mass = inst.set_measure(members)
    return float((np.abs(family[members] - 1.0) * mass).sum())


def remark_slack_check(inst, members):
    """Check that a slack class's factor stays near 1.

    members must be an equivalence class whose covering weight is strictly
    below 1; the recovered factor then satisfies the calibrated bound
    3 eps^(1/4).  Returns (pass flag, details).
    """
    members = tuple(sorted(members))
    if members not in inst.classes:
        raise DomainError("%s is not an equivalence class" % (members,))
    load = sum(lam for a, lam in inst.system
               if set(members) <= set(a))
    if load >= 1.0 - 1e-12:
        raise DomainError("class %s has no slack in its covering weight"
                          % (members,))
    eps = max(0.0, 1.0 - finner_integral(inst))
    family, residuals = recover_factors(inst)
    dev = factor_deviation(inst, family, members)
    bound = 3.0 * eps ** 0.25
    passed = dev <= bound + 1e-9
    return passed, {"eps": eps, "deviation": dev, "bound": bound,
                    "load": load, "residuals": residuals}


def perturbed_instance(base, rng, amplitude):
    """Multiplicative noise (1 + u) with |u| <= amplitude, means restored."""
    functions = []
    for (verts, _), f in zip(base.system, base.functions):
        noise = 1.0 + amplitude * (2.0 * rng.random(f.shape) - 1.0)
        g = f * noise
        mean = base.set_integral(verts, g)
        old = base.set_integral(verts, f)
        if mean > 0.0:
            g = g * (min(old, 1.0) / mean)
        functions.append(g)
    return ProductInstance([m for m in base.spaces], list(base.system),
                           functions)


def test_unit_functions_integrate_to_one():
    inst = ProductInstance([[0.5, 0.5], [0.3, 0.7]],
                           [((0, 1), 0.5), ((0,), 0.5)],
                           [np.ones((2, 2)), np.ones(2)])
    assert finner_integral(inst) == 1.0


def test_disjoint_support_coin_integral_zero():
    inst = ProductInstance([[0.5, 0.5]],
                           [((0,), 0.5), ((0,), 0.5)],
                           [np.array([2.0, 0.0]), np.array([0.0, 2.0])])
    assert finner_integral(inst) == 0.0


def test_triangle_tensor_instance():
    rng = np.random.default_rng(0)
    spaces = [np.array([0.4, 0.6]), np.array([0.25, 0.75]),
              np.array([0.5, 0.5])]
    hs = random_unit_factors(rng, spaces)
    system = [((0, 1), 0.5), ((1, 2), 0.5), ((0, 2), 0.5)]
    fns = [np.multiply.outer(hs[a], hs[b]) for (a, b), _ in system]
    inst = ProductInstance(spaces, system, fns)
    assert abs(finner_integral(inst) - 1.0) <= 1e-12
    family, residuals = recover_factors(inst)
    assert max(residuals) <= 1e-9
    for v in range(3):
        assert np.max(np.abs(family[(v,)] - hs[v])) <= 1e-9


def test_fixture_draws_match_the_pin():
    # finner-check --suite and criterion 7 read these draws; a refactor of
    # the builders must not move a single one
    digest = hashlib.sha256()
    for k in range(200):
        inst = random_instance(np.random.default_rng(
            np.random.SeedSequence(entropy=0, spawn_key=(k,))))
        digest.update(json.dumps(instance_to_dict(inst)).encode())
    for seed in range(40):
        inst, hs = tensor_product_instance(np.random.default_rng(seed))
        digest.update(json.dumps(instance_to_dict(inst)).encode())
        digest.update(json.dumps([h.tolist() for h in hs]).encode())
        inst = calderon_instance(np.random.default_rng(seed))
        digest.update(json.dumps(instance_to_dict(inst)).encode())
    assert digest.hexdigest() == (
        "f03d77f5a30e60c5cbd913a9198ce5b9ede9dad8e61a1808e83eac65768608d9")


def test_random_instances_respect_bound():
    for seed in range(300):
        inst = random_instance(np.random.default_rng(seed))
        assert finner_integral(inst) <= 1.0 + 1e-10


def test_state_space_cap():
    n = 24
    spaces = [[0.5, 0.5]] * n
    system = [(tuple(range(n)), 0.5)]
    fns = [np.ones((2,) * n)]
    inst = ProductInstance(spaces, system, fns)
    with pytest.raises(CapabilityError):
        finner_integral(inst)


def test_instance_validation():
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.6]], [((0,), 0.5)], [np.ones(2)])
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.5]], [((), 0.5)], [np.ones(())])
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.5]], [((0,), -0.5)], [np.ones(2)])
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.5]],
                        [((0,), 0.7), ((0,), 0.7)],
                        [np.ones(2), np.ones(2)])
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.5]], [((0,), 0.5)], [np.ones(3)])
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.5]], [((0,), 0.5)], [np.array([2.0, 1.0])])
    with pytest.raises(DomainError):
        ProductInstance([[0.5, 0.5]], [((0,), 0.5)], [np.array([-1.0, 1.0])])


def test_holder_stability_trivial():
    eps, bound, l1, ok = holder_stability_check(
        np.ones(3), 0.4, np.array([0.2, 0.3, 0.5]))
    assert (eps, bound, l1, ok) == (0.0, 0.0, 0.0, True)


def test_holder_stability_tight_within_factor_two():
    nu = np.array([0.5, 0.5])
    for target in (1e-4, 1e-6):
        lam = 0.3
        d = holder_constant(lam) * math.sqrt(target)
        eps, bound, l1, ok = holder_stability_check(
            np.array([1.0 + d, 1.0 - d]), lam, nu)
        assert ok
        assert 1.9 <= bound / l1 <= 2.1


def test_holder_stability_random_suite():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        size = int(rng.integers(2, 9))
        nu = rng.random(size) + 0.05
        nu /= nu.sum()
        g = rng.random(size) * 2.0
        mean = float((g * nu).sum())
        if mean > 1.0:
            g = g / mean
        lam = float(rng.random() * 0.98 + 0.01)
        _, _, _, ok = holder_stability_check(g, lam, nu)
        assert ok


def test_holder_hypothesis_violation():
    with pytest.raises(DomainError):
        holder_stability_check(np.array([2.0, 1.0]), 0.5,
                               np.array([0.5, 0.5]))


def test_genholder_equal_functions():
    mu = np.full(4, 0.25)
    f = np.array([0.5, 1.5, 1.0, 1.0])
    report = genholder_stability_check([f, f, f], [0.3, 0.3, 0.4], mu)
    assert report["eps"] <= 1e-12
    assert all(p["distance"] == 0.0 for p in report["pairs"])
    assert report["pass"]


def test_genholder_perturbation_sweep():
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    direction = np.array([1.0, -1.0, 1.0, -1.0])
    unit = direction / float((np.abs(direction) * mu).sum())
    for d in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5):
        f2 = 1.0 + d * unit
        f2 = f2 / max(1.0, float((f2 * mu).sum()))
        report = genholder_stability_check([np.ones(4), f2], [0.5, 0.5], mu)
        pair = report["pairs"][0]
        assert pair["pass"]
        assert pair["distance"] == pytest.approx(d, rel=1e-9)
        # the measured slack is what funds the bound: eps >= (dist/C)^2
        assert report["eps"] >= (pair["distance"] / pair["constant"]) ** 2


def test_genholder_random_pairs():
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        mu = rng.random(4) + 0.05
        mu /= mu.sum()
        fs = []
        for _ in range(2):
            f = rng.random(4) + 0.01
            fs.append(f / float((f * mu).sum()))
        assert genholder_stability_check(fs, [0.5, 0.5], mu)["pass"]


def test_recover_on_tensor_fixtures():
    for seed in range(40):
        inst, hs = tensor_product_instance(np.random.default_rng(seed))
        value = finner_integral(inst)
        assert value >= 1.0 - 1e-8
        family, residuals = recover_factors(inst)
        assert max(residuals) <= 1e-9
        for members, h in family.items():
            mass = inst.set_measure(members)
            assert abs(float((h * mass).sum()) - 1.0) <= 1e-12


def test_recover_single_space():
    mu = np.array([0.3, 0.7])
    ones = ProductInstance([mu], [((0,), 0.5), ((0,), 0.5)],
                           [np.ones(2), np.ones(2)])
    family, residuals = recover_factors(ones)
    assert np.array_equal(family[(0,)], np.ones(2))
    assert max(residuals) == 0.0

    rng = np.random.default_rng(4)
    f = rng.random(2) + 0.2
    f = f / float((f * mu).sum())
    inst = ProductInstance([mu], [((0,), 0.5), ((0,), 0.5)], [f, f])
    assert abs(finner_integral(inst) - 1.0) <= 1e-12
    family, residuals = recover_factors(inst)
    assert np.max(np.abs(family[(0,)] - f)) <= 1e-12
    assert max(residuals) <= 1e-9

    # different functions: residuals stay within the stability budget
    g = rng.random(2) + 0.2
    g = g / float((g * mu).sum())
    mixed = ProductInstance([mu], [((0,), 0.5), ((0,), 0.5)], [f, g])
    eps = max(0.0, 1.0 - finner_integral(mixed))
    family, residuals = recover_factors(mixed)
    budget = pair_constant(0.5, 0.5) * math.sqrt(eps) + 2.0 * eps + 1e-9
    assert max(residuals) <= budget


def test_recover_with_merged_classes():
    # vertices 0 and 1 are never separated, so their class carries a joint
    # factor that need not factorize further
    spaces = [np.array([0.4, 0.6]), np.array([0.5, 0.5]),
              np.array([0.2, 0.8])]
    joint = np.array([[2.0, 0.5], [0.5, 1.0]])
    mass01 = np.multiply.outer(spaces[0], spaces[1])
    joint = joint / float((joint * mass01).sum())
    h2 = np.array([1.5, 0.875])
    h2 = h2 / float((h2 * spaces[2]).sum())
    system = [((0, 1), 0.3), ((0, 1, 2), 0.4), ((0, 1), 0.3), ((2,), 0.6)]
    fns = [joint, np.multiply.outer(joint, h2), joint, h2]
    inst = ProductInstance(spaces, system, fns)
    assert inst.classes == ((0, 1), (2,))
    assert abs(finner_integral(inst) - 1.0) <= 1e-12
    family, residuals = recover_factors(inst)
    assert max(residuals) <= 1e-9
    assert np.max(np.abs(family[(0, 1)] - joint)) <= 1e-9
    assert np.max(np.abs(family[(2,)] - h2)) <= 1e-9


def test_normalize_instance_roundtrip():
    for seed in range(30):
        inst = random_instance(np.random.default_rng(seed))
        # the two passes that open recover_factors
        spaces, system, functions, classes = _merge_classes(inst)
        system, functions = _pad_cover(spaces, system, functions)
        reduced = ProductInstance(spaces, system, functions)
        assert abs(finner_integral(reduced) - finner_integral(inst)) <= 1e-12
        assert all(len(c) == 1 for c in reduced.classes)
        for v in range(reduced.num_vertices):
            load = sum(lam for a, lam in reduced.system if v in a)
            assert abs(load - 1.0) <= 1e-12
        assert len(classes) == reduced.num_vertices


def test_residuals_monotone_in_eps():
    base, _ = tensor_product_instance(np.random.default_rng(9),
                                      max_vertices=3)
    rng = np.random.default_rng(10)
    noise = [2.0 * rng.random(f.shape) - 1.0 for f in base.functions]
    eps_seq = []
    res_seq = []
    for k in range(20):
        u = 0.005 * (k + 1)
        fns = []
        for (verts, _), f, eta in zip(base.system, base.functions, noise):
            g = f * (1.0 + u * eta)
            mean = base.set_integral(verts, g)
            old = min(base.set_integral(verts, f), 1.0)
            fns.append(g * (old / mean))
        pert = ProductInstance(list(base.spaces), list(base.system), fns)
        eps_seq.append(max(0.0, 1.0 - finner_integral(pert)))
        _, residuals = recover_factors(pert)
        res_seq.append(max(residuals))
    assert all(a < b for a, b in zip(eps_seq, eps_seq[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(res_seq, res_seq[1:]))
    # empirical exponent of residual vs eps on this family
    slope, _ = np.polyfit(np.log(eps_seq), np.log(res_seq), 1)
    assert slope >= 0.2


def test_calderon_uniform_cover():
    for seed in range(30):
        inst = calderon_instance(np.random.default_rng(seed))
        assert finner_integral(inst) <= 1.0 + 1e-10
    # equality version: product functions, loads are exactly 1
    rng = np.random.default_rng(2)
    spaces = [np.array([0.3, 0.7]), np.array([0.5, 0.5]),
              np.array([0.25, 0.75]), np.array([0.6, 0.4])]
    hs = random_unit_factors(rng, spaces)
    system = []
    fns = []
    for a in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        system.append((a, 1.0 / 3.0))
        f = np.array(1.0)
        for v in a:
            f = np.multiply.outer(f, hs[v])
        fns.append(f)
    inst = ProductInstance(spaces, system, fns)
    assert abs(finner_integral(inst) - 1.0) <= 1e-12
    family, residuals = recover_factors(inst)
    assert max(residuals) <= 1e-9
    for v in range(4):
        assert np.max(np.abs(family[(v,)] - hs[v])) <= 1e-9


def test_remark_slack_unit_functions():
    inst = ProductInstance([[0.5, 0.5], [0.3, 0.7]],
                           [((0, 1), 0.4), ((0,), 0.3)],
                           [np.ones((2, 2)), np.ones(2)])
    ok, details = remark_slack_check(inst, (1,))
    assert ok
    assert details["deviation"] == 0.0
    assert details["load"] == pytest.approx(0.4)


def test_remark_slack_equality_case():
    rng = np.random.default_rng(3)
    spaces = [np.array([0.4, 0.6]), np.array([0.2, 0.8])]
    hs = random_unit_factors(rng, spaces)
    fns = [np.multiply.outer(hs[0], np.ones(2)), hs[0]]
    inst = ProductInstance(spaces, [((0, 1), 0.6), ((0,), 0.4)], fns)
    ok, details = remark_slack_check(inst, (1,))
    assert ok
    assert details["deviation"] <= 1e-9


def test_remark_slack_noisy_fixtures():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        base, _ = tensor_product_instance(rng, max_vertices=3, max_space=3,
                                          max_sets=3)
        system = [(a, lam * 0.9) if a == (0,) else (a, lam)
                  for a, lam in base.system]
        slack = ProductInstance(list(base.spaces), system,
                                list(base.functions))
        amp = float(rng.random() * 0.09 + 0.01)
        noisy = perturbed_instance(slack, rng, amp)
        ok, details = remark_slack_check(noisy, (0,))
        assert ok, details


def test_remark_slack_requires_slack():
    inst = ProductInstance([[0.5, 0.5]], [((0,), 1.0)], [np.ones(2)])
    with pytest.raises(DomainError):
        remark_slack_check(inst, (0,))


def test_json_roundtrip():
    inst = random_instance(np.random.default_rng(17))
    doc = instance_to_dict(inst)
    text = json.dumps(doc)
    back = instance_from_dict(json.loads(text))
    assert finner_integral(back) == pytest.approx(finner_integral(inst),
                                                 abs=1e-15)
    assert back.classes == inst.classes
    with pytest.raises(DomainError):
        instance_from_dict({"spaces": [[1.0]]})
    bad = dict(doc)
    bad["functions"] = doc["functions"][:-1]
    with pytest.raises(DomainError):
        instance_from_dict(bad)
    bad2 = json.loads(text)
    bad2["functions"][0]["values"] = bad2["functions"][0]["values"][:-1]
    with pytest.raises(DomainError):
        instance_from_dict(bad2)
