"""Program data model: dualization, feasibility systems, weak duality."""

import numpy as np
import pytest

import oracles
from conedual import cones, gallery, program, solver
from conedual.spaces import LinearMap, product_space, real, space


def _lp(seed=0, n=3, m=3):
    rng = np.random.default_rng([seed, 21])
    amat = rng.standard_normal((m, n))
    dom, cod = space(real(n)), space(real(m))
    return program.ConicProgram(
        A=LinearMap(dom, cod, amat), b=rng.standard_normal(m),
        c=rng.standard_normal(n), K=cones.cone(cod, cones.NONNEG),
        C=cones.cone(dom, cones.NONNEG), sense="sup")


def test_dualize_involution():
    for seed in range(5):
        p = gallery.random_program("mixed", seed=seed)
        dd = program.dualize(program.dualize(p))
        assert np.allclose(dd.A.matrix, p.A.matrix)
        assert np.allclose(dd.b, p.b)
        assert np.allclose(dd.c, p.c)
        assert dd.K.tags == p.K.tags and dd.C.tags == p.C.tags
        assert dd.sense == p.sense


def test_dualize_textbook_lp():
    # sup{c x : A x <= b, x >= 0} pairs with inf{b y : A* y >= c, y >= 0}
    p = _lp(seed=3)
    d = program.dualize(p)
    assert d.sense == "inf"
    assert np.allclose(d.A.matrix, p.A.matrix.T)
    assert d.K.tags == (cones.NONNEG,)  # dual of C = Nonneg
    assert d.C.tags == (cones.NONNEG,)  # dual of K = Nonneg
    assert np.allclose(d.b, p.c) and np.allclose(d.c, p.b)


def test_dual_optimum_matches_primal_oracle():
    # LP duality: when the primal oracle value is finite, the dual program
    # written as a sup has oracle value of opposite sign
    hits = 0
    for seed in range(12):
        p = _lp(seed=seed)
        st, val = oracles.lp_value(p)
        d = program.dualize(p)
        neg = program.ConicProgram(A=LinearMap(d.A.domain, d.A.codomain,
                                               -d.A.matrix),
                                   b=-d.b, c=-d.c, K=d.K, C=d.C, sense="sup")
        std, vald = oracles.lp_value(neg)
        if st == "optimal":
            assert std == "optimal"
            assert np.isclose(val, -vald, atol=1e-7)
            hits += 1
        elif st == "unbounded":
            assert std == "infeasible"
    assert hits >= 3


def test_feasible_system_matches_point_test():
    rng = np.random.default_rng([4, 22])
    for seed in range(5):
        p = gallery.planted_strong_duality(
            [(cones.NONNEG, 3)], [(cones.NONNEG, 2)], seed=seed)
        fs = program.feasible_system(p)
        gmap, g, kc = fs.gmap, fs.g, fs.cone
        for _ in range(10):
            x = rng.standard_normal(3)
            assert program.is_feasible_point(p, x) == cones.member(kc, gmap(x) + g)


def test_system_stack_agrees_with_feasible_system():
    rng = np.random.default_rng([4, 23])
    for seed in range(5):
        p = gallery.planted_strong_duality(
            [(cones.NONNEG, 2), (cones.SOC, 3)], [(cones.NONNEG, 3)], seed=seed)
        for q in (p, program.dualize(p)):
            n = q.A.domain.dim
            sgn = -1.0 if q.sense == "sup" else 1.0
            slack = program.System(LinearMap(q.A.domain, q.A.codomain, sgn * q.A.matrix),
                                   -sgn * q.b, q.K)
            stacked = slack.stack(np.eye(n), np.zeros(n), q.C)
            fs = program.feasible_system(q)
            assert np.array_equal(stacked.gmap.matrix, fs.gmap.matrix)
            assert np.array_equal(stacked.g, fs.g) and stacked.cone == fs.cone
            for _ in range(20):
                x = rng.standard_normal(n)
                feasible = cones.member(q.K, sgn * q.A(x) - sgn * q.b) and \
                    cones.member(q.C, x)
                assert fs.member(x) == program.is_feasible_point(q, x) == feasible
    # a factor tag stacks the rows under one real factor of that cone
    one = program.System(LinearMap(space(real(2)), space(real(1)), np.ones((1, 2))),
                         np.zeros(1), cones.cone(space(real(1)), cones.NONNEG))
    two = one.stack(np.eye(2), -np.ones(2), cones.ZERO)  # and x = (1, 1)
    assert two.cone.tags == (cones.NONNEG, cones.ZERO)
    assert two.cone.space.factors == (real(1), real(2))
    assert two.member(np.ones(2)) and not two.member(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        program.System(one.gmap, np.zeros(2), one.cone)


def test_weak_duality_on_planted_pairs():
    for seed in range(20):
        p = gallery.planted_strong_duality(
            [(cones.NONNEG, 2), (cones.SOC, 3)], [(cones.NONNEG, 3)], seed=seed)
        # the planted construction points are feasible by construction
        xs = cones.sample_relint(p.C, gallery._rng(seed, gallery._STREAM_X0),
                                 gallery.RELINT_SCALE)
        ys = cones.sample_relint(cones.dual(p.K), gallery._rng(seed, gallery._STREAM_Y0),
                                 gallery.RELINT_SCALE)
        gap = oracles.weak_duality_check(p, xs, ys)
        assert gap >= -1e-6


def test_weak_duality_rejects_infeasible_points():
    p = _lp(seed=1)
    with pytest.raises(ValueError):
        oracles.weak_duality_check(p, 1e6 * np.ones(3), np.zeros(3))


def test_complementary_slackness_at_optimum():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 3)], [(cones.NONNEG, 3)], seed=9)
    res = solver.solve(p)
    assert res.status == "Optimal"
    r1, r2 = oracles.complementary_slackness(p, res.x, res.y)
    assert abs(r1) <= 1e-5 and abs(r2) <= 1e-5


def test_system_extend():
    fs = program.feasible_system(_lp(seed=5))
    rng = np.random.default_rng([5, 24])
    x0, z0 = rng.standard_normal(fs.gmap.domain.dim), np.array([2.0, -1.0])
    cols = rng.standard_normal((fs.gmap.codomain.dim, 2))
    # the first column puts (x0, z0) at the interior point e of the cone
    e = cones.canonical_relint_point(fs.cone)
    cols[:, 0] = (e - fs.gmap(x0) - fs.g - z0[1] * cols[:, 1]) / z0[0]
    ext = fs.extend(cols)
    assert ext.gmap.domain == product_space(fs.gmap.domain, space(real(2)))
    assert ext.gmap.codomain == fs.gmap.codomain
    assert ext.cone == fs.cone and np.array_equal(ext.g, fs.g)
    assert ext.member(np.concatenate([x0, z0]))
    # (x, z) is a member exactly when G x + cols z + g is in the cone
    seen = set()
    for _ in range(50):
        x = x0 + rng.standard_normal(fs.gmap.domain.dim)
        z = z0 + rng.standard_normal(2)
        inside = cones.member(fs.cone, fs.gmap(x) + cols @ z + fs.g)
        assert ext.member(np.concatenate([x, z])) == inside
        seen.add(inside)
    assert seen == {True, False}
    with pytest.raises(ValueError):
        fs.extend(cols[1:])


def test_dual_via_basis_same_optimum():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 3)], [(cones.NONNEG, 3)], seed=2)
    d1 = program.dualize(p)
    d2 = oracles.dual_via_basis(p, np.eye(3))
    r1 = solver.solve(d1)
    r2 = solver.solve(d2)
    assert r1.status == "Optimal" and r2.status == "Optimal"
    assert np.isclose(r1.pobj, r2.pobj, atol=1e-6)


def test_program_validation():
    dom, cod = space(real(2)), space(real(3))
    a = LinearMap(dom, cod, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        program.ConicProgram(A=a, b=np.zeros(2), c=np.zeros(2),
                             K=cones.cone(cod, cones.NONNEG),
                             C=cones.cone(dom, cones.NONNEG), sense="sup")
    with pytest.raises(ValueError):
        program.ConicProgram(A=a, b=np.zeros(3), c=np.zeros(2),
                             K=cones.cone(cod, cones.NONNEG),
                             C=cones.cone(dom, cones.NONNEG), sense="max")
