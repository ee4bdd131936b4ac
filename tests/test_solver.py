"""Operator-splitting solver against independent oracles and hand instances."""

import numpy as np
import pytest

import oracles
from conedual import cones, diagnostics, gallery, program, solver
from conedual.spaces import LinearMap, inner, real, space, sym, sym_to_vec


def _lp(seed, n=3, m=4):
    rng = np.random.default_rng([seed, 31])
    dom, cod = space(real(n)), space(real(m))
    return program.ConicProgram(
        A=LinearMap(dom, cod, rng.standard_normal((m, n))),
        b=rng.standard_normal(m), c=rng.standard_normal(n),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")


def test_lp_against_vertex_oracle():
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    for seed in range(25):
        p = _lp(seed)
        st, val = oracles.lp_value(p)
        statuses[st] += 1
        res = solver.solve(p)
        if st == "optimal":
            assert res.status == "Optimal", (seed, res.status)
            assert abs(res.pobj - val) <= 1e-5 * (1 + abs(val)), (seed, res.pobj, val)
        elif st == "unbounded":
            assert res.status == "Unbounded", (seed, res.status)
        else:
            assert res.status == "PrimalInfeasible", (seed, res.status)
    # the seed sweep must exercise the optimal branch repeatedly
    assert statuses["optimal"] >= 10


def test_optimal_certificates_revalidate():
    for seed in range(8):
        p = gallery.planted_strong_duality(
            [(cones.NONNEG, 3)], [(cones.NONNEG, 3)], seed=seed)
        res = solver.solve(p)
        assert res.status == "Optimal"
        assert program.is_feasible_point(p, res.x, 1e-6)
        d = program.dualize(p)
        assert program.is_feasible_point(d, res.y, 1e-6)
        assert abs(res.pobj - res.dobj) <= 1e-6 * (1 + abs(res.pobj))


def test_infeasible_lp_certificate():
    # x >= 0 together with x <= -1 is empty; the certificate y has
    # A* y in C*, y in K*, <b, y> < 0 after normalization
    dom, cod = space(real(2)), space(real(2))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.eye(2)), b=-np.ones(2), c=np.zeros(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    res = solver.solve(p)
    assert res.status == "PrimalInfeasible"
    cert = res.certificate
    y = cert["y"]
    assert cones.member(cones.dual(p.K), y, 1e-6)
    assert cones.member(cones.dual(p.C), p.A.matrix.T @ y, 1e-6)
    assert inner(p.b, y) < -1e-8


def test_unbounded_lp_ray():
    # sup x_1 over the nonnegative quadrant with no upper bound
    dom, cod = space(real(2)), space(real(1))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.zeros((1, 2))), b=np.ones(1),
        c=np.array([1.0, 0.0]),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    res = solver.solve(p)
    assert res.status == "Unbounded"
    ray = res.certificate["ray"]
    assert cones.member(p.C, ray, 1e-6)
    assert cones.member(p.K, -p.A(ray), 1e-6)
    assert inner(p.c, ray) > 1e-8


def test_soc_analytic_value():
    # pin the cone axis to 1, maximize a linear functional
    rng = np.random.default_rng([9, 32])
    for n in (3, 4, 5):
        dom, cod = space(real(n)), space(real(1))
        amat = np.zeros((1, n))
        amat[0, -1] = 1.0
        c = rng.standard_normal(n)
        p = program.ConicProgram(
            A=LinearMap(dom, cod, amat), b=np.ones(1), c=c,
            K=cones.cone(cod, cones.ZERO), C=cones.cone(dom, cones.SOC),
            sense="sup")
        res = solver.solve(p)
        assert res.status == "Optimal"
        assert np.isclose(res.pobj, oracles.soc_row_value(c, n), atol=1e-6)


def test_psd_max_eigenvalue():
    # sup <C, X> with tr X = 1, X psd equals the top eigenvalue of C
    rng = np.random.default_rng([9, 33])
    for m in (2, 3):
        cmat = rng.standard_normal((m, m))
        cmat = cmat + cmat.T
        dom, cod = space(sym(m)), space(real(1))
        tr_row = sym_to_vec(np.eye(m))[None, :]
        p = program.ConicProgram(
            A=LinearMap(dom, cod, tr_row), b=np.ones(1), c=sym_to_vec(cmat),
            K=cones.cone(cod, cones.ZERO), C=cones.cone(dom, cones.PSD),
            sense="sup")
        res = solver.solve(p)
        assert res.status == "Optimal"
        assert np.isclose(res.pobj, np.linalg.eigvalsh(cmat)[-1], atol=1e-6)


def test_inf_sense_agrees_with_negated_sup():
    for seed in range(5):
        p = _lp(seed)
        st, val = oracles.lp_value(p)
        if st != "optimal":
            continue
        # inf orientation reads the constraint as A y - b in K, so negating
        # A and b reproduces the sup program's feasible set
        q = program.ConicProgram(
            A=LinearMap(p.A.domain, p.A.codomain, -p.A.matrix),
            b=-p.b, c=-p.c, K=p.K, C=p.C, sense="inf")
        res = solver.solve(q)
        assert res.status == "Optimal"
        assert np.isclose(res.pobj, -val, atol=1e-5)


def test_strict_feasibility_yes():
    p = gallery.planted_strong_duality(
        [(cones.SOC, 3)], [(cones.NONNEG, 3)], seed=4)
    gmap, g, kc = program.feasible_system(p)
    res = solver.strict_feasibility(gmap, g, kc)
    assert res.verdict == "Yes"
    assert cones.relint_member(kc, gmap(res.witness) + g)
    assert res.margin > solver.STRICT_MARGIN


def test_strict_feasibility_empty_with_farkas():
    # {x : x >= 0 and -1 - x >= 0} is empty
    dom = space(real(1))
    cod = space(real(2))
    gmat = np.array([[1.0], [-1.0]])
    g = np.array([0.0, -1.0])
    kc = cones.cone(cod, cones.NONNEG)
    gmap = LinearMap(dom, cod, gmat)
    res = solver.strict_feasibility(gmap, g, kc)
    assert res.verdict == "No"
    assert res.detail == "the system is empty"
    lam = res.separator
    assert cones.member(cones.dual(kc), lam, 1e-6)
    assert np.linalg.norm(gmat.T @ lam) <= 1e-6
    assert inner(g, lam) < 0
    feas = solver.feasibility(gmap, g, kc)
    assert feas.verdict == "No"


def test_strict_feasibility_boundary_only():
    # x >= 0 and -x >= 0 forces x = 0: nonempty but no interior point
    dom = space(real(1))
    cod = space(real(2))
    gmat = np.array([[1.0], [-1.0]])
    g = np.zeros(2)
    kc = cones.cone(cod, cones.NONNEG)
    gmap = LinearMap(dom, cod, gmat)
    res = solver.strict_feasibility(gmap, g, kc)
    assert res.verdict == "No"
    lam = res.separator
    assert lam is not None
    assert cones.member(cones.dual(kc), lam, 1e-6)
    assert np.linalg.norm(gmat.T @ lam) <= 1e-6
    feas = solver.feasibility(gmap, g, kc)
    assert feas.verdict == "Yes"
    assert abs(feas.witness[0]) <= 1e-5


def test_conic_lp_value_statuses():
    dom = space(real(1))
    cod = space(real(1))
    nonneg = cones.cone(cod, cones.NONNEG)
    gmap = LinearMap(dom, cod, np.eye(1))
    # sup -x over x >= -1 attains 1 at x = -1
    vr = solver.conic_lp_value(np.array([-1.0]), gmap, np.ones(1), nonneg)
    assert vr.status == "Optimal" and np.isclose(vr.value, 1.0, atol=1e-6)
    # sup x over x >= -1 is unbounded
    vr = solver.conic_lp_value(np.array([1.0]), gmap, np.ones(1), nonneg)
    assert vr.status == "Unbounded" and vr.value == np.inf
    # empty set
    gmat = np.array([[1.0], [-1.0]])
    cod2 = space(real(2))
    vr = solver.conic_lp_value(np.array([1.0]),
                               LinearMap(dom, cod2, gmat),
                               np.array([0.0, -1.0]),
                               cones.cone(cod2, cones.NONNEG))
    assert vr.status == "Empty" and vr.value == -np.inf


def test_solver_respects_iteration_budget():
    p = _lp(0)
    res = solver.solve(p, max_iter=100)
    assert res.iterations <= 100


def test_solver_rejects_non_finite_iterates():
    # finite data whose iterates overflow: the linear solve refuses them, as
    # scipy's lu_solve does, rather than iterating on infs and NaNs
    dom, cod = space(real(2)), space(real(2))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.eye(2)), b=np.array([1e308, -1e308]),
        c=np.array([1e308, 1e308]), K=cones.cone(cod, cones.NONNEG),
        C=cones.cone(dom, cones.NONNEG), sense="sup")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solver.solve(p, max_iter=200)


def test_strict_feasibility_without_convergence_has_no_margin():
    # 50 iterations are far from enough on the Slater margin program of the
    # infinite-gap family; the solver's gap is not a margin
    gmap, g, kc = program.feasible_system(gallery.example_adapted(3))
    res = solver.strict_feasibility(gmap, g, kc, max_iter=50)
    assert res.verdict == "Unknown"
    assert res.detail == "solver did not converge"
    assert np.isnan(res.margin)


def _report_iterations(monkeypatch, p, **kw):
    """Total HSDE iterations of one strong_duality_report (outermost solves)."""
    solve = solver.solve
    total, depth = [0], [0]

    def counted(*args, **kwargs):
        depth[0] += 1
        try:
            res = solve(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            total[0] += res.iterations
        return res

    with monkeypatch.context() as mp:
        mp.setattr(solver, "solve", counted)
        diagnostics.strong_duality_report(p, **kw)
    return total[0]


def test_report_iteration_counts_are_pinned(monkeypatch):
    # Exact totals.  A change meant only for speed must leave every iterate,
    # and so these counts, unchanged; a change to the arithmetic moves them.
    assert _report_iterations(monkeypatch, gallery.example_adapted(3),
                              max_iter=1200) == 9825
    planted = gallery.planted_strong_duality(
        [(cones.PSD, 2), (cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)],
        seed=0)
    assert _report_iterations(monkeypatch, planted) == 4575
