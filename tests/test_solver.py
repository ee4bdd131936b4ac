"""Operator-splitting solver against independent oracles and hand instances."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs
from scipy.optimize import linprog

import oracles
from conedual import cones, diagnostics, gallery, program, solver
from conedual.spaces import LinearMap, inner, real, space, sym, sym_to_vec
from test_acceptance import MIXES


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


def test_unbounded_inf_ray_rate_is_the_objective_slope():
    # inf y over y free: the rate is <c, ray> < 0 of the inf program, not of
    # the negated sup program the solve runs on
    d1 = space(real(1))
    p = program.ConicProgram(
        A=LinearMap(d1, d1, np.eye(1)), b=np.zeros(1), c=np.ones(1),
        K=cones.cone(d1, cones.FREE), C=cones.cone(d1, cones.FREE), sense="inf")
    res = solver.solve(p)
    assert res.status == "Unbounded"
    ray = res.certificate["ray"]
    assert res.certificate["objective_rate"] == pytest.approx(inner(p.c, ray))
    assert res.certificate["objective_rate"] == pytest.approx(-1.0)


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
    fs = program.feasible_system(p)
    gmap, g, kc = fs.gmap, fs.g, fs.cone
    res = solver.strict_feasibility(fs)
    assert res.verdict == "Yes"
    assert cones.relint_member(kc, gmap(res.witness) + g)
    assert res.value > solver.STRICT_MARGIN


def test_strict_feasibility_yes_despite_equality_residual():
    # b = A x0 + s0 with x0, s0 relint points, so x0 is strictly feasible.
    # The solver meets the Zero row only to its residual tolerance, above the
    # membership tolerance, so the witness is stepped onto the equality; with
    # far too few iterations the unconverged iterate still gives a witness,
    # but no margin value
    p = program.as_sup(gallery.planted_strong_duality(
        [(cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)], seed=150))
    rng = np.random.default_rng(0)
    b = p.A(cones.sample_relint(p.C, rng, 0.3)) + cones.sample_relint(p.K, rng, 0.3)
    fs = program.feasible_system(dataclasses.replace(p, b=b))
    res = solver.strict_feasibility(fs)
    assert (res.verdict, res.detail) == ("Yes", "interior witness")
    assert fs.relint_member(res.witness)
    assert res.value > solver.STRICT_MARGIN
    res = solver.strict_feasibility(fs, max_iter=solver.CHECK_EVERY)
    assert (res.verdict, res.detail) == ("Yes", "interior witness from an unconverged solve")
    assert fs.relint_member(res.witness)
    assert np.isnan(res.value)


def test_strict_feasibility_empty_with_farkas():
    # {x : x >= 0 and -1 - x >= 0} is empty
    dom = space(real(1))
    cod = space(real(2))
    gmat = np.array([[1.0], [-1.0]])
    g = np.array([0.0, -1.0])
    kc = cones.cone(cod, cones.NONNEG)
    gmap = LinearMap(dom, cod, gmat)
    res = solver.strict_feasibility(program.System(gmap, g, kc))
    assert res.verdict == "No"
    assert res.detail == "the system is empty"
    lam = res.separator
    assert cones.member(cones.dual(kc), lam, 1e-6)
    assert np.linalg.norm(gmat.T @ lam) <= 1e-6
    assert inner(g, lam) < 0
    feas = solver.feasibility(program.System(gmap, g, kc))
    assert feas.verdict == "No"


def test_strict_feasibility_boundary_only():
    # x >= 0 and -x >= 0 forces x = 0: nonempty but no interior point
    dom = space(real(1))
    cod = space(real(2))
    gmat = np.array([[1.0], [-1.0]])
    g = np.zeros(2)
    kc = cones.cone(cod, cones.NONNEG)
    gmap = LinearMap(dom, cod, gmat)
    res = solver.strict_feasibility(program.System(gmap, g, kc))
    assert res.verdict == "No"
    lam = res.separator
    assert lam is not None
    assert cones.member(cones.dual(kc), lam, 1e-6)
    assert np.linalg.norm(gmat.T @ lam) <= 1e-6
    feas = solver.feasibility(program.System(gmap, g, kc))
    assert feas.verdict == "Yes"
    assert abs(feas.witness[0]) <= 1e-5


def test_strict_feasibility_of_equality_systems():
    # with only Zero rows e = 0, so the alternative system holds the origin
    # and the solve ends at sigma = 0: z is then a direction of recession
    # into the relative interior, and the plain feasibility solve decides
    dom, cod = space(real(2)), space(real(1))
    zero = cones.cone(cod, cones.ZERO)
    s = program.System(LinearMap(dom, cod, np.array([[1.0, 1.0]])), np.array([-1.0]), zero)
    res = solver.strict_feasibility(s)
    assert (res.verdict, res.detail) == ("Yes", "interior witness")
    assert s.relint_member(res.witness)
    # 0 x - 1 = 0 has no solution
    s = program.System(LinearMap(dom, cod, np.zeros((1, 2))), np.array([-1.0]), zero)
    res = solver.strict_feasibility(s)
    assert (res.verdict, res.detail) == ("No", "the system is empty")
    assert inner(s.g, res.separator) < 0


def test_conic_lp_value_statuses():
    dom = space(real(1))
    cod = space(real(1))
    nonneg = cones.cone(cod, cones.NONNEG)
    gmap = LinearMap(dom, cod, np.eye(1))
    # sup -x over x >= -1 attains 1 at x = -1
    vr = solver.conic_lp_value(program.System(gmap, np.ones(1), nonneg), np.array([-1.0]))
    assert vr.verdict == "Optimal" and np.isclose(vr.value, 1.0, atol=1e-6)
    # sup x over x >= -1 is unbounded
    vr = solver.conic_lp_value(program.System(gmap, np.ones(1), nonneg), np.array([1.0]))
    assert vr.verdict == "Unbounded" and vr.value == np.inf
    # empty set
    gmat = np.array([[1.0], [-1.0]])
    cod2 = space(real(2))
    vr = solver.conic_lp_value(program.System(LinearMap(dom, cod2, gmat),
                                              np.array([0.0, -1.0]),
                                              cones.cone(cod2, cones.NONNEG)),
                               np.array([1.0]))
    assert vr.verdict == "Empty" and vr.value == -np.inf


def test_solver_respects_iteration_budget():
    p = _lp(0)
    res = solver.solve(p, max_iter=100)
    assert res.iterations <= 100


def test_solver_rejects_non_finite_iterates():
    # finite data whose iterates overflow: the linear solve refuses them, as
    # scipy's lu_solve does, rather than iterating on infs and NaNs.  b and c
    # enter the embedding as unit vectors, so the huge entries sit in A
    dom, cod = space(real(2)), space(real(2))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.array([[1e308, 1e308], [1.0, 1.0]])), b=np.ones(2),
        c=np.ones(2), K=cones.cone(cod, cones.NONNEG),
        C=cones.cone(dom, cones.NONNEG), sense="sup")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solver.solve(p, max_iter=200)


def test_embedding_of_extreme_data_is_finite(monkeypatch):
    # b enters the embedding as b / |b|, with |b| taken of b / max|b|: the
    # norm of entries near the largest float is finite and positive, and a
    # norm beyond it still leaves a finite unit vector
    b = np.array([1e308, -1e308])
    norm_b, unit = solver._unit(b)
    assert np.isfinite(norm_b) and norm_b > 0 and 1.0 / norm_b > 0
    assert abs(np.linalg.norm(unit) - 1.0) <= 1e-15
    with np.errstate(over="ignore"):
        norm, unit = solver._unit(np.full(4, 1e308))
    assert norm == np.inf and unit.tolist() == [0.5] * 4
    assert solver._unit(np.zeros(3))[0] == 0.0
    # the I + Q factored for that b is finite, and its b column is b / |b|
    dom, cod = space(real(2)), space(real(2))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.eye(2)), b=b, c=np.ones(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.FREE), sense="sup")
    factored = []

    def lapack(names, arrays):
        factored.append(arrays[0].copy())
        return get_lapack_funcs(names, arrays)

    monkeypatch.setattr(solver, "get_lapack_funcs", lapack)
    with np.errstate(over="ignore", invalid="ignore"):
        solver.solve(p, max_iter=10)
    (q,) = factored
    assert np.isfinite(q).all()
    assert np.allclose(q[2:4, -1], b / norm_b, rtol=0, atol=1e-15)


def test_strict_feasibility_without_convergence_has_no_margin():
    # the alternative system of the infinite-gap family reaches its Farkas
    # ray only with the first extrapolation, at iteration AA_MEMORY + 1; an
    # unconverged solve proves nothing
    res = solver.strict_feasibility(program.feasible_system(gallery.example_adapted(3)),
                                    max_iter=solver.AA_MEMORY)
    assert res.verdict == "Unknown"
    assert res.detail == "solver did not converge"
    assert np.isnan(res.value)


def _assert_certificate_revalidates(p, res, tol=1e-6):
    """res's point, ray or certificate checked by cone membership alone."""
    cert = res.certificate
    if res.status == "Optimal":
        assert program.is_feasible_point(p, res.x, tol)
        assert program.is_feasible_point(program.dualize(p), res.y, tol)
    elif res.status == "PrimalInfeasible":
        y = cert["y"]
        assert cones.member(cones.dual(p.K), y, tol)
        assert cones.member(cones.dual(p.C), p.A.matrix.T @ y, tol)
        assert inner(p.b, y) < 0
    elif res.status == "Unbounded":
        ray = cert["ray"]
        assert cones.member(p.C, ray, tol)
        assert cones.member(p.K, -p.A(ray), tol)
        assert inner(p.c, ray) > 0
    elif cert.get("kind") == "fixed_point":
        fs = program.feasible_system(p)
        assert solver._validated_separator(fs, cert["y"], solver.TOL_FEAS) is not None


_POPULATIONS = [("mix", i) for i in range(len(MIXES))] + \
    [("profile", name) for name in sorted(gallery.PROFILES)]


def _population_program(kind, which, seed):
    if kind == "mix":
        return gallery.planted_strong_duality(*MIXES[which], seed=seed)
    return gallery.random_program(which, seed=seed)


# the programs a population member poses to the solver: its own sup side,
# and the two System solves behind strict and plain feasibility of its
# feasible set, whose C is Free over all of the variables
_FORMS = {
    "sup": program.as_sup,
    "alternative": lambda p: solver._alternative_program(program.feasible_system(p)),
    "feasibility": lambda p: program.feasible_system(p).as_program(np.zeros(p.A.domain.dim)),
}


_HIGHS_STATUS = {"optimal": "Optimal", "unbounded": "Unbounded", "infeasible": "PrimalInfeasible"}


@oracles.PROPERTY
@given(st.sampled_from(_POPULATIONS), st.integers(0, 2**16), st.sampled_from(sorted(_FORMS)))
@example(population=("profile", "lp-eq"), seed=1317, form="sup")
def test_accelerated_solve_agrees_with_the_plain_loop(population, seed, form):
    # the extrapolation and the embedding of the live rows alone change the
    # path and the iteration count, never the outcome: same status as the
    # unaccelerated loop on the full embedding, the same values to the
    # solver's tolerance, and certificates that revalidate.  Where the plain
    # loop decides nothing on a polyhedral program, HiGHS decides the status
    # (lp-eq seed 1317: Unbounded at 19,600 iterations, as HiGHS says, where
    # the plain loop is Unknown at 50,000)
    p = _FORMS[form](_population_program(*population, seed))
    res, ref = solver.solve(p), oracles.plain_solve(p)
    values = (ref.pobj, ref.dobj)
    if ref.status == "Unknown" and p.is_fully_polyhedral() and res.status != "Unknown":
        status, value = oracles.lp_value(p)
        assert res.status == _HIGHS_STATUS[status], (res, ref, status)
        values = (value, value)
    else:
        assert res.status == ref.status, (res, ref)
    if res.status == "Optimal":
        for a, b in zip((res.pobj, res.dobj), values):
            assert abs(a - b) <= 1e-6 * (1 + abs(b)), (res, ref)
    _assert_certificate_revalidates(p, res)
    _assert_certificate_revalidates(p, ref)


@pytest.mark.parametrize("population", _POPULATIONS, ids=lambda pop: f"{pop[0]}-{pop[1]}")
def test_scaling_b_or_c_scales_the_solve(population):
    # b -> k b scales the feasible set by k, and c -> k c the objective, so
    # both scale the optimal value by k and keep every status.  The unscaled
    # solve is the oracle: the same status at the same budget, Optimal
    # values k times its own, and certificates that revalidate
    for seed in range(4):
        p = _population_program(*population, seed)
        ref = solver.solve(p, max_iter=5000)
        for which, k in itertools.product("bc", (1e-3, 1e3)):
            q = dataclasses.replace(p, **{which: k * getattr(p, which)})
            res = solver.solve(q, max_iter=5000)
            assert res.status == ref.status, (seed, which, k, res, ref)
            if res.status == "Optimal":
                for a, b in ((res.pobj, ref.pobj), (res.dobj, ref.dobj)):
                    assert abs(a - k * b) <= 1e-5 * k * (1 + abs(b)), (seed, which, k, a, b)
            _assert_certificate_revalidates(q, res)


def _counted_solve(monkeypatch, p, extrapolate):
    """solver.solve(p) with `extrapolate` for the extrapolation, and the
    right-hand side of every linear solve it made."""
    calls = []

    def lapack(names, arrays):
        funcs = get_lapack_funcs(names, arrays)
        getrs = funcs[names.index("getrs")]

        def counted(lu, piv, rhs, **kw):
            calls.append(rhs.copy())
            return getrs(lu, piv, rhs, **kw)
        return tuple(counted if f is getrs else f for f in funcs)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "get_lapack_funcs", lapack)
        mp.setattr(solver, "_extrapolate", extrapolate)
        return solver.solve(p), calls


def test_rejected_extrapolations_cost_one_iteration_each(monkeypatch):
    # every extrapolation is pushed far out along tau, where the map's
    # residual grows with the point, so the safeguard rejects each one: the
    # solve must then follow the plain steps alone, reach the plain loop's
    # status, and count each rejected evaluation as one iteration.  The
    # solve is the strict feasibility solve of a posed system of the planted
    # pair, whose c = 0 keeps the pair polish out: with the pair's own c it
    # ends the solve before any extrapolation is rejected
    pair = gallery.planted_strong_duality(
        [(cones.PSD, 2), (cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)], seed=0)
    p = solver._alternative_program(diagnostics.posed_systems(pair)["recession-primal"])
    assert not p.c.any()
    ref = oracles.plain_solve(p)
    plain, plain_calls = _counted_solve(monkeypatch, p, lambda gesv, gs, fs: None)
    far = []

    def rejected(gesv, gs, fs):
        cand = gs[-1].copy()
        cand[-1] += 1e6 * (1.0 + np.linalg.norm(gs[-1]))
        far.append(cand[-1])
        return cand

    res, calls = _counted_solve(monkeypatch, p, rejected)
    assert res.status == plain.status == ref.status == "Optimal"
    assert (res.iterations, plain.iterations) == (len(calls), len(plain_calls))
    # a candidate c has c[-1] > 0, so its linear solve has rhs[-1] = c[-1]
    at_far = [c for c in calls if c[-1] in far]
    steps = [c for c in calls if c[-1] not in far]
    assert len(far) > 10 and len(at_far) >= len(far) - 1
    assert len(calls) == len(steps) + len(at_far)
    # without the rejected points, the path is the plain one step for step
    assert abs(len(steps) - len(plain_calls)) <= solver.CHECK_EVERY
    assert all(a.tobytes() == b.tobytes() for a, b in zip(steps, plain_calls))


def test_solve_stops_at_iteration_one_when_the_start_solves_it():
    # with b = 0 and c = 0 the starting point (x, y, tau) = (0, 0, 1) is a
    # solution and the map's fixed point, and the first check is at k = 1
    dom, cod = space(real(2)), space(real(1))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.array([[1.0, -2.0]])), b=np.zeros(1), c=np.zeros(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG), sense="sup")
    res = solver.solve(p)
    assert (res.status, res.iterations) == ("Optimal", 1)
    assert not res.x.any() and not res.y.any()


def test_a_start_not_finite_in_the_embeddings_units_starts_cold():
    # with |b| = |c| = 1e-300, x / |b| and y / |c| overflow for a start of
    # norm 1e10; such a start, and one with no halves, is no start at all
    p = gallery.planted_strong_duality([(cones.NONNEG, 4)], [(cones.NONNEG, 3)], seed=0)
    p = dataclasses.replace(p, b=1e-300 * p.b, c=1e-300 * p.c)
    ref = solver.solve(p)
    assert ref.status == "Optimal"
    big_x, big_y = np.full(4, 1e10), np.full(3, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is no warning either
        for start in ((big_x, None), (None, big_y), (big_x, big_y), (None, None)):
            res = solver.solve(dataclasses.replace(p, start=start))
            np.testing.assert_equal(dataclasses.asdict(res), dataclasses.asdict(ref))


@pytest.mark.parametrize("k", [1.0, 1e-3, 1e3])
def test_a_start_is_mapped_into_the_embeddings_units(monkeypatch, k):
    # the first linear solve's right-hand side is the first iterate u = (x /
    # |b|, y^ / |c|, 1), with y^ = (y, A* y - c) on the rows of K x C; from
    # the converged pair of a planted LP the first check ends the solve
    p = gallery.planted_strong_duality([(cones.NONNEG, 4)], [(cones.NONNEG, 3)], seed=0)
    p = dataclasses.replace(p, b=k * p.b)
    ref = solver.solve(p)
    assert ref.status == "Optimal" and ref.iterations > 1
    assert ref.x.any() and ref.y.any()
    started = dataclasses.replace(p, start=(ref.x, ref.y))
    res, calls = _counted_solve(monkeypatch, started, solver._extrapolate)
    assert (res.status, res.iterations) == ("Optimal", 1)
    assert abs(res.pobj - ref.pobj) <= 1e-8 * (1 + abs(ref.pobj))
    y_hat = np.concatenate([ref.y, p.A.matrix.T @ ref.y - p.c])
    u = np.concatenate([ref.x / np.linalg.norm(p.b), y_hat / np.linalg.norm(p.c), [1.0]])
    np.testing.assert_allclose(calls[0], u, rtol=1e-12, atol=1e-12)
    # the inf program with p's feasible set and the polar mirror of p solve
    # the same embedding from the same point: the inf form keeps x and y,
    # the mirror negates both, as it negates its results
    inf_form = dataclasses.replace(p, A=LinearMap(p.A.domain, p.A.codomain, -p.A.matrix),
                                   b=-p.b, c=-p.c, sense="inf", start=(ref.x, ref.y))
    polar = dataclasses.replace(p, b=-p.b, c=-p.c, K=cones.polar(p.K), C=cones.polar(p.C),
                                start=(-ref.x, -ref.y))
    for q in (inf_form, polar):
        _, mirrored = _counted_solve(monkeypatch, q, solver._extrapolate)
        assert [a.tobytes() for a in mirrored] == [a.tobytes() for a in calls]


def test_report_starts_its_value_solve_from_the_slater_points(monkeypatch):
    # both sides of free-ineq seed 0 are strictly feasible: from their
    # Slater points the report's primal solve takes 2 iterations, 243 cold
    p = gallery.random_program("free-ineq", seed=0)
    assert solver.solve(p).iterations == 243
    solves = _report_solves(monkeypatch, p)
    assert [it for name, _, it in solves if name == "pair"] == [2]


def test_finiteness_check_starts_its_side_solve(monkeypatch):
    # on free-ineq seed 0, from its Slater point and the other side's
    # feasible point, the primal side solve takes 2 iterations (243 cold)
    # and the dual side's 1 (330 cold)
    p = gallery.random_program("free-ineq", seed=0)
    assert [solver.solve(diagnostics._side_program(p, side)).iterations
            for side in ("primal", "dual")] == [243, 330]
    solve, started, depth = solver.solve, [], [0]

    def counted(q, *args, **kwargs):
        depth[0] += 1
        try:
            res = solve(q, *args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0] and q.start is not None:
            started.append(res.iterations)
        return res

    monkeypatch.setattr(solver, "solve", counted)
    for side in ("primal", "dual"):
        assert diagnostics.finiteness_check(p, side).verdict == "Finite"
    assert started == [2, 1]


def _simplex_lp():
    """sup x1 + 2 x2 over x >= 0, x1 + x2 <= 1: x = (0, 1), y = 2, and the
    embedding point w = u - v = (x / |b|, (y_K, y_C) / |c| - (s_K, s_C) / |b|,
    tau) with y_K = 2, y_C = A* y_K - c = (1, 0), s_K = 0 and s_C = x passes
    every optimality test exactly, as the embedding holds b / |b| and c / |c|;
    here |b| = 1."""
    dom, cod = space(real(2)), space(real(1))
    c = np.array([1.0, 2.0])
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.ones((1, 2))), b=np.ones(1), c=c,
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG), sense="sup")
    norm_c = np.linalg.norm(c)
    return p, np.array([0.0, 1.0, 2.0 / norm_c, 1.0 / norm_c, -1.0, 1.0])


def test_passing_extrapolation_stops_the_solve_at_once(monkeypatch):
    # the first extrapolation comes after AA_MEMORY + 1 map evaluations, and
    # a fresh extrapolation is checked at once: one that passes ends the solve.
    # The polish step would end this LP at k = 4, before any extrapolation,
    # so it is kept out, as the extrapolation is patched below
    monkeypatch.setattr(solver, "_polisher", lambda *args: None)
    p, w_star = _simplex_lp()
    plain, _ = _counted_solve(monkeypatch, p, lambda gesv, gs, fs: None)
    assert plain.status == "Optimal" and plain.iterations > solver.AA_MEMORY + 1
    res, calls = _counted_solve(monkeypatch, p, lambda gesv, gs, fs: w_star.copy())
    assert (res.status, res.iterations, len(calls)) == ("Optimal", solver.AA_MEMORY + 1,
                                                        solver.AA_MEMORY + 1)
    assert res.x.tolist() == [0.0, 1.0] and res.y.tolist() == [2.0]
    assert res.pobj == res.dobj == 2.0


@pytest.mark.parametrize("n, m, seed", [(60, 80, 1), (90, 120, 0)])
def test_polish_settles_planted_lps_the_splitting_leaves_unknown(n, m, seed):
    # without the polish step both ran out 50,000 iterations Unknown; the
    # active set guessed from an early iterate gives HiGHS's vertex
    p = gallery.planted_strong_duality([(cones.NONNEG, n)], [(cones.NONNEG, m)], seed=seed)
    res = solver.solve(p, max_iter=5000)
    lp = linprog(-p.c, A_ub=p.A.matrix, b_ub=p.b, bounds=[(0, None)] * n, method="highs")
    assert res.status == "Optimal" and lp.status == 0, (res.status, lp.message)
    for value in (res.pobj, res.dobj):
        assert abs(value + lp.fun) <= 1e-6 * (1 + abs(lp.fun)), (value, -lp.fun)
    _assert_certificate_revalidates(p, res)


@st.composite
def _polyhedral_programs(draw):
    """sup <c, x> s.t. b - A x in K, x in C, with K a product of 1-2 Zero
    and Nonneg factors, C of 1-2 Zero, Nonneg and Free factors, small
    integer data, and c = 0 in about one draw in four: degenerate, empty,
    unbounded and doubly infeasible programs are common."""
    def factors(tags, most):
        return draw(st.lists(st.tuples(st.sampled_from(tags), st.integers(1, most)),
                             min_size=1, max_size=2))

    def entries(k):
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)),
                        dtype=float)

    kf = factors([cones.NONNEG, cones.ZERO], 3)
    cf = factors([cones.NONNEG, cones.ZERO, cones.FREE], 2)
    cod, dom = space(*(real(k) for _, k in kf)), space(*(real(k) for _, k in cf))
    m, n = cod.dim, dom.dim
    a, b, c = entries(m * n).reshape(m, n), entries(m), entries(n)
    if draw(st.integers(0, 3)) == 0:
        c = np.zeros(n)
    return program.ConicProgram(A=LinearMap(dom, cod, a), b=b, c=c,
                                K=cones.cone(cod, *(t for t, _ in kf)),
                                C=cones.cone(dom, *(t for t, _ in cf)), sense="sup")


def _solve_with(p, **patches):
    """solver.solve(p) with the solver's names in `patches` replaced."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(solver, name, value)
        return solver.solve(p)


def _noisy_polisher(noise):
    """`solver._polisher` with noise(shape) added to every vector of every
    candidate it proposes, as if its corrections were garbage."""
    polisher = solver._polisher

    def make(*args):
        polish = polisher(*args)

        def noisy(w, u):
            pair, ray = polish(w, u)
            return (None if pair is None else tuple(v + noise(v.shape) for v in pair),
                    None if ray is None else ray + noise(ray.shape))
        return noisy
    return make


def _same_result(a, b):
    """Whether two results agree bit for bit; repr matches nan to nan."""
    vectors = ((a.x, b.x), (a.y, b.y))
    return (repr((a.status, a.iterations, a.pobj, a.dobj)) ==
            repr((b.status, b.iterations, b.pobj, b.dobj)) and
            all(u.tobytes() == v.tobytes() if u is not None else v is None for u, v in vectors))


@oracles.PROPERTY
@given(_polyhedral_programs())
def test_polished_solves_agree_with_the_plain_loop_and_highs(p):
    res = solver.solve(p)
    unpolished = _solve_with(p, _polisher=lambda *args: None)
    ref = oracles.plain_solve(p)
    status, value = oracles.lp_value(p)
    _assert_certificate_revalidates(p, res)
    _assert_certificate_revalidates(p, ref)
    # the status is the plain loop's, except on a program empty on both
    # sides, which has a Farkas ray and an improving ray: either certifies
    # it, and both revalidate above
    if res.status != ref.status:
        assert {res.status, ref.status} == {"PrimalInfeasible", "Unbounded"}, (res, ref)
        assert status == "infeasible"
    if res.status == "Optimal":
        assert status == "optimal"
        for v in (res.pobj, res.dobj):
            assert abs(v - value) <= 1e-6 * (1 + abs(value)), (res, value)
    if res.status == "PrimalInfeasible":
        assert status == "infeasible"
        if (res.status, res.iterations) != (unpolished.status, unpolished.iterations):
            # a polished Farkas ray
            cert = res.certificate
            assert min(cert["y_margin"], cert["w_margin"]) >= -1e-8
            assert cert["adjoint_residual"] <= 1e-6 and cert["b_dot_y"] < 0

    # a polish whose candidates are garbage never ends a solve: NaN fails
    # every exit test, so the solve is the unpolished loop's, step for step
    nan = _solve_with(p, _polisher=_noisy_polisher(lambda shape: np.full(shape, np.nan)))
    assert _same_result(nan, unpolished), (nan, unpolished)
    # a finite garbage point may happen to pass; then it is a true
    # certificate, as only the exit test lets it end the solve
    rng = np.random.default_rng(0)
    junk = _solve_with(p, _polisher=_noisy_polisher(lambda sh: 1e3 * rng.standard_normal(sh)))
    _assert_certificate_revalidates(p, junk)
    if junk.status == "Optimal":
        assert abs(junk.pobj - value) <= 1e-6 * (1 + abs(value)), (junk, value)


def test_jordan_products_of_the_pair_polish():
    # Arw(v) u and the Lyapunov matrix of S are the Jordan products v o u of
    # an SOC block (axis last) and svec(S Y + Y S) of a PSD one, in svec
    # coordinates
    rng = np.random.default_rng(0)
    for k in (2, 3, 5):
        v, u = rng.standard_normal(k), rng.standard_normal(k)
        jordan = np.append(v[-1] * u[:-1] + u[-1] * v[:-1], v @ u)
        np.testing.assert_allclose(solver._arrow(v) @ u, jordan, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(solver._arrow(u) @ v, jordan, rtol=1e-14, atol=1e-14)
    for order in (1, 2, 3, 4):
        a, b = rng.standard_normal((2, order, order))
        smat, ymat = a + a.T, b + b.T
        lyap = solver._lyapunov_plan(order)(sym_to_vec(smat))
        np.testing.assert_allclose(lyap @ sym_to_vec(ymat), sym_to_vec(smat @ ymat + ymat @ smat),
                                   rtol=1e-13, atol=1e-13)


@st.composite
def _curved_programs(draw):
    """sup <c, x> s.t. b - A x in K, x in C, with 1-2 factors a side: C from
    Nonneg, SOC, PSD(2) and Free, K from Nonneg, SOC, PSD(2) and Zero, at
    least one SOC or PSD factor, and integer data in -2..2 with c != 0."""
    def factors(tags):
        picked = draw(st.lists(st.tuples(st.sampled_from(tags), st.integers(2, 3)),
                               min_size=1, max_size=2))
        return [(tag, sym(2) if tag == cones.PSD else real(k)) for tag, k in picked]

    cf = factors([cones.NONNEG, cones.SOC, cones.PSD, cones.FREE])
    kf = factors([cones.NONNEG, cones.SOC, cones.PSD, cones.ZERO])
    assume(any(tag in (cones.SOC, cones.PSD) for tag, _ in cf + kf))
    dom, cod = space(*(f for _, f in cf)), space(*(f for _, f in kf))
    m, n = cod.dim, dom.dim

    def entries(k):
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)), dtype=float)

    a, b, c = entries(m * n).reshape(m, n), entries(m), entries(n)
    assume(c.any())
    return program.ConicProgram(A=LinearMap(dom, cod, a), b=b, c=c,
                                K=cones.cone(cod, *(t for t, _ in kf)),
                                C=cones.cone(dom, *(t for t, _ in cf)), sense="sup")


def _unpolished(*args):
    """`solver._pair_polisher` that never polishes."""
    return None, 1


@oracles.PROPERTY
@given(st.one_of(_curved_programs(),
                 st.builds(lambda pop, seed: program.as_sup(_population_program(*pop, seed)),
                           st.sampled_from(_POPULATIONS), st.integers(0, 2**16))))
def test_pair_polish_agrees_with_the_plain_loop(p):
    # the pair polish only ends a solve early, on a pair that passes the
    # iterate's exit test: any other end is the unpolished solve's, bit for
    # bit; the plain loop's status (a program empty on both sides has a
    # Farkas ray and an improving ray, and either may end it), its values to
    # the solver's tolerance, certificates that revalidate, and the report's
    # entries bitwise those without the polish
    res, ref = solver.solve(p), oracles.plain_solve(p)
    unpolished = _solve_with(p, _pair_polisher=_unpolished)
    if res.status != "Optimal":
        assert _same_result(res, unpolished), (res, unpolished)
    if {res.status, ref.status} != {"PrimalInfeasible", "Unbounded"}:
        assert res.status == ref.status, (res, ref)
    _assert_certificate_revalidates(p, ref)
    if res.status == "Optimal":
        for a, b in ((res.pobj, ref.pobj), (res.dobj, ref.dobj)):
            assert abs(a - b) <= 1e-6 * (1 + abs(b)), (res, ref)
    _assert_certificate_revalidates(p, res)
    rep = diagnostics.strong_duality_report(p, max_iter=5000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pair_polisher", _unpolished)
        bare = diagnostics.strong_duality_report(p, max_iter=5000)
    assert diagnostics.jsonable(rep.entries) == diagnostics.jsonable(bare.entries)


def test_pair_polish_ends_the_soc_mix_value_solve(monkeypatch):
    # the report's value solve of soc-mix seed 0 took 672 iterations
    # without the polish, ending at a gap of 4e-9; the chain at iteration 44
    # lands on the solution, after those at 11 and 22 fail (one at iteration
    # 4 would land too, but the gate allows none before 11)
    p = gallery.random_program("soc-mix", seed=0)
    value_solves = [its for name, _, its in _report_solves(monkeypatch, p) if name == "pair"]
    assert len(value_solves) == 1 and value_solves[0] <= 50, value_solves


def test_a_polished_pair_is_the_chain_end_clipped_into_its_cone(monkeypatch):
    # the planted SOC/PSD solves end on a polished pair: the last point of
    # its Newton chain, whose dual residual and gap are at rounding level far
    # below the tolerance, and whose y and s the polish clipped into
    # dual(K') and K' (y and w of the result lie in dual(K) and dual(C); the
    # clip of s is what is left in pres)
    ended = 0
    for mix in (MIXES[1], MIXES[2], MIXES[3], MIXES[5]):
        for seed in range(4):
            p = gallery.planted_strong_duality(*mix, seed=seed)
            res = solver.solve(p)
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_pair_polisher", _unpolished)
                plain = solver.solve(p)
            assert res.status == plain.status == "Optimal"
            assert res.iterations <= plain.iterations
            if res.iterations == plain.iterations:
                continue
            ended += 1
            assert max(res.dres, res.gap) <= 1e-13, (mix, seed, res)
            for cone, v in ((cones.dual(p.K), res.y), (cones.dual(p.C), res.certificate["w"])):
                assert cones.margin(cone, v) >= -1e-14 * (1 + np.linalg.norm(v)), (mix, seed)
    assert ended >= 12


def test_polar_views_solve_as_their_mirror_image():
    # x in polar(C) and b - A x in polar(K) is the program over C and K in
    # x' = -x with b and c negated: the same values and negated vectors
    p, _ = _simplex_lp()
    pol = dataclasses.replace(p, b=-p.b, c=-p.c, K=cones.polar(p.K), C=cones.polar(p.C))
    res, ref = solver.solve(pol), solver.solve(p)
    assert res.status == ref.status == "Optimal" and res.iterations == ref.iterations
    assert (res.pobj, res.dobj) == (ref.pobj, ref.dobj)
    assert res.x.tobytes() == (-ref.x).tobytes() and res.y.tobytes() == (-ref.y).tobytes()
    assert res.certificate["w"].tobytes() == (-ref.certificate["w"]).tobytes()
    assert program.is_feasible_point(pol, res.x, 1e-6)
    assert program.is_feasible_point(program.dualize(pol), res.y, 1e-6)


def test_free_rows_are_not_embedded():
    # dual(Free) = Zero, so a Free row constrains nothing: the embedding has
    # no row for it, y and w are exactly 0 there, and the fixed point's s
    # there is the row's exact slack.  Two Free rows stacked on the feasible
    # system of p, over free x, leave p's own embedding, so the solve is
    # p's solve step for step
    rng = np.random.default_rng(0)
    p = program.as_sup(gallery.planted_strong_duality(*MIXES[1], seed=3))
    fs = program.feasible_system(p)
    free = slice(-2, None)
    q = fs.stack(rng.standard_normal((2, fs.gmap.domain.dim)), [0.0, 1.5],
                 cones.FREE).as_program(p.c)
    res, ref, own = solver.solve(q), oracles.plain_solve(q), solver.solve(p)
    assert res.status == ref.status == own.status == "Optimal"
    for a, b in ((res.pobj, ref.pobj), (res.dobj, ref.dobj)):
        assert abs(a - b) <= 1e-6 * (1 + abs(b))
    assert (res.iterations, res.pobj, res.dobj) == (own.iterations, own.pobj, own.dobj)
    assert res.x.tobytes() == own.x.tobytes()
    # C of q is Free over all of x, so w is 0 throughout
    assert res.y[free].tobytes() == bytes(16)
    assert res.certificate["w"].tobytes() == bytes(8 * len(p.c))
    _assert_certificate_revalidates(q, res)

    # the weakly infeasible primal of the pathology, with two Free rows of
    # offset 0: the solve stops at the embedding's fixed point, as the plain
    # loop does
    fs = program.feasible_system(gallery.example_adapted(3))
    n = fs.gmap.domain.dim
    q = fs.stack(rng.standard_normal((2, n)), [0.0, 0.0], cones.FREE).as_program(np.zeros(n))
    res, ref = solver.solve(q), oracles.plain_solve(q)
    assert res.status == ref.status == "Unknown"
    assert res.certificate["kind"] == ref.certificate["kind"] == "fixed_point"
    cert, m = res.certificate, q.A.codomain.dim
    y, s, x = cert["y"], cert["s"], cert["x"]
    assert y[free].tobytes() == bytes(16) and y[m:].tobytes() == bytes(8 * n)
    # the slack of a Free row of K is b tau - A x = -A x at offset 0, that
    # of a row of C is x
    assert np.array_equal(s[m - 2:m], -(q.A.matrix @ x)[free])
    assert s[m:].tobytes() == x.tobytes()
    _assert_certificate_revalidates(q, res)


def test_strict_feasibility_treats_sigma_at_the_solve_accuracy_as_zero():
    # the Zero row 0 x - 1 = 0 makes the system empty, so the alternative
    # forces sigma = 0; its solve stops Optimal with sigma = 1.3e-8, above
    # tol_feas but within the accuracy of a point of norm 1.7, and z / sigma
    # (norm 1.3e8) would pass the norm-scaled membership test
    dom, cod = space(real(1)), space(real(2), real(2), real(1))
    s = program.System(LinearMap(dom, cod, np.array([[-2.0], [-2.0], [-1.0], [-1.0], [0.0]])),
                       np.array([-2.0, -1.0, -2.0, -2.0, -1.0]),
                       cones.Cone(cod, (cones.NONNEG, cones.NONNEG, cones.ZERO)))
    res = solver.strict_feasibility(s, max_iter=5000)
    assert (res.verdict, res.detail) == ("No", "the system is empty")
    assert inner(s.g, res.separator) < 0


def test_feasibility_makes_at_most_one_plain_solve(monkeypatch):
    # the empty system above: the alternative's point has sigma = 0, so the
    # strict route consults the plain solve; forced not to decide there, the
    # feasibility fallback reads that solve rather than making a second
    dom, cod = space(real(1)), space(real(2), real(2), real(1))
    s = program.System(LinearMap(dom, cod, np.array([[-2.0], [-2.0], [-1.0], [-1.0], [0.0]])),
                       np.array([-2.0, -1.0, -2.0, -2.0, -1.0]),
                       cones.Cone(cod, (cones.NONNEG, cones.NONNEG, cones.ZERO)))
    calls = []

    def plain(*args):
        calls.append(args)
        return solver.Verdict("Unknown", detail="forced")

    monkeypatch.setattr(solver, "_plain_feasibility", plain)
    strict = solver.strict_feasibility(s, max_iter=5000)
    assert strict.detail == "point of the alternative gives no interior witness"
    assert len(calls) == 1
    calls.clear()
    assert solver.feasibility(s, max_iter=5000).detail == "forced"
    assert len(calls) == 1


def _fingerprint(p, tol_feas=solver.TOL_FEAS, tol_gap=solver.TOL_GAP,
                 max_iter=solver.MAX_ITER):
    return (p.A.matrix.tobytes(), p.b.tobytes(), p.c.tobytes(), p.K, p.C, p.sense,
            tol_feas, tol_gap, max_iter)


def _solve_names(p):
    """The name of each program a report of p may solve, keyed by its data:
    the alternative program of each posed system (its strict feasibility),
    the plain feasibility program of a feasible system ("plain " and its
    name), the sup program of the pair ("pair") and its dual ("mirror")."""
    ps = program.as_sup(p)
    names = {_fingerprint(ps)[:6]: "pair", _fingerprint(program.dualize(ps))[:6]: "mirror"}
    for name, s in diagnostics.posed_systems(ps).items():
        names[_fingerprint(solver._alternative_program(s))[:6]] = name
        if name.startswith("feasible-"):
            names[_fingerprint(s.as_program(np.zeros(s.gmap.domain.dim)))[:6]] = f"plain {name}"
    return names


def _report_solves(monkeypatch, p, **kw):
    """(name, fingerprint, iterations) of each outermost solve of one report,
    named by `_solve_names` (None for a program it does not name)."""
    solve = solver.solve
    names = _solve_names(p)
    solves, depth = [], [0]

    def counted(*args, **kwargs):
        depth[0] += 1
        try:
            res = solve(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            key = _fingerprint(*args, **kwargs)
            solves.append((names.get(key[:6]), key, res.iterations))
        return res

    with monkeypatch.context() as mp:
        mp.setattr(solver, "solve", counted)
        diagnostics.strong_duality_report(p, **kw)
    return solves


def test_report_iteration_counts_are_pinned(monkeypatch):
    # Exact solve counts and totals.  Iterations do not depend on the
    # machine, so a change to the arithmetic, to the acceleration or to where
    # a solve stops moves them, and must pin the new totals on purpose.  Each
    # system is solved at most once per report, so the
    # totals over all solves and over distinct solves agree; back-to-back
    # reports share nothing.  The pathology makes two plain feasibility
    # solves (no side is strictly feasible), and the planted report takes
    # its dual value from the primal solve.
    planted = gallery.planted_strong_duality(
        [(cones.PSD, 2), (cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)],
        seed=0)
    # The pathology's two solves that have no strictly complementary
    # solution stop at the embedding's fixed point, none at the budget.  One
    # of them is the primal solve, which leaves the dual value open: the
    # mirrored program has the same embedding and is not solved.
    # A system that a decided one implies is not solved, by the rows of
    # `diagnostics.IMPLIED`: perp-{side} where recession-{side} is No (both
    # sides of the pathology, the dual side of the planted pair) or else
    # where perspective-{other} is strictly feasible (the primal side of the
    # planted pair), and perspective-{side} where feasible-{side} is
    # strictly feasible (both sides of the planted pair).  The planted
    # pair's primal solve starts from the Slater points of both sides, and
    # the pair polish ends it at 8 iterations (350 without it, 564 in all);
    # the pathology has no Slater point, and its solves start cold.
    for p, budget, count, total in ((gallery.example_adapted(3), 1200, 9, 140),
                                    (planted, solver.MAX_ITER, 5, 222)):
        posed = diagnostics.posed_systems(p)
        verdicts = {name: solver.strict_feasibility(s, max_iter=budget).verdict
                    for name, s in posed.items()}
        skipped = {system for system, _, source, given, *_ in diagnostics.IMPLIED
                   if verdicts[source] == given}
        for _ in range(2):
            solves = _report_solves(monkeypatch, p, max_iter=budget)
            assert len(solves) == count
            assert None not in {name for name, _, _ in solves}
            assert set(posed) - {name for name, _, _ in solves} == skipped
            distinct = {key: it for _, key, it in solves}
            assert len(distinct) == len(solves)
            assert sum(distinct.values()) == total
            assert sum(it for *_, it in solves) == total
            assert max(it for *_, it in solves) < budget


def _sup_solved(p):
    """The sup program `solver.solve` runs for p."""
    if p.sense == "sup":
        return p
    return dataclasses.replace(p, A=LinearMap(p.A.domain, p.A.codomain, -p.A.matrix),
                               b=-p.b, c=-p.c, sense="sup")


def test_pathology_solves_stop_at_the_fixed_point_with_its_certificate():
    # neither side of the infinite-gap family has a strictly complementary
    # solution, so each solve reaches tau = kappa = 0 and stays there; the y
    # part of that fixed point is a facial-reduction certificate of the
    # feasible system of the program solved
    for n in range(3, 9):
        for p in (gallery.example_adapted(n), program.dualize(gallery.example_adapted(n))):
            res = solver.solve(p, max_iter=1500)
            assert (res.status, res.certificate["kind"]) == ("Unknown", "fixed_point")
            assert res.iterations <= 300, (n, p.sense, res.iterations)
            fs = program.feasible_system(_sup_solved(p))
            lam = solver._validated_separator(fs, res.certificate["y"], solver.TOL_FEAS)
            assert lam is not None, (n, p.sense)
            assert inner(cones.canonical_relint_point(fs.cone), lam) > 1e-6
        # the weakly infeasible primal: its plain feasibility solve stops there
        # too, and the Unknown says why
        feas = solver.feasibility(program.feasible_system(gallery.example_adapted(n)),
                                  max_iter=1500)
        assert (feas.verdict, feas.detail) == ("Unknown", solver.FIXED_POINT)


@pytest.mark.parametrize("gallery_seed", [314, 949])
def test_strict_feasibility_converges_on_planted_mix(gallery_seed):
    # b' = A x0 + s0 with x0, s0 relint points: strictly feasible at x0.  On
    # these two draws the margin program ran all 50,000 iterations; the
    # alternative system converges well inside 2,000
    mix = ([(cones.PSD, 2), (cones.NONNEG, 2)], [(cones.ZERO, 2), (cones.NONNEG, 2)])
    p = program.as_sup(gallery.planted_strong_duality(*mix, seed=gallery_seed))
    rng = np.random.default_rng(0)
    b = p.A(cones.sample_relint(p.C, rng, 0.3)) + cones.sample_relint(p.K, rng, 0.3)
    fs = program.feasible_system(dataclasses.replace(p, b=b))
    res = solver.strict_feasibility(fs, max_iter=2000)
    assert (res.verdict, res.detail) == ("Yes", "interior witness")
    assert fs.relint_member(res.witness)
    assert res.value > solver.STRICT_MARGIN


@st.composite
def _polyhedral_systems(draw):
    """{x : G x + g in K} with 1-3 variables, K a product of 1-3 Nonneg and
    Zero factors, and small integer data, so that boundary-only and empty
    systems are common."""
    n = draw(st.integers(1, 3))
    factors = draw(st.lists(st.tuples(st.sampled_from([cones.NONNEG, cones.ZERO]),
                                      st.integers(1, 3)), min_size=1, max_size=3))
    m = sum(k for _, k in factors)
    entries = st.integers(-2, 2)
    gmat = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)),
                    dtype=float).reshape(m, n)
    g = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=float)
    cod = space(*(real(k) for _, k in factors))
    return program.System(LinearMap(space(real(n)), cod, gmat), g,
                          cones.cone(cod, *(tag for tag, _ in factors)))


def _highs_rows(s, margin):
    """linprog arguments over (x, t) for G x + g - t e in K, t <= 1, with
    objective -t when `margin`, else 0."""
    gmat, n = s.gmap.matrix, s.gmap.domain.dim
    ub, bub, eq, beq = [], [], [], []
    for tag, sl in zip(s.cone.tags, s.cone.space.slices()):
        rows = gmat[sl]
        if tag == cones.NONNEG:
            ub.append(np.hstack([-rows, np.ones((len(rows), 1))]))
            bub.append(s.g[sl])
        else:
            eq.append(np.hstack([rows, np.zeros((len(rows), 1))]))
            beq.append(-s.g[sl])
    return dict(c=np.append(np.zeros(n), -1.0 if margin else 0.0),
                A_ub=np.vstack(ub) if ub else None, b_ub=np.concatenate(bub) if ub else None,
                A_eq=np.vstack(eq) if eq else None, b_eq=np.concatenate(beq) if eq else None,
                bounds=[(None, None)] * n + [(None, 1.0) if margin else (0.0, 0.0)],
                method="highs")


@oracles.PROPERTY
@given(_polyhedral_systems())
def test_strict_feasibility_agrees_with_highs_margin(s):
    # HiGHS's max margin t* over G x + g - t e in K, t <= 1, is positive
    # exactly when the system meets the relative interior
    res = solver.strict_feasibility(s, max_iter=5000)
    lp = linprog(**_highs_rows(s, margin=True))
    assert lp.status in (0, 2), lp.message
    t = -lp.fun if lp.status == 0 else -np.inf
    assert not (t > 1e-5 and res.verdict == "No"), (res, t)
    assert not (t <= 1e-9 and res.verdict == "Yes"), (res, t)
    gmat, lam = s.gmap.matrix, res.separator
    if res.verdict == "Yes":
        assert s.relint_member(res.witness)
    elif res.verdict == "No":
        assert cones.member(cones.dual(s.cone), lam, 1e-6)
        assert np.linalg.norm(gmat.T @ lam) <= 1e-6 * (1 + np.linalg.norm(gmat))
        assert inner(s.g, lam) <= 1e-6 * (1 + np.linalg.norm(s.g))
        if res.detail == "the system is empty":
            assert inner(s.g, lam) < 0
            assert linprog(**_highs_rows(s, margin=False)).status == 2
        else:
            assert inner(cones.canonical_relint_point(s.cone), lam) > 1e-6
