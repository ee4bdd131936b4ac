"""Duality diagnostics: strict feasibility, recession, boundedness, reports."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from conedual import cones, diagnostics, gallery, program, solver
from conedual.spaces import LinearMap, inner, kernel, product_space, real, space
from oracles import PROPERTY
from test_acceptance import MIXES
from test_solver import _report_solves


def _box(n=2):
    # 0 <= x <= 1 written as a sup program over the nonnegative orthant
    dom, cod = space(real(n)), space(real(n))
    return program.ConicProgram(
        A=LinearMap(dom, cod, np.eye(n)), b=np.ones(n), c=np.ones(n),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")


def _orthant_free_objective(n=2):
    # x >= 0 with no other constraint rows: unbounded feasible set
    dom, cod = space(real(n)), space(real(1))
    return program.ConicProgram(
        A=LinearMap(dom, cod, np.zeros((1, n))), b=np.ones(1), c=np.ones(n),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")


def _strict_orthant_recession():
    # x >= 0 and 1 + x_1 + x_2 >= 0: the recession cone has interior points,
    # since -A x must reach the interior of K and the row has nonzero entries
    dom, cod = space(real(2)), space(real(1))
    return program.ConicProgram(
        A=LinearMap(dom, cod, -np.ones((1, 2))), b=np.ones(1), c=np.ones(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")


def _free_plane():
    # x in R^2 free and 0 x <= 1: the recession cone is all of R^2
    dom, cod = space(real(2)), space(real(1))
    return program.ConicProgram(
        A=LinearMap(dom, cod, np.zeros((1, 2))), b=np.ones(1), c=np.zeros(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.FREE),
        sense="sup")


def _empty(n=2):
    dom, cod = space(real(n)), space(real(n))
    return program.ConicProgram(
        A=LinearMap(dom, cod, np.eye(n)), b=-np.ones(n), c=np.ones(n),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")


def test_slater_yes_on_planted():
    for seed in range(5):
        p = gallery.planted_strong_duality(
            [(cones.SOC, 3)], [(cones.NONNEG, 2)], seed=seed)
        res = diagnostics.slater(p, "primal")
        assert res.verdict == "Yes"
        fs = program.feasible_system(p)
        gmap, g, kc = fs.gmap, fs.g, fs.cone
        assert cones.relint_member(kc, gmap(res.witness) + g)
        resd = diagnostics.slater(p, "dual")
        assert resd.verdict == "Yes"


def test_slater_no_with_separator():
    # equality x_1 = 0 forces the nonneg variable onto its boundary
    dom, cod = space(real(2)), space(real(1))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.array([[1.0, 0.0]])), b=np.zeros(1),
        c=np.zeros(2), K=cones.cone(cod, cones.ZERO),
        C=cones.cone(dom, cones.NONNEG), sense="sup")
    res = diagnostics.slater(p, "primal")
    assert res.verdict == "No"
    assert res.separator is not None


@PROPERTY
@given(st.sampled_from(MIXES), st.integers(0, 1000), st.integers(0, 2**32 - 1))
def test_slater_yes_at_interior_rhs(mix, gallery_seed, seed):
    # b' = A x0 + s0 with x0 in relint C and s0 in relint K is strictly
    # feasible at x0, so the solver must find a relint witness
    p = program.as_sup(gallery.planted_strong_duality(*mix, seed=gallery_seed))
    rng = np.random.default_rng(seed)
    x0 = cones.sample_relint(p.C, rng, 0.3)
    s0 = cones.sample_relint(p.K, rng, 0.3)
    shifted = dataclasses.replace(p, b=p.A(x0) + s0)
    res = diagnostics.slater(shifted, "primal")
    assert res.verdict == "Yes"
    assert program.feasible_system(shifted).relint_member(res.witness)


def test_slater_primal_no_on_pathology_with_separator():
    # the alternative system of the weakly infeasible primal is strongly
    # infeasible, and its Farkas ray is the facial-reduction certificate
    for n in range(3, 9):
        p = gallery.example_adapted(n)
        res = diagnostics.slater(p, "primal", max_iter=1200)
        assert res.verdict == "No", (n, res)
        fs = program.feasible_system(p)
        gmat, lam = fs.gmap.matrix, res.separator
        assert cones.member(cones.dual(fs.cone), lam, 1e-6)
        assert np.linalg.norm(gmat.T @ lam) <= 1e-6 * (1 + np.linalg.norm(gmat))
        assert inner(fs.g, lam) <= 1e-6 * (1 + np.linalg.norm(fs.g))


def test_recession_cone_membership():
    p = _box()
    rs = diagnostics.recession_cone(p, "primal")
    assert not rs.member(np.ones(2))  # box recedes nowhere
    assert rs.member(np.zeros(2))
    q = _orthant_free_objective()
    rs2 = diagnostics.recession_cone(q, "primal")
    assert rs2.member(np.ones(2))
    assert not rs2.member(-np.ones(2))


def test_recession_strict():
    q = _strict_orthant_recession()
    res = diagnostics.recession_strict(q, "primal")
    assert res.verdict == "Yes"
    assert cones.relint_member(q.C, res.witness)
    # restricting orthogonal to a strictly positive vector (here c) kills
    # the orthant
    res2 = solver.strict_feasibility(diagnostics.posed_systems(q)["perp-primal"])
    assert res2.verdict != "Yes"


def test_polar_recession_membership():
    q = _orthant_free_objective()
    # rec X is the nonnegative orthant; its polar is the nonpositive orthant
    yes = diagnostics.polar_recession_membership(q, "primal", -np.ones(2))
    assert yes.verdict == "Yes"
    # the exact cross-check behind the Yes: the dual is feasible at offset v
    dual = program.dualize(q)
    exact = solver.feasibility(program.feasible_system(dataclasses.replace(dual, b=-np.ones(2))))
    assert exact.verdict == "Yes"
    no = diagnostics.polar_recession_membership(q, "primal", np.array([1.0, 0.0]))
    assert no.verdict == "No"
    r = no.witness
    rs = diagnostics.recession_cone(q, "primal")
    assert rs.member(r)
    assert inner(np.array([1.0, 0.0]), r) > 0


def test_polar_recession_membership_no_along_the_lineality():
    # a lineality direction r with <v, r> > 0 refutes membership before any solve
    out = diagnostics.polar_recession_membership(_free_plane(), "primal",
                                                 np.array([1.0, 0.0]))
    assert out.verdict == "No"
    assert out.detail == "lineality direction with positive inner product"
    assert np.allclose(np.abs(out.witness), [1.0, 0.0])
    assert inner(np.array([1.0, 0.0]), out.witness) > 0


def test_polar_recession_membership_yes_needs_exact_cross_check(monkeypatch):
    # a zero support value is a Yes only if the exact cross-check does not
    # find the other side empty at offset v
    q = _strict_orthant_recession()
    assert diagnostics.polar_recession_membership(q, "primal", -np.ones(2)).verdict == "Yes"
    monkeypatch.setattr(solver, "feasibility",
                        lambda s, **kw: solver.Verdict("No", detail="the system is empty"))
    out = diagnostics.polar_recession_membership(q, "primal", -np.ones(2))
    assert out.verdict == "Unknown"
    assert "empty" in out.detail


def test_polar_recession_membership_cross_checks_the_dual_side():
    # x >= 0, 1 - x_1 - x_2 >= 0: the dual recession cone {r >= 0 : (r, r) >= 0}
    # is the half-line, whose polar -(A C + K) is v <= 0; the Yes at v = -1 is
    # confirmed by the primal at offset -v = 1, which is feasible
    dom, cod = space(real(2)), space(real(1))
    q = program.ConicProgram(
        A=LinearMap(dom, cod, np.ones((1, 2))), b=np.ones(1), c=np.zeros(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    assert diagnostics.recession_strict(q, "dual").verdict == "Yes"
    assert diagnostics.polar_recession_membership(q, "dual", -np.ones(1)).verdict == "Yes"
    no = diagnostics.polar_recession_membership(q, "dual", np.ones(1))
    assert no.verdict == "No" and no.witness[0] > 0


def test_boundedness_trichotomy():
    out = diagnostics.boundedness(_box(), "primal")
    assert out.verdict == "Bounded"
    out = diagnostics.boundedness(_orthant_free_objective(), "primal")
    assert out.verdict == "Unbounded"
    rs = diagnostics.recession_cone(_orthant_free_objective(), "primal")
    assert rs.member(out.witness)
    out = diagnostics.boundedness(_empty(), "primal")
    assert out.verdict == "Empty"


def test_gordan_both_branches():
    # Interior: y interior with A* y interior (A = I works)
    dom, cod = space(real(2)), space(real(2))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.eye(2)), b=np.zeros(2), c=np.zeros(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    # and a packing program, A(C) inside K
    for r in (p, gallery.packing_instance(3, 4, seed=0)):
        out = diagnostics.gordan_alternative(r)
        assert out.verdict == "Interior"
        y = out.witness
        assert cones.relint_member(cones.dual(r.K), y)
        assert cones.relint_member(cones.dual(r.C), r.A.adjoint()(y))
    # Ray: A = -I gives x = e with Ax in -K
    q = program.ConicProgram(
        A=LinearMap(dom, cod, -np.eye(2)), b=np.zeros(2), c=np.zeros(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    out = diagnostics.gordan_alternative(q)
    assert out.verdict == "Ray"
    x = out.witness
    assert np.linalg.norm(x) > 1e-6
    assert cones.member(q.C, x, 1e-6)
    assert cones.member(q.K, -q.A(x), 1e-6)


def test_gordan_alternative_needs_a_pointed_recession_cone():
    out = diagnostics.gordan_alternative(_free_plane())
    assert out.verdict == "Unknown"
    assert out.detail == "primal recession cone is not pointed"


def _lifted(p):
    """(side, L, M) for both sides: the lifted adjoint map and its cone,
    written out from A, b and c as a reference independent of the package.

    Lp: (alpha, alpha0) -> (A alpha + alpha0 b, -alpha)
    Ld: (beta, beta0)   -> (A* beta + beta0 c, beta)
    """
    amat = p.A.matrix
    (m, n), one = amat.shape, space(real(1))
    lp = np.block([[amat, p.b[:, None]], [-np.eye(n), np.zeros((n, 1))]])
    ld = np.block([[amat.T, p.c[:, None]], [np.eye(m), np.zeros((m, 1))]])
    return (("primal", LinearMap(product_space(p.A.domain, one),
                                 product_space(p.A.codomain, p.A.domain), lp),
             cones.cone_product(p.K, p.C)),
            ("dual", LinearMap(product_space(p.A.codomain, one),
                               product_space(p.A.domain, p.A.codomain), ld),
             cones.cone_product(cones.dual(p.C), cones.dual(p.K))))


def test_closedness_conditions_on_slater_instance():
    p = gallery.planted_strong_duality(
        [(cones.SOC, 3)], [(cones.NONNEG, 2)], seed=3)
    out = diagnostics.closedness_conditions(p, "primal")
    assert len(out) == 2
    assert any(v.verdict == "Yes" for v in out)
    # on the pathology both conditions are No on both sides, and each No
    # carries the certificate of its alternative, checked by membership alone
    q = gallery.example_adapted(3)
    for side, lift, big in _lifted(q):
        cond1, cond2 = diagnostics.closedness_conditions(q, side, max_iter=1200)
        assert (cond1.verdict, cond2.verdict) == ("No", "No")
        # condition 1: lam in cone*, L* lam = 0, lam not in (span cone)-perp
        lam = cond1.separator
        assert cones.member(cones.dual(big), lam, 1e-6)
        assert np.linalg.norm(lift.matrix.T @ lam) <= \
            1e-6 * (1 + np.linalg.norm(lift.matrix, 2))
        assert np.linalg.norm(cones.span(big).project(lam)) > 1e-6
        # condition 2: the separator (lam_1, lam_2, t) maps to z = Lp(-lam_1,
        # -t) or Ld(lam_1, -t), a point of the cone in range(L) outside the
        # cone's lineality
        sep = cond2.separator
        k = lift.domain.dim - 1
        sign = -1.0 if side == "primal" else 1.0
        z = lift(np.append(sign * sep[:k], -sep[-1]))
        assert cones.member(big, z, 1e-6)
        assert np.linalg.norm(z - cones.lineality(big).project(z)) > 1e-6


def _highs_margin(gens, cone):
    """HiGHS's max of t <= 1 over v = gens u with v >= t on the Nonneg and
    v = 0 on the Zero coordinates of a polyhedral cone: positive exactly when
    the range of gens meets the relative interior of the cone."""
    k = gens.shape[1]
    ub, eq = [], []
    for tag, sl in zip(cone.tags, cone.space.slices()):
        rows = gens[sl]
        if tag == cones.NONNEG:
            ub.append(np.hstack([-rows, np.ones((len(rows), 1))]))
        elif tag == cones.ZERO:
            eq.append(np.hstack([rows, np.zeros((len(rows), 1))]))
    res = linprog(np.append(np.zeros(k), -1.0),
                  A_ub=np.vstack(ub) if ub else None, b_ub=np.zeros(sum(map(len, ub))),
                  A_eq=np.vstack(eq) if eq else None, b_eq=np.zeros(sum(map(len, eq))),
                  bounds=[(None, None)] * k + [(None, 1.0)], method="highs")
    assert res.status == 0, res.message
    return -res.fun


_POLYHEDRAL_DESCR = st.lists(
    st.tuples(st.sampled_from([cones.NONNEG, cones.ZERO, cones.FREE]), st.integers(1, 3)),
    min_size=1, max_size=2)


@PROPERTY
@given(st.one_of(
    st.builds(gallery.random_program, st.sampled_from(["lp-small", "lp-eq", "free-ineq"]),
              st.integers(0, 10**6)),
    st.builds(gallery.planted_strong_duality, _POLYHEDRAL_DESCR, _POLYHEDRAL_DESCR,
              st.integers(0, 10**6))))
def test_closedness_conditions_agree_with_highs(p):
    # condition 1 asks whether range(L) meets ri M, condition 2 whether
    # kernel(L*) meets ri M*; HiGHS decides both on the lifted vectors
    for side, lift, big in _lifted(p):
        out = diagnostics.closedness_conditions(p, side, max_iter=5000)
        margins = [_highs_margin(lift.matrix, big),
                   _highs_margin(kernel(lift.adjoint()).basis, cones.dual(big))]
        for v, t in zip(out, margins):
            assert not (t > 1e-5 and v.verdict == "No"), (side, v, t)
            assert not (t <= 1e-9 and v.verdict == "Yes"), (side, v, t)


# The implications each condition is decided by one route on: the planted
# MIXES and the random PROFILES at gallery seeds 0-2, 36 sup programs
IMPLICATION_POPULATION = (
    [gallery.planted_strong_duality(*mix, seed=s) for mix in MIXES for s in range(3)]
    + [gallery.random_program(name, seed=s)
       for name in sorted(gallery.PROFILES) for s in range(3)])


def test_closedness_condition_1_holds_wherever_slater_does():
    # a Slater point z gives P(z, 1) = G z + g in ri M, so condition 1 is Yes
    # on that side too, with a witness the perspective map sends into ri M
    hits = 0
    for p in IMPLICATION_POPULATION:
        for side, lift, big in _lifted(p):
            if diagnostics.slater(p, side, max_iter=5000).verdict != "Yes":
                continue
            cond1 = diagnostics.closedness_conditions(p, side, max_iter=5000)[0]
            assert cond1.verdict == "Yes", (side, cond1)
            z, t = cond1.witness[:-1], cond1.witness[-1]
            # P(z, t) is Lp(-z, t) on side primal and Ld(z, -t) on side dual
            arg = np.append(-z, t) if side == "primal" else np.append(z, -t)
            assert cones.relint_member(big, lift(arg)), (side, cond1)
            hits += 1
    assert hits >= 50


def test_strict_recession_of_a_feasible_side_gives_slater():
    # a feasible x0 and a strict recession direction d give G(x0 + d) + g in
    # K + ri K = ri K, so x0 + d is a Slater point
    hits = 0
    for p in IMPLICATION_POPULATION:
        for side, q in (("primal", p), ("dual", program.dualize(p))):
            fs = program.feasible_system(q)
            sr = diagnostics.recession_strict(p, side, max_iter=5000)
            feas = solver.feasibility(fs, max_iter=5000)
            if sr.verdict != "Yes" or feas.verdict != "Yes":
                continue
            assert fs.relint_member(feas.witness + sr.witness), (side, sr, feas)
            assert diagnostics.slater(p, side, max_iter=5000).verdict == "Yes"
            hits += 1
    assert hits >= 30


def test_gordan_alternative_is_boundedness_without_feasibility():
    # on a nonempty side with a pointed recession cone, Interior is Bounded
    # and Ray is Unbounded, with the same witness
    seen = []
    for p in IMPLICATION_POPULATION:
        bd = diagnostics.boundedness(p, "primal")
        if bd.verdict == "Empty" or diagnostics.recession_cone(p, "primal").lineality.dim:
            continue
        out = diagnostics.gordan_alternative(p)
        assert (out.verdict == "Interior") == (bd.verdict == "Bounded"), (out, bd)
        assert (out.verdict == "Ray") == (bd.verdict == "Unbounded"), (out, bd)
        if out.verdict != "Unknown":
            np.testing.assert_array_equal(out.witness, bd.witness)
        seen.append(out.verdict)
    assert seen.count("Interior") >= 10 and seen.count("Ray") >= 10, seen


def test_gap_bound_separation_on_planted():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 3)], [(cones.NONNEG, 3)], seed=6)
    out = diagnostics.gap_bound_separation(p, 1e-3)
    assert out.verdict == "Yes"
    # value is the level dobj - eps that the recovered point exceeds
    assert np.isclose(out.value, solver.solve(program.dualize(p)).pobj - 1e-3)
    x = out.witness
    assert program.is_feasible_point(p, x, 1e-6)
    assert inner(p.c, x) > out.value - 1e-6


def test_gap_bound_separation_needs_an_optimal_dual():
    # the pathology's dual solve ends Unknown, so no level dobj - eps exists
    out = diagnostics.gap_bound_separation(gallery.example_adapted(3), 1e-3)
    assert out.verdict == "Unknown"
    assert out.detail.startswith("dual not solved to optimality")


def test_almost_feasibility_feasible_side():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 2)], [(cones.NONNEG, 2)], seed=7)
    out = diagnostics.almost_feasibility(p, "primal")
    assert out.verdict == "Yes"
    assert out.value <= 1e-6
    # the witness (x, delta, tau) is feasible at the offset b + delta
    x, delta = out.witness[:2], out.witness[2:4]
    assert program.is_feasible_point(dataclasses.replace(p, b=p.b + delta), x, 1e-6)


def test_almost_feasibility_infeasible_side():
    out = diagnostics.almost_feasibility(_empty(), "primal")
    # restoring feasibility of x >= 0, -1 - x >= 0 needs a unit shift per row
    assert 0.5 < out.value <= 2.0


def test_almost_feasibility_no_bounds_every_restoring_perturbation():
    # the sup side's offset b is almost feasible iff <b, r> >= 0 for every r
    # in the dual recession cone, the inf side's offset c iff <c, r> <= 0 for
    # every r in the primal one; so a No's ray r bounds every restoring
    # perturbation below by <v, r> / |r|, with v = -b or c
    cases = [(gallery.planted_strong_duality(*MIXES[seed % len(MIXES)], seed=seed), side)
             for seed in range(12) for side in ("primal", "dual")]
    cases += [(_empty(), "primal"), (_empty(1), "primal")]
    verdicts = []
    for p, side in cases:
        out = diagnostics.almost_feasibility(p, side)
        verdicts.append(out.verdict)
        if out.verdict != "No":
            continue
        assert out.value > 1e-6, (side, out)
        r = out.separator
        assert diagnostics.recession_cone(p, "dual" if side == "primal" else "primal").member(r)
        bound = inner(-p.b if side == "primal" else p.c, r) / np.linalg.norm(r)
        assert 0 < bound <= out.value + 1e-6, (side, bound, out)
    # x >= 0, -1 - x >= 0 is refuted, in two dimensions and in one
    assert verdicts[-2:] == ["No", "No"]


def test_almost_feasibility_value_is_a_norm():
    # the minimum perturbation norm is |delta| of the maximiser; read as -tau
    # it came out negative (down to -6e-9) on 69 of these 144 sides
    for seed in range(12):
        for mix in MIXES:
            p = gallery.planted_strong_duality(*mix, seed=seed)
            for side in ("primal", "dual"):
                out = diagnostics.almost_feasibility(p, side)
                assert out.value >= 0, (seed, mix, side, out)


def test_finiteness_check_both_directions():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 3)], [(cones.NONNEG, 3)], seed=8)
    out = diagnostics.finiteness_check(p, "primal")
    assert out.verdict == "Finite"
    assert out.detail == "other side feasibility Yes, side solve Optimal"
    assert program.feasible_system(program.dualize(p)).member(out.witness)
    q = _orthant_free_objective()
    out = diagnostics.finiteness_check(q, "primal")
    assert out.verdict == "Unbounded"
    assert out.detail == "other side feasibility No, side solve Unbounded"
    assert diagnostics.recession_cone(q, "primal").member(out.witness)
    assert inner(q.c, out.witness) > 0 and out.separator is not None


def test_strong_duality_report_planted():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 2), (cones.SOC, 3)],
        [(cones.ZERO, 1), (cones.NONNEG, 3)], seed=5)
    rep = diagnostics.strong_duality_report(p)
    fired = rep.fired()
    assert "slater-primal" in fired and "slater-dual" in fired
    assert rep.gap <= 1e-5
    doc = rep.to_json()
    assert doc["version"] == "report/v1"
    keys = {"condition", "verdict", "witness", "citation", "margins"}
    assert all(set(e) == keys for e in rep.entries)
    assert all(set(e) == keys for e in doc["entries"])


REPORT_MARGIN_KEYS = {
    "objective-in-adjoint-image": ["algebraic"],
    "rhs-in-image-of-lineality": ["algebraic"],
    "slater-primal": ["margin"],
    "slater-dual": ["margin"],
    "strict-recession-primal": ["margin", "side_condition"],
    "strict-recession-dual": ["margin", "side_condition"],
    "strict-recession-dual-b-perp": ["margin", "side_condition"],
    "strict-recession-primal-c-perp": ["margin", "side_condition"],
    "boundedness-cq": ["boundedness"],
    "closedness-primal": ["condition_1", "condition_2"],
    "closedness-dual": ["condition_1", "condition_2"],
}


def test_report_verdicts_are_pinned():
    # one verdict per condition above, in report order, then the boundedness
    # outcome behind boundedness-cq; together the instances reach Yes, No and
    # Unknown on every rule and all four boundedness outcomes
    y, n, u = "Yes", "No", "Unknown"
    planted = gallery.planted_strong_duality(
        [(cones.NONNEG, 2), (cones.SOC, 3)],
        [(cones.ZERO, 1), (cones.NONNEG, 3)], seed=5)
    cases = [
        (gallery.example_adapted(3), 1200, [u, n, n, n, n, n, n, n, n, u, u], "Unbounded"),
        (planted, solver.MAX_ITER, [n, n, y, y, u, n, n, n, n, y, y], "Unbounded"),
        (planted, 200, [n, n, y, y, u, n, n, n, n, y, y], "Unbounded"),
        (planted, 60, [n, n, y, y, u, u, n, n, u, y, y], "Unknown"),
        (_box(), solver.MAX_ITER, [n, n, y, y, n, y, n, n, y, y, y], "Bounded"),
        (_orthant_free_objective(), solver.MAX_ITER,
         [n, n, u, n, n, n, n, n, n, u, u], "Unbounded"),
        (_strict_orthant_recession(), solver.MAX_ITER,
         [n, n, u, n, u, n, n, n, n, u, u], "Unbounded"),
        (_empty(), solver.MAX_ITER, [n, n, n, u, n, u, n, n, n, u, u], "Empty"),
    ]
    for p, max_iter, verdicts, bounded in cases:
        rep = diagnostics.strong_duality_report(p, max_iter=max_iter)
        assert [(e["condition"], e["verdict"]) for e in rep.entries] == \
            list(zip(REPORT_MARGIN_KEYS, verdicts))
        assert all(sorted(e["margins"]) == REPORT_MARGIN_KEYS[e["condition"]]
                   for e in rep.entries)
        assert rep.entries[8]["margins"]["boundedness"] == bounded
    # at budget 200 the dual recession cone's No rests on a separator of the
    # alternative that revalidates
    rs = diagnostics.recession_cone(planted, "dual")
    res = diagnostics.recession_strict(planted, "dual", max_iter=200)
    assert (res.verdict, res.detail) == ("No", "separating functional from the alternative")
    lam, gmat = res.separator, rs.gmap.matrix
    assert cones.member(cones.dual(rs.cone), lam, 1e-6)
    assert np.linalg.norm(gmat.T @ lam) <= 1e-6 * (1 + np.linalg.norm(gmat))
    assert inner(rs.g, lam) <= 1e-6 * (1 + np.linalg.norm(rs.g))
    assert inner(cones.canonical_relint_point(rs.cone), lam) > 1e-6


def test_strong_duality_report_pathology_fires_nothing():
    rep = diagnostics.strong_duality_report(gallery.example_adapted(3))
    assert rep.fired() == []


def _small_program(c_descr, k_descr, amat, b, c):
    """The sup program over real factors of the given (tag, size)."""
    big_c, big_k = (cones.Cone(space(*(real(k) for _, k in descr)),
                               tuple(tag for tag, _ in descr))
                    for descr in (c_descr, k_descr))
    return program.ConicProgram(
        A=LinearMap(big_c.space, big_k.space, np.asarray(amat, dtype=float)),
        b=np.asarray(b, dtype=float), c=np.asarray(c, dtype=float),
        K=big_k, C=big_c, sense="sup")


N, S = cones.NONNEG, cones.SOC
# pairs with an emptiness certificate on both sides; a solve of either
# program ends on an improving ray, which proves only the other side empty:
# the first pair's primal solve, and the second pair's dual solve
BOTH_EMPTY = [
    _small_program([(N, 2)], [(S, 2)], [[-1, 0], [-1, 1]], [0, -1], [2, 2]),
    _small_program([(S, 2)], [(N, 2), (N, 2)], [[-1, -1], [0, 0], [1, 0], [0, -2]],
                   [-2, -2, 2, -2], [0, 1]),
]
# pairs whose value solve ends on an improving ray while the side it would
# make unbounded is not known to be feasible: the first's primal is
# certified empty and its mirrored solve ends Unbounded, though the dual is
# weakly infeasible; the second's dual is certified empty and its primal
# solve ends Unbounded, with the primal's feasibility undecided
RAY_ONLY = [
    _small_program([(S, 3)], [(N, 2)], [[1, 0, 1], [1, -2, 1]], [-2, -2], [1, 1, 1]),
    _small_program([(N, 2), (N, 2)], [(S, 3), (S, 3)],
                   [[0, 2, 0, -2], [1, 0, 2, -2], [2, -2, -2, 0], [0, 2, 0, 1],
                    [1, 0, 2, 1], [-2, 2, -2, 2]], [0, 1, -1, 1, -2, 2], [2, -1, 2, -2]),
]


def _report_value_solves(monkeypatch, p, **kw):
    """The report of the sup program p, and the sense of each solve it makes
    for the optimal values: of p itself ("sup"), started or not, and of its
    dual ("inf"), the only inf program a report solves; every posed system
    is solved as a sup program over free variables."""
    solve, senses = solver.solve, []

    def counted(q, *args, **kwargs):
        # a started copy of p (`dataclasses.replace`) shares its arrays
        if q.A is p.A or q.sense == "inf":
            senses.append(q.sense)
        return solve(q, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "solve", counted)
        rep = diagnostics.strong_duality_report(p, **kw)
    return rep, senses


@pytest.mark.parametrize("p", BOTH_EMPTY, ids=["nonneg-soc", "soc-nonneg"])
def test_report_values_come_from_emptiness_certificates(monkeypatch, p):
    # the sup of an empty program is -inf and the inf of an empty one +inf,
    # whatever ray a solve of either ends on; neither value needs a solve
    posed = diagnostics.posed_systems(p)
    for side in ("primal", "dual"):
        assert solver.feasibility(posed[f"feasible-{side}"]).detail == "the system is empty"
    rep, senses = _report_value_solves(monkeypatch, p)
    assert (rep.pobj, rep.dobj, rep.gap, senses) == (-np.inf, np.inf, np.inf, [])


@st.composite
def _small_programs(draw):
    """Programs of the shape the report's value rules were probed on: one or
    two factors of size 2-3 per side, C from Nonneg, SOC and Free, K from
    Nonneg, SOC and Zero, and integer data in -2..2."""
    c_descr, k_descr = (draw(st.lists(st.tuples(st.sampled_from(tags), st.integers(2, 3)),
                                      min_size=1, max_size=2))
                        for tags in ((N, S, cones.FREE), (N, S, cones.ZERO)))
    n, m = (sum(k for _, k in descr) for descr in (c_descr, k_descr))

    def ints(size):
        return draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))

    return _small_program(c_descr, k_descr, np.reshape(ints(m * n), (m, n)), ints(m), ints(n))


@PROPERTY
@given(_small_programs())
@example(BOTH_EMPTY[0])
@example(BOTH_EMPTY[1])
@example(RAY_ONLY[0])
@example(RAY_ONLY[1])
def test_report_values_never_contradict_an_emptiness_certificate(p):
    # an empty sup side is never +inf and an empty inf side never -inf; an
    # improving ray proves only the other side empty, so the sup is +inf
    # only on a feasible primal and the inf -inf only on a feasible dual
    budget = 5000
    rep = diagnostics.strong_duality_report(p, max_iter=budget)
    posed = diagnostics.posed_systems(p)
    feas = {side: solver.feasibility(posed[f"feasible-{side}"], max_iter=budget).verdict
            for side in ("primal", "dual")}
    if feas["primal"] == "No":
        assert rep.pobj != np.inf
    if feas["dual"] == "No":
        assert rep.dobj != -np.inf
    if rep.pobj == np.inf:
        assert feas["primal"] == "Yes"
    if rep.dobj == -np.inf:
        assert feas["dual"] == "Yes"


@pytest.mark.parametrize("p, values", zip(RAY_ONLY, [(-np.inf, np.nan), (np.nan, np.inf)]),
                         ids=["dual-ray", "primal-ray"])
def test_report_reads_no_value_off_a_ray_alone(p, values):
    # the value that rests on a ray alone reads nan, the other one comes
    # from an emptiness certificate
    rep = diagnostics.strong_duality_report(p, max_iter=5000)
    np.testing.assert_array_equal([rep.pobj, rep.dobj, rep.gap], [*values, np.inf])


def _started_and_cold(p, run):
    """run() with the programs solved as they are, and with every start
    dropped, each with the result of each solve of p's value, the primal
    solve started or not, or the mirrored one: ((out, results), (out,
    results)) for the sup program p."""
    solve = solver.solve
    out = []
    for cold in (False, True):
        results = []

        def counted(q, *args, **kwargs):
            if cold:
                q = dataclasses.replace(q, start=None)
            res = solve(q, *args, **kwargs)
            # a started copy of p (`dataclasses.replace`) shares its arrays
            if q.A is p.A or q.sense == "inf":
                results.append(res)
            return res

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "solve", counted)
            out.append((run(), results))
    return out


def _assert_the_start_moves_only_the_values(p, budget=5000):
    """The report of p with its primal solve started ends that solve with the
    cold solve's status and values to 1e-6 (1 + |value|), and its rows are
    bitwise those of the cold report, since no row reads the value solve."""
    (rep, started), (ref, cold) = _started_and_cold(
        p, lambda: diagnostics.strong_duality_report(p, max_iter=budget))
    assert [r.status for r in started] == [r.status for r in cold]
    for value, cold_value in ((rep.pobj, ref.pobj), (rep.dobj, ref.dobj)):
        if np.isfinite(cold_value):
            assert abs(value - cold_value) <= 1e-6 * (1 + abs(cold_value)), (value, cold_value)
        else:
            np.testing.assert_equal(value, cold_value)
    assert diagnostics.jsonable(rep.entries) == diagnostics.jsonable(ref.entries)


@PROPERTY
@given(_small_programs())
def test_started_value_solve_agrees_with_the_cold_one(p):
    _assert_the_start_moves_only_the_values(p)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("population", [("mix", i) for i in range(len(MIXES))] +
                         [("profile", name) for name in sorted(gallery.PROFILES)],
                         ids=lambda pop: f"{pop[0]}-{pop[1]}")
def test_started_solves_agree_with_the_cold_ones_on_the_populations(population, seed):
    # the report's value solve, and finiteness_check's side solve, which
    # starts from its Slater point and the other side's feasible point
    kind, which = population
    p = (gallery.planted_strong_duality(*MIXES[which], seed=seed) if kind == "mix"
         else gallery.random_program(which, seed=seed))
    _assert_the_start_moves_only_the_values(p)
    for side in ("primal", "dual"):
        (v, _), (ref, _) = _started_and_cold(p, lambda: diagnostics.finiteness_check(p, side))
        assert (v.verdict, v.detail) == (ref.verdict, ref.detail), side


@pytest.mark.parametrize("n", range(3, 9))
def test_pathology_report_makes_no_mirrored_solve(monkeypatch, n):
    # the primal solve stops at the embedding's fixed point; the mirrored
    # program has the same embedding, so the dual value stays open unsolved
    rep, senses = _report_value_solves(monkeypatch, gallery.example_adapted(n),
                                       max_iter=1200)
    assert senses == ["sup"]
    assert np.isnan(rep.pobj) and np.isnan(rep.dobj)


def test_report_makes_no_mirrored_solve_after_a_budget_stop(monkeypatch):
    # the primal solve runs out its budget; the mirrored program has the
    # same embedding, so the dual value stays open unsolved, as at the fixed
    # point (the mirrored solve ran out its budget too)
    p = _small_program([(S, 3)], [(N, 2)], [[-2, -2, 1], [0, -1, 1]], [-1, 2], [-1, 1, -1])
    budget = 5000
    res = solver.solve(p, max_iter=budget)
    assert (res.status, res.iterations, res.certificate) == ("Unknown", budget, {})
    rep, senses = _report_value_solves(monkeypatch, p, max_iter=budget)
    assert senses == ["sup"]
    assert np.isnan(rep.pobj) and np.isnan(rep.dobj) and rep.gap == np.inf


@PROPERTY
@given(_small_programs())
def test_implied_verdicts_revalidate_and_agree_with_their_solve(p):
    # a verdict the report reads off another system's certificate holds on
    # its own posed system by the solver's checks, and no solve of that
    # system decides the other way
    budget = 5000
    posed = diagnostics.posed_systems(p)
    strict, _ = diagnostics._decide(posed, budget)
    for name, v in strict.items():
        if not v.detail.startswith("implied by"):
            continue
        assert (name, v.verdict, v.detail.rsplit(" of ", 1)[1]) in {
            row[:3] for row in diagnostics.IMPLIED}
        s = posed[name]
        if v.verdict == "Yes":
            assert s.relint_member(v.witness)
            assert v.value == 1.0
        else:
            assert solver._validated_separator(s, v.separator, solver.TOL_FEAS) is not None
            assert np.isnan(v.value)
        assert solver.strict_feasibility(s, max_iter=budget).verdict in (v.verdict, "Unknown")


# planted pairs and the source each derived system is read off: the first
# has a strict recession direction, the second a bounded feasible set, so a
# relative-interior point of its dual recession system separates the primal
# one, whose separator (lam, 0) settles perp-primal in turn
PLANTED_IMPLIED = [
    (gallery.planted_strong_duality(
        [(cones.PSD, 2), (cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)], seed=0),
     {"perspective-primal": "feasible-primal", "perspective-dual": "feasible-dual",
      "perp-primal": "perspective-dual", "perp-dual": "recession-dual"}),
    (gallery.planted_strong_duality(*MIXES[2], seed=0),
     {"recession-primal": "recession-dual", "perspective-primal": "feasible-primal",
      "perspective-dual": "feasible-dual", "perp-primal": "recession-primal",
      "perp-dual": "perspective-primal"}),
]


def test_report_solves_a_system_whose_implied_certificate_fails(monkeypatch):
    # with each certificate map negated, the Slater point's image (-z, -1)
    # is off the relative interior of the perspective system, and the
    # separators (-lam, 0), -(y, A* y) and -(swap(P(z, t)), +-t) off the
    # dual cone; none revalidates, so the report solves every posed system,
    # and its rows read as the solves decide
    reports = []
    for p, implied in PLANTED_IMPLIED:
        strict, _ = diagnostics._decide(diagnostics.posed_systems(p), solver.MAX_ITER)
        assert {name: v.detail.rsplit(" of ", 1)[1] for name, v in strict.items()
                if v.detail.startswith("implied by")} == implied
        reports.append(diagnostics.strong_duality_report(p).to_json())
    monkeypatch.setattr(diagnostics, "IMPLIED", tuple(
        (*row[:5], lambda *args, carry=row[5]: -carry(*args)) for row in diagnostics.IMPLIED))
    for (p, _), rep in zip(PLANTED_IMPLIED, reports):
        posed = diagnostics.posed_systems(p)
        strict, _ = diagnostics._decide(posed, solver.MAX_ITER)
        assert not [v for v in strict.values() if v.detail.startswith("implied by")]
        assert set(posed) <= {name for name, _, _ in _report_solves(monkeypatch, p)}
        assert diagnostics.strong_duality_report(p).to_json() == rep
        for side in ("primal", "dual"):
            assert [v.verdict for v in diagnostics.closedness_conditions(p, side)] == \
                [strict[f"perspective-{side}"].verdict,
                 strict[f"perp-{diagnostics._OTHER[side]}"].verdict]


def _scaled(p, k):
    """p with A and b multiplied by k > 0: the same feasible sets and problem."""
    return dataclasses.replace(p, A=LinearMap(p.A.domain, p.A.codomain, k * p.A.matrix),
                               b=k * p.b)


def test_pathology_fires_nothing_whatever_the_units():
    # the primal is infeasible at every scale of (A, b); a plain feasibility
    # solve that ran out its budget once left a far-out iterate that the
    # point-relative membership tolerance accepted as a boundary witness, so
    # n = 3 read feasible and fired objective-in-adjoint-image
    for n in range(3, 9):
        for k in range(1, 5):
            q = _scaled(gallery.example_adapted(n), 10.0 ** k)
            assert diagnostics.strong_duality_report(q, max_iter=1200).fired() == [], (n, k)
            feas = solver.feasibility(program.feasible_system(program.as_sup(q)), max_iter=1200)
            assert feas.verdict != "Yes", (n, k, feas.detail)


def test_boundedness_cq_is_unknown_without_feasibility():
    # MIX 5 with (A, b) scaled by 1e-3 is Bounded, but its feasibility stays
    # Unknown at this budget (and at 50,000): without a feasible point the
    # condition is not refuted, so the row reads Unknown, not No
    p = _scaled(gallery.planted_strong_duality(*MIXES[5], seed=0), 1e-3)
    row = diagnostics.strong_duality_report(p, max_iter=5000).entries[8]
    assert (row["condition"], row["verdict"], row["margins"]) == \
        ("boundedness-cq", "Unknown", {"boundedness": "Bounded"})


def test_boundedness_cq_fires_once_feasibility_is_decided():
    # MIX 4 with (A, b) scaled by 1e-3: the plain feasibility solve finds a
    # point within the budget, and the planted pair is bounded, so the row
    # reads Yes
    p = _scaled(gallery.planted_strong_duality(*MIXES[4], seed=1), 1e-3)
    feas = solver.feasibility(program.feasible_system(program.as_sup(p)), max_iter=5000)
    assert (feas.verdict, feas.detail) == ("Yes", "boundary witness")
    row = diagnostics.strong_duality_report(p, max_iter=5000).entries[8]
    assert (row["condition"], row["verdict"], row["margins"]) == \
        ("boundedness-cq", "Yes", {"boundedness": "Bounded"})


# each report row and the row that answers the same question on the mirror
MIRROR_ROWS = {
    "objective-in-adjoint-image": "rhs-in-image-of-lineality",
    "slater-primal": "slater-dual",
    "strict-recession-primal": "strict-recession-dual",
    "strict-recession-dual-b-perp": "strict-recession-primal-c-perp",
    "closedness-primal": "closedness-dual",
}
MIRROR_ROWS.update({v: k for k, v in MIRROR_ROWS.items()})


def _mirror(ps):
    """sup <-b, y> s.t. -c + A* y in C*, y in K*: the dual of the sup program
    ps written as a sup program, so that its primal is ps's dual."""
    return program.ConicProgram(
        A=LinearMap(ps.A.codomain, ps.A.domain, -ps.A.adjoint().matrix), b=-ps.c,
        c=-ps.b, K=cones.dual(ps.C), C=cones.dual(ps.K), sense="sup")


@pytest.mark.parametrize("p", [
    *(pytest.param(gallery.planted_strong_duality(*mix, seed=0), id=f"mix-{i}")
      for i, mix in enumerate(MIXES)),
    *(pytest.param(gallery.random_program(name, seed=0), id=name)
      for name in sorted(gallery.PROFILES)),
    pytest.param(gallery.example_adapted(3), id="example-adapted-3")])
def test_report_is_mirror_symmetric(p):
    # the mirror swaps the roles of the two sides, so each row of its report
    # reads as the original's row for the other side
    ps = program.as_sup(p)
    rep = {e["condition"]: e["verdict"]
           for e in diagnostics.strong_duality_report(ps, max_iter=1200).entries}
    mirrored = {MIRROR_ROWS[e["condition"]]: e["verdict"]
                for e in diagnostics.strong_duality_report(_mirror(ps), max_iter=1200).entries
                if e["condition"] in MIRROR_ROWS}
    assert mirrored == {k: v for k, v in rep.items() if k in MIRROR_ROWS}


@pytest.mark.parametrize("p", [
    *(pytest.param(gallery.planted_strong_duality(*mix, seed=0), id=f"mix-{i}")
      for i, mix in enumerate(MIXES)),
    *(pytest.param(gallery.random_program(name, seed=0), id=name)
      for name in sorted(gallery.PROFILES)),
    pytest.param(gallery.example_adapted(3), id="example-adapted-3")])
def test_report_rows_agree_with_the_standalone_diagnostics(p):
    # the report decides each posed system once; every row it reads from
    # those verdicts is the standalone diagnostic's answer on the same system
    budget = 1200
    posed = diagnostics.posed_systems(p)
    rows = {e["condition"]: e
            for e in diagnostics.strong_duality_report(p, max_iter=budget).entries}
    both = all(solver.feasibility(posed[f"feasible-{side}"], max_iter=budget).verdict == "Yes"
               for side in ("primal", "dual"))

    def agrees(row, v, ok=True):
        assert row["verdict"] == diagnostics._fires(v.verdict, ok and both), (row, v)
        np.testing.assert_array_equal(row["margins"]["margin"], v.value)
        if v.witness is None:
            assert row["witness"] is None
        else:
            np.testing.assert_array_equal(row["witness"], v.witness)

    for side in ("primal", "dual"):
        agrees(rows[f"slater-{side}"], diagnostics.slater(p, side, max_iter=budget))
        row = rows[f"strict-recession-{side}"]
        agrees(row, diagnostics.recession_strict(p, side, max_iter=budget),
               row["margins"]["side_condition"])
        cc = diagnostics.closedness_conditions(p, side, max_iter=budget)
        assert rows[f"closedness-{side}"]["margins"] == \
            {"condition_1": cc[0].verdict, "condition_2": cc[1].verdict}
    for name, system in (("strict-recession-dual-b-perp", "perp-dual"),
                         ("strict-recession-primal-c-perp", "perp-primal")):
        agrees(rows[name], solver.strict_feasibility(posed[system], max_iter=budget))
    assert rows["boundedness-cq"]["margins"]["boundedness"] == \
        diagnostics.boundedness(p, "primal", max_iter=budget).verdict


def test_report_json_is_strict():
    # the pathology report has gap = inf and pobj = nan; they encode as strings
    doc = diagnostics.strong_duality_report(gallery.example_adapted(3)).to_json()
    doc = json.loads(json.dumps(doc, allow_nan=False))
    assert doc["gap"] == "inf" and doc["pobj"] == "nan"
