"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single line "criterion NN: PASS/FAIL <detail>" before
asserting, so a captured run still shows the full scoreboard.  Tolerances and
budgets are pinned in the constants below; the instance streams are seeded so
every run sees the same population.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conedual import cones, diagnostics, gallery, program, projection, solver
from conedual.spaces import (
    LinearMap, Subspace, image_of_subspace, inner, preimage_of_subspace, real,
    space)
from oracles import is_pointed, subspace_equals

# cone mixtures used by the planted-instance criteria
MIXES = [
    ([(cones.NONNEG, 3)], [(cones.NONNEG, 2)]),
    ([(cones.NONNEG, 2), (cones.SOC, 3)], [(cones.NONNEG, 3)]),
    ([(cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)]),
    ([(cones.PSD, 2)], [(cones.NONNEG, 2)]),
    ([(cones.NONNEG, 2)], [(cones.SOC, 3)]),
    ([(cones.PSD, 2), (cones.NONNEG, 2)], [(cones.ZERO, 2), (cones.NONNEG, 2)]),
]


def _report(num, ok, detail=""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# criterion 1: the infinite-gap family is handled honestly and fast


def test_criterion_01_infinite_gap_family():
    failures = []
    worst = 0.0
    for n in range(3, 9):
        p = gallery.example_adapted(n)
        t0 = time.perf_counter()
        res = solver.solve(p, max_iter=1500)
        # the primal is infeasible but only in the limit, so any claim of
        # optimality or unboundedness would be wrong
        if res.status in ("Optimal", "Unbounded"):
            failures.append((n, "solver claimed " + res.status))
        # the dual attains 0 at the origin
        d = program.dualize(p)
        y0 = np.zeros(d.A.domain.dim)
        if not program.is_feasible_point(d, y0, 1e-9):
            failures.append((n, "origin not dual feasible"))
        if abs(inner(d.c, y0)) > 1e-12:
            failures.append((n, "dual value at origin is nonzero"))
        # no sufficient zero-gap condition may fire on this family
        rep = diagnostics.strong_duality_report(p, max_iter=1200)
        if rep.fired():
            failures.append((n, f"conditions fired: {rep.fired()}"))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if elapsed >= 1.0:
            failures.append((n, f"took {elapsed:.2f}s"))
    ok = not failures
    _report(1, ok, f"n=3..8, slowest {worst:.2f}s" if ok else str(failures))
    assert ok, failures


@pytest.mark.xfail(strict=True, reason=(
    "the family is infeasible only in the limit: every improving-ray "
    "candidate y satisfies <b, y> = 0, so no strictly separating "
    "certificate of infeasibility exists and the solver cannot return one"))
def test_criterion_01_infeasibility_certificate_unreachable():
    res = solver.solve(gallery.example_adapted(4), max_iter=1500)
    assert res.status == "PrimalInfeasible"
    # the solver's Farkas ray y has <b, y> < 0
    assert inner(gallery.example_adapted(4).b, res.certificate["y"]) < 0


# ---------------------------------------------------------------------------
# criterion 2: planted zero-gap instances solve to matching objectives


def test_criterion_02_planted_strong_duality():
    t0 = time.perf_counter()
    optimal = 0
    max_gap = 0.0
    for seed in range(200):
        c_descr, k_descr = MIXES[seed % len(MIXES)]
        p = gallery.planted_strong_duality(c_descr, k_descr, seed=seed)
        res = solver.solve(p)
        if res.status == "Optimal":
            optimal += 1
            gap = abs(res.pobj - res.dobj) / (1.0 + abs(res.pobj))
            max_gap = max(max_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = optimal >= 190 and max_gap <= 1e-5 and elapsed < 120.0
    _report(2, ok, f"{optimal}/200 optimal, max gap {max_gap:.1e}, {elapsed:.1f}s")
    assert optimal >= 190, optimal
    assert max_gap <= 1e-5, max_gap
    assert elapsed < 120.0, elapsed


# ---------------------------------------------------------------------------
# criterion 3: weak duality holds across a thousand feasible pairs


def test_criterion_03_weak_duality_sweep():
    t0 = time.perf_counter()
    violations = []
    for seed in range(1000):
        c_descr, k_descr = MIXES[seed % len(MIXES)]
        p = gallery.planted_strong_duality(c_descr, k_descr, seed=seed)
        # the construction points are feasible on their sides by design
        x0 = cones.sample_relint(p.C, gallery._rng(seed, gallery._STREAM_X0),
                                 gallery.RELINT_SCALE)
        y0 = cones.sample_relint(cones.dual(p.K),
                                 gallery._rng(seed, gallery._STREAM_Y0),
                                 gallery.RELINT_SCALE)
        lhs, rhs = inner(p.c, x0), inner(p.b, y0)
        if lhs > rhs + 1e-6:
            violations.append((seed, lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    _report(3, ok, f"1000 pairs, {elapsed:.1f}s" if ok else str(violations[:3]))
    assert not violations, violations[:5]
    assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# criterion 4: the homogeneous alternative picks exactly one branch (Ray or
# Interior)


def test_criterion_04_homogeneous_alternative():
    t0 = time.perf_counter()
    profiles = ["lp-small", "soc-mix", "lp-eq"]
    unknown = 0
    failures = []
    for seed in range(100):
        p = gallery.random_program(profiles[seed % 3], seed=seed)
        rs = diagnostics.recession_cone(p, "primal")
        assert rs.lineality.dim == 0  # population is pointed by construction
        out = diagnostics.gordan_alternative(p)
        if out.verdict == "Unknown":
            unknown += 1
            continue
        if out.verdict == "Ray":
            x = out.witness
            ok = (np.linalg.norm(x) > 1e-6 and cones.member(p.C, x, 1e-6)
                  and cones.member(p.K, -p.A(x), 1e-6))
        else:
            assert out.verdict == "Interior", out.verdict
            y = out.witness
            ok = (cones.relint_member(cones.dual(p.K), y)
                  and cones.relint_member(cones.dual(p.C), p.A.adjoint()(y)))
        if not ok:
            failures.append((seed, out.verdict))
    elapsed = time.perf_counter() - t0
    ok = unknown <= 5 and not failures
    _report(4, ok, f"unknown {unknown}/100, {elapsed:.1f}s"
            if ok else f"unknown {unknown}, bad witnesses {failures}")
    assert not failures, failures
    assert unknown <= 5, unknown


# ---------------------------------------------------------------------------
# criterion 5: exact polar identity for the polyhedral recession cone
#
# For X = {x in C : -Ax in K} with polyhedral cones, the polar of rec X equals
# the closure of A*(K*) - C*.  Both sides are computed exactly over rationals:
# the left as the generator cone of the recession H-form, the right by a
# double-description round trip, then compared by mutual inclusion.

_TAGS5 = ["nonneg", "zero", "free"]


def _cone_hform_dd(ineq_rows, eq_rows, dim):
    rows = [r[:] for r in ineq_rows]
    for e in eq_rows:
        rows.append(e[:])
        rows.append([-x for x in e])
    return projection.double_description(rows, dim)[:2]


def _in_polar_of(lin, rays, v):
    return (all(projection._dot(r, v) <= 0 for r in rays)
            and all(projection._dot(l, v) == 0 for l in lin))


def test_criterion_05_polar_recession_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng([5, 51])
    bad = []
    for trial in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        amat = rng.integers(-3, 4, size=(m, n))
        c_tags = [_TAGS5[int(rng.integers(3))] for _ in range(n)]
        k_tags = [_TAGS5[int(rng.integers(3))] for _ in range(m)]
        eye_n = np.eye(n, dtype=int)
        eye_m = np.eye(m, dtype=int)
        # H-form of rec X = {x : x in C, -Ax in K}
        ineq, eq = [], []
        for i, t in enumerate(c_tags):
            if t == "nonneg":
                ineq.append([Fraction(int(v)) for v in eye_n[i]])
            elif t == "zero":
                eq.append([Fraction(int(v)) for v in eye_n[i]])
        for i, t in enumerate(k_tags):
            if t == "nonneg":
                ineq.append([Fraction(int(-v)) for v in amat[i]])
            elif t == "zero":
                eq.append([Fraction(int(v)) for v in amat[i]])
        lin1, rays1 = _cone_hform_dd(ineq, eq, n)
        # generators of A*(K*) - C*
        gens = []
        for i, t in enumerate(k_tags):
            col = list(amat.T @ eye_m[i])
            if t == "nonneg":
                gens.append(col)
            elif t == "zero":
                gens.append(col)
                gens.append([-v for v in col])
        for i, t in enumerate(c_tags):
            if t == "nonneg":
                gens.append(list(-eye_n[i]))
            elif t == "zero":
                gens.append(list(eye_n[i]))
                gens.append(list(-eye_n[i]))
        gens = [[Fraction(int(v)) for v in g] for g in gens]
        # direction 1: every generator lies in the polar of rec X
        d1 = all(_in_polar_of(lin1, rays1, g) for g in gens)
        # direction 2: the polar of rec X lies in the closed generator cone,
        # checked on the V-form of the polar (DD of the rays' polar system)
        lin_g, rays_g = _cone_hform_dd([[-v for v in g] for g in gens], [], n)
        lin_p, rays_p = _cone_hform_dd([[-v for v in r] for r in rays1], lin1, n)
        d2 = (all(_in_polar_of(lin_g, rays_g, r) for r in rays_p)
              and all(_in_polar_of(lin_g, rays_g, l)
                      and _in_polar_of(lin_g, rays_g, [-v for v in l])
                      for l in lin_p))
        if not (d1 and d2):
            bad.append((trial, d1, d2))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _report(5, ok, f"25/25 exact, {elapsed:.1f}s" if ok else str(bad))
    assert not bad, bad


# ---------------------------------------------------------------------------
# criterion 6: boundedness classification with revalidated witnesses


def test_criterion_06_boundedness_classification():
    t0 = time.perf_counter()
    unknown = 0
    failures = []
    counts = {"Bounded": 0, "Unbounded": 0}
    for seed in range(50):
        c_descr, k_descr = MIXES[seed % len(MIXES)]
        p = gallery.planted_strong_duality(c_descr, k_descr, seed=seed)
        out = diagnostics.boundedness(p, "primal")
        v = out.verdict
        if v == "Unknown":
            unknown += 1
            continue
        if v == "Empty":
            failures.append((seed, "planted instance reported Empty"))
            continue
        counts[v] += 1
        if v == "Unbounded":
            r = out.witness
            rs = diagnostics.recession_cone(p, "primal")
            if np.linalg.norm(r) < 1e-7 or not rs.member(r, 1e-6):
                failures.append((seed, "bad recession ray"))
        else:
            w = out.witness
            rs_d = diagnostics.recession_cone(p, "dual")
            if not cones.relint_member(rs_d.cone, rs_d.gmap(w)):
                failures.append((seed, "bad strict dual recession point"))
    elapsed = time.perf_counter() - t0
    ok = unknown <= 3 and not failures
    _report(6, ok, f"{counts}, unknown {unknown}/50, {elapsed:.1f}s"
            if ok else str(failures))
    assert not failures, failures
    assert unknown <= 3, unknown


# ---------------------------------------------------------------------------
# criterion 7: finite value on one side iff the other side is feasible


def _engineered_unbounded(seed):
    # column 0 of A is strictly negative, so e_0 is an improving recession
    # direction of the nonnegative primal and the dual must be infeasible
    rng = np.random.default_rng([seed, 71])
    m = int(rng.integers(2, 5))
    n = int(rng.integers(3, 6))
    amat = rng.standard_normal((m, n))
    amat[:, 0] = -np.abs(amat[:, 0]) - 0.1
    x0 = rng.uniform(0.2, 1.0, n)
    s0 = rng.uniform(0.2, 1.0, m)
    b = amat @ x0 + s0
    c = np.zeros(n)
    c[0] = 1.0
    c[1:] = 0.05 * rng.standard_normal(n - 1)
    dom, cod = space(real(n)), space(real(m))
    return program.ConicProgram(
        A=LinearMap(dom, cod, amat), b=b, c=c,
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")


def test_criterion_07_finiteness_iff_other_side_feasible():
    t0 = time.perf_counter()
    failures = []
    for seed in range(25):
        p = _engineered_unbounded(seed)
        e0 = np.zeros(p.A.domain.dim)
        e0[0] = 1.0
        assert cones.member(p.K, -p.A(e0), 1e-9) and p.c[0] > 0
        out = diagnostics.finiteness_check(p, "primal")
        if not (out.verdict == "Unbounded"
                and out.detail == "other side feasibility No, side solve Unbounded"):
            failures.append(("engineered", seed, out.verdict, out.detail))
    for seed in range(25):
        c_descr, k_descr = MIXES[seed % len(MIXES)]
        p = gallery.planted_strong_duality(c_descr, k_descr, seed=seed)
        out = diagnostics.finiteness_check(p, "primal")
        if not (out.verdict == "Finite"
                and out.detail == "other side feasibility Yes, side solve Optimal"):
            failures.append(("planted", seed, out.verdict, out.detail))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(7, ok, f"50/50 consistent, {elapsed:.1f}s" if ok else str(failures))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 8: epsilon-gap separators with recovered feasible points


def test_criterion_08_gap_bound_separation():
    t0 = time.perf_counter()
    failures = []
    eps = 1e-3
    for seed in range(20):
        c_descr, k_descr = MIXES[seed % len(MIXES)]
        p = gallery.planted_strong_duality(c_descr, k_descr, seed=seed)
        out = diagnostics.gap_bound_separation(p, eps)
        if out.verdict != "Yes":
            failures.append((seed, out.verdict, out.detail))
            continue
        # value is the level dobj - eps
        x = out.witness
        if not program.is_feasible_point(p, x, 1e-6):
            failures.append((seed, "recovered point infeasible"))
        elif inner(p.c, x) <= out.value - 1e-6:
            failures.append((seed, "recovered value below the gap bound"))
    # the infinite-gap family admits no separator at its attained dual value
    patho = diagnostics.gap_bound_separation(gallery.example_adapted(3), eps,
                                             dobj=0.0)
    if patho.verdict == "Yes" or patho.witness is not None:
        failures.append(("pathology", patho.verdict))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(8, ok, f"20/20 separated + pathology refused, {elapsed:.1f}s"
            if ok else str(failures))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 9: polyhedral projection agrees with direct elimination


def test_criterion_09_projection_matches_elimination():
    t0 = time.perf_counter()
    rng = np.random.default_rng([9, 91])
    failures = []
    done = 0
    while done < 15:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        amat = rng.integers(1, 5, size=(m, n)).astype(float)
        b = rng.integers(1, 4, size=m).astype(float)
        dom, cod = space(real(n)), space(real(m))
        p = program.ConicProgram(
            A=LinearMap(dom, cod, amat), b=b, c=np.ones(n),
            K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
            sense="sup")
        k = int(rng.integers(1, n))
        sub = Subspace(p.A.domain, np.eye(n)[:, :k])
        h = projection.project(p, sub)
        normals = np.vstack([amat, -np.eye(n)])
        offsets = np.concatenate([b, np.zeros(n)])
        fm = projection.fourier_motzkin(normals, offsets, list(range(k, n)))
        if not h.exact or h.canonical_set() != fm.canonical_set():
            failures.append((done, amat.tolist(), b.tolist(), k))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(9, ok, f"15/15 facet sets equal, {elapsed:.1f}s"
            if ok else str(failures))
    assert not failures, failures
    assert elapsed < 30.0, elapsed


# ---------------------------------------------------------------------------
# criterion 10: bulk cone-calculus property checks


def _random_cone(rng):
    descr = []
    for _ in range(int(rng.integers(1, 4))):
        tag = cones.FACTOR_CONES[int(rng.integers(len(cones.FACTOR_CONES)))]
        if tag == cones.SOC:
            size = int(rng.integers(2, 5))
        elif tag == cones.PSD:
            size = int(rng.integers(1, 4))
        else:
            size = int(rng.integers(1, 5))
        descr.append((tag, size))
    return gallery._build_cone(descr)


def test_criterion_10_cone_calculus_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng([10, 100])
    checks = 0
    failures = []

    def check(cond, label):
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(label)

    it = 0
    while checks < 10000:
        it += 1
        c = _random_cone(rng)
        d = cones.dual(c)
        x = rng.standard_normal(c.space.dim)
        z = rng.standard_normal(c.space.dim)
        px = cones.project(c, x)
        qx = cones.project(cones.polar(c), x)
        pz = cones.project(d, z)
        # bipolar: (C°)° = C, structurally and pointwise
        check(cones.polar(cones.polar(c)).tags == c.tags, (it, "bipolar tags"))
        check(cones.member(cones.polar(cones.polar(c)), px, 1e-7),
              (it, "bipolar membership"))
        check(cones.member(cones.polar(c), -pz, 1e-7), (it, "polar is -dual"))
        # Moreau decomposition against the polar
        check(np.allclose(px + qx, x, atol=1e-7), (it, "moreau sum"))
        check(abs(inner(px, qx)) <= 1e-6, (it, "moreau orthogonality"))
        check(cones.member(c, px, 1e-7), (it, "projection lands in cone"))
        check(inner(px, pz) >= -1e-6, (it, "dual pairing nonnegative"))
        # relint absorption: relint C + C stays in relint C
        e = cones.canonical_relint_point(c)
        check(cones.relint_member(c, e), (it, "canonical relint point"))
        check(cones.relint_member(c, e + px), (it, "relint absorption"))
        # origin exclusion: 0 in relint C exactly when C is a subspace
        check(cones.relint_member(c, np.zeros(c.space.dim))
              == cones.is_subspace(c), (it, "origin exclusion"))
        # span of the dual is the orthogonal complement of the lineality
        check(subspace_equals(cones.span(d), cones.lineality(c).complement()),
              (it, "span of dual"))
        check(is_pointed(c) == (cones.FREE not in c.tags),
              (it, "pointedness flag"))
        # adjoint pairing and the adjoint-image subspace identity
        cod = space(real(int(rng.integers(1, 5))))
        amap = LinearMap(c.space, cod,
                         rng.standard_normal((cod.dim, c.space.dim)))
        y = rng.standard_normal(cod.dim)
        check(abs(inner(amap(x), y) - inner(x, amap.adjoint()(y))) <= 1e-8,
              (it, "adjoint pairing"))
        k = int(rng.integers(0, cod.dim + 1))
        sub = Subspace(cod, rng.standard_normal((cod.dim, k)))
        lhs = image_of_subspace(amap.adjoint(), sub.complement())
        rhs = preimage_of_subspace(amap, sub).complement()
        check(subspace_equals(lhs, rhs), (it, "adjoint image of complement"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(10, ok, f"{checks} checks in {elapsed:.1f}s" if ok else str(failures[:5]))
    assert not failures, failures[:5]
    assert elapsed < 30.0, elapsed
