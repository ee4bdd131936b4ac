"""Exact polyhedral projection: double description, projection cone, FM oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from conedual import cones, gallery, program, projection
from conedual.spaces import LinearMap, Subspace, real, space
from oracles import PROPERTY, lp_remove_redundant, polyhedral_rows


def _fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _packing(amat, b=None):
    amat = np.asarray(amat, dtype=float)
    m, n = amat.shape
    dom, cod = space(real(n)), space(real(m))
    if b is None:
        b = np.ones(m)
    return program.ConicProgram(
        A=LinearMap(dom, cod, amat), b=np.asarray(b, dtype=float),
        c=np.ones(n), K=cones.cone(cod, cones.NONNEG),
        C=cones.cone(dom, cones.NONNEG), sense="sup")


def test_double_description_orthant():
    # {x : x_i >= 0} has the standard basis as extreme rays
    lin, rays = projection.double_description(_fr([[1, 0, 0], [0, 1, 0],
                                                   [0, 0, 1]]), 3)
    assert lin == []
    got = {tuple(r) for r in rays}
    assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_double_description_halfspace_lineality():
    # one inequality in R^2: lineality along its boundary plus one ray
    lin, rays = projection.double_description(_fr([[1, 0]]), 2)
    assert len(lin) == 1 and len(rays) == 1
    assert lin[0][0] == 0 and lin[0][1] != 0
    assert rays[0][0] > 0


def test_double_description_pointed_3d():
    # x3 >= 0, x3 >= x1, x3 >= -x1, x2 free -> lineality e2, rays (+-1, 0, 1)
    ineqs = _fr([[-1, 0, 1], [1, 0, 1], [0, 0, 1]])
    lin, rays = projection.double_description(ineqs, 3)
    assert len(lin) == 1
    assert lin[0][0] == 0 and lin[0][2] == 0 and lin[0][1] != 0
    norm_rays = set()
    for r in rays:
        assert r[2] > 0
        norm_rays.add((Fraction(r[0], r[2]), Fraction(r[1], r[2])))
    assert norm_rays == {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))}


def test_double_description_rays_satisfy_inequalities():
    rng = np.random.default_rng([13, 1])
    for _ in range(10):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        ineqs = _fr(rng.integers(-3, 4, size=(m, n)).tolist())
        lin, rays = projection.double_description(ineqs, n)
        for r in rays:
            assert all(projection._dot(a, r) >= 0 for a in ineqs)
            assert any(r)
        for l in lin:
            assert all(projection._dot(a, l) == 0 for a in ineqs)


# reference: double description in Fraction arithmetic with the rank test


def _ref_rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        rank += 1
    return rank


def _ref_double_description(ineqs, dim):
    lin = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rays, tight = [], []
    for idx, a in enumerate(ineqs):
        vals_lin = [projection._dot(a, l) for l in lin]
        if any(v != 0 for v in vals_lin):
            j0 = next(j for j, v in enumerate(vals_lin) if v != 0)
            l0, v0 = lin[j0], vals_lin[j0]
            if v0 < 0:
                l0 = [-x for x in l0]
                v0 = -v0
            lin = [[x - vals_lin[j] / v0 * y for x, y in zip(l, l0)]
                   for j, l in enumerate(lin) if j != j0]
            rays = [[x - projection._dot(a, r) / v0 * y for x, y in zip(r, l0)]
                    for r in rays] + [[x / v0 for x in l0]]
            tight = [t | {idx} for t in tight] + [set(range(idx))]
            continue
        vals = [projection._dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        keep_rays = [rays[i] for i in pos + zero]
        keep_tight = [tight[i] | ({idx} if i in zero else set()) for i in pos + zero]
        pointed_dim = dim - len(lin)
        for ip in pos:
            for im in neg:
                common = tight[ip] & tight[im]
                if _ref_rank([ineqs[i] for i in sorted(common)]) != pointed_dim - 2:
                    continue
                keep_rays.append([vals[ip] * x - vals[im] * y
                                  for y, x in zip(rays[ip], rays[im])])
                keep_tight.append(common | {idx})
        rays, tight = keep_rays, keep_tight
    seen = {}
    for r in rays:
        seen.setdefault(projection._primitive(r), r)
    return lin, [list(map(Fraction, k)) for k in seen if any(k)]


_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _rational_system(draw):
    """Rows of B z >= 0 with negated pairs (implicit equalities), positively
    scaled duplicates and a zero row among them, in a drawn order."""
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_RATIONAL, min_size=dim, max_size=dim),
                         min_size=2, max_size=8))
    # a zero row is tight at every ray, so it passes the count test for
    # pairs that are not adjacent
    extra = [[Fraction(0)] * dim] if draw(st.booleans()) else []
    for row in rows:
        kind = draw(st.sampled_from(["none", "negated", "scaled"]))
        if kind == "negated":
            extra.append([-x for x in row])
        elif kind == "scaled":
            f = draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(5, 3)]))
            extra.append([f * x for x in row])
    return draw(st.permutations(rows + extra)), dim


@PROPERTY
@given(_rational_system())
@example((_fr([[0, 0, 0], [0, -2, -2], [-2, 1, 0], [-2, -2, 1], [-2, 1, 2],
               [-2, 0, 2]]), 3))
def test_double_description_matches_rank_test_reference(system):
    ineqs, dim = system
    lin, rays = projection.double_description(ineqs, dim)
    ref_lin, ref_rays = _ref_double_description(ineqs, dim)
    assert [projection._primitive(r) for r in rays] == \
        [projection._primitive(r) for r in ref_rays]
    assert all(isinstance(x, Fraction) for g in lin + rays for x in g)
    # the same lineality space
    assert _ref_rank(lin) == _ref_rank(ref_lin) == _ref_rank(lin + ref_lin) == len(lin)


_HALVES_THIRDS = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3]))


@st.composite
def _rational_packing(draw):
    """x >= 0, A x <= b with entries k/2 and k/3, and the kept dimension."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    amat = draw(st.lists(st.lists(_HALVES_THIRDS, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    b = draw(st.lists(_HALVES_THIRDS, min_size=m, max_size=m))
    return np.array(amat, dtype=float), np.array(b, dtype=float), draw(st.integers(1, n - 1))


@PROPERTY
@given(_rational_packing())
def test_project_matches_fm_on_rational_packings(data):
    # non-integer rows and null-space bases exercise the denominator scaling
    amat, b, k = data
    amat, b = np.array(amat, dtype=float), np.array(b, dtype=float)
    n = amat.shape[1]
    p = _packing(amat, b)
    h = projection.project(p, Subspace(p.A.domain, np.eye(n)[:, :k]))
    fm = projection.fourier_motzkin(np.vstack([amat, -np.eye(n)]),
                                    np.concatenate([b, np.zeros(n)]),
                                    list(range(k, n)))
    assert h.canonical_set() == fm.canonical_set()


@st.composite
def _row_system(draw):
    """Canonical rows (a, beta) of a x <= beta in 1-4 variables, with zero
    entries, opposite pairs (implicit equalities) and offsets that often
    make the system empty."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3])
    rows = draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=7))
    pairs = [[-x for x in row] for row in rows if draw(st.booleans())]
    rows = projection._canonical_rows([(row[:-1], row[-1]) for row in rows + pairs])
    assume(rows)
    return rows


@PROPERTY
@given(_row_system())
@example([(-1, 0, 0), (0, -1, 0), (1, 1, 2), (1, 2, 4)])  # full-dimensional
@example([(-1, 0, -1), (0, -1, 0), (0, 1, 2), (1, 0, 1), (1, 1, 4)])  # x1 = 1
@example([(-1, 1), (1, -2)])  # x >= -1 and x <= -2: empty
def test_remove_redundant_matches_lp_loop(rows):
    n = len(rows[0]) - 1
    got = projection._remove_redundant(rows)
    normals, offsets = projection._float_rows(rows, n)
    feas = linprog(np.zeros(n), A_ub=normals, b_ub=offsets,
                   bounds=[(None, None)] * n, method="highs")
    assert feas.status in (0, 2), feas.message
    if feas.status == 2:
        assert got == [(0,) * n + (-1,)]
    else:
        assert got == lp_remove_redundant(rows)


def test_projection_cone_and_extreme_rays():
    p = _packing([[1, 1, 2], [2, 1, 1]])
    sub = Subspace(p.A.domain, np.eye(3)[:, :2])
    pc = projection.projection_cone(p, sub)
    lin, rays = projection.extreme_rays(pc)
    assert len(rays) > 0
    m = p.A.codomain.dim
    for r in list(rays) + list(lin):
        y, w = r[:m], r[m:]
        assert cones.member(cones.dual(p.K), y, 1e-9)
        assert cones.member(cones.dual(p.C), w, 1e-9)
        # A* y - w must lie in the subspace: last coordinate vanishes
        assert abs((p.A.matrix.T @ y - w)[2]) <= 1e-9


def test_extreme_rays_rejects_a_ray_outside_the_cone(monkeypatch):
    p = _packing([[1, 1, 2], [2, 1, 1]])
    pc = projection.projection_cone(p, Subspace(p.A.domain, np.eye(3)[:, :2]))
    # y_1 < 0 leaves K* = the nonnegative orthant
    outside = [-1] + [0] * (pc.gmap.domain.dim - 1)
    monkeypatch.setattr(projection, "_exact_lift", lambda pc: ([], [outside]))
    with pytest.raises(ValueError, match="violates the cone system"):
        projection.extreme_rays(pc)


def test_precondition_failure_raises():
    # eliminating x2 requires w2 = (A* y)_2 > 0, but the second column of A
    # is negative and y >= 0, so the projection cone has no interior point
    dom, cod = space(real(2)), space(real(1))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, -np.ones((1, 2))), b=np.ones(1), c=np.ones(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    sub = Subspace(p.A.domain, np.eye(2)[:, :1])
    with pytest.raises(projection.PreconditionFailed):
        projection.project(p, sub)


def test_project_matches_fm_on_simplex():
    # x >= 0, x1 + x2 + x3 <= 1 projected onto (x1, x2)
    p = _packing([[1, 1, 1]])
    sub = Subspace(p.A.domain, np.eye(3)[:, :2])
    h = projection.project(p, sub)
    assert h.exact
    normals = [[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
               [0.0, 0.0, -1.0]]
    offsets = [1.0, 0.0, 0.0, 0.0]
    fm = projection.fourier_motzkin(normals, offsets, [2])
    assert h.canonical_set() == fm.canonical_set()
    # the projection of the simplex onto two coordinates is the triangle
    assert h.contains(np.array([0.3, 0.3, 0.0]))
    assert not h.contains(np.array([0.8, 0.8, 0.0]))


def test_project_matches_fm_random_integer_instances():
    rng = np.random.default_rng([13, 2])
    done = 0
    while done < 8:
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        amat = rng.integers(1, 5, size=(m, n)).astype(float)
        p = _packing(amat, b=rng.integers(1, 4, size=m).astype(float))
        k = int(rng.integers(1, n))
        sub = Subspace(p.A.domain, np.eye(n)[:, :k])
        h = projection.project(p, sub)
        normals = np.vstack([amat, -np.eye(n)])
        offsets = np.concatenate([p.b, np.zeros(n)])
        fm = projection.fourier_motzkin(normals, offsets, list(range(k, n)))
        assert h.canonical_set() == fm.canonical_set(), (amat, p.b, k)
        done += 1


def test_project_float_data_rows_are_valid_and_tight():
    # float data scale to integers far beyond the float range; every row
    # must still convert, and be a valid and tight bound on the feasible set
    p = gallery.planted_strong_duality([(cones.NONNEG, 7)], [(cones.NONNEG, 7)], seed=0)
    h = projection.project(p, Subspace(p.A.domain, np.eye(7)[:, :2]))
    assert h.exact and len(h.normals) > 0
    aub, bub, _, _ = polyhedral_rows(p)
    for normal, off in zip(h.normals, h.offsets):
        res = linprog(-normal, A_ub=aub, b_ub=bub, bounds=[(None, None)] * 7,
                      method="highs")
        assert res.status == 0, res.message
        assert abs(-res.fun - off) <= 1e-6 * (1 + abs(off)), (normal, off, -res.fun)


@pytest.mark.parametrize("profile, seed", [
    ("lp-small", 0), ("lp-eq", 0), ("lp-eq", 1), ("lp-eq", 5)])
def test_project_empty_set_gives_the_infeasible_marker(profile, seed):
    # each of these feasible sets is empty (HiGHS: infeasible); its
    # projection is the single row 0 <= -1, not every candidate row
    p = gallery.random_program(profile, seed=seed)
    n = p.A.domain.dim
    h = projection.project(p, Subspace(p.A.domain, np.eye(n)[:, :1]))
    assert h.canonical_set() == {(0,) * n + (-1,)}
    assert not h.contains(np.zeros(n))


def test_exact_projection_makes_no_lp_call(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called by exact projection")

    monkeypatch.setattr(projection, "linprog", no_lp)
    rng = np.random.default_rng([13, 3])
    for _ in range(3):
        # bounded like the benchmark's polytopes: x >= 0, A x <= b, sum(x) <= 8
        amat = np.vstack([rng.integers(-3, 4, size=(6, 8)), np.ones(8)])
        b = np.append(rng.integers(1, 6, size=6), 8.0)
        p = _packing(amat, b)
        h = projection.project(p, Subspace(p.A.domain, np.eye(8)[:, :3]))
        assert h.exact and h.frac_rows
    fm = projection.fourier_motzkin(np.vstack([amat, -np.eye(8)]),
                                    np.concatenate([b, np.zeros(8)]),
                                    list(range(3, 8)))
    assert fm.canonical_set() == h.canonical_set()


def test_project_sampled_outer_approximation():
    # SOC variable cone takes the sampled path; result is outer and marked
    # inexact
    dom, cod = space(real(3)), space(real(1))
    amat = np.array([[0.0, 0.0, 1.0]])
    p = program.ConicProgram(
        A=LinearMap(dom, cod, amat), b=np.ones(1), c=np.zeros(3),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.SOC),
        sense="sup")
    sub = Subspace(p.A.domain, np.eye(3)[:, :2])
    h = projection.project(p, sub)
    assert not h.exact
    # feasible points project inside the reported outer set
    for x in (np.zeros(3), np.array([0.5, 0.0, 0.0]), np.array([0.0, -0.9, 0.0])):
        # lift: any feasible point of the program with those first two coords
        full = np.array([x[0], x[1], np.hypot(x[0], x[1])])
        assert h.contains(np.array([full[0], full[1], 0.0]), tol=1e-5)


def test_fourier_motzkin_cube_to_square():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    offsets = np.ones(6)
    fm = projection.fourier_motzkin(normals, offsets, [2])
    assert len(fm.frac_rows) == 4
    assert fm.contains(np.array([0.9, -0.9, 0.0]))
    assert not fm.contains(np.array([1.1, 0.0, 0.0]))


def test_fourier_motzkin_detects_empty():
    normals = [[1.0], [-1.0]]
    offsets = [-2.0, 1.0]  # x <= -2 and x >= -1
    fm = projection.fourier_motzkin(normals, offsets, [0])
    # the infeasible marker row 0 <= negative survives
    assert any(all(c == 0 for c in r[:-1]) and r[-1] < 0 for r in fm.frac_rows)


def test_fourier_motzkin_variable_cap():
    with pytest.raises(ValueError):
        projection.fourier_motzkin(np.zeros((1, 9)), np.zeros(1), [0])
