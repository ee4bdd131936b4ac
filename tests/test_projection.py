"""Exact polyhedral projection: double description, projection cone, FM oracle."""

from fractions import Fraction
from math import gcd, lcm
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from conedual import cones, gallery, program, projection, solver
from conedual.spaces import LinearMap, Subspace, real, space
from oracles import PROPERTY, extreme_rays, lp_remove_redundant, polyhedral_rows


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
    lin, rays, _ = projection.double_description(_fr([[1, 0, 0], [0, 1, 0],
                                                      [0, 0, 1]]), 3)
    assert lin == []
    got = {tuple(r) for r in rays}
    assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_double_description_halfspace_lineality():
    # one inequality in R^2: lineality along its boundary plus one ray
    lin, rays, _ = projection.double_description(_fr([[1, 0]]), 2)
    assert len(lin) == 1 and len(rays) == 1
    assert lin[0][0] == 0 and lin[0][1] != 0
    assert rays[0][0] > 0


def test_double_description_pointed_3d():
    # x3 >= 0, x3 >= x1, x3 >= -x1, x2 free -> lineality e2, rays (+-1, 0, 1)
    ineqs = _fr([[-1, 0, 1], [1, 0, 1], [0, 0, 1]])
    lin, rays, _ = projection.double_description(ineqs, 3)
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
        lin, rays, _ = projection.double_description(ineqs, n)
        for r in rays:
            assert all(projection._dot(a, r) >= 0 for a in ineqs)
            assert any(r)
        for l in lin:
            assert all(projection._dot(a, l) == 0 for a in ineqs)


@pytest.mark.parametrize("ineqs, eqs", [
    # the cube 0 <= x <= 1, homogenised by t >= 0 in the last coordinate
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 1], [0, -1, 0, 1],
      [0, 0, -1, 1], [0, 0, 0, 1]], []),
    # a projection cone: one Zero row, then rows that meet the lineality
    # while rays are already held
    ([[0, 0, 1, 0, 0], [1, 1, 0, 0, 0], [0, 1, 0, 1, 0], [-1, 0, 2, 0, 1],
      [0, 0, 0, 1, 1]], [[1, -1, 0, 2, 0]]),
], ids=["cube", "eq-and-lineality"])
def test_double_description_takes_one_product_per_generator_and_row(monkeypatch,
                                                                     ineqs, eqs):
    # each processed row meets each generator held before it in one inner
    # product, the lineality update's rays included
    dim, rows = len(ineqs[0]), [*eqs, *ineqs]
    held = 0  # generators held before each row, summed over the rows
    for k in range(len(rows)):
        lin, rays, _ = projection.double_description(ineqs[:max(0, k - len(eqs))], dim,
                                                     eqs[:k])
        held += len(lin) + len(rays)
    calls = []
    dot = projection._dot
    monkeypatch.setattr(projection, "_dot", lambda a, b: calls.append(1) or dot(a, b))
    projection.double_description(ineqs, dim, eqs)
    assert 0 < len(calls) <= held


# reference: double description in Fraction arithmetic with the rank test


def _primitive(v) -> tuple:
    """A rational vector scaled by a positive factor to coprime integers."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


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
        seen.setdefault(_primitive(r), r)
    return lin, [list(map(Fraction, k)) for k in seen if any(k)]


_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _rational_system(draw):
    """Rows of B z >= 0 with negated pairs (implicit equalities), positively
    scaled duplicates and a zero row among them, in a drawn order, and 0-3
    rows of E z = 0, some of them combinations of earlier ones."""
    dim = draw(st.integers(1, 6))
    row = st.lists(_RATIONAL, min_size=dim, max_size=dim)
    eqs = draw(st.lists(row, max_size=3))
    if eqs and draw(st.booleans()):
        f = draw(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(3)]))
        eqs[-1] = [f * x + y for x, y in zip(eqs[0], eqs[-1])]
    rows = draw(st.lists(row, min_size=2, max_size=8))
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
    return draw(st.permutations(rows + extra)), dim, eqs


@PROPERTY
@given(_rational_system())
@example((_fr([[0, 0, 0], [0, -2, -2], [-2, 1, 0], [-2, -2, 1], [-2, 1, 2],
               [-2, 0, 2]]), 3, []))
# the second equality is twice the first: it leaves the lineality alone
@example((_fr([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3, _fr([[1, -1, 0], [2, -2, 0]])))
def test_double_description_matches_rank_test_reference(system):
    ineqs, dim, eqs = system
    lin, rays, tight = projection.double_description(ineqs, dim, eqs=eqs)
    # the reference reads each equality as a negated pair of inequalities
    pairs = [r for e in eqs for r in (e, [-x for x in e])]
    ref_lin, ref_rays = _ref_double_description(pairs + ineqs, dim)
    assert [_primitive(r) for r in rays] == [_primitive(r) for r in ref_rays]
    # each ray's mask names exactly the rows that vanish at it
    assert tight == [sum(1 << i for i, a in enumerate(ineqs) if projection._dot(a, r) == 0)
                     for r in rays]
    assert all(type(x) is int for g in lin + rays for x in g)
    # the same lineality space
    assert _ref_rank(_fr(lin)) == _ref_rank(ref_lin) == \
        _ref_rank(_fr(lin) + ref_lin) == len(lin)


@st.composite
def _int_matrix(draw):
    """Integer rows of width 1-6 with zero entries, negative leading entries,
    and negated, scaled and summed copies of earlier rows (rank deficiency)."""
    d = draw(st.integers(1, 6))
    entry = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3])
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        f = draw(st.sampled_from([-2, -1, 2]))
        rows.append([f * x + y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows)), d


@PROPERTY
@given(_int_matrix())
@example(([[-1, 1]], 2))  # a negative pivot
@example(([[0, -2, 1], [3, 0, 0], [0, 4, -2]], 3))
def test_double_description_of_equalities_is_the_null_space(system):
    # {z : E z = 0} has no ray, and its lineality is the null space of E
    rows, d = system
    basis, rays, tight = projection.double_description([], d, eqs=rows)
    assert rays == [] and tight == []
    assert all(type(x) is int and len(v) == d for v in basis for x in v)
    assert all(projection._dot(row, v) == 0 for row in rows for v in basis)
    assert len(basis) == d - _ref_rank(_fr(rows))
    assert _ref_rank(_fr(basis)) == len(basis)


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
    """Integer rows (a, beta) of a x <= beta in 1-4 variables, with zero
    entries, opposite pairs (implicit equalities), scaled duplicates and
    offsets that often make the system empty."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3])
    rows = draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=7))
    for row in list(rows):
        kind = draw(st.sampled_from(["none", "negated", "scaled"]))
        if kind == "negated":
            rows.append([-x for x in row])
        elif kind == "scaled":
            rows.append([2 * x for x in row])
    if draw(st.booleans()):
        # a coordinate that no row uses: a line of the set
        col = draw(st.integers(0, n))
        rows = [row[:col] + [0] + row[col:] for row in rows]
    return rows


def _float_system(rows) -> tuple[np.ndarray, np.ndarray]:
    """(normals, offsets) of small integer rows (a, beta) of a x <= beta."""
    mat = np.array(rows, dtype=float)
    return mat[:, :-1], mat[:, -1]


def _rows_contain(inner, outer) -> bool:
    """Every row of `outer` holds on the nonempty set of the rows `inner`."""
    if not any(any(row[:-1]) for row in inner):
        return all(not any(row[:-1]) and row[-1] >= 0 for row in outer)
    return not outer or _lp_contains(_float_system(inner), _float_system(outer))


# the point x1 = 2, x3 = -1 (x2 a line), once by x3 rows and once by rows of
# x1 - 2 x3 = 4: the same set, so the same rows
_POINT_BY_X3 = [[1, 0, 0, 2], [-1, 0, 0, -2], [0, 0, 1, -1], [0, 0, -1, 1]]
_POINT_BY_X1_X3 = [[1, 0, 0, 2], [-1, 0, 0, -2], [1, 0, -2, 4], [-1, 0, 2, -4]]


@PROPERTY
@given(_row_system(), st.randoms(use_true_random=False))
@example([[-1, 0, 0], [0, -1, 0], [1, 1, 2], [1, 2, 4]], Random(0))  # full-dimensional
# x2 unused: a line of the set, dropped before the double description
@example([[-1, 0, 0, 0], [0, 0, -1, 0], [1, 0, 1, 2], [1, 0, 2, 4]], Random(0))
# the unit square and x1 + x2 <= 2, tight only at the vertex (1, 1): its
# rays are a strict subset of those of x1 <= 1
@example([[-1, 0, 0], [0, -1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 2]], Random(0))
@example([[-1, 0, -1], [0, -1, 0], [0, 1, 2], [1, 0, 1], [1, 1, 4]], Random(0))  # x1 = 1
@example([[-1, 1], [1, -2]], Random(0))  # x >= -1 and x <= -2: empty
@example([[0, 0, 1], [0, 0, 0]], Random(0))  # no row uses x: the whole line
@example(_POINT_BY_X3, Random(0))
@example(_POINT_BY_X1_X3, Random(0))
def test_remove_redundant_matches_lp_loop(rows, rnd):
    n = len(rows[0]) - 1
    with mock.patch.object(projection, "double_description",
                           wraps=projection.double_description) as dd:
        got = projection._remove_redundant(rows)
    assert dd.call_count == 1
    normals, offsets = _float_system(rows)
    feas = linprog(np.zeros(n), A_ub=normals, b_ub=offsets,
                   bounds=[(None, None)] * n, method="highs")
    assert feas.status in (0, 2), feas.message
    if feas.status == 2:
        assert got == [(0,) * n + (-1,)]
        return
    # full-dimensional when some point has positive slack at every row of a != 0
    canon = sorted({_primitive(row) for row in rows if any(row[:-1])})
    if canon:
        slack = linprog(np.append(np.zeros(n), -1.0),
                        A_ub=[list(row[:-1]) + [1] for row in canon],
                        b_ub=[row[-1] for row in canon],
                        bounds=[(None, None)] * n + [(None, 1)], method="highs")
        assert slack.status == 0, slack.message
        if slack.fun < -1e-6:
            assert got == lp_remove_redundant(canon)
    # the same set, without a redundant row
    assert _rows_contain(rows, got) and _rows_contain(got, rows)
    assert lp_remove_redundant(got) == got
    # and the same rows from any order of any description of it: rows
    # implied by nonnegative combinations plus slack, and its own rows, each
    # plus a multiple of another (of an equality: the same face)
    implied = [[sum(w * row[j] for w, row in zip(weights, rows)) + (j == n) * rnd.randint(0, 2)
                for j in range(n + 1)]
               for weights in ([rnd.randint(0, 2) for _ in rows] for _ in range(3))]
    shifted = [[x + w * y for x, y in zip(row, rnd.choice(got))]
               for row in got for w in [rnd.randint(0, 2)]]
    others = rows + implied + shifted
    rnd.shuffle(others)
    assert projection._remove_redundant(others) == got


def test_remove_redundant_gives_one_form_per_set():
    # x1 = 2, x3 = -1 as the echelon pairs of x1 and x3; x2 is a line
    want = [(-1, 0, 0, -2), (0, 0, -1, 1), (0, 0, 1, -1), (1, 0, 0, 2)]
    assert projection._remove_redundant(_POINT_BY_X3) == want
    assert projection._remove_redundant(_POINT_BY_X1_X3) == want
    # the ray x1 = 2, x2 <= 5: its facet row is reduced modulo x1 = 2
    want = [(-1, 0, -2), (0, 1, 5), (1, 0, 2)]
    assert projection._remove_redundant([[1, 0, 2], [-1, 0, -2], [0, 1, 5]]) == want
    assert projection._remove_redundant([[2, 0, 4], [-1, 0, -2], [1, 1, 7]]) == want


def test_projection_cone_and_extreme_rays():
    p = _packing([[1, 1, 2], [2, 1, 1]])
    sub = Subspace(p.A.domain, np.eye(3)[:, :2])
    pc = projection.projection_cone(p, sub)
    lin, rays = extreme_rays(pc)
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
        extreme_rays(pc)


def test_project_needs_no_interior_point_of_the_projection_cone():
    # eliminating x2 requires w2 = (A* y)_2 > 0, but the second column of A
    # is negative and y >= 0, so the projection cone has no interior point.
    # For polyhedral cones its rays still give the projection exactly
    dom, cod = space(real(2)), space(real(1))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, -np.ones((1, 2))), b=np.ones(1), c=np.ones(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="sup")
    sub = Subspace(p.A.domain, np.eye(2)[:, :1])
    # x >= 0 and x1 + x2 >= -1 project onto x1 >= 0
    assert projection.project(p, sub).canonical_set() == {(-1, 0, 0)}


def _inf_program(amat, b, k_tags, c_tags):
    """inf {<1, y> : A y - b in K, y in C} over one real factor per tag."""
    amat = np.asarray(amat, dtype=float)
    dom = space(*(real(1) for _ in c_tags))
    cod = space(*(real(1) for _ in k_tags))
    return program.ConicProgram(
        A=LinearMap(dom, cod, amat), b=np.asarray(b, dtype=float),
        c=np.ones(amat.shape[1]), K=cones.cone(cod, *k_tags),
        C=cones.cone(dom, *c_tags), sense="inf")


def test_project_reads_an_inf_program_as_its_own_set():
    n2 = [cones.NONNEG] * 2
    # inf {y >= 0, y - (1, 1) >= 0}: the set is y >= (1, 1), not the dual's
    # [0, 1]^2, and its projection onto y1 is y1 >= 1.  The projection cone
    # forces u2 = w2 = 0 and so meets no interior point of K* x C*, which a
    # polyhedral projection does not need
    p = _inf_program(np.eye(2), [1, 1], n2, n2)
    sub = Subspace(p.A.domain, np.eye(2)[:, :1])
    assert projection.project(p, sub).canonical_set() == {(-1, 0, -1)}
    assert solver.strict_feasibility(projection.projection_cone(p, sub)).verdict == "No"
    # the same set with y2 free: its projection onto y1 is y1 >= 1
    free2 = [cones.NONNEG, cones.FREE]
    p = _inf_program(np.eye(2), [1, 1], free2, free2)
    assert projection.project(p, sub).canonical_set() == {(-1, 0, -1)}
    # and with 1 <= y2 <= 3 (A not square) the projection is y1 >= 1 too
    p = _inf_program([[1, 0], [0, 1], [0, -1]], [1, 1, -3], [cones.NONNEG] * 3, n2)
    assert projection.project(p, sub).canonical_set() == {(-1, 0, -1)}


_POLY_TAG = st.sampled_from([cones.NONNEG, cones.NONNEG, cones.ZERO, cones.FREE])


@st.composite
def _polyhedral_program(draw):
    """A program of either sense with integer data in -2..2, one or two
    Nonneg/Zero/Free factors of size 1-2 on each side, and a coordinate
    subspace of dimension 1..n."""
    def factors():
        sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        return space(*(real(s) for s in sizes)), [draw(_POLY_TAG) for _ in sizes]

    (dom, c_tags), (cod, k_tags) = factors(), factors()
    n, m = dom.dim, cod.dim
    entry = st.integers(-2, 2)
    amat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entry, min_size=m, max_size=m))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.array(amat, dtype=float)), b=np.array(b, dtype=float),
        c=np.ones(n), K=cones.cone(cod, *k_tags), C=cones.cone(dom, *c_tags),
        sense=draw(st.sampled_from(["sup", "inf"])))
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return p, Subspace(dom, np.eye(n)[:, sorted(keep)])


def _lp_contains(inner_rows, outer_rows) -> bool:
    """Every row of `outer_rows` holds on the nonempty set of `inner_rows`,
    each the (normals, offsets) of N x <= d, by HiGHS."""
    (ni, di), (no, do) = inner_rows, outer_rows
    for normal, off in zip(no, do):
        res = linprog(-normal, A_ub=ni, b_ub=di, bounds=[(None, None)] * len(normal),
                      method="highs")
        assert res.status in (0, 3), res.message
        if res.status == 3 or -res.fun > off + 1e-7 * (1 + abs(off)):
            return False
    return True


@PROPERTY
@given(_polyhedral_program())
def test_exact_projection_matches_fm_on_polyhedral_programs(data):
    # no hypothesis on the projection cone: its rays give the projection of
    # every polyhedral set, empty or not, as Fourier-Motzkin does.  FM shares
    # `_remove_redundant`, whose form is canonical, so equal sets must give
    # equal rows; the sets are compared by LP as well, which does not rest on it
    p, sub = data
    h = projection.project(p, sub)
    assert h.exact
    aub, bub, aeq, beq = polyhedral_rows(program.sup_form(p))
    n = p.A.domain.dim
    kept = np.flatnonzero(sub.basis.any(axis=1))
    fm = projection.fourier_motzkin(np.vstack([aub, aeq, -aeq]),
                                    np.concatenate([bub, beq, -beq]),
                                    [j for j in range(n) if j not in kept])
    sets = [(h.normals, h.offsets), (fm.normals, fm.offsets)]
    empty = [linprog(np.zeros(n), A_ub=a, b_ub=b, bounds=[(None, None)] * n,
                     method="highs").status == 2 for a, b in sets]
    assert empty[0] == empty[1]
    if not empty[0]:
        assert _lp_contains(*sets) and _lp_contains(*sets[::-1])
    assert h.canonical_set() == fm.canonical_set()


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

    def no_solve(*args, **kwargs):
        raise AssertionError("solver.solve called by exact projection")

    monkeypatch.setattr(projection, "linprog", no_lp)
    # nor is the solver: the polyhedral path asks no precondition
    monkeypatch.setattr(solver, "solve", no_solve)
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
