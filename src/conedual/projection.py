"""Projection of conic feasible sets onto subspaces via the projection cone.

The projection cone for the set X = {x in C : b - A x in K} and a subspace L
is {(y, w) in K* x C* : A* y - w in L}.  Each of its rays (y, w) yields a
valid inequality <A* y - w, x> <= <b, y> on the projection of X onto L, and
for polyhedral cones the extreme rays give the full H-representation.

Ray enumeration uses the double description method in exact integer
arithmetic: rational data are scaled to integers by positive factors, rays
are kept as coprime integer vectors, and the tight constraints of each ray
as a bitmask.  Two rays are adjacent when no third ray is tight wherever
both are; on the minimal ray set the method maintains, this combinatorial
test is equivalent to the rank test (Fukuda and Prodon, "Double description
method revisited", 1996).

The candidate rows, one per ray, are mostly redundant.  Redundancy is
decided by the same method, without LP: one double description of the
homogenised cone {(x, t) : beta t - <a, x> >= 0 per row, t >= 0} shows
whether the set is empty (no ray with t > 0; the result is then the single
infeasible marker 0 <= -1) and whether it is full-dimensional (its
generators span R^(n+1)).  On a full-dimensional set a row is kept exactly
when it defines a facet: the generators tight at it have rank n.  On a
lower-dimensional set the rows are taken in order, and a row is dropped
when the cone of the rows still kept without it satisfies it, which takes
one further double description per row.  A Fourier-Motzkin eliminator,
which removes redundant rows the same way, is provided as an oracle for
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np
# not called here; perfbench/layers.py probes this name in traced runs
from scipy.optimize import linprog  # noqa: F401

from . import cones, program, solver
from .spaces import LinearMap, Subspace, inner, product_space, real, space

SAMPLES = 64  # seeded objectives of the outer approximation for non-polyhedral cones


class NotPolyhedral(Exception):
    pass


class PreconditionFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def _to_frac_matrix(mat) -> list[list[Fraction]]:
    return [[Fraction(x).limit_denominator(10**12) if isinstance(x, float)
             else Fraction(x) for x in row] for row in mat]


def _frac_kernel(rows: list[list[Fraction]], d: int) -> list[list[Fraction]]:
    """Basis of the null space of the row system, exact Gaussian elimination."""
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(d):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * d
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def _dot(a, b):
    return sum(map(mul, a, b))


def _integers(rows) -> list[list[int]]:
    """The rational rows times one positive integer clearing every denominator."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _coprime(v: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _primitive(v) -> tuple:
    """Scale a rational vector by a positive factor to coprime integers."""
    return tuple(_coprime(_integers([v])[0]))


# ---------------------------------------------------------------------------
# double description on {z : B z >= 0}


def double_description(ineqs: list[list[Fraction]], dim: int
                       ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Generators (lineality basis, extreme rays) of {z : B z >= 0}.

    Rows and generators are rational at the boundary; inside, each row is
    scaled to integers and every generator is a coprime integer vector, so
    each update below is a positive multiple of the rational one.
    """
    lin = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays: list[list[int]] = []
    tight: list[int] = []  # bit i set: processed row i vanishes at the ray
    for idx, a in enumerate(_integers([row])[0] for row in ineqs):
        bit = 1 << idx
        vals_lin = [_dot(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(vals_lin) if v != 0), None)
        if j0 is not None:
            l0, v0 = lin[j0], vals_lin[j0]
            if v0 < 0:
                l0, v0 = [-x for x in l0], -v0
            lin = [_coprime([v0 * x - vj * y for x, y in zip(l, l0)])
                   for j, (l, vj) in enumerate(zip(lin, vals_lin)) if j != j0]
            rays = [_coprime([v0 * x - _dot(a, r) * y for x, y in zip(r, l0)])
                    for r in rays]
            # the promoted lineality vector is tight at every earlier
            # constraint, since processed rows vanish on the lineality
            tight = [t | bit for t in tight] + [bit - 1]
            rays.append(l0)
            continue
        vals = [_dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        keep_rays = [rays[i] for i in pos + zero]
        keep_tight = [tight[i] for i in pos] + [tight[i] | bit for i in zero]
        # adjacency: at least pointed_dim - 2 common tight rows, and no third
        # ray tight at all of them
        need = dim - len(lin) - 2
        for ip in pos:
            for im in neg:
                common = tight[ip] & tight[im]
                if common.bit_count() < need or \
                        sum(common & t == common for t in tight) > 2:
                    continue
                vp, vm = vals[ip], vals[im]
                keep_rays.append(_coprime([vp * x - vm * y
                                           for y, x in zip(rays[ip], rays[im])]))
                keep_tight.append(common | bit)
        rays, tight = keep_rays, keep_tight
    # coprime rays are equal exactly when positive multiples of each other
    return ([list(map(Fraction, l)) for l in lin],
            [list(map(Fraction, k)) for k in dict.fromkeys(map(tuple, rays)) if any(k)])


# ---------------------------------------------------------------------------
# projection cone


def _cone_system(ps: program.ConicProgram, sub: Subspace) -> program.System:
    """The projection cone {(y, w) in K* x C* : A* y - w in L} as a system."""
    n = ps.A.domain.dim
    d = ps.A.codomain.dim + n
    pc = program.System(
        LinearMap(space(real(d)), product_space(ps.K.space, ps.C.space), np.eye(d)),
        np.zeros(d), cones.cone_product(cones.dual(ps.K), cones.dual(ps.C)))
    comp = sub.complement()
    if comp.dim > 0:
        pc = pc.stack(comp.basis.T @ np.hstack([ps.A.matrix.T, -np.eye(n)]),
                      np.zeros(comp.dim), cones.ZERO)
    return pc


def projection_cone(p: program.ConicProgram, sub: Subspace) -> program.System:
    """{(y, w) in K* x C* : A* y - w in L}; polyhedral cones only."""
    ps = program.as_sup(p)
    if not ps.is_fully_polyhedral():
        raise NotPolyhedral("extreme-ray enumeration needs Zero/Free/Nonneg factors")
    return _cone_system(ps, sub)


def extreme_rays(pc: program.System) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(lineality basis, extreme rays) of the projection cone, as floats."""
    lin_z, rays_z = _exact_lift(pc)
    lin = [np.array([float(x) for x in g]) for g in lin_z]
    rays = [np.array([float(x) for x in g]) for g in rays_z]
    for r in rays:
        if not pc.member(r):
            raise ValueError("enumerated ray violates the cone system")
    return lin, rays


def _exact_rows(pc: program.System, tag: str) -> list[list[Fraction]]:
    """Rational rows of the factors of one kind: Zero rows vanish on the cone,
    Nonneg rows are nonnegative on it."""
    return [row for t, s in zip(pc.cone.tags, pc.cone.space.slices()) if t == tag
            for row in _to_frac_matrix(pc.gmap.matrix[s])]


def _exact_lift(pc: program.System):
    """Integer generators of the homogeneous polyhedral system (lineality, rays)."""
    null = _frac_kernel(_exact_rows(pc, cones.ZERO), pc.gmap.domain.dim)
    if not null:
        return [], []
    # one common scale for the whole basis keeps the null-space coordinates
    # of every generator, up to a positive factor
    null = _integers(null)
    bn = [[_dot(row, nv) for nv in null]
          for row in _integers(_exact_rows(pc, cones.NONNEG))]
    lin_z, rays_z = double_description(bn, len(null))
    cols = list(zip(*null))

    def lift(z):
        z = [int(x) for x in z]
        return _coprime([_dot(z, col) for col in cols])

    return [lift(z) for z in lin_z], [lift(z) for z in rays_z]


# ---------------------------------------------------------------------------
# H-representations


@dataclass
class HRepresentation:
    normals: np.ndarray  # rows, in the ambient coordinates of the subspace
    offsets: np.ndarray
    basis: np.ndarray  # orthonormal columns spanning L
    exact: bool
    frac_rows: list[tuple] = field(default_factory=list)  # canonical exact rows

    def contains(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        x = np.asarray(x, dtype=float)
        if self.normals.size == 0:
            return True
        return bool(np.all(self.normals @ x <= self.offsets +
                           tol * (1 + np.linalg.norm(x))))

    def canonical_set(self) -> frozenset:
        return frozenset(self.frac_rows)

    def to_json(self) -> dict:
        return {"normals": self.normals.tolist(),
                "offsets": self.offsets.tolist(),
                "basis_of_L": self.basis.tolist(),
                "exact": self.exact}


def _canonical_rows(rows: list[tuple[list[Fraction], Fraction]]) -> list[tuple]:
    out = set()
    for normal, off in rows:
        prim = _primitive(list(normal) + [off])
        if any(prim[:-1]):
            out.add(prim)
        elif prim[-1] < 0:
            out.add(prim)  # infeasible marker 0 <= negative
    return sorted(out)


def _float_rows(rows: list[tuple], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(normals, offsets) in floats of exact integer rows, each divided by the
    largest absolute entry of its normal (of its offset for the infeasible
    marker), so that integers beyond the float range convert.  Integer true
    division rounds the exact quotient once."""
    scaled = []
    for row in rows:
        top = max(map(abs, row[:-1])) or abs(row[-1])
        scaled.append([x / top for x in row])
    mat = np.array(scaled, dtype=float).reshape(len(rows), dim + 1)
    return mat[:, :-1], mat[:, -1]


def _rank(vecs: list[list[int]]) -> int:
    """Rank of integer vectors, by fraction-free (Bareiss) elimination: after
    each step every entry is a minor of the input, so the divisions are exact."""
    mat = [list(v) for v in vecs]
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[col]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(p * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = p
        rank += 1
    return rank


def _homogenised(rows: list[tuple], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer (lineality basis, extreme rays) of the homogenised cone
    {(x, t) : beta t - <a, x> >= 0 for every row (a, beta), t >= 0}."""
    ineqs = [[0] * n + [1]] + [[-x for x in row[:-1]] + [row[-1]] for row in rows]
    lin, rays = double_description(ineqs, n + 1)
    return [list(map(int, g)) for g in lin], [list(map(int, g)) for g in rays]


def _slack(row: tuple, gen: list[int]) -> int:
    """beta t - <a, x> of the row (a, beta) at the generator (x, t)."""
    return row[-1] * gen[-1] - _dot(row[:-1], gen[:-1])


def _remove_redundant(rows: list[tuple]) -> list[tuple]:
    """Drop the rows implied by the rest, exactly and without LP.

    The rows are coprime integer tuples (a, beta) of a x <= beta.  One double
    description of the homogenised cone (`_homogenised`) decides everything:

    - no ray has t > 0: the set is empty, and the result is the single
      infeasible marker (0, ..., 0, -1);
    - the generators span all n + 1 dimensions (a full-dimensional set):
      a row is kept exactly when it defines a facet, that is, when the
      lineality basis and the rays tight at it have rank n;
    - otherwise (a lower-dimensional set, where a facet has no unique
      defining row): the rows are taken in order, and a row is dropped when
      it holds on the cone of the rows still kept without it, i.e. has slack
      0 at each of that cone's lineality vectors and slack >= 0 at each of
      its rays.  This is the sequential rule of a redundancy LP per row,
      decided by one further double description per row.
    """
    if not rows:
        return []
    n = len(rows[0]) - 1
    lin, rays = _homogenised(rows, n)
    if not any(r[-1] > 0 for r in rays):
        return [(0,) * n + (-1,)]
    if _rank(lin + rays) == n + 1:
        return [row for row in rows
                if _rank(lin + [r for r in rays if _slack(row, r) == 0]) == n]
    keep = list(range(len(rows)))
    for i in range(len(rows)):
        rest = [j for j in keep if j != i]
        lin_i, rays_i = _homogenised([rows[j] for j in rest], n)
        if all(_slack(rows[i], g) == 0 for g in lin_i) and \
                all(_slack(rows[i], r) >= 0 for r in rays_i):
            keep = rest
    return [rows[j] for j in keep]


def precondition(p: program.ConicProgram, sub: Subspace, **kw) -> solver.Verdict:
    """Strict feasibility of the projection cone system (hypothesis of the
    extreme-ray description)."""
    ps = program.as_sup(p)
    return solver.strict_feasibility(_cone_system(ps, sub), **kw)


def project(p: program.ConicProgram, sub: Subspace) -> HRepresentation:
    """H-representation of the projection of the feasible set onto `sub`.

    Exact (double description) for polyhedral cones; otherwise a sampled
    outer approximation flagged exact=False.
    """
    ps = program.as_sup(p)
    pre = precondition(ps, sub)
    if pre.verdict == "No":
        raise PreconditionFailed(pre.detail)
    if ps.is_fully_polyhedral():
        return _project_polyhedral(ps, sub)
    return _project_sampled(ps, sub)


def _project_polyhedral(ps, sub) -> HRepresentation:
    lin, rays = _exact_lift(projection_cone(ps, sub))
    n = ps.A.domain.dim
    # s [A* | -I] and s (b, 0) for one positive integer s: the row of a
    # generator (y, w) is s times (A* y - w, <b, y>)
    *amat, bvec = _integers(_to_frac_matrix(np.vstack([
        np.hstack([ps.A.matrix.T, -np.eye(n)]), np.append(ps.b, np.zeros(n))])))
    rows = [_ray_to_row(gen, amat, bvec) for gen in rays]
    for gen in lin:
        rows.append(_ray_to_row(gen, amat, bvec))
        rows.append(_ray_to_row([-x for x in gen], amat, bvec))
    canon = _canonical_rows(rows)
    canon = _remove_redundant(canon)
    normals, offsets = _float_rows(canon, n)
    return HRepresentation(normals, offsets, sub.basis, exact=True,
                           frac_rows=list(canon))


def _ray_to_row(gen, amat, bvec):
    return [_dot(row, gen) for row in amat], _dot(bvec, gen)


def _project_sampled(ps, sub) -> HRepresentation:
    m, n = ps.A.codomain.dim, ps.A.domain.dim
    d = m + n
    rng = np.random.default_rng([0, 104])
    # normalized by <1, u> <= 1, adequate after projection
    normalized = _cone_system(ps, sub).stack(-np.ones((1, d)), [1.0], cones.NONNEG)
    normals, offsets = [], []
    for _ in range(SAMPLES):
        obj = rng.standard_normal(d)
        vr = solver.conic_lp_value(normalized, obj, max_iter=4000)
        u = vr.witness  # the maximiser, or the improving ray
        if u is None or np.linalg.norm(u) < 1e-6:
            continue
        u = u / np.linalg.norm(u)
        y, w = u[:m], u[m:]
        if cones.margin(cones.dual(ps.K), y) < -1e-6 or \
                cones.margin(cones.dual(ps.C), w) < -1e-6:
            continue
        normal = ps.A.matrix.T @ y - w
        normals.append(normal)
        offsets.append(inner(ps.b, y))
    if normals:
        arr = np.array(normals)
        offs_a = np.array(offsets)
        scale = np.linalg.norm(arr, axis=1)
        ok = scale > 1e-9
        arr, offs_a, scale = arr[ok], offs_a[ok], scale[ok]
        arr = arr / scale[:, None]
        offs_a = offs_a / scale
        uniq = {}
        for a, b0 in zip(arr, offs_a):
            uniq[tuple(np.round(a, 9)) + (round(b0, 9),)] = (a, b0)
        arr = np.array([v[0] for v in uniq.values()])
        offs_a = np.array([v[1] for v in uniq.values()])
    else:
        arr = np.zeros((0, n))
        offs_a = np.zeros(0)
    return HRepresentation(arr, offs_a, sub.basis, exact=False)


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle


def fourier_motzkin(normals, offsets, eliminate: list[int]) -> HRepresentation:
    """Exact elimination of the listed variables from {x : N x <= d}.

    Variables are ambient indices; the result keeps the ambient dimension
    with zero coefficients on eliminated variables.  Test oracle; capped at
    8 variables.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.shape[1] > 8:
        raise ValueError("oracle capped at 8 variables")
    rows = [(list(map(lambda x: Fraction(x).limit_denominator(10**12), a)),
             Fraction(b).limit_denominator(10**12))
            for a, b in zip(normals, np.asarray(offsets, dtype=float))]
    for var in eliminate:
        pos = [(a, b) for a, b in rows if a[var] > 0]
        neg = [(a, b) for a, b in rows if a[var] < 0]
        rest = [(a, b) for a, b in rows if a[var] == 0]
        new = list(rest)
        for ap, bp in pos:
            for an, bn in neg:
                coef_p, coef_n = ap[var], -an[var]
                a = [coef_n * x + coef_p * y for x, y in zip(ap, an)]
                b = coef_n * bp + coef_p * bn
                a[var] = Fraction(0)
                new.append((a, b))
        canon = _canonical_rows(new)
        canon = _remove_redundant(canon)
        rows = [([Fraction(x) for x in r[:-1]], Fraction(r[-1])) for r in canon]
    canon = _canonical_rows(rows)
    canon = _remove_redundant(canon)
    dim = normals.shape[1]
    out_n, out_b = _float_rows(canon, dim)
    keep = [j for j in range(dim) if j not in eliminate]
    basis = np.eye(dim)[:, keep]
    return HRepresentation(out_n, out_b, basis, exact=True,
                           frac_rows=list(canon))
