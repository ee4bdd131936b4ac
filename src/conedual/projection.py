"""Projection of conic feasible sets onto subspaces via the projection cone.

The projection cone for the set X = {x in C : b - A x in K} and a subspace L
is {(y, w) in K* x C* : A* y - w in L}.  Each of its rays (y, w) yields a
valid inequality <A* y - w, x> <= <b, y> on the projection of X onto L.  An
inf program's set {y : A y - b in K, y in C} is read with -A and -b.
`projection_cone` builds that system for `precondition`, for the exact
enumeration and for the sampled outer approximation alike.  For general
cones the rays describe the projection when the cone meets the relative
interior of K* x C*, which the solver decides on the sampled path.  For
polyhedral cones Farkas' lemma needs no such hypothesis, and the extreme
rays and lineality always give the full H-representation (Balas 2005).

The exact path runs in integers from the float boundary on.  Floats enter it
by one rule, `_to_frac_matrix` (the nearest fraction of denominator at most
10**12), and each matrix is then scaled to integers by one positive factor.

The generators come from one double description of {z : E z = 0, B z >= 0},
the projection cone's Zero and Nonneg rows; the equality rows are eliminated
by its lineality update.  Rays are kept as coprime integer vectors, and the
tight constraints of each ray as a bitmask.  Two rays are adjacent when no
third ray is tight wherever both are; on the minimal ray set the method
maintains, this combinatorial test is equivalent to the rank test (Fukuda
and Prodon, "Double description method revisited", 1996).

The candidate rows, one per generator, are mostly redundant.
`_remove_redundant` maps any integer rows to one canonical irredundant form,
the implicit equalities in reduced echelon form and one row per facet, read
off one more double description without LP or rank test, so equal sets give
equal rows.  A Fourier-Motzkin eliminator, which ends each step with it, is
provided as an oracle for tests.
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


class PreconditionFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra in integers


def _to_frac_matrix(mat) -> list[list[int | Fraction]]:
    """The exact rationals of a float matrix: an integral entry is its int,
    any other the nearest fraction of denominator at most 10**12.  An int
    carries the numerator and denominator `_integers` reads."""
    return [[int(x) if x.is_integer() else Fraction(x).limit_denominator(10**12)
             for x in row] for row in np.asarray(mat, dtype=float).tolist()]


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


# ---------------------------------------------------------------------------
# double description on {z : E z = 0, B z >= 0}


def double_description(ineqs, dim: int, eqs=()) -> tuple[list[list[int]], list[list[int]],
                                                          list[int]]:
    """Generators (lineality basis, extreme rays) of {z : E z = 0, B z >= 0},
    and for each ray the bitmask of the rows of B tight at it (bit i: row i
    vanishes).

    The rows may be rational; each is scaled to integers, and every generator
    is a coprime integer vector, so each update below is a positive multiple
    of the rational one.  The rows of E come first and need only the
    lineality update, as no ray exists yet: one that meets the lineality
    removes its pivot vector from the cone, where a row of B keeps it as a
    ray, so the cone's dimension drops by one.
    """
    lin = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays: list[list[int]] = []
    tight: list[int] = []  # bit i set: processed row i of B vanishes at the ray
    span = dim  # the dimension of {z : E z = 0}
    # rows of E take the negative indices
    for idx, a in enumerate((_integers([row])[0] for row in [*eqs, *ineqs]), -len(eqs)):
        vals_lin = [_dot(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(vals_lin) if v != 0), None)
        if j0 is not None:
            l0, v0 = lin[j0], vals_lin[j0]
            if v0 < 0:
                l0, v0 = [-x for x in l0], -v0
            # a generator the row vanishes at is coprime, so it is its own update
            lin = [_coprime([v0 * x - vj * y for x, y in zip(l, l0)]) if vj else l
                   for j, (l, vj) in enumerate(zip(lin, vals_lin)) if j != j0]
            rays = [_coprime([v0 * x - vr * y for x, y in zip(r, l0)]) if vr else r
                    for r, vr in ((r, _dot(a, r)) for r in rays)]
            if idx < 0:
                span -= 1
                continue
            bit = 1 << idx
            # the promoted lineality vector is tight at every earlier
            # constraint, since processed rows vanish on the lineality
            tight = [t | bit for t in tight] + [bit - 1]
            rays.append(l0)
            continue
        if idx < 0:
            continue  # a row of E that vanishes on the lineality
        bit = 1 << idx
        vals = [_dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        keep_rays = [rays[i] for i in pos + zero]
        keep_tight = [tight[i] for i in pos] + [tight[i] | bit for i in zero]
        # adjacency: at least pointed_dim - 2 common tight rows, and no third
        # ray tight at all of them
        need = span - len(lin) - 2
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
    # coprime rays are equal exactly when positive multiples of each other,
    # and equal rays are tight at the same rows
    out = {tuple(r): t for r, t in zip(rays, tight) if any(r)}
    return lin, [list(k) for k in out], list(out.values())


# ---------------------------------------------------------------------------
# projection cone


def projection_cone(p: program.ConicProgram, sub: Subspace) -> program.System:
    """The projection cone {(y, w) in K* x C* : A* y - w in L} of the
    feasible set of p, written in sup form, as a system."""
    ps = program.sup_form(p)
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


def _exact_rows(pc: program.System, tag: str) -> list[list[int]]:
    """Integer rows of the factors of one kind, times one positive factor:
    Zero rows vanish on the cone, Nonneg rows are nonnegative on it."""
    return _integers([row for t, s in zip(pc.cone.tags, pc.cone.space.slices()) if t == tag
                      for row in _to_frac_matrix(pc.gmap.matrix[s])])


def _exact_lift(pc: program.System):
    """Integer generators (lineality, rays) of the homogeneous polyhedral
    system, by one double description of its Zero and Nonneg rows."""
    return double_description(_exact_rows(pc, cones.NONNEG), pc.gmap.domain.dim,
                              eqs=_exact_rows(pc, cones.ZERO))[:2]


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


def _pivot(row) -> int:
    return next(j for j, x in enumerate(row) if x)


def _reduce(row, basis):
    """The coprime integer row that is a positive multiple of row minus a
    combination of the echelon rows of basis, zero in each of their pivots."""
    for e in basis:
        p = _pivot(e)
        if row[p]:
            row = [e[p] * x - row[p] * y for x, y in zip(row, e)]
    return _coprime(row)


def _echelon(rows) -> list[list[int]]:
    """The reduced echelon form of consistent integer rows (a, beta) of
    a x = beta: coprime rows, each with a positive leading entry that is the
    only nonzero in its column.  It depends only on the rows' span."""
    basis: list[list[int]] = []
    for row in rows:
        row = _reduce(row, basis)
        if any(row):
            row = row if row[_pivot(row)] > 0 else [-x for x in row]
            basis = [_reduce(e, [row]) for e in basis] + [row]
    return basis


def _remove_redundant(rows) -> list[tuple]:
    """The canonical irredundant form of integer rows (a, beta) of
    a x <= beta, exactly and without LP.

    Rows are divided by their gcd, and rows 0 <= beta with beta >= 0 go; a
    coordinate no row uses is a line of the set.  One double description of
    the homogenised cone {(x, t) : beta t - <a, x> >= 0, t >= 0} decides the
    rest from its rays' tight-row masks (faces are ordered as their sets of
    rays; Fukuda and Prodon 1996):

    - no ray has t > 0: the set is empty, and the result is the single
      infeasible marker (0, ..., 0, -1);
    - the rows tight at every ray are the implicit equalities, emitted as
      the pairs e <= eps, -e <= -eps of their reduced echelon form;
    - each other row tight at some ray with t > 0, whose tight rays no other
      such row nor t >= 0 strictly contains, defines a facet, and is emitted
      reduced modulo the echelon rows.

    A nonempty polyhedron's implicit equalities and its facets' rows, modulo
    its affine hull, are unique (Schrijver 1986, section 8), so equal sets
    give equal rows.  The form is canonical, not the fewest rows: a hull of
    codimension k takes 2k rows where k + 1 would do.
    """
    if not rows:
        return []
    n = len(rows[0]) - 1
    rows = sorted({tuple(_coprime(row)) for row in rows if any(row[:-1]) or row[-1] < 0})
    used = [j for j in range(n) if any(row[j] for row in rows)]
    # bit 0 of a ray's mask is the row t >= 0, bit i + 1 is rows[i]
    _, rays, tight = double_description(
        [[0] * len(used) + [1]] + [[-row[j] for j in used] + [row[-1]] for row in rows],
        len(used) + 1)
    inner = sum(1 << k for k, r in enumerate(rays) if r[-1] > 0)
    if not inner:
        return [(0,) * n + (-1,)]
    # faces[i]: bit k set when ray k is tight at homogenised row i
    faces = [sum(1 << k for k, t in enumerate(tight) if t >> i & 1)
             for i in range(len(rows) + 1)]
    every = (1 << len(rays)) - 1
    eqs = _echelon([row for row, f in zip(rows, faces[1:]) if f == every])
    facets = [_reduce(row, eqs) for row, f in zip(rows, faces[1:])
              if f & inner and f != every and
              not any(g != f and g != every and f | g == g for g in faces)]
    return sorted({tuple(s * x for x in row) for row in eqs for s in (1, -1)} |
                  set(map(tuple, facets)))


def precondition(p: program.ConicProgram, sub: Subspace) -> solver.Verdict:
    """Strict feasibility of the projection cone system (hypothesis of the
    extreme-ray description), by the solver; `project` asks it only of
    non-polyhedral cones."""
    return solver.strict_feasibility(projection_cone(p, sub))


def project(p: program.ConicProgram, sub: Subspace) -> HRepresentation:
    """H-representation of the projection of the feasible set of p onto `sub`.

    Exact (double description) for polyhedral cones, with no hypothesis;
    otherwise a sampled outer approximation flagged exact=False, which
    raises PreconditionFailed when the projection cone meets no relative
    interior point of K* x C*.
    """
    ps = program.sup_form(p)
    if ps.is_fully_polyhedral():
        return _project_polyhedral(ps, sub)
    pre = precondition(ps, sub)
    if pre.verdict == "No":
        raise PreconditionFailed(pre.detail)
    return _project_sampled(ps, sub)


def _project_polyhedral(ps, sub) -> HRepresentation:
    pc = projection_cone(ps, sub)
    lin, rays = _exact_lift(pc)
    n = ps.A.domain.dim
    # s [A* | -I] and s (b, 0) for one positive integer s: the row of a
    # generator (y, w) is s times (A* y - w, <b, y>)
    mat = _integers(_to_frac_matrix(np.vstack([
        np.hstack([ps.A.matrix.T, -np.eye(n)]), np.append(ps.b, np.zeros(n))])))
    gens = rays + lin + [[-x for x in g] for g in lin]
    return _exact_hrep([[_dot(row, g) for row in mat] for g in gens], sub.basis)


def _exact_hrep(rows, basis: np.ndarray) -> HRepresentation:
    """The H-representation of the integer rows (a, beta) of a x <= beta:
    canonical, without redundant rows, and in floats."""
    canon = _remove_redundant(rows)
    normals, offsets = _float_rows(canon, basis.shape[0])
    return HRepresentation(normals, offsets, basis, exact=True, frac_rows=canon)


def _project_sampled(ps, sub) -> HRepresentation:
    m, n = ps.A.codomain.dim, ps.A.domain.dim
    d = m + n
    rng = np.random.default_rng([0, 104])
    # normalized by <1, u> <= 1, adequate after projection
    normalized = projection_cone(ps, sub).stack(-np.ones((1, d)), [1.0], cones.NONNEG)
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
    rows = _integers(_to_frac_matrix(
        np.column_stack([normals, np.asarray(offsets, dtype=float)])))
    for var in eliminate:
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        rows = _remove_redundant([r for r in rows if r[var] == 0] +
                                 [[-rn[var] * x + rp[var] * y for x, y in zip(rp, rn)]
                                  for rp in pos for rn in neg])
    return _exact_hrep(rows, np.delete(np.eye(normals.shape[1]), eliminate, axis=1))
