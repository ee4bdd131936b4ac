"""Projection of conic feasible sets onto subspaces via the projection cone.

The projection cone for the set X = {x in C : b - A x in K} and a subspace L
is {(y, w) in K* x C* : A* y - w in L}.  Each of its rays (y, w) yields a
valid inequality <A* y - w, x> <= <b, y> on the projection of X onto L, and
for polyhedral cones the extreme rays give the full H-representation.

Ray enumeration uses the double description method in exact rational
arithmetic; a Fourier-Motzkin eliminator is provided as an independent
oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from . import cones, program, solver
from .spaces import LinearMap, Subspace, inner, product_space, real, space


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


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _primitive(v: list[Fraction]) -> tuple:
    """Scale to coprime integers with a canonical positive leading sign."""
    from math import gcd
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# double description on {z : B z >= 0}


def _frac_rank(rows) -> int:
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


def double_description(ineqs: list[list[Fraction]], dim: int
                       ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Generators (lineality basis, extreme rays) of {z : B z >= 0}."""
    lin = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rays: list[list[Fraction]] = []
    tight: list[set[int]] = []
    for idx, a in enumerate(ineqs):
        vals_lin = [_dot(a, l) for l in lin]
        if any(v != 0 for v in vals_lin):
            j0 = next(j for j, v in enumerate(vals_lin) if v != 0)
            l0, v0 = lin[j0], vals_lin[j0]
            if v0 < 0:
                l0 = [-x for x in l0]
                v0 = -v0
            new_lin = []
            for j, l in enumerate(lin):
                if j == j0:
                    continue
                f = vals_lin[j] / v0
                new_lin.append([x - f * y for x, y in zip(l, l0)])
            lin = new_lin
            new_rays = []
            new_tight = []
            for r, t in zip(rays, tight):
                f = _dot(a, r) / v0
                new_rays.append([x - f * y for x, y in zip(r, l0)])
                new_tight.append(t | {idx})
            l0 = [x / v0 for x in l0]
            new_rays.append(l0)
            # the promoted lineality vector is tight at every earlier
            # constraint, since processed rows vanish on the lineality
            new_tight.append(set(range(idx)))
            rays, tight = new_rays, new_tight
            continue
        vals = [_dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        keep_rays = [rays[i] for i in pos + zero]
        keep_tight = [tight[i] | ({idx} if i in zero else set())
                      for i in pos + zero]
        # adjacency: the constraints tight at both rays must cut the pointed
        # part down to a two-dimensional face
        pointed_dim = dim - len(lin)
        for ip in pos:
            for im in neg:
                common = tight[ip] & tight[im]
                rank = _frac_rank([ineqs[i] for i in sorted(common)])
                if rank != pointed_dim - 2:
                    continue
                p, m = rays[ip], rays[im]
                vp, vm = vals[ip], vals[im]
                comb = [vp * x - vm * y for y, x in zip(p, m)]
                keep_rays.append(comb)
                keep_tight.append((tight[ip] & tight[im]) | {idx})
        rays, tight = keep_rays, keep_tight
    # dedupe rays up to positive scaling
    seen = {}
    for r in rays:
        seen.setdefault(_primitive(r), r)
    return lin, [list(map(Fraction, k)) for k in seen.keys() if any(k)]


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
    ps = p if p.sense == "sup" else program.dualize(p)
    if not ps.is_fully_polyhedral():
        raise NotPolyhedral("extreme-ray enumeration needs Zero/Free/Nonneg factors")
    return _cone_system(ps, sub)


def extreme_rays(pc: program.System) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(lineality basis, extreme rays) of the projection cone, as floats."""
    lin_f, rays_f = _exact_lift(pc)
    lin = [np.array([float(x) for x in g]) for g in lin_f]
    rays = [np.array([float(x) for x in g]) for g in rays_f]
    rays = [r for r in rays if np.linalg.norm(r) > 0]
    for r in rays:
        assert pc.member(r), "enumerated ray violates the cone system"
    return lin, rays


def _exact_rows(pc: program.System, tag: str) -> list[list[Fraction]]:
    """Rational rows of the factors of one kind: Zero rows vanish on the cone,
    Nonneg rows are nonnegative on it."""
    return [row for t, s in zip(pc.cone.tags, pc.cone.space.slices()) if t == tag
            for row in _to_frac_matrix(pc.gmap.matrix[s])]


def _exact_lift(pc: program.System):
    """Rational generators of the homogeneous polyhedral system (lineality, rays)."""
    d = pc.gmap.domain.dim
    eqs = _exact_rows(pc, cones.ZERO)
    null = _frac_kernel(eqs, d)
    if not null:
        return [], []
    bn = [[_dot(row, nv) for nv in null] for row in _exact_rows(pc, cones.NONNEG)]
    lin_z, rays_z = double_description(bn, len(null))

    def lift(z):
        return [sum(z[j] * null[j][i] for j in range(len(null))) for i in range(d)]

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


def _remove_redundant(rows: list[tuple]) -> list[tuple]:
    """Drop inequalities implied by the rest, by LP in floats."""
    keep = list(rows)
    i = 0
    while i < len(keep):
        a = np.array(keep[i][:-1], dtype=float)
        b = float(keep[i][-1])
        others = [r for j, r in enumerate(keep) if j != i]
        if not others:
            i += 1
            continue
        aub = np.array([r[:-1] for r in others], dtype=float)
        bub = np.array([float(r[-1]) for r in others])
        res = linprog(-a, A_ub=aub, b_ub=bub, bounds=[(None, None)] * len(a),
                      method="highs")
        if res.status == 0 and -res.fun <= b + 1e-9:
            keep.pop(i)
        else:
            i += 1
    return keep


def precondition(p: program.ConicProgram, sub: Subspace, **kw) -> solver.MarginResult:
    """Strict feasibility of the projection cone system (hypothesis of the
    extreme-ray description)."""
    ps = p if p.sense == "sup" else program.dualize(p)
    return solver.strict_feasibility(_cone_system(ps, sub), **kw)


def project(p: program.ConicProgram, sub: Subspace, samples: int = 64,
            seed: int = 0) -> HRepresentation:
    """H-representation of the projection of the feasible set onto `sub`.

    Exact (double description) for polyhedral cones; otherwise a sampled
    outer approximation flagged exact=False.
    """
    ps = p if p.sense == "sup" else program.dualize(p)
    pre = precondition(ps, sub)
    if pre.verdict == "No":
        raise PreconditionFailed(pre.detail)
    if ps.is_fully_polyhedral():
        return _project_polyhedral(ps, sub)
    return _project_sampled(ps, sub, samples, seed)


def _project_polyhedral(ps, sub) -> HRepresentation:
    pc = projection_cone(ps, sub)
    lin, rays = _exact_lift(pc)
    m = ps.A.codomain.dim
    at = _to_frac_matrix(ps.A.matrix.T)
    bfr = [Fraction(x).limit_denominator(10**12) for x in ps.b]
    rows = []
    for gen in rays:
        rows.append(_ray_to_row(gen, at, bfr, m))
    for gen in lin:
        rows.append(_ray_to_row(gen, at, bfr, m))
        rows.append(_ray_to_row([-x for x in gen], at, bfr, m))
    canon = _canonical_rows(rows)
    canon = _remove_redundant(canon)
    if canon:
        normals = np.array([r[:-1] for r in canon], dtype=float)
        offsets = np.array([float(r[-1]) for r in canon])
    else:
        normals = np.zeros((0, ps.A.domain.dim))
        offsets = np.zeros(0)
    return HRepresentation(normals, offsets, sub.basis, exact=True,
                           frac_rows=list(canon))


def _ray_to_row(gen, at, bfr, m):
    y, w = gen[:m], gen[m:]
    normal = [_dot(row, y) - wi for row, wi in zip(at, w)]
    offset = _dot(bfr, y)
    return normal, offset


def _project_sampled(ps, sub, samples, seed) -> HRepresentation:
    m, n = ps.A.codomain.dim, ps.A.domain.dim
    d = m + n
    rng = np.random.default_rng([seed, 104])
    # normalized by <1, u> <= 1, adequate after projection
    normalized = _cone_system(ps, sub).stack(-np.ones((1, d)), [1.0], cones.NONNEG)
    normals, offsets = [], []
    for _ in range(samples):
        obj = rng.standard_normal(d)
        vr = solver.conic_lp_value(normalized, obj, max_iter=4000)
        u = vr.witness if vr.status == "Optimal" else vr.ray
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
    if canon:
        out_n = np.array([r[:-1] for r in canon], dtype=float)
        out_b = np.array([float(r[-1]) for r in canon])
    else:
        out_n = np.zeros((0, dim))
        out_b = np.zeros(0)
    keep = [j for j in range(dim) if j not in eliminate]
    basis = np.eye(dim)[:, keep]
    return HRepresentation(out_n, out_b, basis, exact=True,
                           frac_rows=list(canon))
