"""Independent oracles used to pin expected values in the tests.

The LP oracle enumerates basic solutions (vertex enumeration), which shares no
code with the operator-splitting solver under test.  scipy.optimize.linprog is
used only to classify unbounded/infeasible cases and as a second opinion.
The redundancy oracle is the float LP loop that exact projection replaced:
one HiGHS LP per row.  The subspace and pointedness helpers are the textbook
identities the cone and subspace tests check the package by.  The duality
helpers at the end state weak duality, complementary slackness and the dual
written with a basis of span C, and `extreme_rays` reads the projection
cone's exact generators as floats.  `plain_solve` is the solver's splitting
loop without Anderson extrapolation, which the accelerated loop replaced,
on the full embedding, with a row for every row of K x C, Free ones too.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import settings
from scipy.linalg import get_lapack_funcs, lu_factor
from scipy.optimize import linprog

from conedual import cones, program, projection, solver
from conedual.spaces import LinearMap, Subspace, inner

# one profile for every property test
PROPERTY = settings(max_examples=300, deadline=None, database=None)


def polyhedral_rows(p):
    """H-form of the sup program's feasible set: (A_ub, b_ub, A_eq, b_eq).

    Only zero/free/nonneg factors are supported.
    """
    assert p.sense == "sup"
    n = p.A.domain.dim
    aub, bub, aeq, beq = [], [], [], []
    row = 0
    for f, tag in zip(p.K.space.factors, p.K.tags):
        blk = slice(row, row + f.dim)
        if tag == cones.ZERO:
            aeq.append(p.A.matrix[blk])
            beq.append(p.b[blk])
        elif tag == cones.NONNEG:
            aub.append(p.A.matrix[blk])
            bub.append(p.b[blk])
        elif tag != cones.FREE:
            raise ValueError(f"unsupported K tag {tag}")
        row += f.dim
    col = 0
    eye = np.eye(n)
    for f, tag in zip(p.C.space.factors, p.C.tags):
        blk = slice(col, col + f.dim)
        if tag == cones.NONNEG:
            aub.append(-eye[blk])
            bub.append(np.zeros(f.dim))
        elif tag == cones.ZERO:
            aeq.append(eye[blk])
            beq.append(np.zeros(f.dim))
        elif tag != cones.FREE:
            raise ValueError(f"unsupported C tag {tag}")
        col += f.dim

    def cat(parts, width):
        if parts:
            return np.vstack(parts) if width else np.concatenate(parts)
        return np.zeros((0, n)) if width else np.zeros(0)

    return cat(aub, True), cat(bub, False), cat(aeq, True), cat(beq, False)


def enumerate_vertices(aub, bub, aeq, beq, tol=1e-8):
    """All vertices of {x : aub x <= bub, aeq x = beq} by basis enumeration."""
    n = aub.shape[1]
    n_eq = aeq.shape[0]
    verts = []
    need = n - np.linalg.matrix_rank(aeq) if n_eq else n
    for rows in itertools.combinations(range(aub.shape[0]), need):
        mat = np.vstack([aeq, aub[list(rows)]]) if n_eq else aub[list(rows)]
        rhs = np.concatenate([beq, bub[list(rows)]]) if n_eq else bub[list(rows)]
        if np.linalg.matrix_rank(mat) < n:
            continue
        x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.linalg.norm(mat @ x - rhs) > tol * (1 + np.linalg.norm(rhs)):
            continue
        feas_ub = aub.size == 0 or np.all(aub @ x <= bub + tol * (1 + abs(bub)))
        feas_eq = aeq.size == 0 or np.all(np.abs(aeq @ x - beq) <= tol * (1 + np.abs(beq)))
        if feas_ub and feas_eq:
            verts.append(x)
    return verts


def lp_value(p, tol=1e-8):
    """Oracle optimum of a polyhedral sup program.

    Returns (status, value): ("optimal", v), ("unbounded", inf) or
    ("infeasible", -inf).  Optimal values come from vertex enumeration and are
    cross-checked against linprog.
    """
    aub, bub, aeq, beq = polyhedral_rows(p)
    res = linprog(-p.c, A_ub=aub if aub.size else None,
                  b_ub=bub if aub.size else None,
                  A_eq=aeq if aeq.size else None,
                  b_eq=beq if aeq.size else None,
                  bounds=[(None, None)] * p.A.domain.dim, method="highs")
    if res.status == 2:
        return "infeasible", -np.inf
    if res.status == 3:
        return "unbounded", np.inf
    assert res.status == 0, f"linprog failed: {res.message}"
    value = -res.fun
    verts = enumerate_vertices(aub, bub, aeq, beq)
    if verts:
        vval = max(float(p.c @ v) for v in verts)
        # with a bounded optimum and a pointed feasible set the two must agree
        assert abs(vval - value) <= 1e-6 * (1 + abs(value)), (vval, value)
        value = vval
    return "optimal", value


def soc_row_value(c, n):
    """sup <c, x> over {x in SOC(n) : x_n = 1} has value c_n + ||c_1..n-1||."""
    c = np.asarray(c, dtype=float)
    assert c.shape == (n,)
    return float(c[-1] + np.linalg.norm(c[:-1]))


def lp_remove_redundant(rows: list[tuple]) -> list[tuple]:
    """Drop inequalities implied by the rest, by LP in floats."""
    if not rows:
        return []
    normals, offsets = projection._float_rows(rows, len(rows[0]) - 1)
    bounds = [(None, None)] * normals.shape[1]
    keep = np.ones(len(rows), dtype=bool)
    for i in range(len(rows)):
        keep[i] = False
        if not keep.any():
            keep[i] = True
            continue
        res = linprog(-normals[i], A_ub=normals[keep], b_ub=offsets[keep],
                      bounds=bounds, method="highs")
        keep[i] = not (res.status == 0 and -res.fun <= offsets[i] + 1e-9)
    return [r for r, k in zip(rows, keep) if k]


def is_pointed(c) -> bool:
    """A cone is pointed when its lineality space is {0}."""
    return cones.lineality(c).dim == 0


def subspace_equals(a: Subspace, b: Subspace, tol: float = 1e-8) -> bool:
    if a.dim != b.dim:
        return False
    # equal spans iff projection of one basis onto the other loses nothing
    diff = b.basis - a.basis @ (a.basis.T @ b.basis)
    return bool(np.linalg.norm(diff) <= tol * (1.0 + a.dim))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("subspaces live in different spaces")
    return Subspace.from_spanning(a.ambient, np.hstack([a.basis, b.basis]))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """The intersection of a and b, as (a-perp + b-perp)-perp."""
    return subspace_sum(a.complement(), b.complement()).complement()


def range_space(m) -> Subspace:
    """The span of the columns of the map's matrix."""
    return Subspace.from_spanning(m.codomain, m.matrix)


def dual_via_basis(p, basis):
    """Dual written with the basis map y -> sum_j <A v_j, y> v_j instead of A*.

    `basis` holds orthonormal columns spanning span(C).
    """
    if p.sense != "sup":
        raise ValueError("dual_via_basis applies to the sup orientation")
    basis = np.asarray(basis, dtype=float)
    gram = basis.T @ basis
    if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-9):
        raise ValueError("basis is not orthonormal")
    if not subspace_equals(cones.span(p.C), Subspace(p.A.domain, basis)):
        raise ValueError("basis does not span span(C)")
    av = p.A.matrix @ basis  # columns A v_j
    ab = basis @ av.T  # y -> sum_j <A v_j, y> v_j
    return program.ConicProgram(A=LinearMap(p.A.codomain, p.A.domain, ab), b=p.c, c=p.b,
                                K=cones.dual(p.C), C=cones.dual(p.K), sense="inf")


def weak_duality_check(p, x, y, tol=1e-6) -> float:
    """Gap <b,y> - <c,x> for a feasible pair of the sup program and its dual."""
    if p.sense != "sup":
        raise ValueError("weak duality is stated on the sup orientation")
    if not program.is_feasible_point(p, x, tol):
        raise ValueError("x is not primal feasible at the given tolerance")
    if not program.is_feasible_point(program.dualize(p), y, tol):
        raise ValueError("y is not dual feasible at the given tolerance")
    gap = inner(p.b, y) - inner(p.c, x)
    if gap < -tol * (1.0 + abs(inner(p.c, x))):
        raise AssertionError(f"weak duality violated: gap = {gap}")
    return float(gap)


def complementary_slackness(p, x, y) -> tuple[float, float]:
    """Residuals (<y, b - A x>, <x, A* y - c>); both vanish iff the gap does."""
    if p.sense != "sup":
        raise ValueError("stated on the sup orientation")
    return float(inner(y, p.b - p.A(x))), float(inner(x, p.A.adjoint()(y) - p.c))


def extreme_rays(pc):
    """(lineality basis, extreme rays) of the projection cone, as floats."""
    lin_z, rays_z = projection._exact_lift(pc)
    lin = [np.array([float(x) for x in g]) for g in lin_z]
    rays = [np.array([float(x) for x in g]) for g in rays_z]
    for r in rays:
        if not pc.member(r):
            raise ValueError("enumerated ray violates the cone system")
    return lin, rays


def plain_solve(p, tol_feas=solver.TOL_FEAS, tol_gap=solver.TOL_GAP,
                max_iter=solver.MAX_ITER):
    """`solver.solve` of a sup program by the unaccelerated splitting loop:
    relaxed alternating projections on the embedding's (u, v), every step
    plain, with a row for each of the m + n rows of K x C.  The reference
    the accelerated loop on the live rows is checked against."""
    assert p.sense == "sup"
    n = p.A.domain.dim
    m = p.A.codomain.dim
    fs = program.feasible_system(p)  # bt - At x in K x C
    at, bt, ct = -fs.gmap.matrix, fs.g, -p.c
    kc_dual = cones.dual(fs.cone)
    mm = m + n  # rows of the equality form
    nn = n + mm + 1

    q = np.zeros((nn, nn))
    q[:n, n:-1] = at.T
    q[:n, -1] = ct
    q[n:-1, :n] = -at
    q[n:-1, -1] = bt
    q[-1, :n] = -ct
    q[-1, n:-1] = -bt
    lu, piv = lu_factor(np.eye(nn) + q)
    getrs, = get_lapack_funcs(("getrs",), (lu,))
    project_kc = cones.projector(kc_dual)

    u = np.zeros(nn)
    u[-1] = 1.0
    v = np.zeros(nn)

    norm_b = np.linalg.norm(bt)
    norm_c = np.linalg.norm(ct)

    best = solver.SolveResult(status="Unknown")
    for k in range(1, max_iter + 1):
        u_old, v_old = u, v  # the update below makes new arrays
        rhs = u + v
        # the two checks lu_solve makes around getrs
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        u_tilde, info = getrs(lu, piv, rhs, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        t = solver.ALPHA * u_tilde + (1.0 - solver.ALPHA) * u
        u_new = t - v
        u_new[n:-1] = project_kc(u_new[n:-1])
        u_new[-1] = max(u_new[-1], 0.0)
        v = v - t + u_new
        u = u_new

        if k % solver.CHECK_EVERY and k != max_iter:
            continue
        tau = u[-1]
        if tau > 1e-12:
            xs = u[:n] / tau
            ys = u[n:-1] / tau
            ss = v[n:-1] / tau
            pres = np.linalg.norm(at @ xs + ss - bt) / (1.0 + norm_b)
            dres = np.linalg.norm(at.T @ ys + ct) / (1.0 + norm_c)
            pval = ct @ xs
            dval = -bt @ ys
            gap = abs(pval - dval) / (1.0 + abs(pval) + abs(dval))
            if pres <= tol_feas and dres <= tol_gap and gap <= tol_gap:
                return solver.SolveResult(
                    status="Optimal", x=xs, y=ys[:m],
                    pobj=float(-pval), dobj=float(bt @ ys),
                    gap=float(gap), pres=float(pres), dres=float(dres),
                    iterations=k,
                    certificate={"kind": "optimal", "w": ys[m:]})
            if np.isnan(best.gap) or gap < best.gap:
                best = solver.SolveResult(
                    status="Unknown", x=xs, y=ys[:m],
                    pobj=float(-pval), dobj=float(bt @ ys),
                    gap=float(gap), pres=float(pres), dres=float(dres),
                    iterations=k)
        # infeasibility certificates live in the tau -> 0 regime
        yb = bt @ u[n:-1]
        if yb < -1e-12:
            ycert = u[n:-1] / (-yb)
            if np.linalg.norm(at.T @ ycert) <= tol_feas:
                return solver.SolveResult(
                    status="PrimalInfeasible", iterations=k,
                    pobj=-np.inf, dobj=-np.inf,
                    certificate=solver._infeas_certificate(p, ycert, m))
        xc = ct @ u[:n]
        if xc < -1e-12:
            xray = u[:n] / (-xc)
            sray = v[n:-1] / (-xc)
            if np.linalg.norm(at @ xray + sray) <= tol_feas:
                return solver.SolveResult(
                    status="Unbounded", iterations=k,
                    pobj=np.inf, dobj=np.inf,
                    certificate=solver._unbounded_certificate(p, xray))
        # tau = kappa = 0 and no step: the embedding has no strictly
        # complementary solution, and the iterate stays put from here on
        scale = solver.FIXED_POINT_TOL * (np.linalg.norm(u) + np.linalg.norm(v))
        if (u[-1] <= scale and v[-1] <= scale and
                np.linalg.norm(u - u_old) + np.linalg.norm(v - v_old) <= scale):
            best.iterations = k
            best.certificate = {"kind": "fixed_point", "x": u[:n], "y": u[n:-1], "s": v[n:-1]}
            return best
    best.iterations = max_iter
    return best
