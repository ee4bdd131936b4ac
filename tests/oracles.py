"""Independent oracles used to pin expected values in the tests.

The LP oracle enumerates basic solutions (vertex enumeration), which shares no
code with the operator-splitting solver under test.  scipy.optimize.linprog is
used only to classify unbounded/infeasible cases and as a second opinion.
The redundancy oracle is the float LP loop that exact projection replaced:
one HiGHS LP per row.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import settings
from scipy.optimize import linprog

from conedual import cones, projection

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
