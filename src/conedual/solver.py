"""Operator-splitting solver on the homogeneous self-dual embedding.

The sup-oriented program

    sup { <c, x> : b - A x in K, x in C }

is rewritten in equality form min{ ct'x : At x + s = bt, s in K' } and
solved by operator splitting on the self-dual embedding.  K' is the product
of the live factors of K x C, those that are not Free, and At and bt are
[A; -I] and (b, 0) restricted to their rows; ct = -c.  A Free row
constrains nothing, as dual(Free) = Zero, so it gets no row in the
embedding, as free variables get no cone row in SCS (O'Donoghue, Chu,
Parikh and Boyd 2016): a System's program (`System.as_program`) is over
free x, and the embedding has order n + (live rows) + 1, not 2n + m + 1.
The iterate is w = u - v, with u = Pi(w) its projection onto R^n x dual(K')
x R_+ and v = u - w; one step is the relaxed Douglas-Rachford map g(w) = w +
ALPHA (u~ - u), with u~ = (I + Q)^-1 (2u - w) from a dense cached
factorization of I + Q.  Exits with a primal-dual pair, an infeasibility
certificate, an unboundedness ray, or Unknown.  Every vector a result
carries is over all rows of K x C: y and the certificates' w are exactly 0
on a dropped row, and a fixed point's s there is the row's exact slack
(b tau - A x on a row of K, x on a row of C).  The residuals and norm_b run
over the live rows.

The embedding is posed on unit-norm data, as SCS normalises b and c before
it embeds them (O'Donoghue et al. 2016, section 4): I + Q holds beta bt and
gamma ct, with beta = 1 / |bt| and gamma = 1 / |ct|, or 1 where that norm is
0, as it is for c in every feasibility and alternative solve.  A solution
(x, y, s) of the data's program is then (beta x, gamma y, beta s) of the
embedded one, so the iterate holds u = (beta x tau, gamma y tau, tau) and v
= (0, beta s tau, beta gamma kappa), and each check maps u and v back before
any exit test or polish reads them.  The tolerances, the residuals, norm_b,
norm_c and every certificate, the fixed point's included, are in the data's
own units; the rays need no mapping, each being normalised by <bt, y> or
<ct, x>.  A positive scale of b or of c changes the embedding only by
rounding.  Each norm is taken of the vector over its largest entry, so that
b / |b| and c / |c| are finite for all finite data.  The scale comes from
the data alone: a rule that rescales along the solve, as SCS 3.0 does when
sqrt(pres / dres) drifts, was measured and saved nothing (ROADMAP item 19).

The map is accelerated by safeguarded type-II Anderson extrapolation (Zhang,
O'Donoghue and Boyd 2020).  Every AA_MEMORY map evaluations, the last
AA_MEMORY + 1 pairs (g_i, f_i = g_i - w_i) give the candidate g_k - dG gamma,
where dG and dF hold the differences of consecutive pairs and gamma solves
(dF' dF + r I) gamma = dF' f_k, r = 1e-10 (1 + trace dF' dF).  The candidate
is kept only if its own residual |g(c) - c| is at most |f_k|; otherwise, and
when the solve fails or the candidate is not finite, the step is the plain
g_k.  The window restarts after each extrapolation.  An iteration is one map
evaluation, that is one linear solve and one projection, so the evaluation
of a rejected candidate counts as one.

The exit tests (optimal pair, Farkas ray, improving ray, fixed point) form u
and v and run at k = 1, 2, 4, 8, ..., at every iterate that is a fresh
extrapolation, and every CHECK_EVERY iterations.  Most of the solves behind
the diagnostics are done within a few map evaluations, which a check every
CHECK_EVERY alone (the schedule of SCS, O'Donoghue et al. 2016) would run on
for up to CHECK_EVERY - 1 more; the powers of two catch them early at a
logarithmic cost, and an extrapolation is the iterate most likely to pass.
A check at every iteration costs more in residual products than the
iterations it spares.  A check only reads the iterate, so the iterates are
those of a loop that checks every CHECK_EVERY alone, and no solve stops
later than it would there.

When every live factor of K x C is Zero or Nonneg, a check whose iterate
passes none of the exit tests also polishes it (`_polisher`; solution
polishing as in OSQP, Stellato, Banjac, Goulart, Bemporad and Boyd 2020):
the splitting crawls toward a vertex that the iterate's active set already
names.  For c != 0 the active rows A are the Zero rows and the Nonneg rows
with y_i > s_i, that is w_i > 0 as u = Pi(w); least squares moves x onto
At_A x = bt_A and y_A onto At_A' y_A = -ct, with y = 0 off A.  For c = 0,
y = 0 is dual optimal, and x is only moved onto the Zero rows: which slacks
vanish there is noise, and a guess of them pins the sigma of an alternative
system to 0, which sends strict feasibility to its plain fallback.  When
<bt, y> < 0, y on its support (the Zero rows and y_i > 0) is projected onto
ker At_S' for a Farkas ray.  A polished point is clipped into its cone, and
it ends the solve only if it passes the same exit test an iterate must
pass, so a wrong guess costs its least-squares solves and nothing else: the
iterates and every exit are those of the loop without it, and a polished
certificate is held to the same tolerances.  Each distinct guess is tried
once; c = 0 has no guess, so its projection is made at each check.

An Unknown exit is one of two kinds, told apart by `certificate["kind"]`.  At
the budget the certificate is empty.  At a fixed point it is "fixed_point":
when a residual check finds tau, kappa and the last step each at most
FIXED_POINT_TOL (|u| + |v|), the embedding has no strictly complementary
solution (the Slater CQ fails on a side, as on the infinite-gap family) and
the iterate no longer moves, so the solve stops with its best iterate and
the fixed point (x, y, s).  Its y, over all of K x C, is a facial-reduction
certificate of the feasible system of the sup program solved (for an inf
program, of the sign-flipped one `solve` builds), as in Permenter, Friberg
and Andersen 2017.  Every Unknown verdict built from such a solve gives the
reason FIXED_POINT.

The iteration is compiled once per solve: I + Q is formed in Fortran order
straight from A, b / |b| and c / |c| and LU-factored in place by LAPACK's getrf
(keeping lu_factor's finiteness check and error), each iteration calls
getrs on the factors directly (keeping lu_solve's finiteness and info
checks), each extrapolation calls gesv, and the projection onto the whole
embedding cone R^n x dual(K') x R_+ is one call of the plan
`cones.projector` builds once from its tags.  The live rows and that
projector are planned once per pair (K, C).  Each map value and residual
is written straight into the extrapolation window.  A program over polar
views of K and C is solved as its mirror image over the cones themselves,
since one product cone cannot hold a polar view next to R^n and R_+.

Strict feasibility of a system {x : G x + g in K} is decided by one solve
of its theorem-of-the-alternative system {(z, sigma) : G z + sigma g - e in
K, sigma >= 0}, with e the canonical interior point.  A point gives the
interior witness z / sigma; when the system meets no relative interior
point, the alternative is strongly infeasible and the solver's Farkas ray is
the facial-reduction certificate.  Both outcomes are attained, unlike the
margin sup{t : G x + g - t e in K}, whose value 0 at a boundary-only system
is often not, so that its solve ran out the budget.  Plain feasibility,
where strict feasibility does not settle it, is one solve of
sup{0 : G x + g in K}.

The strict and the plain question of one system meet in
`strict_and_feasibility`, which answers both with at most one plain solve:
the strict route consults the plain solve when the alternative's point
is a recession direction, and feasibility falls back on it.  Nothing is
kept between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import get_lapack_funcs
# not called here; perfbench/layers.py looks up solver.lu_solve by name
from scipy.linalg import lu_solve  # noqa: F401

from . import cones, program
from .spaces import inner, real, space

TOL_FEAS = 1e-8
TOL_GAP = 1e-8
MAX_ITER = 50000
CHECK_EVERY = 25
ALPHA = 1.5  # over-relaxation
# map evaluations between Anderson extrapolations, each from the last
# AA_MEMORY + 1 of them
AA_MEMORY = 10
# tau, kappa and the last step, relative to |u| + |v|, below which a solve
# stops at the embedding's fixed point
FIXED_POINT_TOL = 1e-12
# the Unknown reason of every verdict built from a solve that stopped there
FIXED_POINT = "embedding at its tau = kappa = 0 fixed point: no strictly complementary solution"


@dataclass
class SolveResult:
    # field order is the key order of `conedual --json solve`
    status: str  # Optimal | PrimalInfeasible | Unbounded | Unknown
    pobj: float = np.nan
    dobj: float = np.nan
    gap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    certificate: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """The outcome of one decision and what backs it.

    `verdict` is Yes / No / Unknown, or the question's own outcomes
    (Optimal / Unbounded / Empty for `conic_lp_value`).  `witness` is the
    point or ray a Yes (or a named outcome) rests on, `separator` the
    functional that refutes, `value` the margin or support value, and
    `detail` the reason, which every Unknown gives.
    """

    verdict: str
    witness: np.ndarray | None = None
    separator: np.ndarray | None = None
    value: float = np.nan
    detail: str = ""


def solve(p: program.ConicProgram, tol_feas: float = TOL_FEAS,
          tol_gap: float = TOL_GAP, max_iter: int = MAX_ITER) -> SolveResult:
    """Solve a conic program; inf programs are handled by sign flips."""
    if p.sense == "inf":
        res = solve(program.sup_form(p), tol_feas, tol_gap, max_iter)
        res.pobj, res.dobj = -res.pobj, -res.dobj
        if res.certificate.get("kind") == "unbounded_ray":
            res.certificate["objective_rate"] = -res.certificate["objective_rate"]
        return res
    if p.K.negated and p.C.negated:
        # polar views: x in polar(C) and b - A x in polar(K) read x' in C and
        # -b - A x' in K for x' = -x, the same values and negated vectors
        res = solve(replace(p, b=-p.b, c=-p.c, K=replace(p.K, negated=False),
                            C=replace(p.C, negated=False)), tol_feas, tol_gap, max_iter)
        if res.x is not None:
            res.x, res.y = -res.x, -res.y
        for key, val in res.certificate.items():
            if isinstance(val, np.ndarray):
                res.certificate[key] = -val
        return res
    return _solve_sup(p, tol_feas, tol_gap, max_iter)


@functools.lru_cache(maxsize=256)
def _embedding_plan(K: cones.Cone, C: cones.Cone):
    """The live rows of K x C, those of its non-Free factors, and the
    projection onto R^n x dual(live K x C) x R_+.

    Returns (k_rows, c_cols, rows, project, zero): k_rows indexes the live
    rows of K, c_cols the variables under a non-Free factor of C, rows the
    live rows of K x C (c_cols shifted past K), project the planned
    projector, and zero the mask of the Zero rows among the live rows when
    every live factor is Zero or Nonneg (the embeddings `_polisher` acts
    on), else None.  The arrays are read-only, as every solve over (K, C)
    shares them."""
    kc = cones.cone_product(K, C)  # refuses a polar view next to a plain cone
    live = [(tag, dual_tag, f, s) for tag, dual_tag, f, s in zip(
        kc.tags, cones.dual(kc).tags, kc.space.factors, kc.space.slices()) if tag != cones.FREE]
    rows = np.array([i for *_, s in live for i in range(s.start, s.stop)], dtype=np.intp)
    m = K.space.dim
    k_rows, c_cols = rows[rows < m], rows[rows >= m] - m
    zero = None
    if all(tag in (cones.ZERO, cones.NONNEG) for tag, *_ in live):
        zero = np.array([tag == cones.ZERO for tag, _, f, _ in live for _ in range(f.dim)],
                        dtype=bool)
    for arr in (k_rows, c_cols, rows, zero):
        if arr is not None:
            arr.flags.writeable = False
    project = cones.projector(cones.Cone(
        space(real(C.space.dim), *(f for _, _, f, _ in live), real(1)),
        (cones.FREE, *(dual_tag for _, dual_tag, _, _ in live), cones.NONNEG)))
    return k_rows, c_cols, rows, project, zero


def _solve_sup(p, tol_feas, tol_gap, max_iter):
    n = p.A.domain.dim
    m = p.A.codomain.dim
    k_rows, c_cols, rows, project, zero = _embedding_plan(p.K, p.C)
    # the equality form At x + s = bt, s in live K x C, over the live rows:
    # At = [A; -I] and bt = (b, 0) restricted to them
    mk = len(k_rows)
    mm = len(rows)
    nn = n + mm + 1
    at = np.zeros((mm, n))
    at[:mk] = p.A.matrix[k_rows]
    at[np.arange(mk, mm), c_cols] = -1.0
    bt = np.zeros(mm)
    bt[:mk] = p.b[k_rows]
    ct = -p.c
    # the embedding holds bt / |bt| and ct / |ct|, and each check maps its
    # u and v back to the data's units by u_back and v_back
    norm_b, b_unit = _unit(bt)
    norm_c, c_unit = _unit(ct)
    b_back, c_back = norm_b or 1.0, norm_c or 1.0
    u_back = np.empty(nn)
    u_back[:n], u_back[n:-1], u_back[-1] = b_back, c_back, 1.0
    v_back = np.empty(nn)
    v_back[:n], v_back[n:-1], v_back[-1] = c_back, b_back, b_back * c_back

    # I + Q, in Fortran order so that getrf factors it in place
    q = np.zeros((nn, nn), order="F")
    q[:n, n:-1] = at.T
    q[:n, -1] = c_unit
    q[n:-1, :n] = -at
    q[n:-1, -1] = b_unit
    q[-1, :n] = -c_unit
    q[-1, n:-1] = -b_unit
    np.fill_diagonal(q, 1.0)
    # the checks lu_factor makes around getrf; I + Q is nonsingular, Q being
    # skew-symmetric, so getrf meets no zero pivot
    if not np.isfinite(q).all():
        raise ValueError("array must not contain infs or NaNs")
    getrf, getrs, gesv = get_lapack_funcs(("getrf", "getrs", "gesv"), (q,))
    lu, piv, info = getrf(q, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
    zeros = np.zeros(nn)

    # the splitting iterates w = u - v, with u = project(w) and v = u - w
    w = np.zeros(nn)
    w[-1] = 1.0
    pw = w.copy()  # project(w)
    # the window of map values g_i and residuals g_i - w_i
    g_hist = np.empty((AA_MEMORY + 1, nn))
    f_hist = np.empty((AA_MEMORY + 1, nn))
    filled = 0
    guard = None  # (|f|, plain step) while w is an unverified extrapolation

    def residuals(xs, ys, ss):
        """pres, dres, gap and <ct, xs> of the pair (xs, ys) with slack ss."""
        pres = _norm(at @ xs + ss - bt) / (1.0 + norm_b)
        dres = _norm(at.T @ ys + ct) / (1.0 + norm_c)
        pval = ct @ xs
        dval = -bt @ ys
        gap = abs(pval - dval) / (1.0 + abs(pval) + abs(dval))
        return pres, dres, gap, pval

    def optimal(xs, ys, fit, k):
        """The Optimal result of a pair whose residuals `fit` pass the exit
        test, else None."""
        pres, dres, gap, pval = fit
        if not (pres <= tol_feas and dres <= tol_gap and gap <= tol_gap):
            return None
        yw = _on_all_rows(rows, m + n, ys)
        return SolveResult(
            status="Optimal", x=xs, y=yw[:m],
            pobj=float(-pval), dobj=float(bt @ ys),
            gap=float(gap), pres=float(pres), dres=float(dres),
            iterations=k,
            certificate={"kind": "optimal", "w": yw[m:]})

    def infeasible(ycert, k):
        """The PrimalInfeasible result of a ray y in dual(K') with <bt, y> =
        -1 that passes the exit test, else None."""
        if not _norm(at.T @ ycert) <= tol_feas:
            return None
        return SolveResult(
            status="PrimalInfeasible", iterations=k,
            pobj=-np.inf, dobj=-np.inf,
            certificate=_infeas_certificate(p, _on_all_rows(rows, m + n, ycert), m))

    polish = None if zero is None else _polisher(at, bt, ct, zero)
    best = {}  # the SolveResult fields of the check with the least gap so far
    for k in range(1, max_iter + 1):
        # the update below rebinds w and pw and writes only rows of the
        # window that neither is
        w_old, pw_old = w, pw
        rhs = 2.0 * pw - w
        # the two checks lu_solve makes around getrs; inf * 0 and nan * 0
        # are nan, so one product tells whether rhs is finite
        if not math.isfinite(rhs @ zeros):
            raise ValueError("array must not contain infs or NaNs")
        u_tilde, info = getrs(lu, piv, rhs, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        # the residual f = g - w and the map's value g at w, written into the
        # window's next rows
        f = f_hist[filled]
        np.subtract(u_tilde, pw, out=f)
        f *= ALPHA
        g = np.add(w, f, out=g_hist[filled])
        if guard is not None and not _norm(f) <= guard[0]:
            # the extrapolation's residual exceeds the one it was built from
            w, guard = guard[1], None
        else:
            filled += 1
            w, guard = g, None
            if filled > AA_MEMORY:
                filled = 0
                cand = _extrapolate(gesv, g_hist, f_hist)
                if cand is not None:
                    w, guard = cand, (_norm(f_hist[-1]), g)
        pw = project(w)

        # a check only reads the iterate: at powers of two (the short solves
        # end early), at each fresh extrapolation, and every CHECK_EVERY
        if k & (k - 1) and guard is None and k % CHECK_EVERY and k != max_iter:
            continue
        # the iterate in the data's units
        u, v = pw * u_back, (pw - w) * v_back
        tau = u[-1]
        if tau > 1e-12:
            xs = u[:n] / tau
            ys = u[n:-1] / tau
            ss = v[n:-1] / tau
            fit = residuals(xs, ys, ss)
            done = optimal(xs, ys, fit, k)
            if done is not None:
                return done
            pres, dres, gap, pval = fit
            if not best or math.isnan(best["gap"]) or gap < best["gap"]:
                best = {"x": xs, "y": _on_all_rows(rows, m + n, ys)[:m],
                        "pobj": float(-pval), "dobj": float(bt @ ys),
                        "gap": float(gap), "pres": float(pres), "dres": float(dres)}
        # infeasibility certificates live in the tau -> 0 regime
        yb = bt @ u[n:-1]
        if yb < -1e-12:
            done = infeasible(u[n:-1] / (-yb), k)
            if done is not None:
                return done
        xc = ct @ u[:n]
        if xc < -1e-12:
            xray = u[:n] / (-xc)
            sray = v[n:-1] / (-xc)
            if _norm(at @ xray + sray) <= tol_feas:
                return SolveResult(
                    status="Unbounded", iterations=k,
                    pobj=np.inf, dobj=np.inf,
                    certificate=_unbounded_certificate(p, xray))
        # tau = kappa = 0 and no step: the embedding has no strictly
        # complementary solution, and the iterate stays put from here on
        scale = FIXED_POINT_TOL * (_norm(u) + _norm(v))
        if (u[-1] <= scale and v[-1] <= scale and
                _norm(u - pw_old * u_back) + _norm(v - (pw_old - w_old) * v_back) <= scale):
            # a dropped row's slack is exact: (b tau - A x, x) there
            x = u[:n]
            s = np.concatenate([p.b * tau - p.A.matrix @ x, x])
            s[rows] = v[n:-1]
            return SolveResult(status="Unknown", iterations=k, certificate={
                "kind": "fixed_point", "x": x, "y": _on_all_rows(rows, m + n, u[n:-1]),
                "s": s}, **best)
        # the iterate passed no exit test: its polished pair or ray may, and
        # ends the solve only if it does
        if polish is not None:
            pair, ray = polish(u - v, u)
            if pair is not None:
                x, y, s = pair
                done = optimal(x, y, residuals(x, y, s), k)
                if done is not None:
                    return done
            if ray is not None:
                done = infeasible(ray, k)
                if done is not None:
                    return done
    return SolveResult(status="Unknown", iterations=max_iter, **best)


def _norm(x):
    """np.linalg.norm of a 1-D array, bitwise, without its overhead."""
    return math.sqrt(x @ x)


def _unit(v):
    """(|v|, v / |v|), or (0, v) when v = 0.  Both are taken of v / max|v|,
    so that v / |v| is finite for every finite v, and |v| overflows only
    where it exceeds the largest float."""
    top = np.abs(v).max(initial=0.0)
    if not top:
        return 0.0, v
    v = v / top
    nv = _norm(v)
    return top * nv, v / nv


def _on_all_rows(rows, size, live):
    """A vector over all rows of K x C from its values on the live rows,
    0 on the dropped ones, as dual(Free) = Zero requires of y there."""
    out = np.zeros(size)
    out[rows] = live
    return out


def _polisher(at, bt, ct, zero):
    """The polish step of a solve whose live factors are all Zero or Nonneg,
    with `zero` the mask of the Zero rows.

    polish(w, u), for an iterate's u = Pi(w) and w = u - v, both mapped back
    to the data's units, returns (pair, ray), each a candidate for the exit
    tests or None:
    - pair (x, y, s), when tau > 1e-12.  For c != 0 the active set guessed
      is the Zero rows and the Nonneg rows with y_i > s_i, that is w_i > 0:
      x moves by least squares onto At_A x = bt_A, and y_A onto At_A' y_A =
      -ct, with y = 0 off A.  For c = 0, y = 0 is dual optimal and x moves
      onto the Zero rows alone.  Then y is clipped into dual(K') and s =
      Pi_K'(bt - At x).
    - ray y, when <bt, y> < -1e-12 for the y part of u: y on its support S
      (the Zero rows and y_i > 0) projected onto ker At_S', clipped into
      dual(K') and scaled to <bt, y> = -1.
    Each distinct guess of an active set or support is tried once; the
    projection for c = 0 guesses nothing and is made at every call."""
    n = at.shape[1]
    nonneg = ~zero
    a_zero, b_zero = at[zero], bt[zero]
    # c = 0 projects onto the same rows at every call: one pseudo-inverse
    zero_pinv = functools.cache(lambda: np.linalg.pinv(a_zero))
    c_zero = not ct.any()
    tried_pair, tried_ray = set(), set()

    def polish(w, u):
        yu, tau = u[n:-1], u[-1]
        guess = zero | (w[n:-1] > 0)
        key = guess.tobytes()
        pair = ray = None
        if tau > 1e-12 and (c_zero or key not in tried_pair):
            xs = u[:n] / tau
            y = np.zeros(len(bt))
            if c_zero:
                x = xs + zero_pinv() @ (b_zero - a_zero @ xs)
            else:
                tried_pair.add(key)
                a, ya = at[guess], yu[guess] / tau
                x = xs + _lstsq(a, bt[guess] - a @ xs)
                y[guess] = ya + _lstsq(a.T, -ct - a.T @ ya)
                y[nonneg] = np.maximum(y[nonneg], 0.0)
            s = bt - at @ x
            s[zero] = 0.0
            pair = x, y, np.maximum(s, 0.0, out=s)
        if bt @ yu < -1e-12 and key not in tried_ray:
            tried_ray.add(key)
            a, ya = at[guess], yu[guess]
            y = np.zeros(len(bt))
            y[guess] = ya - a @ _lstsq(a, ya)
            y[nonneg] = np.maximum(y[nonneg], 0.0)
            yb = bt @ y
            if yb < -1e-12:
                ray = y / -yb
        return pair, ray

    return polish


def _lstsq(a, r):
    """The least-norm least-squares solution z of a z = r."""
    return np.linalg.lstsq(a, r, rcond=None)[0]


def _extrapolate(gesv, gs, fs):
    """Type-II Anderson extrapolation from the window's pairs (g_i, f_i):
    g_k - dG gamma, where gamma fits f_k by the columns of dF in regularised
    least squares (dG, dF the differences of consecutive pairs).  None when
    the solve fails or the point is not finite."""
    df = fs[1:] - fs[:-1]
    gram = df @ df.T
    gram.flat[::len(gram) + 1] += 1e-10 * (1.0 + gram.trace())
    _, _, gamma, info = gesv(gram, df @ fs[-1], overwrite_a=True, overwrite_b=True)
    if info:
        return None
    cand = gs[-1] - gamma @ (gs[1:] - gs[:-1])
    return cand if np.isfinite(cand).all() else None


def _infeas_certificate(p, ycert, m):
    """Improving dual ray: y in K*, A* y in C*, <b, y> = -1."""
    yk = ycert[:m]
    w = ycert[m:]
    return {
        "kind": "infeasible_ray",
        "y": yk,
        "w": w,
        "y_margin": cones.margin(cones.dual(p.K), yk),
        "w_margin": cones.margin(cones.dual(p.C), w),
        "adjoint_residual": float(np.linalg.norm(p.A.matrix.T @ yk - w)),
        "b_dot_y": float(inner(p.b, yk)),
    }


def _unbounded_certificate(p, xray):
    """Improving primal ray: r in C, A r in -K, <c, r> = 1."""
    return {
        "kind": "unbounded_ray",
        "ray": xray,
        "ray_margin": cones.margin(p.C, xray),
        "image_margin": cones.margin(p.K, -p.A(xray)),
        "objective_rate": float(inner(p.c, xray)),
    }


# verdicts below this achieved interior margin stay Unknown rather than Yes
STRICT_MARGIN = 1e-6


def _alternative_program(s: program.System) -> program.ConicProgram:
    """Find (z, sigma) with G z + sigma g - e in cone and sigma >= 0.

    e is the canonical interior point on the curved/nonneg factors and zero on
    the Zero/Free factors.  The set is nonempty exactly when s meets the
    relative interior: a point with sigma > 0 gives the witness z / sigma at
    margin 1 / sigma, and one with sigma = 0 a direction of recession into
    the relative interior.  Otherwise it is strongly infeasible, and the
    cone part of its Farkas ray is a facial-reduction certificate lam in
    cone*, G* lam = 0, <g, lam> <= 0, <e, lam> > 0.  So both outcomes have a
    certificate the solver can converge to, which the margin sup{t : G x + g
    - t e in cone} lacks when its value 0 is not attained.  The objective is
    0, so the solve never ends Unbounded.
    """
    n = s.gmap.domain.dim
    e = cones.canonical_relint_point(s.cone)
    alt = replace(s.extend(s.g[:, None]), g=-e).stack(np.eye(n + 1)[n:], [0.0], cones.NONNEG)
    return alt.as_program(np.zeros(n + 1))


def strict_feasibility(s: program.System, tol_feas: float = TOL_FEAS,
                       max_iter: int = MAX_ITER) -> Verdict:
    """Decide whether {x : G x + g in cone} meets the relative interior, by
    one solve of the alternative system (see `_alternative_program`).

    Yes comes with a validated witness and its margin min(1, 1/sigma), which
    must exceed STRICT_MARGIN (nan when the solve did not converge); No
    with a separating functional lam in cone* with G* lam = 0,
    <g, lam> <= 0, lam nonzero on the curved/nonneg part, or with a
    certificate that the system is empty outright (<g, lam> < 0).
    """
    return _strict_feasibility(s, tol_feas, max_iter,
                               lambda: _plain_feasibility(s, tol_feas, max_iter))


def _strict_feasibility(s, tol_feas, max_iter, plain):
    """`strict_feasibility`, with plain() the plain feasibility verdict of s."""
    res = solve(_alternative_program(s), tol_feas=tol_feas, max_iter=max_iter)
    n = s.gmap.domain.dim

    # a Yes needs only a validated point: an unconverged solve's best iterate
    # serves too, though it proves no margin
    if res.x is not None:
        z, sigma = res.x[:n], res.x[n]
        x = None
        if not s.g.any():  # a cone, so z is a point of margin 1
            x, value = z, 1.0
        elif sigma > tol_feas * (1.0 + np.linalg.norm(res.x)):
            # a coordinate of the solve's point is known only to about
            # tol_feas (1 + |(z, sigma)|); a smaller sigma is 0, and z / sigma
            # would be a point far out whose norm-scaled membership test
            # proves nothing
            x, value = z / sigma, min(1.0, 1.0 / float(sigma))
        elif res.status == "Optimal":
            # sigma is 0 to the solver's tolerance, so z is a direction of
            # recession into the relative interior: s meets the relative
            # interior exactly when it is nonempty, at x + z for any x in s
            base = plain()
            if base.verdict == "No":
                return base
            if base.verdict == "Yes":
                x, value = base.witness + z, 1.0
        w = None if x is None else _interior_witness(s, x)
        if w is not None and value > STRICT_MARGIN:
            if res.status == "Optimal":
                return Verdict("Yes", witness=w, value=value, detail="interior witness")
            return Verdict("Yes", witness=w,
                           detail="interior witness from an unconverged solve")
    if res.status == "PrimalInfeasible":
        lam = res.certificate["y"][:s.gmap.codomain.dim]
        empty = _emptiness(s, lam, tol_feas)
        if empty is not None:
            return empty
        lam_n = _validated_separator(s, lam, tol_feas)
        if lam_n is not None:
            return Verdict("No", separator=lam_n,
                           detail="separating functional from the alternative")
        return Verdict("Unknown", detail="unvalidated separator")
    if res.status == "Optimal":
        return Verdict("Unknown", detail="point of the alternative gives no interior witness")
    return _unknown(res, "solver did not converge")


def _unknown(res: SolveResult, detail: str) -> Verdict:
    """Unknown because of res: detail, or the fixed-point reason when res
    stopped at the embedding's fixed point."""
    if res.certificate.get("kind") == "fixed_point":
        detail = FIXED_POINT
    return Verdict("Unknown", detail=detail)


def _emptiness(s: program.System, lam: np.ndarray, tol: float) -> Verdict | None:
    """No with lam if it validates as a separator whose strictly negative
    <g, lam> makes it a Farkas certificate that s is empty outright."""
    lam = _validated_separator(s, lam, tol, allow_zero_e=True)
    if lam is not None and inner(s.g, lam) < -max(tol, 1e-7) * (1 + np.linalg.norm(s.g)):
        return Verdict("No", separator=lam, value=-np.inf, detail="the system is empty")
    return None


def _interior_witness(s: program.System, x: np.ndarray) -> np.ndarray | None:
    """x if it is a relint point of the system, else x moved by the least-norm
    step onto the Zero-factor equalities if that point is one: an iterate
    meets them only to the solver's tolerance, which can exceed the
    membership tolerance."""
    if s.relint_member(x):
        return x
    zero = cones.span(s.cone).complement().basis.T  # the Zero coordinates
    gz = zero @ s.gmap.matrix
    x = x + np.linalg.lstsq(gz, -zero @ (s.gmap(x) + s.g), rcond=None)[0]
    return x if s.relint_member(x) else None


def _validated_separator(s, lam, tol, allow_zero_e=False):
    """Check lam in cone*, G* lam ~ 0, <g, lam> <~ 0; rescale to unit norm."""
    nl = np.linalg.norm(lam)
    if nl <= 1e-10:
        return None
    lam = lam / nl
    check = max(tol, 1e-6)
    if cones.margin(cones.dual(s.cone), lam) < -check:
        return None
    gmat = s.gmap.matrix
    if np.linalg.norm(gmat.T @ lam) > check * (1 + np.linalg.norm(gmat)):
        return None
    if inner(s.g, lam) > check * (1 + np.linalg.norm(s.g)):
        return None
    if not allow_zero_e and inner(cones.canonical_relint_point(s.cone), lam) <= check:
        # separator must touch the non-subspace part to rule out interior points
        if np.linalg.norm(lam - cones.lineality(cones.dual(s.cone)).project(lam)) <= check:
            return None
    return lam


def conic_lp_value(s: program.System, c: np.ndarray, tol_feas: float = TOL_FEAS,
                   max_iter: int = MAX_ITER) -> Verdict:
    """sup of <c, x> over {x : G x + g in cone}; attainment is best-effort.

    Optimal carries the value and a maximiser, Unbounded the improving ray
    (value +inf), Empty value -inf.
    """
    res = solve(s.as_program(c), tol_feas=tol_feas, max_iter=max_iter)
    if res.status == "Optimal":
        return Verdict("Optimal", witness=res.x, value=res.pobj)
    if res.status == "Unbounded":
        return Verdict("Unbounded", witness=res.certificate["ray"], value=np.inf)
    if res.status == "PrimalInfeasible":
        return Verdict("Empty", value=-np.inf)
    return _unknown(res, "solver did not converge")


def feasibility(s: program.System, tol_feas: float = TOL_FEAS,
                max_iter: int = MAX_ITER) -> Verdict:
    """Decide whether {x : G x + g in cone} is nonempty (not necessarily strictly).

    A strict-feasibility Yes or emptiness certificate decides it; otherwise
    one plain solve of sup{0 : G x + g in cone} does, and its point must
    revalidate by membership, its Farkas ray as an emptiness certificate.
    The plain solve is made at most once (see `strict_and_feasibility`).
    """
    return strict_and_feasibility(s, tol_feas, max_iter)[1]


def strict_and_feasibility(s: program.System, tol_feas: float = TOL_FEAS,
                           max_iter: int = MAX_ITER) -> tuple[Verdict, Verdict]:
    """(`strict_feasibility`, `feasibility`) of s, with at most one plain
    solve, which the strict route and the feasibility fallback share."""
    plain = functools.cache(lambda: _plain_feasibility(s, tol_feas, max_iter))
    strict = _strict_feasibility(s, tol_feas, max_iter, plain)
    if strict.verdict == "Yes" or strict.detail == "the system is empty":
        return strict, strict
    return strict, plain()


def _plain_feasibility(s, tol_feas, max_iter):
    """One solve of sup{0 : G x + g in cone}: Yes with a converged point that
    revalidates by membership, No with a validated emptiness certificate."""
    res = solve(s.as_program(np.zeros(s.gmap.domain.dim)), tol_feas=tol_feas,
                max_iter=max_iter)
    if res.status == "Optimal" and s.member(res.x, 10 * tol_feas):
        return Verdict("Yes", witness=res.x, detail="boundary witness")
    if res.status == "PrimalInfeasible":
        empty = _emptiness(s, res.certificate["y"], tol_feas)
        if empty is not None:
            return empty
    return _unknown(res, "no witness or emptiness certificate found")
