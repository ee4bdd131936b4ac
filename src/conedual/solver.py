"""Operator-splitting solver on the homogeneous self-dual embedding.

The sup-oriented program

    sup { <c, x> : b - A x in K, x in C }

is rewritten in equality form min{ ct'x : At x + s = bt, s in K x C } with
At = [A; -I], bt = (b, 0), ct = -c, and solved by alternating projections on
the self-dual embedding (splitting with over-relaxation 1.5, dense cached
factorization of I + Q).  Exits with a primal-dual pair, an infeasibility
certificate, an unboundedness ray, or Unknown.

The iteration is compiled once per solve: I + Q is LU-factored once and each
iteration calls LAPACK's getrs on the factors directly (keeping lu_solve's
finiteness and info checks), and the projection onto dual(K x C) is the plan
`cones.projector` builds once from the cone's tags.  Neither changes the
arithmetic, so the iterates are bitwise those of the per-call lu_solve and
per-factor projection they replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor
# not called here; perfbench/layers.py looks up solver.lu_solve by name
from scipy.linalg import lu_solve  # noqa: F401

from . import cones, program
from .spaces import LinearMap, inner, product_space, real, space

TOL_FEAS = 1e-8
TOL_GAP = 1e-8
MAX_ITER = 50000
CHECK_EVERY = 25
ALPHA = 1.5  # over-relaxation


@dataclass
class SolveResult:
    status: str  # Optimal | PrimalInfeasible | Unbounded | Unknown
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    slack: np.ndarray | None = None
    pobj: float = np.nan
    dobj: float = np.nan
    gap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0
    certificate: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.pobj


def solve(p: program.ConicProgram, tol_feas: float = TOL_FEAS,
          tol_gap: float = TOL_GAP, max_iter: int = MAX_ITER) -> SolveResult:
    """Solve a conic program; inf programs are handled by sign flips."""
    if p.sense == "inf":
        neg = program.ConicProgram(
            A=LinearMap(p.A.domain, p.A.codomain, -p.A.matrix),
            b=-p.b, c=-p.c, K=p.K, C=p.C, sense="sup")
        res = solve(neg, tol_feas, tol_gap, max_iter)
        res.pobj, res.dobj = -res.pobj, -res.dobj
        if res.certificate.get("kind") == "unbounded_ray":
            res.certificate["objective_rate"] = -res.certificate["objective_rate"]
        return res
    return _solve_sup(p, tol_feas, tol_gap, max_iter)


def _solve_sup(p, tol_feas, tol_gap, max_iter):
    n = p.A.domain.dim
    m = p.A.codomain.dim
    at = np.vstack([p.A.matrix, -np.eye(n)])
    bt = np.concatenate([p.b, np.zeros(n)])
    ct = -p.c
    kc = cones.cone_product(p.K, p.C)
    kc_dual = cones.dual(kc)
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

    best = SolveResult(status="Unknown")
    for k in range(1, max_iter + 1):
        rhs = u + v
        # the two checks lu_solve makes around getrs
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        u_tilde, info = getrs(lu, piv, rhs, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        t = ALPHA * u_tilde + (1.0 - ALPHA) * u
        u_new = t - v
        u_new[n:-1] = project_kc(u_new[n:-1])
        u_new[-1] = max(u_new[-1], 0.0)
        v = v - t + u_new
        u = u_new

        if k % CHECK_EVERY and k != max_iter:
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
                return SolveResult(
                    status="Optimal", x=xs, y=ys[:m], slack=ss[:m],
                    pobj=float(-pval), dobj=float(bt @ ys),
                    gap=float(gap), pres=float(pres), dres=float(dres),
                    iterations=k,
                    certificate={"kind": "optimal", "w": ys[m:]})
            if np.isnan(best.gap) or gap < best.gap:
                best = SolveResult(
                    status="Unknown", x=xs, y=ys[:m], slack=ss[:m],
                    pobj=float(-pval), dobj=float(bt @ ys),
                    gap=float(gap), pres=float(pres), dres=float(dres),
                    iterations=k)
        # infeasibility certificates live in the tau -> 0 regime
        yb = bt @ u[n:-1]
        if yb < -1e-12:
            ycert = u[n:-1] / (-yb)
            if np.linalg.norm(at.T @ ycert) <= tol_feas:
                return SolveResult(
                    status="PrimalInfeasible", iterations=k,
                    pobj=-np.inf, dobj=-np.inf,
                    certificate=_infeas_certificate(p, ycert, m))
        xc = ct @ u[:n]
        if xc < -1e-12:
            xray = u[:n] / (-xc)
            sray = v[n:-1] / (-xc)
            if np.linalg.norm(at @ xray + sray) <= tol_feas:
                return SolveResult(
                    status="Unbounded", iterations=k,
                    pobj=np.inf, dobj=np.inf,
                    certificate=_unbounded_certificate(p, xray))
    best.iterations = max_iter
    return best


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


@dataclass
class MarginResult:
    verdict: str  # Yes | No | Unknown
    margin: float = np.nan
    witness: np.ndarray | None = None
    separator: np.ndarray | None = None
    detail: str = ""


# verdicts below this achieved interior margin stay Unknown rather than Yes
STRICT_MARGIN = 1e-6


def _margin_program(gmap: LinearMap, g: np.ndarray, kc: cones.Cone) -> program.ConicProgram:
    """sup t  s.t.  G x + g - t e in cone, t <= 1, over free (x, t).

    e is the canonical interior point on the curved/nonneg factors and zero on
    the Zero/Free factors, so t measures the achievable interior margin.
    """
    n = gmap.domain.dim
    mrows = gmap.codomain.dim
    e = cones.canonical_relint_point(kc)
    amat = np.zeros((mrows + 1, n + 1))
    amat[:mrows, :n] = -gmap.matrix
    amat[:mrows, n] = e
    amat[mrows, n] = 1.0
    b = np.concatenate([g, [1.0]])
    c = np.zeros(n + 1)
    c[n] = 1.0
    dom = space(real(n + 1))
    cod = product_space(gmap.codomain, space(real(1)))
    big_cone = cones.cone_product(kc, cones.cone(space(real(1)), cones.NONNEG))
    free_dom = cones.cone(dom, cones.FREE)
    return program.ConicProgram(LinearMap(dom, cod, amat), b, c, big_cone,
                                free_dom, "sup")


def strict_feasibility(gmap: LinearMap, g: np.ndarray, kc: cones.Cone,
                       margin_threshold: float = STRICT_MARGIN,
                       tol_feas: float = TOL_FEAS,
                       max_iter: int = MAX_ITER) -> MarginResult:
    """Decide whether {x : G x + g in cone} meets the relative interior.

    Yes comes with a validated witness, No with a separating functional
    lam in cone* with G* lam = 0, <g, lam> <= 0, lam nonzero on the
    curved/nonneg part (or a certificate that the system is empty outright).
    """
    g = np.asarray(g, dtype=float)
    mp = _margin_program(gmap, g, kc)
    res = solve(mp, tol_feas=tol_feas, max_iter=max_iter)
    n = gmap.domain.dim
    e = cones.canonical_relint_point(kc)

    if res.status == "Optimal":
        tstar = res.x[n]
        x = res.x[:n]
        if tstar > margin_threshold and cones.relint_member(kc, gmap(x) + g):
            return MarginResult("Yes", margin=float(tstar), witness=x,
                                detail="interior witness")
        lam = res.y[:gmap.codomain.dim] if res.y is not None else None
        if tstar <= margin_threshold and lam is not None:
            # a strictly negative <g, lam> upgrades the separator to a Farkas
            # certificate that the system is empty outright
            lam_n = _validated_separator(gmap, g, kc, e, lam, tol_feas,
                                         allow_zero_e=True)
            if lam_n is not None and inner(g, lam_n) < -max(tol_feas, 1e-7) \
                    * (1 + np.linalg.norm(g)):
                return MarginResult("No", margin=float(tstar), separator=lam_n,
                                    witness=x, detail="the system is empty")
            lam_n = _validated_separator(gmap, g, kc, e, lam, tol_feas)
            if lam_n is not None:
                return MarginResult("No", margin=float(tstar), separator=lam_n,
                                    witness=x,
                                    detail="separating functional from the margin dual")
        return MarginResult("Unknown", margin=float(tstar), witness=x,
                            detail="margin value inconclusive")
    if res.status == "PrimalInfeasible":
        lam = res.certificate["y"][:gmap.codomain.dim]
        lam = _validated_separator(gmap, g, kc, e, lam, tol_feas, allow_zero_e=True)
        if lam is not None:
            return MarginResult("No", margin=-np.inf, separator=lam,
                                detail="the system is empty")
        return MarginResult("Unknown", detail="unvalidated emptiness certificate")
    if res.status == "Unbounded":
        # t can grow without bound, so deep interior points exist
        ray = res.certificate["ray"]
        x = ray[:n] * (2.0 / max(ray[n], 1e-12))
        if cones.relint_member(kc, gmap(x) + g):
            return MarginResult("Yes", margin=np.inf, witness=x,
                                detail="interior witness from an improving ray")
        return MarginResult("Unknown", detail="unvalidated interior ray")
    return MarginResult("Unknown", detail="solver did not converge")


def _validated_separator(gmap, g, kc, e, lam, tol, allow_zero_e=False):
    """Check lam in cone*, G* lam ~ 0, <g, lam> <~ 0; rescale to unit norm."""
    nl = np.linalg.norm(lam)
    if nl <= 1e-10:
        return None
    lam = lam / nl
    check = max(tol, 1e-6)
    if cones.margin(cones.dual(kc), lam) < -check:
        return None
    if np.linalg.norm(gmap.matrix.T @ lam) > check * (1 + np.linalg.norm(gmap.matrix)):
        return None
    if inner(g, lam) > check * (1 + np.linalg.norm(g)):
        return None
    if not allow_zero_e and inner(e, lam) <= check:
        # separator must touch the non-subspace part to rule out interior points
        if np.linalg.norm(lam - cones.lineality(cones.dual(kc)).project(lam)) <= check:
            return None
    return lam


def system_program(c: np.ndarray, gmap: LinearMap, g: np.ndarray,
                   kc: cones.Cone) -> program.ConicProgram:
    """sup{<c, x> : G x + g in cone} written as a standard sup program."""
    free_dom = cones.cone(gmap.domain, *([cones.FREE] * len(gmap.domain.factors)))
    return program.ConicProgram(
        A=LinearMap(gmap.domain, gmap.codomain, -gmap.matrix),
        b=np.asarray(g, dtype=float), c=np.asarray(c, dtype=float),
        K=kc, C=free_dom, sense="sup")


@dataclass
class ValueResult:
    value: float  # finite, +inf (improving ray), -inf (empty set)
    attained: bool
    witness: np.ndarray | None = None
    ray: np.ndarray | None = None
    status: str = ""


def conic_lp_value(c: np.ndarray, gmap: LinearMap, g: np.ndarray, kc: cones.Cone,
                   tol_feas: float = TOL_FEAS, max_iter: int = MAX_ITER) -> ValueResult:
    """sup of <c, x> over {x : G x + g in cone}; attainment is best-effort."""
    p = system_program(c, gmap, g, kc)
    res = solve(p, tol_feas=tol_feas, max_iter=max_iter)
    if res.status == "Optimal":
        return ValueResult(value=res.pobj, attained=True, witness=res.x,
                           status="Optimal")
    if res.status == "Unbounded":
        return ValueResult(value=np.inf, attained=False,
                           ray=res.certificate["ray"], status="Unbounded")
    if res.status == "PrimalInfeasible":
        return ValueResult(value=-np.inf, attained=False, status="Empty")
    return ValueResult(value=np.nan, attained=False, witness=res.x,
                       status="Unknown")


def feasibility(gmap: LinearMap, g: np.ndarray, kc: cones.Cone,
                tol_feas: float = TOL_FEAS, max_iter: int = MAX_ITER) -> MarginResult:
    """Decide whether {x : G x + g in cone} is nonempty (not necessarily strictly)."""
    g = np.asarray(g, dtype=float)
    res = strict_feasibility(gmap, g, kc, tol_feas=tol_feas, max_iter=max_iter)
    if res.verdict == "Yes":
        return res
    if res.detail == "the system is empty":
        return MarginResult("No", margin=res.margin, separator=res.separator,
                            detail=res.detail)
    if res.witness is not None and cones.member(kc, gmap(res.witness) + g,
                                               10 * tol_feas):
        return MarginResult("Yes", margin=res.margin, witness=res.witness,
                            detail="boundary witness")
    return MarginResult("Unknown", detail="no witness or emptiness certificate found")
