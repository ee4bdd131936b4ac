"""Certified duality diagnostics for primal-dual conic pairs.

Every test returns a `solver.Verdict` (Yes / No / Unknown, or the question's
own outcomes) with a numeric witness or certificate that is revalidated by
cone membership alone; a "No" without a certificate is reported as Unknown.
The two exceptions: `strong_duality_report` returns a `DualityReport`, one
row per sufficient condition, and `recession_cone` the `program.System` the
recession questions are posed on.

Sides are named relative to the sup member of the pair: side "primal" is the
sup program, side "dual" its inf conic dual.  Passing an inf program selects
the same pair with the roles fixed accordingly.

Every condition is a question about one of the eight systems that
`posed_systems` builds: per side, the feasible system, its recession system,
that recession system on the other objective's hyperplane, and the
perspective system.  `strong_duality_report` decides each of them once and
reads every row from those verdicts; the standalone tests pose the same
systems one at a time.  The report decides some systems from others with
no solve: a Slater point settles the side's perspective system, and a
separator of its recession system the hyperplane-restricted one.  Across
the sides, a relative-interior point of one side's system is, by the conic
Gordan-Stiemke alternative, a separator of a system of the other side: a
point of the dual recession system settles the primal one, and a point of
a perspective system the other side's hyperplane-restricted system.  Each
stands only by a certificate that revalidates on the system it settles.
The two closedness conditions are the sides of that alternative; the
second is a hyperplane-restricted strict recession system, the same
system as a report row's.

The report's optimal values come from the certificates it already holds
before any solve: by the theorem of the alternative, an empty side's value
is -inf (sup) or +inf (inf), and a feasible dual of an empty primal is
unbounded below.  The pair is solved only for what they leave open.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass, replace

import numpy as np

from . import cones, program, solver
from .spaces import LinearMap, image_of_subspace, inner


# ---------------------------------------------------------------------------
# plumbing


def _side_program(p: program.ConicProgram, side: str) -> program.ConicProgram:
    ps = program.as_sup(p)
    if side == "primal":
        return ps
    if side == "dual":
        return program.dualize(ps)
    raise ValueError("side must be 'primal' or 'dual'")


_OTHER = {"primal": "dual", "dual": "primal"}


def posed_systems(p: program.ConicProgram) -> dict[str, program.System]:
    """The eight systems the sufficient conditions ask about.  Per side:
    `feasible-{side}`, {z : G z + g in M}; `recession-{side}`, the same with
    g = 0; `perp-{side}`, that with the Zero row <v, z> = 0 added, v = c on
    side "primal" and b on side "dual"; and `perspective-{side}`, the
    recession system over (z, t) with G z + t g in M.

    Three implications hold between the systems of one side, each with a
    map of its certificate:

    - a Slater point z of `feasible-{side}` gives the relint point (z, 1) of
      `perspective-{side}`, since G z + 1 g lies in ri M;
    - a separator lam of `recession-{side}` (lam in M*, G* lam = 0, lam off
      the lineality of M*) gives the separator (lam, 0) of `perp-{side}`,
      whose extra row is a Zero row and so takes any multiplier;
    - a relint point of `perp-{side}` is one of `recession-{side}`, the same
      system without that row.

    Across the sides, M = K x C on side "primal" and C* x K* on side "dual"
    are dual cones up to the order of their blocks.  A point of one side's
    M in the range of its recession or perspective map, with its blocks
    swapped into the other side's order, is annihilated by the other side's
    recession adjoint, up to a multiple of that side's objective in the
    perspective case, which the Zero row of its perp system takes up.  So
    a relint point is a separator there (the conic Gordan-Stiemke
    alternative of `closedness_conditions`):

    - a relint point y of `recession-dual`, (A* y, y) in ri(C* x K*), gives
      the separator (y, A* y) of `recession-primal`, whose map (x) -> (-A x,
      x) has adjoint (lam_1, lam_2) -> lam_2 - A* lam_1;
    - a relint point (z, t) of `perspective-{other}` gives the separator
      (swap(P(z, t)), mu) of `perp-{side}`, with P the perspective map,
      swap exchanging its K and C blocks, and mu the multiplier of the Zero
      row that makes G* lam = 0: P(y, t) = (A* y - t c, y) and mu = t for
      `perp-primal`, P(x, t) = (t b - A x, x) and mu = -t for `perp-dual`.

    The report decides by the first two and the two across the sides
    (`IMPLIED`), in the order `feasible-*`, `recession-dual`,
    `recession-primal`, `perspective-*`, `perp-*`; a `perp-{side}` tries
    the recession separator first.  The third saves no solve, since it
    decides `recession-{side}` first.  The mirror images of the cross rows
    are left out: a relint point of `recession-primal` as the separator of
    `recession-dual`, and a recession system's Yes read off the other
    side's separator.  Each would replace a certificate the report prints
    (the ray of the boundedness-cq row, which it reads off the separator
    of `recession-dual`, and the witness of a strict-recession Yes), where
    the rows kept settle only systems whose rows print a verdict and a nan
    margin, so every report reads as if each system were solved.
    """
    ps = program.as_sup(p)
    out = {}
    for side, hyperplane in (("primal", ps.c), ("dual", ps.b)):
        fs = program.feasible_system(_side_program(ps, side))
        rs = fs.homogeneous()
        out.update({f"feasible-{side}": fs, f"recession-{side}": rs,
                    f"perp-{side}": rs.stack(hyperplane[None, :], [0.0], cones.ZERO),
                    f"perspective-{side}": rs.extend(fs.g[:, None])})
    return out


def _swapped(w: np.ndarray, source: program.System, s: program.System) -> np.ndarray:
    """source's image of w, a point of one side's K x C (or C* x K*), with
    its two blocks swapped into the C x K (K* x C*) order of the other
    side's system s, whose variable is as long as the first block."""
    v, n = source.gmap(w), s.gmap.domain.dim
    return np.concatenate([v[n:], v[:n]])


# the decision table of `strong_duality_report`, in decision order: a system,
# the verdict it gets, and the system, verdict and certificate it follows
# from, with the map (certificate, source system, system) -> its certificate
IMPLIED = (
    ("recession-primal", "No", "recession-dual", "Yes", "relative-interior point", _swapped),
    ("perspective-primal", "Yes", "feasible-primal", "Yes", "Slater point",
     lambda z, *_: np.append(z, 1.0)),
    ("perspective-dual", "Yes", "feasible-dual", "Yes", "Slater point",
     lambda z, *_: np.append(z, 1.0)),
    ("perp-primal", "No", "recession-primal", "No", "separator",
     lambda lam, *_: np.append(lam, 0.0)),
    ("perp-primal", "No", "perspective-dual", "Yes", "relative-interior point",
     lambda zt, source, s: np.append(_swapped(zt, source, s), zt[-1])),
    ("perp-dual", "No", "recession-dual", "No", "separator",
     lambda lam, *_: np.append(lam, 0.0)),
    ("perp-dual", "No", "perspective-primal", "Yes", "relative-interior point",
     lambda zt, source, s: np.append(_swapped(zt, source, s), -zt[-1])))


def _implied(name: str, posed: dict, decided: dict) -> solver.Verdict | None:
    """The verdict on posed[name] that the first of its `IMPLIED` rows
    carries over from a decided source system, or None where no source
    verdict matches or no mapped certificate revalidates on posed[name] by
    the solver's own checks.  The value is what a solve reports: 1.0 for a
    Yes (the perspective system is homogeneous), nan for a No."""
    s = posed[name]
    for system, verdict, source, given, what, carry in IMPLIED:
        if system != name or decided[source].verdict != given:
            continue
        v = decided[source]
        cert = carry(v.witness if given == "Yes" else v.separator, posed[source], s)
        detail = f"implied by the {what} of {source}"
        if verdict == "Yes":
            w = solver._interior_witness(s, cert)
            if w is not None:
                return solver.Verdict("Yes", witness=w, value=1.0, detail=detail)
        else:
            lam = solver._validated_separator(s, cert, solver.TOL_FEAS)
            if lam is not None:
                return solver.Verdict("No", separator=lam, detail=detail)
    return None


@dataclass
class DualityReport:
    entries: list[dict] = field(default_factory=list)
    pobj: float = np.nan
    dobj: float = np.nan
    gap: float = np.nan

    def fired(self) -> list[str]:
        """The sufficient conditions for strong duality that hold."""
        return [e["condition"] for e in self.entries if e["verdict"] == "Yes"]

    def to_json(self) -> dict:
        return jsonable({"version": "report/v1", "entries": self.entries,
                         "pobj": self.pobj, "dobj": self.dobj, "gap": self.gap})


def jsonable(v):
    """Copy of a result that JSON encodes strictly: dataclasses become dicts
    of their fields, arrays lists, numpy scalars Python floats, and non-finite
    floats the strings nan, inf, -inf."""
    if isinstance(v, np.ndarray):
        return jsonable(v.tolist())
    if isinstance(v, (np.floating, np.integer)):
        v = float(v)
    if isinstance(v, float) and not np.isfinite(v):
        return str(v)
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if is_dataclass(v):
        return jsonable(vars(v))
    return v


# ---------------------------------------------------------------------------
# strict feasibility


def slater(p: program.ConicProgram, side: str = "primal",
           **kw) -> solver.Verdict:
    """Relative strict feasibility of the chosen side's feasible set."""
    return solver.strict_feasibility(posed_systems(p)[f"feasible-{side}"], **kw)


# ---------------------------------------------------------------------------
# recession cones


def recession_cone(p: program.ConicProgram, side: str = "primal") -> program.System:
    """The homogeneous system whose solutions form the side's recession cone."""
    return posed_systems(p)[f"recession-{side}"]


def recession_strict(p: program.ConicProgram, side: str = "primal",
                     **kw) -> solver.Verdict:
    """Strict feasibility of the homogeneous system defining the recession cone."""
    return solver.strict_feasibility(recession_cone(p, side), **kw)


def polar_recession_membership(p: program.ConicProgram, side: str,
                               v: np.ndarray) -> solver.Verdict:
    """Test v in (rec of the side's feasible set)-polar.

    Maximizes <v, r> over the recession cone normalized against a strictly
    positive functional on its pointed part; a value near zero certifies
    membership, a validated ray with positive inner product (the witness of
    No) refutes it.  With a strictly interior recession point the polar is
    exactly A* K* - C* (side primal) or -(A C + K) (side dual): the v at which
    the inf dual, or the -v at which the sup primal, is feasible.  So a Yes
    is cross-checked on that system and becomes Unknown if it is empty.
    """
    v = np.asarray(v, dtype=float)
    rs = recession_cone(p, side)
    lin = rs.lineality
    if lin.dim > 0:
        comp = lin.basis.T @ v
        j = int(np.argmax(np.abs(comp)))
        if abs(comp[j]) > 1e-6 * (1 + np.linalg.norm(v)):
            return solver.Verdict(
                "No", witness=np.sign(comp[j]) * lin.basis[:, j], value=float(abs(comp[j])),
                detail="lineality direction with positive inner product")
    e = rs.gmap.matrix.T @ cones.canonical_relint_point(cones.dual(rs.cone))
    pointed = rs.stack(lin.basis.T, np.zeros(lin.dim), cones.ZERO) if lin.dim > 0 else rs
    vr = solver.conic_lp_value(pointed.stack(-e[None, :], [1.0], cones.NONNEG), v)
    if not (vr.verdict == "Optimal" and vr.value <= 1e-6 * (1 + np.linalg.norm(v))):
        if vr.witness is not None and rs.member(vr.witness) and inner(v, vr.witness) > 1e-6:
            return replace(vr, verdict="No", detail="recession ray with positive inner product")
        return solver.Verdict("Unknown", value=vr.value,
                              detail=f"support value inconclusive ({vr.verdict})")
    if solver.strict_feasibility(rs).verdict == "Yes":
        q = _side_program(p, _OTHER[side])
        w = v if q.sense == "inf" else -v
        if solver.feasibility(program.feasible_system(replace(q, b=w))).verdict == "No":
            return solver.Verdict("Unknown", value=vr.value,
                                  detail="support value is zero, but the other side "
                                         "is empty at the matching offset")
    return solver.Verdict("Yes", value=vr.value, detail="support value is zero")


# ---------------------------------------------------------------------------
# boundedness and the alternative


def boundedness(p: program.ConicProgram, side: str = "primal",
                max_iter: int = solver.MAX_ITER) -> solver.Verdict:
    """Bounded / Unbounded / Empty / Unknown for the side's feasible set.

    Bounded comes with a strict recession point of the opposite homogeneous
    system; Unbounded with a validated nonzero recession ray (and the
    separator it was read from, if any); Empty with the emptiness
    certificate.  Otherwise the detail ends with the feasibility verdict.
    """
    posed = posed_systems(p)
    return _boundedness(
        solver.feasibility(posed[f"feasible-{side}"], max_iter=max_iter),
        posed[f"recession-{side}"],
        solver.strict_feasibility(posed[f"recession-{_OTHER[side]}"], max_iter=max_iter))


def _boundedness(feas: solver.Verdict, rs: program.System,
                 sr: solver.Verdict) -> solver.Verdict:
    """`boundedness` from the side's feasibility verdict, its recession
    system rs and the opposite recession system's strict feasibility sr."""
    if feas.verdict == "No":
        return solver.Verdict("Empty", witness=feas.separator,
                              detail="feasible set is empty")
    found = f" (feasibility {feas.verdict})"
    if rs.lineality.dim > 0:
        return solver.Verdict("Unbounded", witness=rs.lineality.basis[:, 0],
                              detail="nonzero lineality in the recession cone" + found)
    if sr.verdict == "Yes":
        return replace(sr, verdict="Bounded", detail="strict recession point of the "
                       "opposite homogeneous system" + found)
    ray = _recession_ray(sr, rs)
    if ray is not None:
        return replace(sr, verdict="Unbounded", witness=ray,
                       detail="recession ray recovered from the separator" + found)
    return solver.Verdict("Unknown", detail=sr.detail + found)


def _recession_ray(sr: solver.Verdict, rs: program.System) -> np.ndarray | None:
    """The unit direction the separator of the opposite recession system's
    No carries, if it is a solution of `rs`, else None."""
    if sr.verdict != "No" or sr.separator is None:
        return None
    ray = sr.separator[:rs.gmap.domain.dim]
    nr = np.linalg.norm(ray)
    return ray / nr if nr > 1e-7 and rs.member(ray / nr) else None


def gordan_alternative(p: program.ConicProgram) -> solver.Verdict:
    """Exactly one of: a nonzero x in C with Ax in -K (verdict Ray), or y in
    relint K* with A*y in relint C* (verdict Interior).  Requires a pointed
    primal recession cone.

    It is `boundedness(p, "primal")` without the feasibility solve: the dual
    homogeneous system is (A* y, y) in C* x K*, so its strict feasibility
    witness is the Interior y, and the direction its separator carries the Ray.
    """
    posed = posed_systems(p)
    rs = posed["recession-primal"]
    if rs.lineality.dim > 0:
        return solver.Verdict("Unknown", detail="primal recession cone is not pointed")
    sr = solver.strict_feasibility(posed["recession-dual"])
    if sr.verdict == "Yes":
        return replace(sr, verdict="Interior", detail="interior dual homogeneous point")
    ray = _recession_ray(sr, rs)
    if ray is not None:
        return replace(sr, verdict="Ray", witness=ray,
                       detail="nonzero primal recession direction")
    return solver.Verdict("Unknown", detail=sr.detail)


# ---------------------------------------------------------------------------
# closedness of the lifted adjoint images


def closedness_conditions(p: program.ConicProgram, side: str = "primal",
                          max_iter: int = solver.MAX_ITER) -> list[solver.Verdict]:
    """Verdicts on two sufficient conditions, in order, for the lifted
    adjoint image to be closed.

    The image is the range of the side's perspective system: its feasible
    system {z : G z + g in M} with the offset g turned into a free variable,
    P(z, t) = G z + t g.  Side "primal" has M = K x C and P(x, t) =
    (t b - A x, x), whose closedness makes the dual solvable; side "dual" has
    M = C* x K* and P(y, t) = (A* y - t c, y).

    1. range(P) meets the relative interior of M;
    2. kernel(P*) meets the relative interior of M*.

    By the conic Gordan-Stiemke alternative, range(G) meets ri Q exactly when
    kernel(G*) meets Q* only in (span Q)-perp, so each No carries the other
    side's certificate.  Condition 1 is strict feasibility of the perspective
    system, so it holds wherever `slater` does: a Slater point z gives
    P(z, 1) = G z + g in ri M.  Its No separator is a point of M* in
    kernel(P*) outside (span M)-perp.  Condition 2 is the other side's strict
    recession system, which is kernel(P*) meet M*, restricted to <b, y> = 0
    (side "primal") or <c, x> = 0 (side "dual"); its No separator
    (lam_1, lam_2, t) gives z = (lam_2, lam_1) = P(lam_1, -t) on side
    "primal" (the primal perspective map) and P(lam_1, t) on side "dual", a
    point of M in range(P) outside the lineality of M.  Conversely, a
    witness (z, t) of condition 1 is such a separator of condition 2,
    (swap(P(z, t)), -t) on side "primal" and (swap(P(z, t)), t) on side
    "dual", with swap exchanging the two blocks of M; the report reads
    condition 2's No off it (`posed_systems`).
    """
    posed = posed_systems(p)
    return [solver.strict_feasibility(posed[name], max_iter=max_iter)
            for name in (f"perspective-{side}", f"perp-{_OTHER[side]}")]


# ---------------------------------------------------------------------------
# gap bound separation


def gap_bound_separation(p: program.ConicProgram, epsilon: float,
                         dobj: float | None = None) -> solver.Verdict:
    """Whether a separator certifies that the duality gap is at most epsilon.

    Looks for (alpha, alpha0) with (-A alpha - alpha0 b, alpha) in K x C and
    <c, alpha> + alpha0 (dobj - eps) > 0.  Yes carries the eps-suboptimal
    feasible point x = -alpha / alpha0 it recovers, No means the maximal
    separation margin is zero, and `value` is the level dobj - eps that
    <c, x> exceeds.  The dual is solved for dobj unless it is given.
    """
    ps = program.as_sup(p)
    if dobj is None:
        dres = solver.solve(program.dualize(ps))
        if dres.status != "Optimal":
            return solver.Verdict("Unknown",
                                  detail=f"dual not solved to optimality ({dres.status})")
        dobj = dres.pobj
    n = ps.A.domain.dim
    level = dobj - epsilon
    # variables (alpha, alpha0, s): maximize s with
    #   (-A alpha - alpha0 b, alpha) in K x C
    #   <c, alpha> + alpha0 * level - s >= 0,   1 - s >= 0
    nv = n + 2
    fs = program.feasible_system(ps)
    lifted = fs.homogeneous().extend(np.column_stack([-fs.g, np.zeros_like(fs.g)]))
    lin = np.concatenate([ps.c, [level, -1.0]])
    cap = np.concatenate([np.zeros(nv - 1), [-1.0]])
    sep = lifted.stack(lin[None, :], [0.0], cones.NONNEG).stack(
        cap[None, :], [1.0], cones.NONNEG)
    obj = np.zeros(nv)
    obj[-1] = 1.0
    vr = solver.conic_lp_value(sep, obj)
    margin = f"separation margin {vr.value:.3g} ({vr.verdict})" + (
        f": {vr.detail}" if vr.detail else "")
    if vr.verdict == "Optimal" and vr.value > solver.STRICT_MARGIN:
        alpha, alpha0 = vr.witness[:n], vr.witness[n]
        if alpha0 < -1e-9:
            x = -alpha / alpha0
            if program.is_feasible_point(ps, x, 1e-6) and inner(ps.c, x) > level - 1e-6:
                return solver.Verdict("Yes", witness=x, value=level, detail=margin)
        return solver.Verdict("Unknown", value=level,
                              detail="separator found but recovery failed; " + margin)
    if vr.verdict == "Optimal":
        return solver.Verdict("No", value=level, detail="maximal separation margin is zero")
    return solver.Verdict("Unknown", value=level, detail=margin)


# ---------------------------------------------------------------------------
# almost feasibility


def almost_feasibility(p: program.ConicProgram, side: str = "dual") -> solver.Verdict:
    """Whether arbitrarily small perturbations of the side's offset make it
    feasible.

    By the alternative, the sup side's offset b is almost feasible iff -b is
    in the polar of the other side's recession cone, and the inf side's
    offset c iff c is.  That polar test decides Yes / No / Unknown.  A No
    carries its recession ray r as the separator: every restoring
    perturbation has norm at least <v, r> / |r| (v = -b or c).  `value` is
    the minimum perturbation norm |delta|, read from the maximiser
    (x, delta, tau) of one solve, which is the Yes witness.  The detail ends
    with the regime check under which the polar characterisation is exact.
    """
    q = _side_program(p, side)
    n = q.A.domain.dim
    m = q.A.codomain.dim
    # variables (x, delta, tau): the side's system with offset b + delta,
    # (delta, tau) in a second-order cone, maximize -tau
    s0 = program.feasible_system(q)
    shift = np.zeros((s0.gmap.codomain.dim, m + 1))
    sgn = 1.0 if q.sense == "sup" else -1.0
    shift[:m, :m] = sgn * np.eye(m)  # delta enters where b does
    lifted = s0.extend(shift)
    ball = lifted.stack(np.hstack([np.zeros((m + 1, n)), np.eye(m + 1)]),
                        np.zeros(m + 1), cones.SOC)
    obj = np.zeros(n + m + 1)
    obj[-1] = -1.0
    vr = solver.conic_lp_value(ball, obj)
    # |delta| of the maximiser, not -tau, which is the same to the solver's
    # tolerance but can be negative
    norm = float(np.linalg.norm(vr.witness[n:n + m])) if vr.verdict == "Optimal" else np.nan
    v = -sgn * q.b
    polar = polar_recession_membership(p, _OTHER[side], v)
    detail = f"{polar.detail}; minimum perturbation {vr.verdict}"
    witness = ray = None
    if polar.verdict == "Yes":
        witness = vr.witness
    elif polar.verdict == "No":
        ray = polar.witness
        bound = inner(v, ray) / np.linalg.norm(ray)
        detail += f"; restoring perturbations have norm >= {bound:.6g}"
    detail += f"; side condition {_polar_almost_side_condition(p, side)}"
    return solver.Verdict(polar.verdict, witness=witness, separator=ray, value=norm, detail=detail)


def _polar_almost_side_condition(p: program.ConicProgram, side: str) -> str:
    """Regime check for exactness of the polar characterization: the slack
    cone is a subspace, or the adjoint map sends some interior dual slack
    into the orthogonal complement of the variable cone's lineality."""
    q = _side_program(p, side)
    if cones.is_subspace(q.K):
        return "Yes"
    lin_c = cones.lineality(q.C)
    m = q.A.codomain.dim
    slack = program.System(LinearMap(q.A.codomain, q.A.codomain, np.eye(m)),
                           np.zeros(m), cones.dual(q.K))
    if lin_c.dim > 0:
        slack = slack.stack(lin_c.basis.T @ q.A.matrix.T, np.zeros(lin_c.dim), cones.ZERO)
    return solver.strict_feasibility(slack).verdict


# ---------------------------------------------------------------------------
# finiteness


def finiteness_check(p: program.ConicProgram, side: str = "primal") -> solver.Verdict:
    """Finite / Unbounded / Unknown for the side's optimal value.

    Under strict feasibility of the side, the value is finite iff the other
    side is feasible.  So the other side's feasible point decides Finite
    (the witness), and its emptiness certificate Unbounded (the separator,
    with the side's improving ray as the witness).  Either stands only when
    the side's own solve agrees; `value` is that solve's objective.

    A strict recession direction d of a feasible side adds no case: with a
    feasible x0, G(x0 + d) + g in K + ri K = ri K makes x0 + d a Slater point.
    """
    posed = posed_systems(p)
    if solver.strict_feasibility(posed[f"feasible-{side}"]).verdict != "Yes":
        return solver.Verdict("Unknown", detail="no strict feasibility established")
    res = solver.solve(_side_program(p, side))
    feas = solver.feasibility(posed[f"feasible-{_OTHER[side]}"])
    detail = f"other side feasibility {feas.verdict}, side solve {res.status}"
    if feas.verdict == "Yes" and res.status == "Optimal":
        return solver.Verdict("Finite", witness=feas.witness, value=res.pobj, detail=detail)
    if feas.verdict == "No" and res.status == "Unbounded":
        return solver.Verdict("Unbounded", witness=res.certificate["ray"],
                              separator=feas.separator, value=res.pobj, detail=detail)
    return solver.Verdict("Unknown", value=res.pobj, detail=detail)


# ---------------------------------------------------------------------------
# aggregate report


CITATIONS = {
    "objective": "for a feasible program, c in the adjoint image of the "
                 "orthogonal complement of span K gives strong duality "
                 "without any constraint qualification",
    "rhs": "when the other side is feasible, b in A(lineality of C) "
           "gives strong duality without any constraint qualification",
    "slater": "strict feasibility on one side with both sides feasible "
              "implies zero gap and solvability of the other side",
    "recession": "strict feasibility of the homogeneous (recession) system, "
                 "possibly restricted to a hyperplane, with both sides feasible",
    "boundedness": "a nonempty bounded feasible region with the objective in "
                   "the right subspace implies strong duality",
    "closedness": "closedness of the lifted adjoint image implies strong "
                  "duality when both sides are feasible",
}


def _fires(sub: str, ok: bool) -> str:
    """Yes when the sub-verdict is Yes and the side conditions hold, No when
    the sub-verdict is No, Unknown otherwise."""
    if sub == "Yes" and ok:
        return "Yes"
    return "No" if sub == "No" else "Unknown"


def _decide(posed: dict, max_iter: int) -> tuple[dict, dict]:
    """Strict feasibility of each posed system, and feasibility of the two
    feasible systems (keyed by side), each decided once in implication
    order: `feasible-*` and `recession-dual` by a solve, then the systems of
    `IMPLIED` in its order (`recession-primal`, `perspective-*`, `perp-*`)
    by their rows, each solved only where no row gives a verdict."""
    strict, feas = {}, {}
    for side in ("primal", "dual"):
        strict[f"feasible-{side}"], feas[side] = solver.strict_and_feasibility(
            posed[f"feasible-{side}"], max_iter=max_iter)
    derived = list(dict.fromkeys(row[0] for row in IMPLIED))
    for name in [n for n in posed if n not in strict and n not in derived] + derived:
        strict[name] = _implied(name, posed, strict) or solver.strict_feasibility(
            posed[name], max_iter=max_iter)
    return strict, feas


def strong_duality_report(p: program.ConicProgram,
                          max_iter: int = solver.MAX_ITER) -> DualityReport:
    """The sufficient conditions for strong duality, one entry per row of
    (condition, citation, verdict, witness, margins), and both optimal values.

    Each system of `posed_systems` is decided once by `_decide` (strict
    feasibility, and feasibility of the two feasible systems), and every row
    is `_fires` of a sub-verdict read from those verdicts.  Some systems are
    decided from others without a solve, by the implications of
    `posed_systems` in the order of `IMPLIED`: `recession-primal` from a
    relint point y of `recession-dual` (the separator (y, A* y)),
    `perspective-{side}` from a Slater point of `feasible-{side}`, and
    `perp-{side}` from a separator of `recession-{side}` or else from a
    relint point (z, t) of `perspective-{other}` (the separator
    (swap(P(z, t)), +-t)), each only where the mapped certificate
    revalidates.  The no-CQ conditions still require the stated side to be
    feasible.

    The values come from those verdicts first.  A certified empty primal has
    pobj = -inf and is not solved, and then a feasible dual has dobj = -inf;
    a certified empty dual has dobj = +inf.  The primal solve gives pobj
    otherwise, and dobj too where it decides it.  A primal solve that ends
    Unknown, at the embedding's fixed point or at its budget, leaves
    dobj = nan, since the mirrored program has the same embedding and stops
    where it does; only where nothing else decides dobj is the mirrored
    program solved.  A solve that ends Unbounded on a ray proves only the
    other side empty, so its pobj = +inf (a mirrored solve's dobj = -inf)
    stands only where the primal (dual) is known to be feasible, and is nan
    otherwise.
    """
    ps = program.as_sup(p)
    posed = posed_systems(ps)
    strict, feas = _decide(posed, max_iter)
    feas_p, feas_d = (feas[side].verdict == "Yes" for side in ("primal", "dual"))
    both = feas_p and feas_d
    c_in = image_of_subspace(ps.A.adjoint(), cones.span(ps.K).complement()).contains(ps.c)
    b_in = image_of_subspace(ps.A, cones.lineality(ps.C)).contains(ps.b)
    c_in_lin_perp = cones.lineality(ps.C).complement().contains(ps.c)

    # (condition, citation, sub-verdict, side conditions, witness, margins)
    rows = [("objective-in-adjoint-image", "objective", "Yes" if c_in else "No", feas_p,
             None, {"algebraic": bool(c_in)}),
            ("rhs-in-image-of-lineality", "rhs", "Yes" if b_in else "No", feas_d,
             None, {"algebraic": bool(b_in)})]
    for side in ("primal", "dual"):
        sl = strict[f"feasible-{side}"]
        rows.append((f"slater-{side}", "slater", sl.verdict, both, sl.witness,
                     {"margin": sl.value}))
    for name, system, side_ok in (
            ("strict-recession-primal", "recession-primal", cones.span(ps.K).contains(ps.b)),
            ("strict-recession-dual", "recession-dual", c_in_lin_perp),
            ("strict-recession-dual-b-perp", "perp-dual", True),
            ("strict-recession-primal-c-perp", "perp-primal", True)):
        rs = strict[system]
        rows.append((name, "recession", rs.verdict, side_ok and both, rs.witness,
                     {"margin": rs.value, "side_condition": bool(side_ok)}))
    bd = _boundedness(feas["primal"], posed["recession-primal"], strict["recession-dual"])
    # Bounded fires only with a feasible point; without one it refutes nothing
    bounded = {"Bounded": "Yes", "Unbounded": "No", "Empty": "No"}.get(bd.verdict, "Unknown")
    rows.append(("boundedness-cq", "boundedness", bounded if c_in_lin_perp else "No", feas_p,
                 bd.witness, {"boundedness": bd.verdict}))
    for side in ("primal", "dual"):
        cc = (strict[f"perspective-{side}"], strict[f"perp-{_OTHER[side]}"])
        rows.append((f"closedness-{side}", "closedness",
                     "Yes" if any(v.verdict == "Yes" for v in cc) else "Unknown", both,
                     None, {f"condition_{k}": v.verdict for k, v in enumerate(cc, 1)}))
    rep = DualityReport([{"condition": name, "verdict": _fires(sub, ok), "witness": witness,
                          "citation": CITATIONS[citation], "margins": margins}
                         for name, citation, sub, ok, witness, margins in rows])

    def value(res, feasible):
        # a ray alone proves only the other side empty, so it leaves the
        # value of a side not known to be feasible open
        unbounded = res.status == "Unbounded" and not feasible
        return np.nan if res.status == "Unknown" or unbounded else res.pobj

    # an emptiness certificate fixes a value without a solve: an empty sup
    # side is -inf, an empty inf side +inf, and a feasible dual of an empty
    # primal is unbounded below (-inf)
    empty_p, empty_d = (feas[side].verdict == "No" for side in ("primal", "dual"))
    pres = None if empty_p else solver.solve(ps, max_iter=max_iter)
    rep.pobj = -np.inf if empty_p else value(pres, feas_p)
    # otherwise the primal solve decides the dual value too, unless it ended
    # Unknown or its Farkas ray meets a dual not known to be feasible: an
    # Optimal pair carries it, an unbounded ray empties the dual (+inf), and a
    # Farkas ray makes a feasible dual unbounded below (-inf).  An Unknown
    # (fixed point or budget) leaves it open: the mirror has the same embedding.
    if empty_d or (empty_p and feas_d):
        rep.dobj = np.inf if empty_d else -np.inf
    elif pres is not None and pres.status == "Unknown":
        rep.dobj = np.nan
    elif pres is None or (pres.status == "PrimalInfeasible" and not feas_d):
        rep.dobj = value(solver.solve(program.dualize(ps), max_iter=max_iter), feas_d)
    else:
        rep.dobj = pres.dobj
    if np.isfinite(rep.pobj) and np.isfinite(rep.dobj):
        rep.gap = abs(rep.pobj - rep.dobj) / (1 + abs(rep.pobj) + abs(rep.dobj))
    else:
        rep.gap = np.inf
    return rep
