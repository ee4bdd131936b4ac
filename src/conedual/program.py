"""Conic program data model, mechanical dualization, and feasibility screens.

A program in `sup` orientation is

    sup { <c, x> : b - A x in K, x in C }

and its conic dual, stored in `inf` orientation, is

    inf { <b, y> : A* y - c in C*, y in K* }.

An `inf` program reuses the same fields (A, b, c, K, C) read as

    inf { <c, y> : A y - b in K, y in C },

which makes dualization an involution on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import cones
from .spaces import (LinearMap, Subspace, inner, preimage_of_subspace, product_space,
                     real, space)


@dataclass(frozen=True)
class ConicProgram:
    A: LinearMap
    b: np.ndarray
    c: np.ndarray
    K: cones.Cone  # constraint cone, lives on A's codomain
    C: cones.Cone  # variable cone, lives on A's domain
    sense: str  # "sup" | "inf"

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.sense not in ("sup", "inf"):
            raise ValueError("sense must be 'sup' or 'inf'")
        if self.K.space != self.A.codomain:
            raise ValueError("K must live on the codomain of A")
        if self.C.space != self.A.domain:
            raise ValueError("C must live on the domain of A")
        if self.b.shape != (self.A.codomain.dim,):
            raise ValueError("b has wrong dimension")
        if self.c.shape != (self.A.domain.dim,):
            raise ValueError("c has wrong dimension")

    def is_fully_polyhedral(self) -> bool:
        return cones.is_polyhedral(self.K) and cones.is_polyhedral(self.C)


def dualize(p: ConicProgram) -> ConicProgram:
    """Mechanical conic dual; applying it twice restores the representation."""
    return ConicProgram(
        A=p.A.adjoint(),
        b=p.c,
        c=p.b,
        K=cones.dual(p.C),
        C=cones.dual(p.K),
        sense="inf" if p.sense == "sup" else "sup",
    )


def as_sup(p: ConicProgram) -> ConicProgram:
    """The sup member of the pair that p belongs to."""
    return p if p.sense == "sup" else dualize(p)


@dataclass(frozen=True)
class System:
    """The conic system {x : G x + g in cone}.

    Every sufficient condition the diagnostics decide asks for a relative
    interior point of such a system or for a support value over it.  Further
    constraints are appended with `stack` and further variables with
    `extend`, never by rebuilding the matrix, offset and cone by hand.
    """

    gmap: LinearMap
    g: np.ndarray
    cone: cones.Cone

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        if self.cone.space != self.gmap.codomain:
            raise ValueError("the cone must live on the codomain of G")
        if self.g.shape != (self.gmap.codomain.dim,):
            raise ValueError("g has wrong dimension")

    def stack(self, rows: np.ndarray, offsets, cone: cones.Cone | str) -> System:
        """Append the constraints rows @ x + offsets in `cone`.

        A factor tag in place of a cone puts all the rows under one real
        factor of that kind.
        """
        if isinstance(cone, str):
            cone = cones.cone(space(real(len(rows))), cone)
        gmap = LinearMap(self.gmap.domain, product_space(self.gmap.codomain, cone.space),
                         np.vstack([self.gmap.matrix, rows]))
        return System(gmap, np.concatenate([self.g, offsets]),
                      cones.cone_product(self.cone, cone))

    def extend(self, cols: np.ndarray) -> System:
        """{(x, z) : G x + cols z + g in cone} with z free."""
        cols = np.asarray(cols, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.gmap.codomain.dim:
            raise ValueError("cols needs one row per row of G")
        dom = product_space(self.gmap.domain, space(real(cols.shape[1])))
        return replace(self, gmap=LinearMap(dom, self.gmap.codomain,
                                            np.hstack([self.gmap.matrix, cols])))

    def homogeneous(self) -> System:
        """The same system with g = 0; its solutions form the recession cone."""
        return replace(self, g=np.zeros_like(self.g))

    def member(self, x: np.ndarray, tol: float | None = None) -> bool:
        return cones.member(self.cone, self.gmap(x) + self.g, tol)

    def relint_member(self, x: np.ndarray, tol: float | None = None) -> bool:
        return cones.relint_member(self.cone, self.gmap(x) + self.g, tol)

    @cached_property
    def lineality(self) -> Subspace:
        """{d : G d in lin(cone)}, the lineality space of a nonempty system."""
        return preimage_of_subspace(self.gmap, cones.lineality(self.cone))

    def as_program(self, c: np.ndarray) -> ConicProgram:
        """sup{<c, x> : G x + g in cone} as a sup program over free x."""
        dom = self.gmap.domain
        free = cones.cone(dom, *([cones.FREE] * len(dom.factors)))
        return ConicProgram(A=LinearMap(dom, self.gmap.codomain, -self.gmap.matrix),
                            b=self.g, c=c, K=self.cone, C=free, sense="sup")


def feasible_system(p: ConicProgram) -> System:
    """The feasible set as {z : G z + g in cone} with cone = K x C.

    sup:  (b - A x, x) in K x C
    inf:  (A y - b, y) in K x C
    """
    n = p.A.domain.dim
    if p.sense == "sup":
        slack = System(LinearMap(p.A.domain, p.A.codomain, -p.A.matrix), p.b, p.K)
    else:
        slack = System(LinearMap(p.A.domain, p.A.codomain, p.A.matrix), -p.b, p.K)
    return slack.stack(np.eye(n), np.zeros(n), p.C)


def recession_system(p: ConicProgram) -> System:
    """Homogeneous variant of `feasible_system` (right-hand side zero)."""
    return feasible_system(p).homogeneous()


def is_feasible_point(p: ConicProgram, x: np.ndarray, tol: float | None = None) -> bool:
    return feasible_system(p).member(x, tol)


def dual_via_basis(p: ConicProgram, basis: np.ndarray) -> ConicProgram:
    """Dual written with the basis map y -> sum_j <A v_j, y> v_j instead of A*.

    `basis` holds orthonormal columns spanning span(C).
    """
    if p.sense != "sup":
        raise ValueError("dual_via_basis applies to the sup orientation")
    basis = np.asarray(basis, dtype=float)
    gram = basis.T @ basis
    if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-9):
        raise ValueError("basis is not orthonormal")
    if not cones.span(p.C).equals(Subspace(p.A.domain, basis)):
        raise ValueError("basis does not span span(C)")
    av = p.A.matrix @ basis  # columns A v_j
    ab = basis @ av.T  # y -> sum_j <A v_j, y> v_j
    return ConicProgram(
        A=LinearMap(p.A.codomain, p.A.domain, ab),
        b=p.c,
        c=p.b,
        K=cones.dual(p.C),
        C=cones.dual(p.K),
        sense="inf",
    )


def weak_duality_check(p: ConicProgram, x: np.ndarray, y: np.ndarray,
                       tol: float = 1e-6) -> float:
    """Gap <b,y> - <c,x> for a feasible pair of the sup program and its dual."""
    if p.sense != "sup":
        raise ValueError("weak duality is stated on the sup orientation")
    d = dualize(p)
    if not is_feasible_point(p, x, tol):
        raise ValueError("x is not primal feasible at the given tolerance")
    if not is_feasible_point(d, y, tol):
        raise ValueError("y is not dual feasible at the given tolerance")
    gap = inner(p.b, y) - inner(p.c, x)
    if gap < -tol * (1.0 + abs(inner(p.c, x))):
        raise AssertionError(f"weak duality violated: gap = {gap}")
    return float(gap)


def complementary_slackness(p: ConicProgram, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Residuals (<y, b - A x>, <x, A* y - c>); both vanish iff the gap does."""
    if p.sense != "sup":
        raise ValueError("stated on the sup orientation")
    r1 = inner(y, p.b - p.A(x))
    r2 = inner(x, p.A.adjoint()(y) - p.c)
    return float(r1), float(r2)


def necessary_feasibility_screens(p: ConicProgram, tol: float = 1e-8) -> list[dict]:
    """Fast subspace screens; each returned entry is a proof of infeasibility.

    1. A(span C) inside span K       => b must lie in span K
    2. span K inside A(span C)       => b must lie in A(span C)
    3. A*(span K*) inside (lin C)-perp => c must lie in (lin C)-perp
    4. span C* inside A*((lin K)-perp) => c must lie in A*((lin K)-perp)
    """
    from .spaces import image_of_subspace

    p = as_sup(p)
    out = []
    span_c = cones.span(p.C)
    span_k = cones.span(p.K)
    a_span_c = image_of_subspace(p.A, span_c)
    if _sub_contains(span_k, a_span_c) and not span_k.contains(p.b, tol):
        out.append({"screen": 1, "side": "primal",
                    "reason": "b outside span K while A(C) is inside it"})
    if _sub_contains(a_span_c, span_k) and not a_span_c.contains(p.b, tol):
        out.append({"screen": 2, "side": "primal",
                    "reason": "b outside A(span C) while K is inside it"})
    adj = p.A.adjoint()
    lin_c_perp = cones.lineality(p.C).complement()
    lin_k_perp = cones.lineality(p.K).complement()
    adj_span_kstar = image_of_subspace(adj, lin_k_perp)  # span K* = (lin K)-perp
    span_cstar = cones.lineality(p.C).complement()  # span C* = (lin C)-perp
    if _sub_contains(lin_c_perp, adj_span_kstar) and not lin_c_perp.contains(p.c, tol):
        out.append({"screen": 3, "side": "dual",
                    "reason": "c outside (lin C)-perp while A*(K*) is inside it"})
    if _sub_contains(adj_span_kstar, span_cstar) and not adj_span_kstar.contains(p.c, tol):
        out.append({"screen": 4, "side": "dual",
                    "reason": "c outside A*((lin K)-perp) while C* is inside it"})
    return out


def _sub_contains(big: Subspace, small: Subspace, tol: float = 1e-8) -> bool:
    if small.dim == 0:
        return True
    proj = small.basis - big.basis @ (big.basis.T @ small.basis)
    return bool(np.linalg.norm(proj) <= tol * (1.0 + small.dim))
