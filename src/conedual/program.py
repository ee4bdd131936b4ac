"""Conic program data model, mechanical dualization, and conic systems.

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
from .spaces import (LinearMap, Subspace, preimage_of_subspace, product_space,
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


def sup_form(p: ConicProgram) -> ConicProgram:
    """The sup program with the feasible set of p: an inf program's
    {y : A y - b in K, y in C} is {y : -b - (-A) y in K, y in C}, and its
    objective is negated."""
    if p.sense == "sup":
        return p
    return replace(p, A=LinearMap(p.A.domain, p.A.codomain, -p.A.matrix),
                   b=-p.b, c=-p.c, sense="sup")


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
    """The feasible set as {z : G z + g in cone} with cone = K x C, posed
    on the sup form of p:

    sup:  (b - A x, x) in K x C
    inf:  (A y - b, y) in K x C
    """
    ps = sup_form(p)
    slack = System(LinearMap(ps.A.domain, ps.A.codomain, -ps.A.matrix), ps.b, ps.K)
    n = ps.A.domain.dim
    return slack.stack(np.eye(n), np.zeros(n), ps.C)


def is_feasible_point(p: ConicProgram, x: np.ndarray, tol: float | None = None) -> bool:
    return feasible_system(p).member(x, tol)
