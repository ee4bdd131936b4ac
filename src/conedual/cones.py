"""Closed convex cone calculus over product spaces.

A cone is a list of factor cones aligned one-to-one with the factors of its
space: Zero, Free, Nonneg, SecondOrder (x_n >= ||x_1..n-1||), or Psd.  The
polar cone is represented as the dual cone with a negation flag that is
applied at membership/projection time, so dual(dual(C)) stays structurally
identical to C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .spaces import EuclideanSpace, Subspace, product_space, sym_to_vec, vec_to_sym

ZERO = "zero"
FREE = "free"
NONNEG = "nonneg"
SOC = "soc"
PSD = "psd"

FACTOR_CONES = (ZERO, FREE, NONNEG, SOC, PSD)

# Default membership tolerance, scaled by (1 + ||x||).
DEFAULT_TOL = 1e-8

_DUAL = {ZERO: FREE, FREE: ZERO, NONNEG: NONNEG, SOC: SOC, PSD: PSD}


@dataclass(frozen=True)
class Cone:
    space: EuclideanSpace
    tags: tuple[str, ...]
    negated: bool = False  # True for a polar view: x in cone <=> -x in dual form

    def __post_init__(self):
        if len(self.tags) != len(self.space.factors):
            raise ValueError("one factor cone per space factor")
        for tag, f in zip(self.tags, self.space.factors):
            if tag not in FACTOR_CONES:
                raise ValueError(f"unknown factor cone {tag!r}")
            if tag == SOC and (f.kind != "real" or f.size < 2):
                raise ValueError("SecondOrder needs a Real factor of size >= 2")
            if tag == PSD and f.kind != "sym":
                raise ValueError("Psd needs a Sym factor")
            if tag in (NONNEG, SOC) and f.kind == "sym":
                raise ValueError(f"{tag} cannot sit on a Sym factor")


def cone(space: EuclideanSpace, *tags: str) -> Cone:
    return Cone(space, tuple(tags))


def cone_product(a: Cone, b: Cone) -> Cone:
    if a.negated != b.negated:
        raise ValueError("cannot mix polar views in a product")
    return Cone(product_space(a.space, b.space), a.tags + b.tags, a.negated)


def dual(c: Cone) -> Cone:
    return replace(c, tags=tuple(_DUAL[t] for t in c.tags))


def polar(c: Cone) -> Cone:
    return replace(dual(c), negated=not c.negated)


def _factor_margin(tag: str, x: np.ndarray) -> float:
    """Interiority measure: >= 0 means member, > 0 means relint member.

    Zero and Free are subspaces, so the closed and strict tests coincide;
    Zero reports -||x|| and Free reports +inf.
    """
    if tag == FREE:
        return np.inf
    if tag == ZERO:
        return -float(np.linalg.norm(x))
    if tag == NONNEG:
        return float(np.min(x))
    if tag == SOC:
        return float(x[-1] - np.linalg.norm(x[:-1]))
    if tag == PSD:
        return float(np.linalg.eigvalsh(vec_to_sym(x))[0])
    raise ValueError(tag)


def margin(c: Cone, x: np.ndarray) -> float:
    """Minimum factor margin; the negation flag is applied first."""
    x = np.asarray(x, dtype=float)
    if c.negated:
        x = -x
    return min(_factor_margin(t, blk) for t, blk in zip(c.tags, c.space.split(x)))


def _scaled_tol(x: np.ndarray, tol: float | None) -> float:
    t = DEFAULT_TOL if tol is None else tol
    return t * (1.0 + float(np.linalg.norm(x)))


def member(c: Cone, x: np.ndarray, tol: float | None = None) -> bool:
    x = np.asarray(x, dtype=float)
    return margin(c, x) >= -_scaled_tol(x, tol)


def relint_member(c: Cone, x: np.ndarray, tol: float | None = None) -> bool:
    """Strict per-factor test; for Zero/Free factors relint equals the set."""
    x = np.asarray(x, dtype=float)
    t = _scaled_tol(x, tol)
    if c.negated:
        x = -x
    for tag, blk in zip(c.tags, c.space.split(x)):
        m = _factor_margin(tag, blk)
        if tag in (ZERO, FREE):
            if m < -t:
                return False
        elif m < t:
            return False
    return True


def lineality(c: Cone) -> Subspace:
    cols = []
    eye = np.eye(c.space.dim)
    for tag, s in zip(c.tags, c.space.slices()):
        if tag == FREE:
            cols.append(eye[:, s])
    if not cols:
        return Subspace.zero(c.space)
    return Subspace(c.space, np.hstack(cols))


def span(c: Cone) -> Subspace:
    cols = []
    eye = np.eye(c.space.dim)
    for tag, s in zip(c.tags, c.space.slices()):
        if tag != ZERO:
            cols.append(eye[:, s])
    if not cols:
        return Subspace.zero(c.space)
    return Subspace(c.space, np.hstack(cols))


def is_pointed(c: Cone) -> bool:
    return lineality(c).dim == 0


def is_subspace(c: Cone) -> bool:
    return all(t in (ZERO, FREE) for t in c.tags)


def is_polyhedral(c: Cone) -> bool:
    return all(t in (ZERO, FREE, NONNEG) for t in c.tags)


def canonical_relint_point(c: Cone) -> np.ndarray:
    """Zero/Free -> 0, Nonneg -> ones, SecondOrder -> e_n, Psd -> identity."""
    out = c.space.zeros()
    for tag, s, f in zip(c.tags, c.space.slices(), c.space.factors):
        if tag == NONNEG:
            out[s] = 1.0
        elif tag == SOC:
            out[s.stop - 1] = 1.0
        elif tag == PSD:
            out[s] = sym_to_vec(np.eye(f.size))
    if c.negated:
        out = -out
    return out


@lru_cache(maxsize=256)
def projector(c: Cone):
    """Euclidean projection onto the cone, planned once from its tags.

    Zero coordinates are set to 0, Nonneg ones clipped at 0, Free ones kept;
    each SecondOrder block is projected on (start, axis), each Psd block by
    clipping the eigenvalues of its matrix.  The negation flag is applied to
    the input and again to the output.
    """
    zero, nonneg, socs, psds = [], [], [], []
    for tag, s in zip(c.tags, c.space.slices()):
        if tag == ZERO:
            zero.extend(range(s.start, s.stop))
        elif tag == NONNEG:
            nonneg.extend(range(s.start, s.stop))
        elif tag == SOC:
            socs.append((s.start, s.stop - 1))
        elif tag == PSD:
            psds.append(s)
    zero = np.array(zero, dtype=np.intp)
    nonneg = np.array(nonneg, dtype=np.intp)
    negated, dim = c.negated, c.space.dim

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (dim,):
            raise ValueError(f"expected vector of dim {dim}, got shape {x.shape}")
        out = -1.0 * x if negated else x.copy()
        if zero.size:
            out[zero] = 0.0
        if nonneg.size:
            out[nonneg] = np.maximum(out[nonneg], 0.0)
        for start, axis in socs:
            z, t = out[start:axis], out[axis]
            nz = math.sqrt(z.dot(z))  # bitwise np.linalg.norm(z)
            if nz <= t:
                continue
            if nz <= -t:
                out[start:axis + 1] = 0.0
                continue
            coef = (nz + t) / 2.0
            out[start:axis] = coef * (z / nz)
            out[axis] = coef
        for s in psds:
            w, v = np.linalg.eigh(vec_to_sym(out[s]))
            w = np.maximum(w, 0.0)
            out[s] = sym_to_vec((v * w) @ v.T)
        return -1.0 * out if negated else out

    return apply


def project(c: Cone, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the cone."""
    return projector(c)(x)


# entry-threshold line search: bisection cap and iteration budget
ENTRY_CAP = 1e8
ENTRY_ITERS = 200


class UnboundedEntry(Exception):
    """x + t*y stays in the cone out to the cap, i.e. y is in the cone."""


def _factor_entry(tag: str, x: np.ndarray, y: np.ndarray) -> float:
    """sup{t >= 0 : x + t y in factor cone} for a single factor, analytic cases."""
    if tag == FREE:
        return np.inf
    if tag == NONNEG:
        ts = np.inf
        for xi, yi in zip(x, y):
            if yi < 0:
                ts = min(ts, xi / (-yi))
        return ts
    if tag == SOC:
        # solve (t: ||x'+t y'|| <= x_n + t y_n), quadratic in t
        a = float(np.dot(y[:-1], y[:-1]) - y[-1] ** 2)
        b = float(2 * np.dot(x[:-1], y[:-1]) - 2 * x[-1] * y[-1])
        c0 = float(np.dot(x[:-1], x[:-1]) - x[-1] ** 2)
        # feasible while a t^2 + b t + c0 <= 0 and x_n + t y_n >= 0
        lin_cap = np.inf
        if y[-1] < 0:
            lin_cap = x[-1] / (-y[-1])
        if abs(a) < 1e-14:
            if b <= 1e-14:
                return lin_cap
            return min(max(-c0 / b, 0.0), lin_cap)
        disc = b * b - 4 * a * c0
        if disc < 0:
            # no real roots: q keeps the sign of a everywhere
            return 0.0 if a > 0 else lin_cap
        sq = np.sqrt(disc)
        lo_root, hi_root = sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a)))
        if a > 0:
            # q <= 0 exactly on [lo_root, hi_root]; x feasible at t = 0
            return min(max(hi_root, 0.0), lin_cap)
        # a < 0: q >= 0 exactly on [lo_root, hi_root]
        if lo_root > 1e-14:
            return min(lo_root, lin_cap)
        if hi_root <= 1e-14:
            return lin_cap
        return 0.0
    return np.nan  # bisection fallback (Zero, Psd)


def entry_threshold(c: Cone, x: np.ndarray, y: np.ndarray, tol: float | None = None) -> float:
    """sup{t >= 0 : x + t y in cone} for x in the cone, y in span, y not in the cone.

    Raises UnboundedEntry when the segment stays inside out to the cap,
    which signals a precondition violation (y itself is in the cone).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not member(c, x, tol):
        raise ValueError("x must be a member of the cone")
    if not span(c).contains(y):
        raise ValueError("y must lie in the span of the cone")
    if member(c, y, tol):
        raise UnboundedEntry("y is in the cone; x + t y never leaves it")

    # per-factor analytic thresholds where available, else bisection
    analytic = []
    needs_bisect = False
    if c.negated:
        x, y = -x, -y
    for tag, s in zip(c.tags, c.space.slices()):
        t = _factor_entry(tag, x[s], y[s])
        if np.isnan(t):
            needs_bisect = True
        else:
            analytic.append(t)
    hi_cap = min(analytic) if analytic else ENTRY_CAP
    if not needs_bisect:
        if np.isinf(hi_cap):
            raise UnboundedEntry("segment never leaves the cone")
        return float(hi_cap)

    view = replace(c, negated=False)

    def inside(t):
        return member(view, x + t * y, tol)

    hi = min(hi_cap, ENTRY_CAP)
    if inside(hi):
        if hi >= ENTRY_CAP:
            raise UnboundedEntry("segment in cone out to the cap")
        return float(hi)
    lo = 0.0
    for _ in range(ENTRY_ITERS):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def relint_entry(c: Cone, x: np.ndarray, y: np.ndarray, tol: float | None = None) -> float:
    """inf{delta >= 0 : y + delta x in cone} for x in relint(cone), y in span."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not relint_member(c, x, tol):
        raise ValueError("x must be in the relative interior of the cone")
    if member(c, y, tol):
        return 0.0
    t_prime = entry_threshold(c, x, y, tol)
    if t_prime <= 0.0:
        raise ValueError("x sits on the boundary within tolerance; no finite threshold")
    return 1.0 / t_prime
