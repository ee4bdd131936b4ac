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
from scipy.linalg import get_lapack_funcs

from .spaces import EuclideanSpace, Subspace, _svec_maps, product_space, sym_to_vec, vec_to_sym

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

    # the dataclass hash, computed once, as for EuclideanSpace
    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.space, self.tags, self.negated))
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


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


def _coordinate_subspace(c: Cone, keep) -> Subspace:
    """The span of the coordinates of the factors whose tag passes `keep`."""
    eye = np.eye(c.space.dim)
    cols = [eye[:, s] for tag, s in zip(c.tags, c.space.slices()) if keep(tag)]
    if not cols:
        return Subspace.zero(c.space)
    return Subspace(c.space, np.hstack(cols))


def lineality(c: Cone) -> Subspace:
    return _coordinate_subspace(c, lambda tag: tag == FREE)


def span(c: Cone) -> Subspace:
    return _coordinate_subspace(c, lambda tag: tag != ZERO)


def is_subspace(c: Cone) -> bool:
    return all(t in (ZERO, FREE) for t in c.tags)


def is_polyhedral(c: Cone) -> bool:
    return all(t in (ZERO, FREE, NONNEG) for t in c.tags)


def sample_relint(c: Cone, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Random relative-interior point: the canonical one plus `scale` times a
    random direction in the span, the step halved until the point is strictly
    inside (at most 60 times, then the canonical point itself)."""
    e = canonical_relint_point(c)
    d = span(c).project(rng.standard_normal(c.space.dim))
    for _ in range(60):
        cand = e + scale * d
        if relint_member(c, cand):
            return cand
        scale *= 0.5
    return e


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

    Nonneg coordinates are clipped at 0 by one `np.maximum` against a lower
    bound planned once (0 on them, -inf elsewhere), which also makes the
    copy; Zero coordinates are set to 0 through contiguous slices, Free ones
    kept; each SecondOrder block is projected on (start, axis), each Psd
    block by clipping the eigenvalues of its matrix.  The negation flag is
    applied to the input and again to the output.

    A Psd block is planned as its slice, its order and the svec (rows, cols,
    weights), and its matrix goes to LAPACK's dsyevd on the lower triangle,
    the routine and triangle `np.linalg.eigh` calls, so that the result is
    bitwise that of `vec_to_sym`, `eigh` and `sym_to_vec`.
    """
    negated, dim = c.negated, c.space.dim
    lower = np.full(dim, -np.inf)
    zero, socs, psds = [], [], []
    for tag, s, f in zip(c.tags, c.space.slices(), c.space.factors):
        if tag == ZERO:
            if zero and zero[-1].stop == s.start:
                s = slice(zero.pop().start, s.stop)
            zero.append(s)
        elif tag == NONNEG:
            lower[s] = 0.0
        elif tag == SOC:
            socs.append((s.start, s.stop - 1))
        elif tag == PSD:
            psds.append((s, f.size, *_svec_maps(f.size)))
    if psds:
        syevd, = get_lapack_funcs(("syevd",), (np.eye(1),))

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (dim,):
            raise ValueError(f"expected vector of dim {dim}, got shape {x.shape}")
        out = np.maximum(-1.0 * x if negated else x, lower)
        for s in zero:
            out[s] = 0.0
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
        for s, m, rows, cols, weights in psds:
            mat = np.empty((m, m))
            vals = out[s] / weights
            mat[rows, cols] = vals
            mat[cols, rows] = vals
            # mat is symmetric, so its transpose is the Fortran-ordered copy
            # dsyevd may overwrite
            w, v, info = syevd(mat.T, lower=1, overwrite_a=1)
            if info:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            w = np.maximum(w, 0.0)
            out[s] = ((v * w) @ v.T)[rows, cols] * weights
        return -1.0 * out if negated else out

    return apply


def project(c: Cone, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the cone."""
    return projector(c)(x)

