"""Euclidean product spaces, orthonormal coordinates, linear maps and subspaces.

A space is an ordered product of real-vector factors and symmetric-matrix
factors.  Every vector is handled in orthonormal coordinates: symmetric
matrices are embedded with the scaled lower-triangle vectorization (svec),
which makes the embedding an isometry and the adjoint of a map equal to the
transpose of its coordinate matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Singular values below RANK_TOL * max(largest singular value, 1) count as zero.
RANK_TOL = 1e-9

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Factor:
    """One factor of a product space: Real(n) vectors or Sym(m) matrices."""

    kind: str  # "real" | "sym"
    size: int

    def __post_init__(self):
        if self.kind not in ("real", "sym"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("factor size must be positive")

    @property
    def dim(self) -> int:
        if self.kind == "real":
            return self.size
        m = self.size
        return m * (m + 1) // 2


def real(n: int) -> Factor:
    return Factor("real", n)


def sym(m: int) -> Factor:
    return Factor("sym", m)


@lru_cache(maxsize=None)
def _svec_maps(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, weights) of the svec coordinates of Sym(m), in column order.

    Coordinate k is the lower-triangle entry (rows[k], cols[k]); weights[k] is
    1 on the diagonal and sqrt(2) off it.
    """
    cols, rows = np.triu_indices(m)
    weights = np.where(rows == cols, 1.0, _SQRT2)
    for arr in (rows, cols, weights):
        arr.flags.writeable = False
    return rows, cols, weights


def sym_to_vec(mat: np.ndarray) -> np.ndarray:
    """Scaled lower-triangle vectorization, column order, off-diagonals * sqrt(2)."""
    mat = np.asarray(mat, dtype=float)
    rows, cols, weights = _svec_maps(mat.shape[0])
    return mat[rows, cols] * weights


def vec_to_sym(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    # invert m(m+1)/2 = len(vec)
    m = int(round((np.sqrt(8 * len(vec) + 1) - 1) / 2))
    if m * (m + 1) // 2 != len(vec):
        raise ValueError(f"length {len(vec)} is not a triangular number")
    rows, cols, weights = _svec_maps(m)
    vals = vec / weights
    out = np.empty((m, m))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


@dataclass(frozen=True)
class EuclideanSpace:
    """Ordered product of Real and Sym factors with the standard inner product."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("space needs at least one factor")

    @cached_property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    # the dataclass hash, computed once: every lru_cache keyed on a space or
    # a cone hashes it at each lookup
    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.factors,))
        return h

    def __getstate__(self):
        # a str hashes differently in another process, so a pickle drops it
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def slices(self) -> list[slice]:
        out, k = [], 0
        for f in self.factors:
            out.append(slice(k, k + f.dim))
            k += f.dim
        return out

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got shape {x.shape}")
        return [x[s] for s in self.slices()]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.dim)


def space(*factors: Factor) -> EuclideanSpace:
    return EuclideanSpace(tuple(factors))


def product_space(a: EuclideanSpace, b: EuclideanSpace) -> EuclideanSpace:
    return EuclideanSpace(a.factors + b.factors)


def inner(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(np.asarray(x, float), np.asarray(y, float)))


@dataclass(frozen=True)
class LinearMap:
    """Dense linear map between spaces; the matrix acts on orthonormal coordinates."""

    domain: EuclideanSpace
    codomain: EuclideanSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"({self.codomain.dim}, {self.domain.dim})"
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)

    def adjoint(self) -> "LinearMap":
        return LinearMap(self.codomain, self.domain, self.matrix.T)


def _orthonormal_basis(vectors: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) for the column span of `vectors`."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size == 0 or vectors.shape[1] == 0:
        return np.zeros((vectors.shape[0], 0))
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    cutoff = rank_tol * max(s[0] if len(s) else 0.0, 1.0)
    r = int(np.sum(s > cutoff))
    return u[:, :r]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by an orthonormal basis (columns of `basis`)."""

    ambient: EuclideanSpace
    basis: np.ndarray  # shape (ambient.dim, k), orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient.dim:
            raise ValueError("basis must be (ambient.dim, k)")
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_spanning(cls, ambient: EuclideanSpace, vectors: np.ndarray) -> "Subspace":
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        return cls(ambient, _orthonormal_basis(vectors))

    @classmethod
    def zero(cls, ambient: EuclideanSpace) -> "Subspace":
        return cls(ambient, np.zeros((ambient.dim, 0)))

    @classmethod
    def full(cls, ambient: EuclideanSpace) -> "Subspace":
        return cls(ambient, np.eye(ambient.dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.basis @ (self.basis.T @ x)

    def contains(self, x: np.ndarray, tol: float = 1e-8) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.linalg.norm(x - self.project(x)) <= tol * (1.0 + np.linalg.norm(x)))

    def complement(self) -> "Subspace":
        n, k = self.ambient.dim, self.dim
        if k == 0:
            return Subspace.full(self.ambient)
        if k == n:
            return Subspace.zero(self.ambient)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(self.ambient, u[:, k:])


def kernel(m: LinearMap) -> Subspace:
    mat = m.matrix
    if mat.shape[0] == 0:
        return Subspace.full(m.domain)
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    cutoff = RANK_TOL * max(s[0] if len(s) else 0.0, 1.0)
    r = int(np.sum(s > cutoff))
    return Subspace(m.domain, vt[r:].T)


def image_of_subspace(m: LinearMap, sub: Subspace) -> Subspace:
    if sub.ambient != m.domain:
        raise ValueError("subspace not in the map's domain")
    return Subspace.from_spanning(m.codomain, m.matrix @ sub.basis)


def preimage_of_subspace(m: LinearMap, sub: Subspace) -> Subspace:
    """{x : M x in sub}, computed as the kernel of the complement projector."""
    if sub.ambient != m.codomain:
        raise ValueError("subspace not in the map's codomain")
    comp = sub.complement()
    stacked = LinearMap(m.domain, m.codomain, comp.project(np.eye(m.codomain.dim)) @ m.matrix)
    return kernel(stacked)
