"""Euclidean space model: symmetric vectorization, adjoints, subspace algebra."""

import numpy as np
import pytest

from conedual.spaces import (
    LinearMap, Subspace, image_of_subspace, inner, kernel, preimage_of_subspace,
    product_space, real, space, sym, sym_to_vec, vec_to_sym,
)
from oracles import range_space, subspace_equals, subspace_intersection, subspace_sum


def test_sym_vec_roundtrip():
    rng = np.random.default_rng([7, 1])
    for _ in range(50):
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, m))
        a = a + a.T
        assert np.allclose(vec_to_sym(sym_to_vec(a)), a)


def test_sym_vec_isometry():
    rng = np.random.default_rng([7, 2])
    for _ in range(50):
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, m))
        b = rng.standard_normal((m, m))
        a, b = a + a.T, b + b.T
        assert np.isclose(float(np.tensordot(a, b)), sym_to_vec(a) @ sym_to_vec(b))


def test_space_dims():
    sp = space(real(3), sym(2))
    assert sp.dim == 3 + 3
    assert product_space(space(real(2)), space(real(1))).dim == 3


def test_adjoint_identity():
    rng = np.random.default_rng([7, 3])
    for _ in range(100):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = LinearMap(space(real(n)), space(real(m)), rng.standard_normal((m, n)))
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        assert np.isclose(inner(a(x), y), inner(a.adjoint()(y), x))


def _random_subspace(sp, dim, rng):
    return Subspace.from_spanning(sp, rng.standard_normal((sp.dim, dim)))


def test_subspace_contains_and_complement():
    rng = np.random.default_rng([7, 4])
    sp = space(real(5))
    sub = _random_subspace(sp, 2, rng)
    comp = sub.complement()
    assert sub.dim + comp.dim == 5
    v = sub.basis @ rng.standard_normal(sub.dim)
    assert sub.contains(v)
    assert not comp.contains(v + comp.basis[:, 0])
    assert np.allclose(sub.project(v), v)
    assert np.allclose(comp.project(v), 0)


def test_subspace_sum_intersection_dim_formula():
    rng = np.random.default_rng([7, 5])
    sp = space(real(6))
    for _ in range(25):
        a = _random_subspace(sp, int(rng.integers(1, 5)), rng)
        b = _random_subspace(sp, int(rng.integers(1, 5)), rng)
        s = subspace_sum(a, b)
        i = subspace_intersection(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        v = i.basis @ rng.standard_normal(i.dim) if i.dim else np.zeros(6)
        assert a.contains(v) and b.contains(v)


def test_kernel_range_orthogonality():
    rng = np.random.default_rng([7, 6])
    for _ in range(25):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = LinearMap(space(real(n)), space(real(m)), rng.standard_normal((m, n)))
        # ker A = (range A*)-perp
        assert subspace_equals(kernel(a), range_space(a.adjoint()).complement())
        assert subspace_equals(kernel(a.adjoint()), range_space(a).complement())


def test_adjoint_image_of_complement_identity():
    # A*(M-perp) = (A^{-1} M)-perp for any subspace M of the codomain
    rng = np.random.default_rng([7, 8])
    for _ in range(25):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = LinearMap(space(real(n)), space(real(m)), rng.standard_normal((m, n)))
        sub = _random_subspace(space(real(m)), int(rng.integers(0, m + 1)), rng)
        lhs = image_of_subspace(a.adjoint(), sub.complement())
        rhs = preimage_of_subspace(a, sub).complement()
        assert subspace_equals(lhs, rhs)


def test_image_preimage_consistency():
    rng = np.random.default_rng([7, 9])
    n, m = 5, 4
    a = LinearMap(space(real(n)), space(real(m)), rng.standard_normal((m, n)))
    sub = _random_subspace(space(real(n)), 2, rng)
    img = image_of_subspace(a, sub)
    for _ in range(10):
        v = sub.basis @ rng.standard_normal(2)
        assert img.contains(a(v))
    pre = preimage_of_subspace(a, img)
    for _ in range(10):
        v = pre.basis @ rng.standard_normal(pre.dim)
        assert img.contains(a(v))


def test_rank_deficient_spanning_set():
    sp = space(real(4))
    mat = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    sub = Subspace.from_spanning(sp, mat)
    assert sub.dim == 1


def test_linear_map_shape_validation():
    with pytest.raises(ValueError):
        LinearMap(space(real(2)), space(real(3)), np.zeros((2, 3)))
