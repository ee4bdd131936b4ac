"""Cone calculus: duality, membership, projections, entry thresholds."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conedual import cones, spaces
from conedual.spaces import real, space, sym, sym_to_vec
from oracles import PROPERTY, is_pointed, subspace_equals

ALL_TAGS = [cones.ZERO, cones.FREE, cones.NONNEG, cones.SOC, cones.PSD]


def _single(tag, size=3):
    sp = space(sym(size) if tag == cones.PSD else real(size))
    return cones.cone(sp, tag)


def _sample_cones(rng):
    tag = ALL_TAGS[int(rng.integers(len(ALL_TAGS)))]
    size = int(rng.integers(2, 5))
    return _single(tag, size)


def test_dual_involution_tags():
    for tag in ALL_TAGS:
        c = _single(tag)
        assert cones.dual(cones.dual(c)).tags == c.tags


def test_polar_is_negated_dual():
    c = _single(cones.NONNEG)
    p = cones.polar(c)
    assert cones.member(p, -np.ones(3))
    assert not cones.member(p, np.ones(3))


def test_membership_hand_points():
    assert cones.member(_single(cones.NONNEG), np.array([0.0, 1.0, 2.0]))
    assert not cones.member(_single(cones.NONNEG), np.array([0.0, -1.0, 2.0]))
    assert cones.member(_single(cones.SOC), np.array([0.6, 0.8, 1.0]))
    assert not cones.member(_single(cones.SOC), np.array([0.8, 0.8, 1.0]))
    assert cones.member(_single(cones.ZERO), np.zeros(3))
    assert not cones.member(_single(cones.ZERO), np.array([1e-4, 0.0, 0.0]))
    assert cones.member(_single(cones.FREE), np.array([5.0, -7.0, 0.0]))
    psd = _single(cones.PSD, 2)
    assert cones.member(psd, sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert not cones.member(psd, sym_to_vec(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_relint_membership():
    soc = _single(cones.SOC)
    assert cones.relint_member(soc, np.array([0.0, 0.0, 1.0]))
    assert not cones.relint_member(soc, np.array([0.6, 0.8, 1.0]))
    free = _single(cones.FREE)
    assert cones.relint_member(free, np.zeros(3))
    zero = _single(cones.ZERO)
    assert cones.relint_member(zero, np.zeros(3))


def test_canonical_relint_point():
    for tag in ALL_TAGS:
        c = _single(tag)
        assert cones.relint_member(c, cones.canonical_relint_point(c))


def test_lineality_and_span_dims():
    dims = {cones.ZERO: (0, 0), cones.FREE: (3, 3), cones.NONNEG: (0, 3),
            cones.SOC: (0, 3)}
    for tag, (lin, spn) in dims.items():
        c = _single(tag)
        assert cones.lineality(c).dim == lin
        assert cones.span(c).dim == spn
    psd = _single(cones.PSD, 2)
    assert cones.lineality(psd).dim == 0
    assert cones.span(psd).dim == 3


def test_pointed_subspace_polyhedral_flags():
    assert is_pointed(_single(cones.NONNEG))
    assert not is_pointed(_single(cones.FREE))
    assert cones.is_subspace(_single(cones.ZERO))
    assert not cones.is_subspace(_single(cones.SOC))
    assert cones.is_polyhedral(_single(cones.NONNEG))
    assert not cones.is_polyhedral(_single(cones.PSD))


def test_projection_properties():
    rng = np.random.default_rng([11, 1])
    for _ in range(40):
        c = _sample_cones(rng)
        x = rng.standard_normal(c.space.dim) * 3
        px = cones.project(c, x)
        assert cones.member(c, px)
        # idempotent
        assert np.allclose(cones.project(c, px), px, atol=1e-8)
        # orthogonal decomposition against the polar cone
        qx = cones.project(cones.polar(c), x)
        assert np.allclose(px + qx, x, atol=1e-7)
        assert abs(px @ qx) <= 1e-7 * (1 + x @ x)


def test_projection_nonexpansive():
    rng = np.random.default_rng([11, 2])
    for _ in range(40):
        c = _sample_cones(rng)
        x = rng.standard_normal(c.space.dim)
        y = rng.standard_normal(c.space.dim)
        d = np.linalg.norm(cones.project(c, x) - cones.project(c, y))
        assert d <= np.linalg.norm(x - y) + 1e-9


def test_product_cone_blocks():
    c = cones.Cone(space(real(2), real(3)), (cones.NONNEG, cones.SOC))
    x = np.array([1.0, 2.0, 0.0, 0.5, 1.0])
    assert cones.member(c, x)
    x[0] = -1.0
    assert not cones.member(c, x)


def test_relint_absorption():
    # relint C + C stays in relint C
    rng = np.random.default_rng([11, 4])
    for _ in range(30):
        c = _sample_cones(rng)
        u = cones.canonical_relint_point(c)
        v = cones.project(c, rng.standard_normal(c.space.dim))
        assert cones.relint_member(c, u + v)


def test_origin_in_relint_only_for_subspaces():
    for tag in ALL_TAGS:
        c = _single(tag)
        assert cones.relint_member(c, np.zeros(c.space.dim)) == cones.is_subspace(c)


def test_span_of_dual_identity():
    # span C* = (lineality C)-perp
    for tag in ALL_TAGS:
        c = _single(tag)
        assert subspace_equals(cones.span(cones.dual(c)), cones.lineality(c).complement())


def test_margin_scaling():
    c = _single(cones.SOC)
    x = np.array([1.0, 1.0, 2.0])
    assert np.isclose(cones.margin(c, 3 * x), 3 * cones.margin(c, x))


def test_validation_rejects_bad_tags():
    with pytest.raises(ValueError):
        cones.Cone(space(real(3)), (cones.PSD,))
    with pytest.raises(ValueError):
        cones.Cone(space(sym(2)), (cones.SOC,))
    with pytest.raises(ValueError):
        cones.Cone(space(real(3)), (cones.NONNEG, cones.NONNEG))


# -- the planned projector against the loop-based reference ------------------
#
# _ref_* below are the loop-based svec maps and per-factor projection that the
# planned projector replaced.  They are kept here only as an oracle: the plan
# must reproduce them bit for bit, signed zeros included.

_SQRT2 = np.sqrt(2.0)


def _ref_sym_to_vec(mat):
    mat = np.asarray(mat, dtype=float)
    m = mat.shape[0]
    out = np.empty(m * (m + 1) // 2)
    k = 0
    for j in range(m):
        out[k] = mat[j, j]
        k += 1
        for i in range(j + 1, m):
            out[k] = mat[i, j] * _SQRT2
            k += 1
    return out


def _ref_vec_to_sym(vec):
    vec = np.asarray(vec, dtype=float)
    m = int(round((np.sqrt(8 * len(vec) + 1) - 1) / 2))
    out = np.empty((m, m))
    k = 0
    for j in range(m):
        out[j, j] = vec[k]
        k += 1
        for i in range(j + 1, m):
            out[i, j] = out[j, i] = vec[k] / _SQRT2
            k += 1
    return out


def _ref_factor_project(tag, x):
    if tag == cones.FREE:
        return x
    if tag == cones.ZERO:
        return np.zeros_like(x)
    if tag == cones.NONNEG:
        return np.maximum(x, 0.0)
    if tag == cones.SOC:
        z, t = x[:-1], x[-1]
        nz = np.linalg.norm(z)
        if nz <= t:
            return x
        if nz <= -t:
            return np.zeros_like(x)
        coef = (nz + t) / 2.0
        out = np.empty_like(x)
        out[:-1] = coef * (z / nz)
        out[-1] = coef
        return out
    w, v = np.linalg.eigh(_ref_vec_to_sym(x))
    w = np.maximum(w, 0.0)
    return _ref_sym_to_vec((v * w) @ v.T)


def _ref_project(c, x):
    sign = -1.0 if c.negated else 1.0
    x = sign * np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for tag, s in zip(c.tags, c.space.slices()):
        out[s] = _ref_factor_project(tag, x[s])
    return sign * out


@st.composite
def _factor(draw):
    tag = draw(st.sampled_from(ALL_TAGS))
    if tag == cones.PSD or (tag in (cones.ZERO, cones.FREE) and draw(st.booleans())):
        return tag, sym(draw(st.integers(1, 3)))
    return tag, real(draw(st.integers(2 if tag == cones.SOC else 1, 4)))


@st.composite
def _cone_and_point(draw):
    factors = draw(st.lists(_factor(), min_size=1, max_size=5))
    c = cones.Cone(space(*(f for _, f in factors)), tuple(t for t, _ in factors))
    if draw(st.booleans()):
        c = cones.polar(c)
    x = draw(st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                      min_size=c.space.dim, max_size=c.space.dim))
    return c, np.array(x)


@PROPERTY
@given(_cone_and_point())
def test_projector_lands_in_cone_and_is_idempotent(cx):
    c, x = cx
    px = cones.project(c, x)
    assert cones.member(c, px)
    tol = 1e-12 * (1.0 + np.linalg.norm(x))
    assert np.linalg.norm(cones.project(c, px) - px) <= tol


@PROPERTY
@given(_cone_and_point())
def test_projector_moreau_decomposition(cx):
    c, x = cx
    px = cones.project(c, x)
    qx = cones.project(cones.polar(c), x)
    nx = np.linalg.norm(x)
    assert np.linalg.norm(px + qx - x) <= 1e-12 * (1.0 + nx)
    assert abs(px @ qx) <= 1e-12 * (1.0 + nx * nx)


@PROPERTY
@given(_cone_and_point())
def test_projector_bitwise_matches_reference(cx):
    c, x = cx
    assert cones.project(c, x).tobytes() == _ref_project(c, x).tobytes()
    assert cones.projector(c)(x).tobytes() == _ref_project(c, x).tobytes()


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_svec_maps_bitwise_match_reference(m, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, m))  # unsymmetric: only the lower triangle is read
    vec = rng.standard_normal(m * (m + 1) // 2)
    assert spaces.sym_to_vec(mat).tobytes() == _ref_sym_to_vec(mat).tobytes()
    assert spaces.vec_to_sym(vec).tobytes() == _ref_vec_to_sym(vec).tobytes()


def test_projector_is_planned_once_per_cone():
    c = cones.Cone(space(real(2), sym(2)), (cones.NONNEG, cones.PSD))
    assert cones.projector(c) is cones.projector(cones.Cone(c.space, c.tags))
    with pytest.raises(ValueError):
        cones.project(c, np.zeros(4))


def test_cached_hashes_are_the_dataclass_hashes():
    # Cone and EuclideanSpace keep their hash once computed; it must be the
    # hash of their fields, as the frozen dataclass defines it, and a pickle
    # must not carry it to a process whose str hashes differ
    c = cones.Cone(space(real(2), sym(2)), (cones.ZERO, cones.PSD))
    twin = cones.Cone(space(real(2), sym(2)), (cones.ZERO, cones.PSD))
    assert hash(c) == hash(twin) == hash((c.space, c.tags, c.negated))
    assert hash(c.space) == hash((c.space.factors,))
    assert c == twin and c != cones.polar(c) and c != cones.dual(c)
    assert hash(cones.polar(c)) == hash((c.space, cones.dual(c).tags, True))
    state = pickle.dumps(c)
    assert b"_hash" not in state
    back = pickle.loads(state)
    assert back == c and hash(back) == hash(c)
