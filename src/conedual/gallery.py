"""Reproducible instance generators for tests, demos and property runs.

Every generator is deterministic in (family, parameters, seed).  Random draws
use one named PRNG stream per component so adding a field never shifts the
other draws.  Ground-truth annotations are only attached when the
construction itself is the certificate, and are revalidated at build time.
"""

from __future__ import annotations

import numpy as np

from . import cones
from .program import ConicProgram
from .spaces import LinearMap, real, space, sym

# stream ids for the per-component RNGs
_STREAM_A = 1
_STREAM_X0 = 2
_STREAM_S0 = 3
_STREAM_Y0 = 4
_STREAM_W0 = 5
_STREAM_B = 6
_STREAM_C = 7
_STREAM_SHAPE = 8

# step of the planted construction points away from the canonical interior point
RELINT_SCALE = 0.4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _build_cone(descr: list[tuple[str, int]]) -> cones.Cone:
    """descr entries: (tag, size); size is the matrix order for psd."""
    factors = []
    tags = []
    for tag, size in descr:
        factors.append(sym(size) if tag == cones.PSD else real(size))
        tags.append(tag)
    return cones.Cone(space(*factors), tuple(tags))


def example_adapted(n: int) -> ConicProgram:
    """The infinite-gap family: equality rows pin an ice-cream-cone variable
    so the primal is infeasible while the dual attains value 0 at the origin."""
    if n < 3:
        raise ValueError("needs n >= 3")
    amat = np.hstack([np.eye(n - 1), np.zeros((n - 1, 1))])
    amat[0, n - 1] = 1.0
    b = np.ones(n - 1)
    b[0] = 0.0
    c = np.zeros(n)
    dom = space(real(n))
    cod = space(real(n - 1))
    return ConicProgram(
        A=LinearMap(dom, cod, amat), b=b, c=c,
        K=cones.cone(cod, cones.ZERO),
        C=cones.cone(dom, cones.SOC),
        sense="sup")


EXAMPLE_ADAPTED_EXPECTED = {"primal_status": "PrimalInfeasible", "dobj": 0.0,
                            "dual_solution": "origin"}


def planted_strong_duality(c_descr, k_descr, seed: int = 0) -> ConicProgram:
    """Both sides strictly feasible by construction, hence zero gap.

    Draws interior points x0 of C, s0 of K, y0 of K*, w0 of C* and sets
    b = A x0 + s0, c = A* y0 - w0.
    """
    big_c = _build_cone(c_descr)
    big_k = _build_cone(k_descr)
    n, m = big_c.space.dim, big_k.space.dim
    amat = _rng(seed, _STREAM_A).standard_normal((m, n)) / np.sqrt(max(n, 1))
    a = LinearMap(big_c.space, big_k.space, amat)
    x0 = cones.sample_relint(big_c, _rng(seed, _STREAM_X0), RELINT_SCALE)
    s0 = cones.sample_relint(big_k, _rng(seed, _STREAM_S0), RELINT_SCALE)
    y0 = cones.sample_relint(cones.dual(big_k), _rng(seed, _STREAM_Y0), RELINT_SCALE)
    w0 = cones.sample_relint(cones.dual(big_c), _rng(seed, _STREAM_W0), RELINT_SCALE)
    b = a(x0) + s0
    c = a.adjoint()(y0) - w0
    p = ConicProgram(A=a, b=b, c=c, K=big_k, C=big_c, sense="sup")
    assert cones.relint_member(big_k, b - a(x0))
    assert cones.relint_member(cones.dual(big_c), a.adjoint()(y0) - c)
    return p


def packing_instance(m: int, n: int, seed: int = 0,
                     feasible: bool = True) -> ConicProgram:
    """Nonnegative A with strictly positive columns, C = K = Nonneg."""
    rng = _rng(seed, _STREAM_A)
    amat = rng.uniform(0.1, 1.0, size=(m, n))
    b = np.ones(m)
    if not feasible:
        b[_rng(seed, _STREAM_B).integers(m)] = -1.0
    c = np.ones(n)
    dom, cod = space(real(n)), space(real(m))
    return ConicProgram(
        A=LinearMap(dom, cod, amat), b=b, c=c,
        K=cones.cone(cod, cones.NONNEG),
        C=cones.cone(dom, cones.NONNEG),
        sense="sup")


PROFILES = {
    "lp-small": dict(c_tags=[cones.NONNEG], k_tags=[cones.NONNEG], lo=2, hi=5),
    "lp-eq": dict(c_tags=[cones.NONNEG], k_tags=[cones.ZERO], lo=2, hi=5),
    "soc-mix": dict(c_tags=[cones.SOC], k_tags=[cones.NONNEG], lo=3, hi=6),
    "psd-small": dict(c_tags=[cones.PSD], k_tags=[cones.NONNEG], lo=2, hi=3),
    "free-ineq": dict(c_tags=[cones.FREE], k_tags=[cones.NONNEG], lo=2, hi=5),
    "mixed": dict(c_tags=[cones.NONNEG, cones.SOC],
                  k_tags=[cones.ZERO, cones.NONNEG], lo=2, hi=4),
}


def random_program(profile: str, seed: int = 0) -> ConicProgram:
    """Random instance from a named profile; dimensions stay desk-scale."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    cfg = PROFILES[profile]
    shape_rng = _rng(seed, _STREAM_SHAPE)

    def draw(tags):
        descr = []
        for tag in tags:
            lo = max(cfg["lo"], 2) if tag == cones.SOC else cfg["lo"]
            descr.append((tag, int(shape_rng.integers(lo, cfg["hi"] + 1))))
        return descr

    big_c = _build_cone(draw(cfg["c_tags"]))
    big_k = _build_cone(draw(cfg["k_tags"]))
    n, m = big_c.space.dim, big_k.space.dim
    amat = _rng(seed, _STREAM_A).standard_normal((m, n)) / np.sqrt(max(n, 1))
    b = _rng(seed, _STREAM_B).standard_normal(m)
    c = _rng(seed, _STREAM_C).standard_normal(n)
    return ConicProgram(
        A=LinearMap(big_c.space, big_k.space, amat), b=b, c=c,
        K=big_k, C=big_c, sense="sup")
