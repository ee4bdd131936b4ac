"""Seeded populations, the timed operation, and the oracle check per workload.

A workload builds its population from the --seed argument at set-up, then the
runner times `run(item)` once per item per pass.  `check(item, out)` compares
the output with an oracle the repository already trusts and returns a failure
reason or None; it runs after the timed phase, untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from conedual import cli, cones, diagnostics, gallery, program, projection
from conedual.spaces import LinearMap, Subspace, real, space

N, Z, S, P = cones.NONNEG, cones.ZERO, cones.SOC, cones.PSD

# the six planted cone mixes of the acceptance suite
MIXES = [
    ([(N, 3)], [(N, 2)]),
    ([(N, 2), (S, 3)], [(N, 3)]),
    ([(S, 3)], [(Z, 1), (N, 2)]),
    ([(P, 2)], [(N, 2)]),
    ([(N, 2)], [(S, 3)]),
    ([(P, 2), (N, 2)], [(Z, 2), (N, 2)]),
]

GAP_TOL = 1e-5  # gap a planted report may show
LP_REL_TOL = 1e-6  # agreement with HiGHS


@dataclass
class Item:
    label: str
    prog: program.ConicProgram
    extra: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


# ---------------------------------------------------------------------------
# seeded relabelling: a coordinate permutation that maps each factor cone onto
# itself, so the program is new bytes but the same problem


def _svec_index(m: int) -> np.ndarray:
    idx = np.empty((m, m), dtype=int)
    k = 0
    for j in range(m):
        for i in range(j, m):
            idx[i, j] = idx[j, i] = k
            k += 1
    return idx


def _cone_perm(cone: cones.Cone, rng: np.random.Generator) -> np.ndarray:
    perm, off = [], 0
    for tag, f in zip(cone.tags, cone.space.factors):
        if tag == P:
            idx = _svec_index(f.size)
            pi = rng.permutation(f.size)
            local = np.empty(f.dim, dtype=int)
            for i in range(f.size):
                for j in range(i + 1):
                    local[idx[pi[i], pi[j]]] = idx[i, j]
        elif tag == S:  # the last coordinate is the cone's axis
            local = np.append(rng.permutation(f.dim - 1), f.dim - 1)
        else:
            local = rng.permutation(f.dim)
        perm.append(local + off)
        off += f.dim
    return np.concatenate(perm)


def relabel(p: program.ConicProgram, rng: np.random.Generator) -> program.ConicProgram:
    rows, cols = _cone_perm(p.K, rng), _cone_perm(p.C, rng)
    return program.ConicProgram(
        A=LinearMap(p.A.domain, p.A.codomain, p.A.matrix[np.ix_(rows, cols)]),
        b=p.b[rows], c=p.c[cols], K=p.K, C=p.C, sense=p.sense)


# ---------------------------------------------------------------------------
# shared oracles


def _lp_rows(p: program.ConicProgram):
    """sup c.x s.t. b - A x in K, x in C, for Zero/Free/Nonneg factors, as
    linprog arguments (minimising -c.x)."""
    aub, bub, aeq, beq = [], [], [], []
    for tag, sl in zip(p.K.tags, p.K.space.slices()):
        if tag == Z:
            aeq.append(p.A.matrix[sl]), beq.append(p.b[sl])
        elif tag == N:
            aub.append(p.A.matrix[sl]), bub.append(p.b[sl])
    bounds = []
    for tag, f in zip(p.C.tags, p.C.space.factors):
        bounds += [{N: (0, None), Z: (0, 0)}.get(tag, (None, None))] * f.dim

    def cat(parts):
        return np.concatenate(parts) if parts else None

    return dict(c=-p.c, A_ub=np.vstack(aub) if aub else None, b_ub=cat(bub),
                A_eq=np.vstack(aeq) if aeq else None, b_eq=cat(beq),
                bounds=bounds, method="highs")


def _lp_value(p: program.ConicProgram) -> float:
    """HiGHS value of the sup program: +inf unbounded, -inf infeasible."""
    res = linprog(**_lp_rows(p))
    if res.status == 0:
        return -res.fun
    if res.status == 3:
        return np.inf
    if res.status == 2:
        return -np.inf
    raise RuntimeError(f"HiGHS did not decide: {res.message}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


# ---------------------------------------------------------------------------
# workloads


class ReportPathology:
    """strong_duality_report on the infinite-gap family example_adapted(n).

    Population: n = 3..8, relabelled by the workload seed, at the budget of
    acceptance criterion 01.  Each report makes 20 solves, 15 of them unique,
    and 6 run to the budget, at this budget as at the default MAX_ITER.  At
    the default, one report takes 10-16 s on a 2-core machine.  That leaves
    one sample per run, and contention from the host moved it by 20% between
    runs.
    """

    BUDGET = 1200

    def build(self, seed, tiny, workdir):
        rng = _rng(seed, 1)
        return [Item(f"example_adapted({n})", relabel(gallery.example_adapted(n), rng),
                     {"max_iter": 300 if tiny else self.BUDGET})
                for n in ((3,) if tiny else range(3, 9))]

    def run(self, item):
        return diagnostics.strong_duality_report(item.prog,
                                                 max_iter=item.extra["max_iter"])

    def verdicts(self, item, rep, statuses):
        return [e["verdict"] for e in rep.entries]

    def digest(self, item, rep):
        return json.dumps(rep.to_json(), sort_keys=True, default=repr)

    def check(self, item, rep):
        fired = rep.fired()
        return f"sufficient conditions fired: {fired}" if fired else None


class DiagnoseGallery:
    """`conedual --json diagnose FILE` in process over written instance files.

    Population: planted_strong_duality on the six MIXES and random_program on
    the six PROFILES, gallery seeds 0 and 1 each (24 files), relabelled by
    the workload seed.
    """

    GALLERY_SEEDS = (0, 1)

    def build(self, seed, tiny, workdir):
        rng = _rng(seed, 2)
        items = []
        for s in self.GALLERY_SEEDS[:1] if tiny else self.GALLERY_SEEDS:
            for i, (c_descr, k_descr) in enumerate(MIXES):
                p = gallery.planted_strong_duality(c_descr, k_descr, seed=s)
                items.append(Item(f"planted-{i}-s{s}", relabel(p, rng),
                                  {"planted": True}))
            for name in sorted(gallery.PROFILES):
                p = gallery.random_program(name, seed=s)
                items.append(Item(f"{name}-s{s}", relabel(p, rng),
                                  {"planted": False}))
        if tiny:
            items = items[::4]
        for k, item in enumerate(items):
            path = os.path.join(workdir, f"{k:02d}-{item.label}.json")
            with open(path, "w") as fh:
                json.dump(cli.dump(item.prog), fh)
            item.extra["path"] = path
        return items

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--json", "diagnose", item.extra["path"]])
        return code, buf.getvalue()

    def verdicts(self, item, out, statuses):
        code, text = out
        return [e["verdict"] for e in json.loads(text)["entries"]] if code == 0 else []

    def digest(self, item, out):
        return out

    def check(self, item, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        verdicts = {e["verdict"] for e in doc["entries"]}
        if not verdicts <= {"Yes", "No", "Unknown"}:
            return f"unexpected verdicts {sorted(verdicts)}"
        gap = float(doc["gap"])
        if item.extra["planted"]:
            return None if gap <= GAP_TOL else f"planted report gap {gap!r}"
        pobj, dobj = float(doc["pobj"]), float(doc["dobj"])
        if item.prog.is_fully_polyhedral():
            if np.isnan(pobj):
                return None
            ref = _lp_value(item.prog)
            ok = pobj == ref if not np.isfinite(ref) else (
                np.isfinite(pobj) and _rel(pobj, ref) <= LP_REL_TOL)
            return None if ok else f"pobj {pobj!r} vs HiGHS {ref!r}"
        if np.isfinite(pobj) and np.isfinite(dobj) and \
                pobj > dobj + GAP_TOL * (1 + abs(pobj) + abs(dobj)):
            return f"weak duality violated: pobj {pobj!r} > dobj {dobj!r}"
        return None


class ProjectExact:
    """projection.project of bounded integer polytopes onto x_1..x_3.

    A fixed population: the seed only orders it (see `build`).  One 9x11
    instance took 23-74 s, so the largest here is 8 rows x 9 variables.
    """

    K = 3
    # (rows before the bounding row, variables): n <= 8 meets the
    # Fourier-Motzkin oracle, n = 9 the LP row check
    SHAPES = [(6, 8)] * 6 + [(7, 9)] * 4
    TINY_SHAPES = [(2, 3), (3, 4)]

    def build(self, seed, tiny, workdir):
        items = []
        for i, (m, n) in enumerate(self.TINY_SHAPES if tiny else self.SHAPES):
            rng = _rng(0, 5, i)
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            b = rng.integers(1, 6, size=m).astype(float)
            # x >= 0 and sum(x) <= n bound the set, so the precondition holds
            a = np.vstack([a, np.ones(n)])
            b = np.append(b, float(n))
            dom, cod = space(real(n)), space(real(m + 1))
            p = program.ConicProgram(
                A=LinearMap(dom, cod, a), b=b, c=np.ones(n),
                K=cones.cone(cod, N), C=cones.cone(dom, N), sense="sup")
            k = min(self.K, n - 1)
            items.append(Item(f"{m + 1}x{n}-{i}", p,
                              {"sub": Subspace(dom, np.eye(n)[:, :k]), "k": k}))
        # Only the order is seeded.  Double-description time depends on the
        # polytope and on its row order, so seeded polytopes, rescaled rows or
        # permuted rows all moved wall_s by more than the bound between seeds.
        return [items[i] for i in _rng(seed, 5).permutation(len(items))]

    def run(self, item):
        return projection.project(item.prog, item.extra["sub"])

    def verdicts(self, item, h, statuses):
        return statuses

    def digest(self, item, h):
        return tuple(sorted(h.canonical_set()))

    def check(self, item, h):
        if not h.exact:
            return "polyhedral projection not exact"
        a, b, k = item.prog.A.matrix, item.prog.b, item.extra["k"]
        n = a.shape[1]
        if n <= 8:
            fm = projection.fourier_motzkin(
                np.vstack([a, -np.eye(n)]), np.concatenate([b, np.zeros(n)]),
                list(range(k, n)))
            same = h.canonical_set() == fm.canonical_set()
            return None if same else "facets differ from Fourier-Motzkin"
        # larger n: every row valid and tight, by LP over the polytope
        for row in h.canonical_set():
            normal = np.array([float(Fraction(x)) for x in row[:-1]])
            offset = float(row[-1])
            if np.any(normal[k:]):
                return f"row {row} uses eliminated coordinates"
            res = linprog(-normal, A_ub=a, b_ub=b, bounds=[(0, None)] * n,
                          method="highs")
            if res.status != 0:
                return f"HiGHS status {res.status} on row {row}"
            if _rel(-res.fun, offset) > LP_REL_TOL:
                return f"row {row}: max {-res.fun!r} vs offset {offset!r}"
        return None


WORKLOADS = {
    "report-pathology": ReportPathology(),
    "diagnose-gallery": DiagnoseGallery(),
    "project-exact": ProjectExact(),
}
