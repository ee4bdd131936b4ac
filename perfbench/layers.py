"""Per-layer counters, recorded from outside the package.

The tracer wraps public functions of the conedual modules (and the scipy
routines they call) by rebinding every module attribute that refers to the
original function, so calls from inside the package are seen too.  Nothing
under src/ changes.  Each probe keeps a depth guard: a call made while the
same probe is already open (the inf -> sup recursion in `solver.solve`,
`member` calling `margin`, `preimage_of_subspace` calling `kernel`) is not
counted or timed a second time.

Only aggregates are kept (counts, busy seconds, iteration lists): the linear
solve alone is called tens of thousands of times per solve, so one span per
call would cost more memory than the program under test.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import sys
import time
from collections import defaultdict

# (owner module, attribute, probe) for every wrapped function
TARGETS = [
    ("conedual.solver", "solve", "solve"),
    ("conedual.solver", "lu_solve", "linsolve"),
    ("conedual.cones", "project", "project"),
    ("conedual.cones", "margin", "check"),
    ("conedual.cones", "member", "check"),
    ("conedual.cones", "relint_member", "check"),
    ("conedual.diagnostics", "strong_duality_report", "report"),
    ("conedual.diagnostics", "slater", "slater"),
    ("conedual.diagnostics", "recession_strict", "recession"),
    ("conedual.diagnostics", "boundedness", "boundedness"),
    ("conedual.diagnostics", "closedness_conditions", "closedness"),
    ("conedual.projection", "precondition", "precondition"),
    ("conedual.projection", "double_description", "dd"),
    ("conedual.projection", "linprog", "redundancy"),
    ("conedual.projection", "_remove_redundant", "rows"),
    ("conedual.spaces", "kernel", "subspace"),
    ("conedual.spaces", "image_of_subspace", "subspace"),
    ("conedual.spaces", "preimage_of_subspace", "subspace"),
    ("conedual.cli", "parse", "load"),
    ("conedual.cli", "_emit", "emit"),
]

# always on, in untraced passes too: solver_iterations and the solve statuses
# are end-to-end metrics; one wrapper call per solve costs nothing measurable
LIGHT = TARGETS[:1]


def fingerprint(p, tol_feas, tol_gap, max_iter) -> str:
    """Program bytes, cone tags, sizes, tolerances and budget of one solve."""
    h = hashlib.sha1()
    for arr in (p.A.matrix, p.b, p.c):
        h.update(arr.tobytes())
    for cone in (p.K, p.C):
        h.update(repr((cone.tags, cone.negated,
                       [(f.kind, f.size) for f in cone.space.factors])).encode())
    h.update(repr((p.sense, tol_feas, tol_gap, max_iter)).encode())
    return h.hexdigest()


class Tracer:
    """Counters for the layers; `install` wraps, `uninstall` restores."""

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._patches: list[tuple[object, str, object]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.iterations: list[int] = []
        self.statuses: list[str] = []
        self.budget = 0
        self.report_solves: list[int] = []
        self.report_unique: list[int] = []
        self.report_budget: list[int] = []
        self.report_iterations: list[int] = []
        self.dd_rays = 0
        self.rows_in = 0
        self.rows_kept = 0
        self._seen: set[str] | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        owners = {owner: importlib.import_module(owner) for owner, _, _ in TARGETS}
        mods = [m for name, m in sys.modules.items()
                if name == "conedual" or name.startswith("conedual.")]
        for owner, attr, probe in self._targets:
            orig = getattr(owners[owner], attr)
            wrapped = self._wrap(orig, probe)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, probe):
        on_exit = getattr(self, "_exit_" + probe, None)
        on_enter = getattr(self, "_enter_" + probe, None)
        depth, count, busy = self._depth, self.count, self.busy

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if depth[probe]:
                return fn(*args, **kw)
            state = on_enter(*args, **kw) if on_enter else None
            depth[probe] = 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                dt = time.perf_counter() - t0
                depth[probe] = 0
            count[probe] += 1
            busy[probe] += dt
            if depth["solve"]:
                busy[probe + "_in_solve"] += dt
            if on_exit:
                on_exit(out, state)
            return out

        return wrapper

    # -- probe hooks -------------------------------------------------------

    def _enter_solve(self, p, tol_feas=None, tol_gap=None, max_iter=None):
        from conedual import solver
        max_iter = solver.MAX_ITER if max_iter is None else max_iter
        if self._seen is not None:
            key = fingerprint(p, solver.TOL_FEAS if tol_feas is None else tol_feas,
                              solver.TOL_GAP if tol_gap is None else tol_gap,
                              max_iter)
            self.report_solves[-1] += 1
            if key not in self._seen:
                self._seen.add(key)
                self.report_unique[-1] += 1
        return max_iter

    def _exit_solve(self, res, max_iter):
        self.iterations.append(res.iterations)
        self.statuses.append(res.status)
        if res.status == "Unknown" and res.iterations >= max_iter:
            self.budget += 1
            if self._seen is not None:
                self.report_budget[-1] += 1
        if self._seen is not None:
            self.report_iterations[-1] += res.iterations

    def _enter_report(self, *args, **kw):
        self._seen = set()
        self.report_solves.append(0)
        self.report_unique.append(0)
        self.report_budget.append(0)
        self.report_iterations.append(0)

    def _exit_report(self, rep, state):
        self._seen = None

    def _exit_dd(self, out, state):
        self.dd_rays += len(out[1])

    def _enter_rows(self, rows):
        return len(rows)

    def _exit_rows(self, kept, n_in):
        self.rows_in += n_in
        self.rows_kept += len(kept)

    # -- summary -----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and seconds are per pass of the population."""
        b, c = self.busy, self.count

        def per(x):
            return x / passes

        iters = sum(self.iterations)
        reports = len(self.report_solves)
        solves_in_reports = sum(self.report_solves)
        other = b["solve"] - b["linsolve_in_solve"] - b["project_in_solve"]
        return {
            "solver.solves": (per(c["solve"]), "count"),
            "solver.iterations_p50": (
                float(statistics.median(self.iterations)) if self.iterations else 0.0,
                "count"),
            "solver.budget_exhausted": (per(self.budget), "count"),
            "solver.busy_s": (per(b["solve"]), "s"),
            "solver.s_per_iter": (b["solve"] / iters if iters else 0.0, "s"),
            "solver.linsolve_calls": (per(c["linsolve"]), "count"),
            "solver.linsolve_s": (per(b["linsolve"]), "s"),
            "solver.other_s": (per(other), "s"),
            "cones.project_calls": (per(c["project"]), "count"),
            "cones.project_s": (per(b["project"]), "s"),
            "cones.check_calls": (per(c["check"]), "count"),
            "cones.check_s": (per(b["check"]), "s"),
            "diagnostics.solves_per_report": (
                solves_in_reports / reports if reports else 0.0, "count"),
            "diagnostics.duplicate_solves": (
                (solves_in_reports - sum(self.report_unique)) / reports
                if reports else 0.0, "count"),
            "diagnostics.unique_frac": (
                sum(self.report_unique) / solves_in_reports
                if solves_in_reports else 0.0, "ratio"),
            "diagnostics.budget_solves_per_report": (
                sum(self.report_budget) / reports if reports else 0.0, "count"),
            "diagnostics.iterations_per_report": (
                sum(self.report_iterations) / reports if reports else 0.0, "count"),
            "diagnostics.slater_s": (per(b["slater"]), "s"),
            "diagnostics.recession_s": (per(b["recession"]), "s"),
            "diagnostics.boundedness_s": (per(b["boundedness"]), "s"),
            "diagnostics.closedness_s": (per(b["closedness"]), "s"),
            "projection.precondition_s": (per(b["precondition"]), "s"),
            "projection.dd_s": (per(b["dd"]), "s"),
            "projection.dd_rays": (per(self.dd_rays), "count"),
            "projection.redundancy_lps": (per(c["redundancy"]), "count"),
            "projection.redundancy_s": (per(b["redundancy"]), "s"),
            "projection.rows_kept_frac": (
                self.rows_kept / self.rows_in if self.rows_in else 0.0, "ratio"),
            "spaces.subspace_s": (per(b["subspace"]), "s"),
            "cli.load_s": (per(b["load"]), "s"),
            "cli.emit_s": (per(b["emit"]), "s"),
        }
