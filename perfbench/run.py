"""conedual benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout: the package is imported from ./src
and nowhere else.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  The lines before
it print every metric with its unit, and the run's provenance.

One process runs one workload with BLAS pinned to one thread.  Set-up
(import, seeded population, instance files) is timed in SETUP_SAMPLES fresh
interpreters, and the median is reported.  Then whole passes over the
population run until the next one would end after --seconds (at least one
pass).

Every time is reported at the reference speed of speed.py: the speed probe
runs between operations, and each operation's time is scaled by REF_S over
the mean of the probes on either side of it.  On a shared 2-vCPU Xeon
guest, contention from other virtual machines slowed every instruction by
up to 1.7x for seconds to minutes at a time, so over ten runs the raw times
spread by up to 0.35 (IQR over median) and the scaled ones by up to 0.13.
An operation's time is then the mean of the faster half of its samples, and
wall_s is the sum of those over the population.  The raw times are printed
too.  Each operation's output is checked against an oracle after the timed
phase.  `--workload all` runs every workload untraced and traced, each in
its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"  # before numpy loads; fixes the order of reductions

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("report-pathology", "diagnose-gallery", "project-exact")
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s
TAIL_MIN_BEYOND = 10


class Unavailable(Exception):
    """The checkout holds no conedual sources to benchmark."""


def _import_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "conedual", "__init__.py")):
        raise Unavailable(f"no src/conedual under {root}")
    sys.path.insert(0, src)
    import conedual
    if not os.path.abspath(conedual.__file__).startswith(os.path.abspath(src)):
        raise Unavailable(f"conedual imported from {conedual.__file__}, not {src}")
    import workloads
    return workloads


def setup(root, name, seed, tiny, workdir):
    """Import the package and build the population: (workload, items, seconds)."""
    t0 = time.perf_counter()
    wl = _import_package(root).WORKLOADS[name]
    items = wl.build(seed, tiny, workdir)
    return wl, items, time.perf_counter() - t0


def _setup_sample(args, root) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, raw and at the reference
    speed.  The probes bracket it: one here before it starts, one in it
    after set-up, so that numpy's import stays inside set-up."""
    before = speed.probe(3)
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--population", args.population]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=120, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    raw = res["raw_s"]
    return raw, raw * speed.REF_S / (0.5 * (before + res["probe_s"]))


def best_half(samples: list[float]) -> float:
    """Mean of the faster half of one operation's samples (at least one).
    Contention only ever adds time; the plain minimum would instead pick up
    the sample whose speed probe happened to read slow."""
    xs = sorted(samples)
    k = max(1, len(xs) // 2)
    return sum(xs[:k]) / k


def tail(values: list[float]) -> tuple[float, str]:
    """Highest whole percentile with TAIL_MIN_BEYOND samples above its rank
    (nearest-rank), else the maximum."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], f"p{p}"
    return xs[-1], "max"


def provenance(root, args) -> dict:
    import numpy
    import scipy
    try:  # only a repository rooted here, not one that encloses the checkout
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30).stdout.split()
    except OSError:
        out = []
    commit = out[1] if len(out) == 2 and os.path.samefile(out[0], root) else None
    h = hashlib.sha1()
    src = os.path.join(root, "src", "conedual")
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), "rb") as fh:
                h.update(fn.encode() + fh.read())
    return {
        "git_commit": commit,
        "src_sha1": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "population": args.population,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
    }


class Runner:
    """Times passes over the population and keeps each operation's output.

    The speed probe runs between operations; each operation's time is
    scaled by the mean of the probes on either side of it."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.outputs: list[list] = [[] for _ in items]  # per item, per pass
        self.raw_times: list[list[float]] = [[] for _ in items]
        self.op_times: list[list[float]] = [[] for _ in items]  # scaled
        self.traced_times: list[list[float]] = [[] for _ in items]  # scaled
        self.pass_iterations: list[int] = []
        self.statuses: list[list[str]] = [[] for _ in items]

    def one_pass(self, tracer, record=True) -> float:
        """One operation per item; record=False (a traced pass) keeps only
        the times."""
        t_pass = time.perf_counter()
        iters0 = len(tracer.iterations)
        before = speed.probe()
        for i, item in enumerate(self.items):
            n0 = len(tracer.statuses)
            t0 = time.perf_counter()
            try:
                out = self.wl.run(item)
            except Exception as exc:  # a raised operation is a failed one
                out = exc
            dt = time.perf_counter() - t0
            after = speed.probe()
            scaled = dt * speed.REF_S / (0.5 * (before + after))
            before = after
            if record:
                self.raw_times[i].append(dt)
                self.op_times[i].append(scaled)
                self.outputs[i].append(out)
                self.statuses[i] = tracer.statuses[n0:]
            else:
                self.traced_times[i].append(scaled)
        if record:
            self.pass_iterations.append(sum(tracer.iterations[iters0:]))
        return time.perf_counter() - t_pass

    def failures(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons): each operation of every pass counts."""
        attempted = failed = 0
        reasons = []
        for item, outs in zip(self.items, self.outputs):
            verdict_of = {}
            for out in outs:
                attempted += 1
                if isinstance(out, Exception):
                    reason = f"raised {type(out).__name__}: {out}"
                else:
                    key = self.wl.digest(item, out)
                    if key not in verdict_of:
                        try:
                            verdict_of[key] = self.wl.check(item, out)
                        except Exception as exc:  # a raising oracle fails the operation
                            verdict_of[key] = (f"oracle raised {type(exc).__name__}:"
                                               f" {exc}")
                    reason = verdict_of[key]
                    if len(verdict_of) > 1:
                        reason = reason or "output differs between passes"
                if reason:
                    failed += 1
                    reasons.append(f"{item.label}: {reason}")
        return attempted, failed, reasons

    def verdicts(self) -> list[str]:
        out = []
        for item, outs, statuses in zip(self.items, self.outputs, self.statuses):
            for o in outs:
                if not isinstance(o, Exception):
                    out += self.wl.verdicts(item, o, statuses)
        return out


def timed_passes(runner, seconds, trace):
    """Untraced: passes until the next would overrun.  Traced: alternating
    untraced/traced pairs, so the overhead compares passes from the same
    stretch of time."""
    light = layers.Tracer(layers.LIGHT)
    full = layers.Tracer(layers.TARGETS) if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        light.install()
        try:
            plain.append(runner.one_pass(light))
        finally:
            light.uninstall()
        if full is not None:
            full.install()
            try:
                traced.append(runner.one_pass(full, record=False))
            finally:
                full.uninstall()
        step = statistics.median(plain) + (statistics.median(traced) if traced else 0)
        if time.perf_counter() - start + step > seconds:
            break
    return plain, traced, full


def run_one(args, root) -> int:
    tiny = args.population == "tiny"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        wl, items, _ = setup(root, args.workload, args.seed, tiny, workdir)
        samples = [_setup_sample(args, root) for _ in range(SETUP_SAMPLES)]
        setup_raw = [raw for raw, _ in samples]
        setup_times = [scaled for _, scaled in samples]
        # warm-up: lazy imports and first-call costs, on the tiny population
        warm_dir = os.path.join(workdir, "warm")
        os.mkdir(warm_dir)
        warm = Runner(wl, wl.build(args.seed, True, warm_dir)[:1])
        warm_counter = layers.Tracer(layers.LIGHT)
        warm.one_pass(warm_counter)

        runner = Runner(wl, items)
        plain, traced, full = timed_passes(runner, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, reasons = runner.failures()

    # each operation at the reference speed, from its faster samples
    per_item = [best_half(t) for t in runner.op_times]
    wall = sum(per_item)
    raw_per_item = [best_half(t) for t in runner.raw_times]
    tail_value, tail_label = tail(per_item)
    verdicts = runner.verdicts()
    iterations = set(runner.pass_iterations)
    if len(iterations) != 1:
        failed += 1
        reasons.append(f"solver iterations differ between passes: {sorted(iterations)}")
    detail = {
        "unknown_frac": verdicts.count("Unknown") / len(verdicts) if verdicts else 0.0,
        "fail_frac": failed / attempted,
        "verdicts": len(verdicts),
        "op_s_tail_percentile": tail_label,
        "op_samples": len(per_item),
        "pass_s": plain,
        "raw_wall_s": sum(raw_per_item),
        "raw_op_s_p50": statistics.median(raw_per_item),
        "raw_op_s_tail": tail(raw_per_item)[0],
        "setup_samples_s": setup_times,
        "raw_setup_samples_s": setup_raw,
    }
    if args.trace:
        metrics = full.metrics(len(traced))
        metrics["trace_overhead_frac"] = (
            sum(best_half(t) for t in runner.traced_times) / wall - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "op_s_p50": (statistics.median(per_item), "s"),
            "op_s_tail": (tail_value, "s"),
            "solver_iterations": (float(max(iterations)), "count"),
            "decided_frac": (1.0 - detail["unknown_frac"], "ratio"),
            "ok_frac": (1.0 - detail["fail_frac"], "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({"provenance": provenance(root, args), "detail": detail,
                      "failures": reasons[:20]}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:40s} {value:14.6g} {unit}")
    for name in ("raw_wall_s", "raw_op_s_p50", "raw_op_s_tail"):
        print(f"{args.workload:18s} {name:40s} {detail[name]:14.6g} s")
    print(f"{args.workload:18s} {'unknown_frac':40s} {detail['unknown_frac']:14.6g} ratio")
    print(f"{args.workload:18s} {'fail_frac':40s} {detail['fail_frac']:14.6g} ratio")
    print(f"{args.workload:18s} op_s_tail is {tail_label} of {len(per_item)} operations"
          f" (each the mean of the faster half of {len(plain)} passes)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, root) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--population", args.population]
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                 timeout=900)
            sys.stdout.write(out.stdout)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            results[(name, trace)] = json.loads(out.stdout.strip().splitlines()[-1])
    merged = {f"{name}/{k}": v for (name, _), res in results.items()
              for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--population", choices=("full", "tiny"), default="full",
                    help="tiny: a few small instances, for the smoke check")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        if args.setup_only:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as d:
                *_, raw = setup(root, args.workload, args.seed,
                                args.population == "tiny", d)
            print(json.dumps({"raw_s": raw, "probe_s": speed.probe(3)}))
            return 0
        if args.workload == "all":
            return run_all(args, root)
        return run_one(args, root)
    except Unavailable as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
