"""File-based front end: parse JSON instances, run commands, emit reports.

Exit codes: 0 command completed (verdicts live inside the report), 1 usage
error, 2 invalid instance file.

The schema validator and the argument parser are built once per process, on
first use, and reused by every later `load` and `main` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import cones, diagnostics, gallery, program, projection, solver
from .spaces import LinearMap, Subspace, space, real, sym

INSTANCE_VERSION = "instance/v1"
# characters of the offending value a validation message quotes; a longer
# quote is cut there and ends in an ellipsis
QUOTE_LIMIT = 40

_FACTOR_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": ["real", "sym"]},
                   "size": {"type": "integer", "minimum": 1}},
    "required": ["kind", "size"],
    "additionalProperties": False,
}

INSTANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": INSTANCE_VERSION},
        "space_x": {"type": "array", "items": _FACTOR_SCHEMA, "minItems": 1},
        "space_y": {"type": "array", "items": _FACTOR_SCHEMA, "minItems": 1},
        "cone_C": {"type": "array", "items": {"enum": list(cones.FACTOR_CONES)}},
        "cone_K": {"type": "array", "items": {"enum": list(cones.FACTOR_CONES)}},
        "A": {"type": "array", "items": {"type": "array",
                                         "items": {"type": "number"}}},
        "b": {"type": "array", "items": {"type": "number"}},
        "c": {"type": "array", "items": {"type": "number"}},
        "sense": {"enum": ["sup", "inf"]},
        "annotations": {"type": "object"},
    },
    "required": ["version", "space_x", "space_y", "cone_C", "cone_K",
                 "A", "b", "c"],
    "additionalProperties": False,
}


class InstanceError(Exception):
    """Invalid instance file; message names the offending field."""


def _build_space(factors: list[dict]):
    return space(*[sym(f["size"]) if f["kind"] == "sym" else real(f["size"])
                   for f in factors])


def _finite_array(name: str, value) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"field {name}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InstanceError(f"field {name}: entries must be finite numbers")
    return arr


@functools.cache
def _validator() -> Draft202012Validator:
    """INSTANCE_SCHEMA's validator; the schema itself is checked on first use."""
    Draft202012Validator.check_schema(INSTANCE_SCHEMA)
    return Draft202012Validator(INSTANCE_SCHEMA)


def load(doc: dict) -> program.ConicProgram:
    # best_match picks the error jsonschema.validate would raise
    exc = best_match(_validator().iter_errors(doc))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        quote = repr(exc.instance)
        message = exc.message.replace(quote, quote[:QUOTE_LIMIT] + "...") \
            if len(quote) > QUOTE_LIMIT else exc.message
        raise InstanceError(f"field {path}: {message}") from exc
    sx = _build_space(doc["space_x"])
    sy = _build_space(doc["space_y"])
    for name, sp, taglist in (("cone_C", sx, doc["cone_C"]),
                              ("cone_K", sy, doc["cone_K"])):
        if len(taglist) != len(sp.factors):
            raise InstanceError(
                f"field {name}: expected {len(sp.factors)} factor cones, "
                f"got {len(taglist)}")
    try:
        cc = cones.Cone(sx, tuple(doc["cone_C"]))
        kk = cones.Cone(sy, tuple(doc["cone_K"]))
    except ValueError as exc:
        raise InstanceError(f"field cone_C/cone_K: {exc}") from exc
    amat, b, c = (_finite_array(name, doc[name]) for name in ("A", "b", "c"))
    if amat.shape != (sy.dim, sx.dim):
        raise InstanceError(
            f"field A: expected shape ({sy.dim}, {sx.dim}), got {amat.shape}")
    if len(b) != sy.dim:
        raise InstanceError(f"field b: expected length {sy.dim}, got {len(b)}")
    if len(c) != sx.dim:
        raise InstanceError(f"field c: expected length {sx.dim}, got {len(c)}")
    try:
        return program.ConicProgram(
            A=LinearMap(sx, sy, amat), b=b, c=c, K=kk, C=cc,
            sense=doc.get("sense", "sup"))
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def _read_json(fh):
    """The JSON document of a file; nesting beyond the parser's limit is bad input."""
    try:
        return json.load(fh)
    except RecursionError as exc:
        raise InstanceError("field (root): nested too deeply") from exc


def parse(path: str) -> program.ConicProgram:
    """Load and validate an instance file ('-' reads stdin)."""
    if path == "-":
        return load(_read_json(sys.stdin))
    with open(path) as fh:
        return load(_read_json(fh))


def dump(p: program.ConicProgram, annotations: dict | None = None) -> dict:
    def factors(sp):
        return [{"kind": f.kind, "size": f.size} for f in sp.factors]
    doc = {
        "version": INSTANCE_VERSION,
        "space_x": factors(p.A.domain),
        "space_y": factors(p.A.codomain),
        "cone_C": list(p.C.tags),
        "cone_K": list(p.K.tags),
        "A": p.A.matrix.tolist(),
        "b": p.b.tolist(),
        "c": p.c.tolist(),
        "sense": p.sense,
    }
    if annotations:
        doc["annotations"] = annotations
    return doc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _positive(cast):
    """argparse type: the text as `cast`, finite and greater than 0."""
    def number(text: str):
        value = cast(text)
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"expected a finite {cast.__name__} > 0, "
                                             f"got {text!r}")
        return value
    return number


def _emit(args, result, text_lines: list[str]):
    """Print result as JSON, or the text lines.  A report is converted by its
    own `to_json`, anything else by `jsonable`, each once."""
    if args.json:
        doc = (result.to_json() if isinstance(result, diagnostics.DualityReport)
               else diagnostics.jsonable(result))
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


# the subcommands that print one solver.Verdict of a diagnostic
VERDICTS = {
    "bounded": lambda p, args: diagnostics.boundedness(p, args.side),
    "gordan": lambda p, args: diagnostics.gordan_alternative(p),
    "almost": lambda p, args: diagnostics.almost_feasibility(p, args.side),
    "finite": lambda p, args: diagnostics.finiteness_check(p),
    "gap": lambda p, args: diagnostics.gap_bound_separation(p, args.eps),
}


@functools.cache
def _parser() -> _Parser:
    ap = _Parser(prog="conedual",
                 description="conic duality diagnostics toolkit")
    ap.add_argument("--json", action="store_true", help="emit JSON reports")
    ap.add_argument("--tol-feas", type=_positive(float), default=solver.TOL_FEAS)
    ap.add_argument("--tol-gap", type=_positive(float), default=solver.TOL_GAP)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("dualize", "solve", "diagnose", *VERDICTS):
        sp = sub.add_parser(name)
        sp.add_argument("instance", nargs="?", default="-",
                        help="instance file or '-' for stdin")
        if name in ("bounded", "almost"):
            sp.add_argument("--side", choices=["primal", "dual"],
                            default="primal" if name == "bounded" else "dual")
        if name == "gap":
            sp.add_argument("--eps", type=_positive(float), default=1e-3)
    sp = sub.add_parser("project")
    sp.add_argument("instance", nargs="?", default="-")
    sp.add_argument("--subspace", required=True,
                    help="JSON file {\"basis\": [[...], ...]} (columns)")
    sp = sub.add_parser("gallery")
    sp.add_argument("family", choices=["example-adapted", "planted", "packing"]
                    + sorted(gallery.PROFILES))
    sp.add_argument("--n", type=_positive(int), default=3)
    sp.add_argument("--m", type=_positive(int), default=3)
    sp.add_argument("--seed", type=int, default=0)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return _dispatch(args)
    except (InstanceError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid instance: {exc}\n")
        return 2


def _dispatch(args) -> int:
    if args.command == "gallery":
        return _cmd_gallery(args)
    p = parse(args.instance)
    if args.command == "dualize":
        json.dump(dump(program.dualize(p)), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    if args.command == "solve":
        res = solver.solve(p, tol_feas=args.tol_feas, tol_gap=args.tol_gap)
        _emit(args, res, [
            f"status: {res.status}",
            f"pobj: {res.pobj:.9g}  dobj: {res.dobj:.9g}",
            f"iterations: {res.iterations}"])
        return 0
    if args.command == "diagnose":
        rep = diagnostics.strong_duality_report(p)
        lines = [f"{e['condition']}: {e['verdict']}" for e in rep.entries]
        lines.append(f"pobj: {rep.pobj}  dobj: {rep.dobj}  gap: {rep.gap}")
        _emit(args, rep, lines)
        return 0
    if args.command in VERDICTS:
        out = VERDICTS[args.command](p, args)
        _emit(args, out, [f"verdict: {out.verdict}", f"value: {out.value}",
                          f"detail: {out.detail}"])
        return 0
    if args.command == "project":
        with open(args.subspace) as fh:
            sdoc = _read_json(fh)
        if not isinstance(sdoc, dict) or "basis" not in sdoc:
            raise InstanceError("field basis: missing from the subspace file")
        basis = _finite_array("basis", sdoc["basis"])
        if basis.ndim != 2 or basis.shape[0] != p.A.domain.dim:
            raise InstanceError(
                f"field basis: expected {p.A.domain.dim} rows, got {basis.shape}")
        sub = Subspace.from_spanning(p.A.domain, basis)
        if sub.dim != basis.shape[1]:
            sys.stderr.write("warning: basis columns are linearly dependent; "
                             f"projecting onto their span, of dimension {sub.dim}\n")
        try:
            h = projection.project(p, sub)
        except projection.PreconditionFailed as exc:
            _emit(args, {"error": "precondition failed", "detail": str(exc)},
                  [f"precondition failed: {exc}"])
            return 0
        lines = [f"{nrm.tolist()} . x <= {off:.9g}"
                 for nrm, off in zip(h.normals, h.offsets)]
        lines.append(f"exact: {h.exact}")
        _emit(args, h.to_json(), lines)
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def _cmd_gallery(args) -> int:
    try:
        if args.family == "example-adapted":
            p = gallery.example_adapted(args.n)
            ann = gallery.EXAMPLE_ADAPTED_EXPECTED
        elif args.family == "planted":
            p = gallery.planted_strong_duality(
                [(cones.NONNEG, args.n)], [(cones.NONNEG, args.m)], seed=args.seed)
            ann = {"zero_gap": True}
        elif args.family == "packing":
            p = gallery.packing_instance(args.m, args.n, seed=args.seed)
            ann = {"packing": True}
        else:
            p = gallery.random_program(args.family, seed=args.seed)
            ann = {}
    except ValueError as exc:
        # the generators reject sizes and seeds out of their range
        sys.stderr.write(f"error: gallery {args.family}: {exc}\n")
        return 1
    json.dump(dump(p, ann), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
