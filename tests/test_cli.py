"""CLI front end: schema validation, round trips, commands, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from conedual import cli, cones, gallery, program, solver
from conedual.spaces import LinearMap, real, space


def _instance_doc(seed=0):
    return cli.dump(gallery.planted_strong_duality(
        [(cones.NONNEG, 3)], [(cones.NONNEG, 2)], seed=seed))


def test_dump_load_roundtrip():
    p = gallery.planted_strong_duality(
        [(cones.NONNEG, 2), (cones.SOC, 3)], [(cones.ZERO, 1), (cones.NONNEG, 2)],
        seed=4)
    q = cli.load(cli.dump(p))
    assert np.allclose(q.A.matrix, p.A.matrix)
    assert np.allclose(q.b, p.b) and np.allclose(q.c, p.c)
    assert q.K.tags == p.K.tags and q.C.tags == p.C.tags
    assert q.sense == p.sense


def test_dump_load_roundtrip_psd():
    p = gallery.planted_strong_duality(
        [(cones.PSD, 2)], [(cones.NONNEG, 2)], seed=1)
    q = cli.load(cli.dump(p))
    assert q.C.space.factors[0].kind == "sym"
    assert np.allclose(q.A.matrix, p.A.matrix)


def test_load_rejects_bad_documents():
    doc = _instance_doc()
    bad = dict(doc)
    bad["version"] = "instance/v2"
    with pytest.raises(cli.InstanceError):
        cli.load(bad)
    bad = json.loads(json.dumps(doc))
    bad["A"] = [[0.0, 0.0]]
    with pytest.raises(cli.InstanceError, match="field A"):
        cli.load(bad)
    bad = json.loads(json.dumps(doc))
    bad["b"] = [0.0]
    with pytest.raises(cli.InstanceError, match="field b"):
        cli.load(bad)
    bad = json.loads(json.dumps(doc))
    bad["cone_C"] = ["nonneg", "nonneg"]
    with pytest.raises(cli.InstanceError, match="cone_C"):
        cli.load(bad)
    bad = json.loads(json.dumps(doc))
    bad["cone_C"] = ["psd"]
    with pytest.raises(cli.InstanceError):
        cli.load(bad)


def _drop_c(doc):
    del doc["c"]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1, 2], "field (root): [1, 2] is not of type 'object'"),
    (lambda doc: doc.update(b=[True] * 5),
     "field b.4: True is not of type 'number'"),
    (lambda doc: doc.update(A="x", b=5), "field b: 5 is not of type 'array'"),
    (_drop_c, "field (root): 'c' is a required property"),
    (lambda doc: doc.update(extra=1),
     "field (root): Additional properties are not allowed ('extra' was unexpected)"),
], ids=["root-list", "b-bools", "A-and-b", "missing-key", "extra-key"])
def test_invalid_instance_messages_are_pinned(tmp_path, capsys, edit, message):
    # recorded from jsonschema.validate; the cached validator must pick the
    # same error out of several
    doc = _instance_doc()
    doc = edit(doc) or doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path)]) == 2
    assert capsys.readouterr() == ("", f"invalid instance: {message}\n")


def test_schema_is_checked_once_on_first_use(monkeypatch):
    check = cli.Draft202012Validator.check_schema
    checked = []

    def counting_check(schema):
        checked.append(schema)
        check(schema)

    monkeypatch.setattr(cli.Draft202012Validator, "check_schema", counting_check)
    try:
        cli._validator.cache_clear()
        for _ in range(3):
            cli.load(_instance_doc())
        assert checked == [cli.INSTANCE_SCHEMA]
        monkeypatch.setattr(cli, "INSTANCE_SCHEMA", {"type": "tensor"})
        cli._validator.cache_clear()
        with pytest.raises(jsonschema.SchemaError):
            cli.load(_instance_doc())
    finally:
        monkeypatch.undo()
        cli._validator.cache_clear()
    cli.load(_instance_doc())


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_doc()))
    f = str(path)

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = cli.main(argv)
        return (code, *capsys.readouterr())

    for first, second, fresh_twin in (
            (["--json", "gap", "--eps", "0.1", f], ["--json", "gap", f],
             ["--json", "gap", "--eps", "1e-3", f]),
            (["--json", "bounded", "--side", "dual", f], ["--json", "bounded", f],
             ["--json", "bounded", "--side", "primal", f]),
            (["solve", "--side", "dual", f], ["--json", "solve", f],
             ["--json", "solve", f])):
        expected = [run(first, fresh=True), run(fresh_twin, fresh=True)]
        cli._parser.cache_clear()
        assert [run(first, fresh=False), run(second, fresh=False)] == expected
    # the first call of the last pair was a usage error
    assert expected[0][0] == 1 and expected[1][0] == 0


# the child imports conedual from the source tree, as the tests do
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(args, stdin_doc=None, tmp_path=None):
    inp = json.dumps(stdin_doc) if stdin_doc is not None else None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "conedual.cli", *args],
                          input=inp, capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    return proc


def test_cli_solve_json(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_doc()))
    proc = _run(["--json", "solve", str(path)])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert list(out) == ["status", "pobj", "dobj", "gap", "pres", "dres",
                         "iterations", "x", "y", "certificate"]
    assert out["status"] == "Optimal"
    assert abs(out["pobj"] - out["dobj"]) <= 1e-5 * (1 + abs(out["pobj"]))


def test_cli_solve_stdin_text():
    proc = _run(["solve", "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    assert "status: Optimal" in proc.stdout


def test_cli_dualize_roundtrip():
    proc = _run(["dualize", "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    q = cli.load(doc)
    assert q.sense == "inf"


def test_cli_diagnose_json():
    proc = _run(["--json", "diagnose", "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["version"] == "report/v1"
    conds = {e["condition"]: e["verdict"] for e in rep["entries"]}
    assert conds["slater-primal"] == "Yes"


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _cli_verdict(*argv):
    """Run a diagnostic subcommand on the planted instance; its JSON must be
    exactly the fields of one Verdict."""
    proc = _run(["--json", *argv, "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    out = _strict_json(proc.stdout)
    assert list(out) == [f.name for f in dataclasses.fields(solver.Verdict)]
    return out


def test_cli_bounded_and_gordan():
    assert _cli_verdict("bounded", "--side", "primal")["verdict"] in ("Bounded", "Unbounded")
    assert _cli_verdict("gordan")["verdict"] in ("Ray", "Interior", "Unknown")


def test_cli_almost():
    out = _cli_verdict("almost", "--side", "primal")
    assert out["verdict"] == "Yes" and out["value"] <= 1e-6


def test_cli_finite_and_gap():
    out = _cli_verdict("finite")
    assert out["verdict"] == "Finite"
    x = np.array(_cli_verdict("gap")["witness"])
    p = cli.load(_instance_doc())
    assert program.is_feasible_point(p, x, 1e-6)
    assert out["value"] - 1e-3 - 1e-6 <= p.c @ x <= out["value"] + 1e-6


def test_cli_gallery_emits_loadable_instance():
    for fam, extra in (("example-adapted", ["--n", "4"]),
                       ("planted", ["--n", "3", "--m", "2", "--seed", "7"]),
                       ("packing", ["--n", "3", "--m", "2"]),
                       ("lp-small", ["--seed", "3"])):
        proc = _run(["gallery", fam, *extra])
        assert proc.returncode == 0, (fam, proc.stderr)
        doc = json.loads(proc.stdout)
        cli.load(doc)  # must validate


def test_cli_gallery_pins_example_adapted_annotations():
    for n in ("3", "6"):
        proc = _run(["gallery", "example-adapted", "--n", n])
        assert proc.returncode == 0, proc.stderr
        assert list(json.loads(proc.stdout)["annotations"].items()) == [
            ("primal_status", "PrimalInfeasible"), ("dobj", 0.0),
            ("dual_solution", "origin")]


def test_cli_project(tmp_path, capsys):
    inst = cli.dump(gallery.packing_instance(2, 3, seed=1))
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(inst))
    spath = tmp_path / "sub.json"
    spath.write_text(json.dumps({"basis": np.eye(3)[:, :2].tolist()}))
    proc = _run(["--json", "project", "--subspace", str(spath), str(ipath)])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exact"] is True
    assert len(out["normals"]) >= 3
    # text mode prints each normal as plain numbers, not numpy scalar reprs
    assert cli.main(["project", "--subspace", str(spath), str(ipath)]) == 0
    text = capsys.readouterr().out
    assert " . x <= " in text and "np.float64" not in text


def _project_files(tmp_path, p, basis):
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(cli.dump(p)))
    spath = tmp_path / "sub.json"
    spath.write_text(json.dumps({"basis": basis}))
    return str(ipath), str(spath)


def test_cli_project_reports_a_failed_precondition(tmp_path, capsys):
    # x in SOC(3), its head last, projected onto x1: A* y - w in span(e1)
    # forces w2 = w3 = 0, and w in SOC then forces w = 0, never interior to
    # C*; the sampled path needs that hypothesis and refuses
    dom, cod = space(real(3)), space(real(1))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.zeros((1, 3))), b=np.ones(1), c=np.ones(3),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.SOC),
        sense="sup")
    ipath, spath = _project_files(tmp_path, p, [[1.0], [0.0], [0.0]])
    assert cli.main(["project", "--subspace", spath, ipath]) == 0
    out = capsys.readouterr().out
    assert out.startswith("precondition failed: separating functional from the "
                          "alternative"), out


def test_cli_project_reads_an_inf_instance_as_its_own_set(tmp_path):
    # inf {<1, y> : y1 >= 1, 1 <= y2 <= 3, y >= 0}, with A of 3 rows and 2
    # columns, projects onto y1 >= 1
    dom, cod = space(real(2)), space(real(3))
    p = program.ConicProgram(
        A=LinearMap(dom, cod, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])),
        b=np.array([1.0, 1.0, -3.0]), c=np.ones(2),
        K=cones.cone(cod, cones.NONNEG), C=cones.cone(dom, cones.NONNEG),
        sense="inf")
    ipath, spath = _project_files(tmp_path, p, [[1.0], [0.0]])
    proc = _run(["--json", "project", "--subspace", spath, ipath])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exact"] is True
    assert out["normals"] == [[-1.0, 0.0]] and out["offsets"] == [-1.0]


def _segment(rows, b, n_eq):
    """{x in R^3 : (b - A x)[:n_eq] = 0, (b - A x)[n_eq:] >= 0}."""
    dom, cod = space(real(3)), space(real(n_eq), real(len(b) - n_eq))
    return program.ConicProgram(
        A=LinearMap(dom, cod, np.array(rows, dtype=float)), b=np.array(b, dtype=float),
        c=np.ones(3), K=cones.cone(cod, cones.ZERO, cones.NONNEG),
        C=cones.cone(dom, cones.FREE), sense="sup")


@pytest.mark.parametrize("basis", [np.eye(3)[:, :2].tolist(), np.eye(3).tolist()])
def test_cli_project_prints_one_set_one_way(tmp_path, capsys, basis):
    # the segment {x1 = 2, x3 = -1, x2 <= 5}, once by x1 = 2, x3 = -1 and
    # x2 <= 5, and once by x1 = 2, x1 - 2 x3 = 4, x2 <= 5 and a redundant
    # x1 + x2 <= 7: the same set, so the same output
    outs = []
    for name, p in (("a", _segment([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [2, -1, 5], 2)),
                    ("b", _segment([[1, 0, 0], [1, 0, -2], [0, 1, 0], [1, 1, 0]],
                                   [2, 4, 5, 7], 2))):
        (tmp_path / name).mkdir()
        ipath, spath = _project_files(tmp_path / name, p, basis)
        assert cli.main(["--json", "project", "--subspace", spath, ipath]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # x1 = 2 as a pair of rows, and x2 <= 5
    out = json.loads(outs[0])
    assert {(*nrm, off) for nrm, off in zip(out["normals"], out["offsets"])} >= \
        {(-1, 0, 0, -2), (1, 0, 0, 2), (0, 1, 0, 5)}


@pytest.mark.parametrize("basis, warning", [
    ([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], ""),  # spanning, not orthonormal
    ([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]],
     "warning: basis columns are linearly dependent; "
     "projecting onto their span, of dimension 1\n"),
])
def test_cli_project_warns_only_on_dependent_basis(tmp_path, capsys, basis, warning):
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(cli.dump(gallery.packing_instance(2, 3, seed=1))))
    spath = tmp_path / "sub.json"
    spath.write_text(json.dumps({"basis": basis}))
    assert cli.main(["--json", "project", "--subspace", str(spath), str(ipath)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["exact"] is True
    assert err == warning


def test_cli_exit_codes(tmp_path, capsys):
    # usage error: unknown command
    proc = _run(["frobnicate"])
    assert proc.returncode == 1
    # usage error: missing required option
    proc = _run(["project", "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 1
    # usage error: unknown option
    proc = _run(["--jobs", "2", "diagnose", "f"])
    assert proc.returncode == 1
    # invalid instance: malformed json
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = _run(["solve", str(path)])
    assert proc.returncode == 2
    # invalid instance: schema violation
    doc = _instance_doc()
    del doc["A"]
    proc = _run(["solve", "-"], stdin_doc=doc)
    assert proc.returncode == 2
    assert "invalid instance" in proc.stderr
    # missing file
    proc = _run(["solve", str(tmp_path / "absent.json")])
    assert proc.returncode == 2
    # nested beyond the JSON parser's recursion limit
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = _run(["solve", str(path)])
    assert proc.returncode == 2
    assert proc.stderr == "invalid instance: field (root): nested too deeply\n"
    # nested within the parser's limit: the message quotes a cut value
    doc = _instance_doc()
    for _ in range(500):
        doc["A"] = [doc["A"]]
    proc = _run(["solve", "-"], stdin_doc=doc)
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid instance: field A.0.0: [[[")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200
    # unreadable instance or subspace paths: a directory, non-UTF-8 bytes;
    # in process, so a traceback would fail the test
    good = tmp_path / "inst.json"
    good.write_text(json.dumps(_instance_doc()))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    for argv in (["diagnose", str(tmp_path)],
                 ["project", str(good), "--subspace", str(tmp_path)],
                 ["solve", str(binary)]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "invalid instance" in err, argv
    # usage error: numeric arguments out of range, rejected before any solve
    for argv in (["gallery", "example-adapted", "--n", "2"],
                 ["gallery", "packing", "--m", "0"],
                 ["gallery", "planted", "--n", "0"],
                 ["gallery", "lp-small", "--seed", "-1"],
                 ["--tol-feas", "-1", "solve", str(good)],
                 ["--tol-gap", "nan", "solve", str(good)],
                 ["gap", "--eps", "nan", str(good)],
                 ["gap", "--eps", "-1", str(good)]):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, argv


@pytest.mark.parametrize("field, value", [
    ("A", [[1.0, 2.0, 3.0], [1.0]]),  # ragged
    ("A", [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ("b", [float("inf"), 0.0]),
    ("c", [0.0, float("nan"), 0.0]),
    ("b", [10**400, 0.0]),  # an integer literal beyond the float range
])
def test_cli_rejects_malformed_data(tmp_path, capsys, field, value):
    doc = _instance_doc()
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity tokens
    assert cli.main(["solve", str(path)]) == 2
    assert f"field {field}" in capsys.readouterr().err


@pytest.mark.parametrize("sdoc", [
    {"columns": [[1.0], [0.0], [0.0]]},  # no basis
    {"basis": [[1.0, 0.0], [0.0], [0.0, 1.0]]},  # ragged
    {"basis": [["x", 0.0], [0.0, 1.0], [0.0, 0.0]]},  # not numeric
    {"basis": [[10**400], [0.0], [0.0]]},  # beyond the float range
])
def test_cli_project_rejects_malformed_basis(tmp_path, capsys, sdoc):
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(cli.dump(gallery.packing_instance(2, 3, seed=1))))
    spath = tmp_path / "sub.json"
    spath.write_text(json.dumps(sdoc))
    assert cli.main(["project", "--subspace", str(spath), str(ipath)]) == 2
    assert "field basis" in capsys.readouterr().err


def test_cli_example_adapted_solve_is_honest():
    doc = json.loads(_run(["gallery", "example-adapted", "--n", "3"]).stdout)
    proc = _run(["--json", "solve", "-"], stdin_doc=doc)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the instance has an infinite gap and no complementary solution, so the
    # solver must not claim optimality or unboundedness
    assert out["status"] not in ("Optimal", "Unbounded")
