"""CLI front end: schema validation, round trips, commands, exit codes."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from conedual import cli, cones, gallery, program, solver


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


def _run(args, stdin_doc=None, tmp_path=None):
    inp = json.dumps(stdin_doc) if stdin_doc is not None else None
    proc = subprocess.run([sys.executable, "-m", "conedual.cli", *args],
                          input=inp, capture_output=True, text=True,
                          cwd=tmp_path)
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


def test_cli_bounded_and_gordan():
    fields = [f.name for f in dataclasses.fields(solver.Verdict)]
    proc = _run(["--json", "bounded", "--side", "primal", "-"],
                stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    out = _strict_json(proc.stdout)
    assert list(out) == fields
    assert out["verdict"] in ("Bounded", "Unbounded")
    proc = _run(["--json", "gordan", "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    out = _strict_json(proc.stdout)
    assert list(out) == fields
    assert out["verdict"] in ("Ray", "Interior", "Unknown")


def test_cli_almost():
    proc = _run(["--json", "almost", "--side", "primal", "-"],
                stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert "min_perturbation_norm" in out


def test_cli_gallery_emits_loadable_instance():
    for fam, extra in (("example-adapted", ["--n", "4"]),
                       ("planted", ["--n", "3", "--m", "2", "--seed", "7"]),
                       ("packing", ["--n", "3", "--m", "2"]),
                       ("lp-small", ["--seed", "3"])):
        proc = _run(["gallery", fam, *extra])
        assert proc.returncode == 0, (fam, proc.stderr)
        doc = json.loads(proc.stdout)
        cli.load(doc)  # must validate


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
                 ["almost", "--eps", "nan", "--eps", "-1", str(good)]):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, argv


@pytest.mark.parametrize("field, value", [
    ("A", [[1.0, 2.0, 3.0], [1.0]]),  # ragged
    ("A", [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ("b", [float("inf"), 0.0]),
    ("c", [0.0, float("nan"), 0.0]),
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
