"""CLI front end: schema validation, round trips, commands, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from conedual import cli, cones, gallery, program


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


def test_cli_bounded_and_gordan():
    proc = _run(["--json", "bounded", "--side", "primal", "-"],
                stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] in ("Bounded", "Unbounded")
    proc = _run(["--json", "gordan", "-"], stdin_doc=_instance_doc())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["branch"] in (1, 2, None)


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


def test_cli_project(tmp_path):
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


def test_cli_exit_codes(tmp_path):
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


def test_cli_example_adapted_solve_is_honest():
    doc = json.loads(_run(["gallery", "example-adapted", "--n", "3"]).stdout)
    proc = _run(["--json", "solve", "-"], stdin_doc=doc)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the instance has an infinite gap and no complementary solution, so the
    # solver must not claim optimality or unboundedness
    assert out["status"] not in ("Optimal", "Unbounded")
