import json
import os
import subprocess
import sys

import pytest

import locallemma
from locallemma.cli import ExperimentConfig, emit_summary, main, run_experiment
from locallemma.serialize import csp_to_json, dump_json, graph_to_json
from locallemma.randgen import random_cover_csp, random_symmetric_csp


def run(argv):
    return main(argv)


def test_gen_and_run_local(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    assert run(["gen", "--kind", "directed_cycle", "--params", '{"n": 16}',
                "--out", str(gpath)]) == 0
    out = tmp_path / "r.json"
    code = run(["run-local", "--graph", str(gpath), "--alg", "cole_vishkin_3color",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["valid"] and report["passed"]
    # explicit identifiers (vertex order) instead of a greedy layer
    code = run(["run-local", "--graph", str(gpath), "--alg", "cole_vishkin_3color",
                "--ids", "explicit", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["valid"]


def test_verify_command(tmp_path):
    gpath = tmp_path / "g.json"
    run(["gen", "--kind", "cycle", "--params", '{"n": 4}', "--out", str(gpath)])
    lpath = tmp_path / "f.json"
    dump_json({"values": [[0, 1], [1, 2], [2, 1], [3, 2]]}, lpath)
    out = tmp_path / "r.json"
    assert run(["verify", "--problem", "proper-2", "--graph", str(gpath),
                "--labels", str(lpath), "--out", str(out)]) == 0
    bad = tmp_path / "bad.json"
    dump_json({"values": [[0, 1], [1, 1], [2, 1], [3, 2]]}, bad)
    assert run(["verify", "--problem", "proper-2", "--graph", str(gpath),
                "--labels", str(bad), "--out", str(out)]) == 1


def test_csp_check_solve_cover(tmp_path):
    cpath = tmp_path / "c.json"
    dump_json(csp_to_json(random_symmetric_csp(2)), cpath)
    out = tmp_path / "r.json"
    assert run(["csp", "check", "--csp", str(cpath), "--which", "symmetric",
                "--out", str(out)]) == 0
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "mt",
                "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]

    cover_path = tmp_path / "cover.json"
    dump_json(csp_to_json(random_cover_csp(1, max_levels=10)), cover_path)
    assert run(["csp", "cover", "--csp", str(cover_path), "--out", str(out)]) == 0


def test_pipeline_reports_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pipeline", "det", "--gen-kind", "directed_cycle",
            "--gen-params", '{"n": 64}', "--seed", "11"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reports_identical_across_hash_seeds(tmp_path):
    # reports must not depend on set/dict iteration order of hashed keys
    gpath = tmp_path / "g.json"
    assert run(["gen", "--kind", "directed_cycle", "--params", '{"n": 64}',
                "--out", str(gpath)]) == 0
    commands = {
        "det": ["pipeline", "det", "--gen-kind", "directed_cycle",
                "--gen-params", '{"n": 64}', "--seed", "11"],
        "local": ["run-local", "--graph", str(gpath), "--alg", "cole_vishkin_3color",
                  "--seed", "3"],
    }
    src = os.path.dirname(os.path.dirname(locallemma.__file__))
    for name, args in commands.items():
        reports = set()
        for hash_seed in range(4):
            out = tmp_path / f"{name}-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "locallemma.cli", *args, "--out", str(out)],
                           env=env, check=True, timeout=300)
            reports.add(out.read_bytes())
        assert len(reports) == 1


def test_pipeline_rand(tmp_path):
    out = tmp_path / "r.json"
    assert run(["pipeline", "rand", "--gen-kind", "directed_cycle",
                "--gen-params", '{"n": 10}', "--params", '{"m": 8}',
                "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "decoded-coloring-valid" in names


def test_malformed_config_no_partial_report(tmp_path):
    out = tmp_path / "r.json"
    code = run(["pipeline", "det", "--gen-kind", "nonsense", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_run_experiment_validation():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(pipeline="bogus"))


def test_emit_summary(tmp_path):
    paths = []
    for i, passed in enumerate([True, False, True]):
        p = tmp_path / f"r{i}.json"
        dump_json({"pipeline": "det", "passed": passed, "checks": [{}]}, p)
        paths.append(str(p))
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    paths.append(str(broken))
    summary, text = emit_summary(paths)
    assert summary["reports"] == 3
    assert summary["passed"] == 2 and summary["failed"] == 1
    assert len(summary["errors"]) == 1
    assert "PARSE ERROR" in text

    empty_summary, empty_text = emit_summary([])
    assert empty_summary["reports"] == 0

    # single report echoes its values; ten reports sum their counts
    one = tmp_path / "one.json"
    dump_json({"pipeline": "csp-solve", "passed": True, "checks": [],
               "iterations": 3, "margin": "1/8"}, one)
    single, _ = emit_summary([str(one)])
    assert single["rows"][0]["iterations"] == 3
    assert single["margins"] == ["1/8"]
    many = []
    for i in range(10):
        p = tmp_path / f"many{i}.json"
        dump_json({"pipeline": "csp-solve", "passed": True, "checks": [],
                   "iterations": 1}, p)
        many.append(str(p))
    tally, _ = emit_summary(many)
    assert tally["reports"] == 10 and tally["total_iterations"] == 10


def test_gadget_command(tmp_path):
    from locallemma.graphs import build_graph

    gpath = tmp_path / "star.json"
    dump_json(graph_to_json(build_graph(range(5), [(0, i) for i in range(1, 5)])), gpath)
    out = tmp_path / "r.json"
    assert run(["gadget", "--graph", str(gpath), "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["gadget_degree"] == 3
