import hashlib
import json
import os
import subprocess
import sys

import pytest

import locallemma
from locallemma.cli import ExperimentConfig, emit_summary, main, run_experiment
from locallemma.csp import Constraint, Csp
from locallemma.generators import generate
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


@pytest.mark.parametrize("alg", ["trial_coloring", "parallel_resample"])
def test_run_local_refuses_seed_reading_builtins(tmp_path, capsys, alg):
    # built-ins that read a seed layer, which run-local never attaches, are
    # not registered: an input error, with no report written and the
    # message printed bare, as every other input error is
    gpath = tmp_path / "g.json"
    assert run(["gen", "--kind", "cycle", "--params", '{"n": 8}', "--out", str(gpath)]) == 0
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["run-local", "--graph", str(gpath), "--alg", alg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: unknown builtin algorithm {alg!r}\n"


def test_pipeline_det_refuses_an_unknown_builtin(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["pipeline", "det", "--gen-kind", "directed_cycle", "--gen-params", '{"n": 8}',
                "--alg", "trial_coloring", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: unknown builtin algorithm 'trial_coloring'\n"


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


def test_verify_parses_the_problem_strictly(tmp_path, capsys):
    # proper-3-4, proper-+3, "proper- 3" and proper-03 used to run as
    # proper-3, proper-0 to fail every labelling, and proper-abc to print
    # int()'s message
    gpath, lpath = tmp_path / "g.json", tmp_path / "f.json"
    assert run(["gen", "--kind", "cycle", "--params", '{"n": 5}', "--out", str(gpath)]) == 0
    dump_json({"values": [[0, 1], [1, 2], [2, 1], [3, 2], [4, 3]]}, lpath)
    argv = ["verify", "--graph", str(gpath), "--labels", str(lpath)]
    for problem, code in (("proper-3", 0), ("proper-12", 0), ("proper-any", 0), ("proper-2", 1)):
        out = tmp_path / f"{problem}.json"
        assert run(argv + ["--problem", problem, "--out", str(out)]) == code
        assert json.loads(out.read_text())["problem"] == problem
    out = tmp_path / "r.json"
    for problem in ("proper-3-4", "proper-+3", "proper- 3", "proper-03", "proper-0",
                    "proper-abc", "proper-", "proper-3 ", "proper-Any", "3", "proper-٣"):
        capsys.readouterr()
        assert run(argv + ["--problem", problem, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: --problem: expected proper-any or proper-<k> with k >= 1, "
            f"got {problem!r}\n")


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


def test_csp_check_general_with_no_neighbours(tmp_path):
    # pairwise disjoint domains give d = 0, where the default eta is 1/2
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json({"ground": [0, 1, 2, 3], "m": 2,
               "constraints": [{"domain": [0, 1], "forbidden": [[1, 1]]},
                               {"domain": [2, 3], "forbidden": [[2, 2], [1, 2]]}]}, cpath)
    assert run(["csp", "check", "--csp", str(cpath), "--which", "general",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["which"] == "general" and report["holds"]
    assert report["d"] == 0 and report["margin"] == "0/1"


def test_csp_check_refuses_an_out_of_range_predicate_param(tmp_path, capsys):
    # residue 2 used to read as an empty body: the constraint got probability 0
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json({"ground": [0, 1], "m": 2, "constraints": [
        {"domain": [0, 1], "predicate": {"name": "parity", "params": {"residue": 2}}}]}, cpath)
    capsys.readouterr()
    assert run(["csp", "check", "--csp", str(cpath), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == \
        "error: constraints[0].predicate.params.residue: expected int in [0..1], got 2\n"
    # a missing field is refused by name (it used to print as "'ground'")
    dump_json({"m": 2, "constraints": []}, cpath)
    assert run(["csp", "check", "--csp", str(cpath), "--out", str(out)]) == 2
    assert not out.exists() and capsys.readouterr().err == "error: ground: missing\n"


def test_pipeline_reports_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pipeline", "det", "--gen-kind", "directed_cycle",
            "--gen-params", '{"n": 64}', "--seed", "11"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reports_identical_across_hash_seeds(tmp_path):
    # reports (and the weighted solver's trace file) must not depend on
    # set/dict iteration order of hashed keys; `csp cover` runs a range-2
    # CSP, which is its own binary encoding, and a range-3 one, which is not
    from locallemma.graphs import build_graph
    from locallemma.randgen import random_measurable_csp

    gpath, star, meas = tmp_path / "g.json", tmp_path / "star5.json", tmp_path / "meas.json"
    labels, torus, torus_labels = (tmp_path / "labels.json", tmp_path / "torus.json",
                                   tmp_path / "torus_labels.json")
    assert run(["gen", "--kind", "directed_cycle", "--params", '{"n": 64}',
                "--out", str(gpath)]) == 0
    dump_json({"values": [[v, v % 2 + 1] for v in range(64)]}, labels)
    # a proper 3-colouring of the 6x6 torus, (row + col) % 3: its verifier
    # balls have symmetries, so the verdict memo misses on BFS order
    assert run(["gen", "--kind", "torus_grid", "--params", '{"rows": 6, "cols": 6}',
                "--out", str(torus)]) == 0
    dump_json({"values": [[v, (v // 6 + v % 6) % 3 + 1] for v in range(36)]}, torus_labels)
    dump_json(graph_to_json(build_graph(range(5), [(0, i) for i in range(1, 5)])), star)
    dump_json(csp_to_json(random_measurable_csp(900, max_ground=40)), meas)
    covers = {2: random_cover_csp(1, max_levels=10),
              3: Csp(tuple(range(5)), 3, (Constraint.explicit((0, 1, 2, 3), 3, [(1, 2, 3, 1)]),))}
    for m, csp in covers.items():
        dump_json(csp_to_json(csp), tmp_path / f"cover{m}.json")
    commands = {
        "det": ["pipeline", "det", "--gen-kind", "directed_cycle",
                "--gen-params", '{"n": 64}', "--seed", "11"],
        "local": ["run-local", "--graph", str(gpath), "--alg", "cole_vishkin_3color",
                  "--seed", "3"],
        "rand": ["pipeline", "rand", "--gen-kind", "directed_cycle",
                 "--gen-params", '{"n": 6}', "--params", '{"m": 6}', "--seed", "5"],
        "verify": ["verify", "--problem", "proper-2", "--graph", str(gpath),
                   "--labels", str(labels)],
        "verify-torus": ["verify", "--problem", "proper-3", "--graph", str(torus),
                         "--labels", str(torus_labels)],
        "general": ["csp", "check", "--csp", str(meas), "--which", "general"],
        "growth": ["csp", "check", "--csp", str(meas), "--which", "neighborhood-growth"],
        "weighted": ["csp", "solve", "--csp", str(meas), "--method", "weighted",
                     "--seed", "7", "--trace"],
        "cover2": ["csp", "cover", "--csp", str(tmp_path / "cover2.json")],
        "cover3": ["csp", "cover", "--csp", str(tmp_path / "cover3.json")],
        "gadget": ["gadget", "--graph", str(star), "--k", "2"],
    }
    src = os.path.dirname(os.path.dirname(locallemma.__file__))
    for name, args in commands.items():
        reports = set()
        for hash_seed in range(4):
            out, trace = tmp_path / f"{name}-{hash_seed}.json", tmp_path / f"{name}-{hash_seed}.trace"
            argv = args + [str(trace)] if args[-1] == "--trace" else args
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "locallemma.cli", *argv, "--out", str(out)],
                           env=env, check=True, timeout=300)
            reports.add((out.read_bytes(), trace.read_bytes() if trace.exists() else None))
        assert len(reports) == 1, name
        assert json.loads(out.read_text())["passed"], name
    assert json.loads((tmp_path / "weighted-0.trace").read_text())


def test_pipeline_rand(tmp_path):
    out = tmp_path / "r.json"
    assert run(["pipeline", "rand", "--gen-kind", "directed_cycle",
                "--gen-params", '{"n": 10}', "--params", '{"m": 8}',
                "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "decoded-coloring-valid" in names


def test_malformed_config_no_partial_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["pipeline", "det", "--gen-kind", "nonsense", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    # an empty ground set: cover refuses it as the weighted solver does
    cpath = tmp_path / "empty.json"
    dump_json({"ground": [], "m": 2, "constraints": []}, cpath)
    for argv in (["csp", "cover"], ["csp", "solve", "--method", "weighted"]):
        capsys.readouterr()
        assert run(argv + ["--csp", str(cpath), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: need a nonempty ground set\n"


def test_out_of_range_int_options_exit_2_without_report(tmp_path, capsys):
    # a negative resample cap or budget, and an enumeration cap below 1,
    # used to run and write a report: "capped" with an empty assignment,
    # or a cap-out against budget -1
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json({"ground": [0, 1], "m": 2,
               "constraints": [{"domain": [0, 1], "forbidden": [[1, 1]]}]}, cpath)
    csp = ["--csp", str(cpath)]
    pipeline = ["--gen-kind", "directed_cycle", "--gen-params", '{"n": 6}']
    gpath = tmp_path / "g.json"
    assert run(["gen", "--kind", "cycle", "--params", '{"n": 4}', "--out", str(gpath)]) == 0
    refused = [(["csp", "solve", "--cap", "-1"] + csp, "--cap: expected int >= 0, got -1"),
               # read by the runtime, which said "rounds must be nonnegative"
               (["run-local", "--graph", str(gpath), "--alg", "id_echo", "--rounds", "-1"],
                "--rounds: expected int >= 0, got -1"),
               (["csp", "cover", "--budget", "-1"] + csp, "--budget: expected int >= 1, got -1"),
               (["csp", "cover", "--budget", "0"] + csp, "--budget: expected int >= 1, got 0")]
    for argv in (["csp", "check"] + csp, ["csp", "solve"] + csp, ["csp", "cover"] + csp,
                 ["pipeline", "det"] + pipeline, ["pipeline", "rand"] + pipeline):
        for bits in ("0", "-2"):
            refused.append((argv + ["--cap-enum-bits", bits],
                            f"--cap-enum-bits: expected int >= 1, got {bits}"))
    for argv, message in refused:
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"
    # no resamples at all is a valid cap: the report says whether the start solved it
    assert run(["csp", "solve", "--cap", "0", "--seed", "1"] + csp + ["--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    assert report["resamples"] == 0 and report["capped"] is not report["passed"]


def test_wrong_containers_exit_2_naming_the_field(tmp_path, capsys):
    cpath, wpath, out = tmp_path / "c.json", tmp_path / "w.json", tmp_path / "r.json"
    dump_json({"weights": [[0, "1/0"], [1, "1"]]}, wpath)
    cases = [({"ground": [0, 1], "m": 2, "constraints": 5}, ["csp", "check"],
              "constraints: expected a list, got 5"),
             ({"ground": [0, 1], "m": 2, "constraints": [
                 {"domain": [0, 1], "predicate": {"name": "all_equal", "params": []}}]},
              ["csp", "cover"], "constraints[0].predicate.params: expected an object, got []"),
             ({"ground": [0, 1], "m": 2, "constraints": []},
              ["csp", "solve", "--method", "weighted", "--weights", str(wpath)],
              "weights[0][1]: expected a rational string, got '1/0'"),
             # a key the format does not define, here a misspelt "constraints"
             ({"ground": [0, 1], "m": 2, "constraints": [], "constraint": [[0, 1]]},
              ["csp", "check"], "constraint: unknown key"),
             # nested: an unknown key used to be ignored (exit 0), a
             # missing one printed as "error: 'domain'"
             ({"ground": [0, 1], "m": 2,
               "constraints": [{"domain": [0, 1], "forbidden": [], "forbiden": [[1, 1]]}]},
              ["csp", "solve"], "constraints[0].forbiden: unknown key"),
             ({"ground": [0, 1], "m": 2, "constraints": [{"forbidden": [[1, 1]]}]},
              ["csp", "cover"], "constraints[0].domain: missing"),
             # a model-level refusal used to name no field
             ({"ground": [0, 1], "m": 2,
               "constraints": [{"domain": [0, 1], "forbidden": [[1, 3]]}]},
              ["csp", "solve"], "constraints[0].forbidden[0]: value 3 out of range [1..2]")]
    for data, argv, message in cases:
        dump_json(data, cpath)
        capsys.readouterr()
        assert run(argv + ["--csp", str(cpath), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


def test_weighted_solve_refuses_weights_outside_the_ground(tmp_path, capsys):
    # weights on ids 7 and 9, outside ground {0, 1, 2}, used to solve (exit 0)
    cpath, wpath, out = tmp_path / "c.json", tmp_path / "w.json", tmp_path / "r.json"
    dump_json({"ground": [0, 1, 2], "m": 2, "constraints": []}, cpath)
    dump_json({"weights": [[0, "1/2"], [9, "1/4"], [7, "1/4"]]}, wpath)
    capsys.readouterr()
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "weighted",
                "--weights", str(wpath), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: weights: id 7 is not in the ground set\n"
    dump_json({"weights": [[0, "1/2"], [2, "1/2"]]}, wpath)   # a subset is read
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "weighted",
                "--weights", str(wpath), "--out", str(out)]) == 0


def test_run_experiment_validation():
    for pipeline in ("bogus", "lll-suite"):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(pipeline=pipeline))


def test_emit_summary(tmp_path):
    paths = []
    for i, passed in enumerate([True, False, True]):
        p = tmp_path / f"r{i}.json"
        dump_json({"pipeline": "det", "passed": passed, "checks": [{}]}, p)
        paths.append(str(p))
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    paths.append(str(broken))
    for name, data in (("list.json", [1, 2]), ("checks.json", {"checks": 5}),
                       ("iters.json", {"iterations": "x"}),
                       ("pipeline.json", {"pipeline": {"a": 1}})):
        dump_json(data, tmp_path / name)
        paths.append(str(tmp_path / name))
    summary, text = emit_summary(paths)
    assert summary["reports"] == 3
    assert summary["passed"] == 2 and summary["failed"] == 1
    assert len(summary["errors"]) == 5
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


def test_cap_out_is_reported(tmp_path):
    # a 30-ary parity predicate has 2^30 states, above the 2^20 cap
    cpath = tmp_path / "parity.json"
    dump_json({"ground": list(range(30)), "m": 2, "constraints": [
        {"domain": list(range(30)), "predicate": {"name": "parity", "params": {}}}]}, cpath)
    out = tmp_path / "r.json"
    assert run(["csp", "check", "--csp", str(cpath), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["pipeline"] == "csp-check" and report["outcome"] == "cap-out"
    assert report["passed"] is False
    assert "2^30" in report["error"] and "2^20" in report["error"]


def test_certified_infeasibility_is_reported(tmp_path):
    from locallemma.graphs import build_graph
    from locallemma.randgen import random_measurable_csp

    cpath = tmp_path / "c.json"
    dump_json(csp_to_json(random_measurable_csp(901, max_ground=80)), cpath)
    out = tmp_path / "r.json"
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "weighted",
                "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["pipeline"] == "csp-solve" and report["outcome"] == "infeasible"
    assert report["passed"] is False
    assert "bootstrap infeasible" in report["error"] and "p(d+1)^N" in report["error"]
    payload = json.loads(report["error"].split(": ", 1)[1])
    assert isinstance(payload, list) and all(isinstance(e, dict) for e in payload)


def test_rand_pipeline_with_one_seed_value_is_certified_infeasible(tmp_path, monkeypatch):
    # at m = 1 the one seed pattern makes every compiled constraint reject:
    # p = 1, refused before Moser-Tardos runs
    from locallemma import cli

    def never(*args, **kwargs):
        raise AssertionError("Moser-Tardos ran")

    monkeypatch.setattr(cli, "moser_tardos_solve", never)
    out = tmp_path / "r.json"
    assert run(["pipeline", "rand", "--gen-kind", "directed_cycle", "--gen-params", '{"n": 6}',
                "--params", '{"m": 1}', "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["pipeline"] == "rand" and report["outcome"] == "infeasible"
    assert report["passed"] is False
    assert report["error"] == ("constraint 0 (B_0) forbids all 1 assignments of its domain: "
                               "p = 1")


@pytest.mark.parametrize("full, index", [
    ({"domain": [1, 2], "forbidden": [[1, 1], [1, 2], [2, 1], [2, 2]]}, 1),
    ({"domain": [2], "predicate": {"name": "all_equal"}}, 1),
    ({"domain": [], "predicate": {"name": "parity"}}, 1),
])
def test_csp_solve_mt_refuses_a_constraint_that_forbids_everything(tmp_path, full, index):
    # exit 1 with the resampling cap spent, before the refusal
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json({"ground": [0, 1, 2], "m": 2, "constraints": [
        {"domain": [0], "forbidden": [[1]]}, full]}, cpath)
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "mt",
                "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["pipeline"] == "csp-solve" and report["outcome"] == "infeasible"
    assert report["error"].startswith(f"constraint {index} ")
    assert report["error"].endswith("of its domain: p = 1")
    # the same CSP less the full constraint solves
    dump_json({"ground": [0, 1, 2], "m": 2, "constraints": [
        {"domain": [0], "forbidden": [[1]]}]}, cpath)
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "mt",
                "--out", str(out)]) == 0


def test_direct_route_failure_is_certified_not_an_input_error(tmp_path):
    # one forbidden pattern on 20 binary elements: p = 2^-20 and d = 0 meet
    # the measurable condition but not the direct p(d+1)^16 <= 2^-33, and
    # the CSP is far too wide to encode as a graph (20! entries)
    cpath = tmp_path / "wide.json"
    dump_json({"ground": list(range(20)), "m": 2, "constraints": [
        {"domain": list(range(20)), "forbidden": [[1] * 20]}]}, cpath)
    out = tmp_path / "r.json"
    assert run(["csp", "solve", "--csp", str(cpath), "--method", "weighted",
                "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["outcome"] == "infeasible" and "p(d+1)^N" in report["error"]
    assert run(["csp", "cover", "--csp", str(cpath), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["outcome"] == "cap-out"
    assert "needs 2^20 members" in report["error"]


def test_internal_error_is_reported(tmp_path, monkeypatch, capsys):
    from locallemma import cli

    def broken(args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "_gen", broken)
    out = tmp_path / "r.json"
    assert run(["gen", "--kind", "cycle", "--params", '{"n": 4}', "--out", str(out)]) == 5
    report = json.loads(out.read_text())
    assert report == {"pipeline": "gen", "outcome": "internal-error",
                      "error": "invariant broken", "passed": False}
    assert capsys.readouterr().err == ""
    # an input error still exits 2 with one stderr line and no report
    monkeypatch.undo()
    out.unlink()
    assert run(["gen", "--kind", "nonsense", "--out", str(out)]) == 2
    assert not out.exists() and capsys.readouterr().err.startswith("error: ")


def test_an_error_without_text_is_named_by_its_type(tmp_path, monkeypatch, capsys):
    from locallemma import cli

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_gen", exhausted)
    out = tmp_path / "r.json"
    assert run(["gen", "--kind", "cycle", "--params", '{"n": 4}', "--out", str(out)]) == 2
    assert not out.exists() and capsys.readouterr().err == "error: MemoryError\n"


def test_coerced_inputs_exit_2_without_report(tmp_path, capsys):
    # files that int() used to read: m 2.9 as 2, domain [1.7, 2.2] as (1, 2),
    # forbidden [1, true] as (1, 1), labels [["3", 2.5], [1, true]] as {3: 2, 1: 1}
    csps = {
        "m.json": ({"ground": [0, 1], "m": 2.9, "constraints": []}, "m"),
        "domain.json": ({"ground": [1, 2], "m": 3, "constraints": [
            {"domain": [1.7, 2.2], "forbidden": [[1, 2]]}]}, "constraints[0].domain[0]"),
        "forbidden.json": ({"ground": [0, 1], "m": 2, "constraints": [
            {"domain": [0, 1], "forbidden": [[1, True]]}]}, "constraints[0].forbidden[0][1]"),
        "ground.json": ({"ground": [0, 1.5], "m": 2, "constraints": []}, "ground[1]"),
    }
    out = tmp_path / "r.json"
    for name, (data, field) in csps.items():
        dump_json(data, tmp_path / name)
        for argv in (["csp", "check"], ["csp", "solve"], ["csp", "cover"]):
            capsys.readouterr()
            assert run(argv + ["--csp", str(tmp_path / name), "--out", str(out)]) == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith(f"error: {field}: expected int")
    # pipeline parameters that int() used to read: n "6" as 6, m 6.9 as 6,
    # rounds true as 1; a negative count is refused too.  A key the
    # pipeline does not take used to be ignored, and a list to print
    # "'list' object has no attribute 'get'"
    for pipeline, params, field in (("det", '{"n": "6"}', "params.n: expected int"),
                                    ("rand", '{"m": 6.9}', "params.m: expected int"),
                                    ("rand", '{"m": 6, "rounds": true}',
                                     "params.rounds: expected int"),
                                    ("det", '{"rounds": -1}', "params.rounds: expected int >= 0"),
                                    ("rand", '{"m": 4, "extra": 1}', "params.extra: unknown key"),
                                    ("det", '{"rounds": 1, "bogus": 2}',
                                     "params.bogus: unknown key"),
                                    ("det", '{"m": 4}', "params.m: unknown key"),
                                    ("rand", '{"n": 6}', "params.n: unknown key"),
                                    ("det", '[]', "params: expected an object, got []")):
        capsys.readouterr()
        assert run(["pipeline", pipeline, "--gen-kind", "directed_cycle",
                    "--gen-params", '{"n": 6}', "--params", params, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {field}")
    for params, field in (({"k": 2, "extra": 1}, "params.extra: unknown key"),
                          ({}, "params.k: missing")):
        with pytest.raises(ValueError, match=f"^{field}$"):
            run_experiment(ExperimentConfig(pipeline="gadget", graph={"kind": "cycle",
                                            "params": {"n": 5}}, params=params))
    gpath = tmp_path / "g.json"
    dump_json(graph_to_json(generate("cycle", {"n": 4})), gpath)
    lpath = tmp_path / "labels.json"
    dump_json({"values": [["3", 2.5], [1, True]]}, lpath)
    capsys.readouterr()
    assert run(["verify", "--problem", "proper-2", "--graph", str(gpath),
                "--labels", str(lpath), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: values[0][0]: expected int, got '3'\n"
    # a vertex 3.0 and an edge end true, which the graph reader used to keep
    bad_graphs = {
        "vertices[3]": {"vertices": [0, 1, 2, 3.0], "edges": [[0, 1], [1, 2], [2, 3]]},
        "edges[1][0]": {"vertices": [0, 1, 2], "edges": [[0, 1], [True, 2]]},
    }
    for field, data in bad_graphs.items():
        dump_json(data, gpath)
        capsys.readouterr()
        assert run(["run-local", "--graph", str(gpath), "--alg", "id_echo",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {field}: expected int")
    # weights [["1", "1/2"], [2.7, "1/2"]], which used to read as {1: 1/2, 2: 1/2}
    cpath = tmp_path / "c.json"
    dump_json({"ground": [1, 2], "m": 4, "constraints": []}, cpath)
    wpath = tmp_path / "w.json"
    for field, weights in (("weights[0][0]: expected int", [["1", "1/2"], [2.7, "1/2"]]),
                           ("weights[1][1]: expected a rational string",
                            [[1, "1/2"], [2, 0.5]])):
        dump_json({"weights": weights}, wpath)
        capsys.readouterr()
        assert run(["csp", "solve", "--csp", str(cpath), "--method", "weighted",
                    "--weights", str(wpath), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {field}")
    # generator sizes that int() used to read: n 16.9 as a 16-cycle, rows
    # "3" as 3, d true as 1; a key the kind does not take used to be
    # ignored, a list to print "list indices must be integers or slices,
    # not str", and a missing size to print "'cols'"
    for kind, params, field in (("directed_cycle", '{"n": 16.9}',
                                 "params.n: expected int, got 16.9"),
                                ("torus_grid", '{"rows": "3", "cols": 3}',
                                 "params.rows: expected int, got '3'"),
                                ("random_regular", '{"n": 4, "d": true}',
                                 "params.d: expected int, got True"),
                                ("cycle", '{"n": 5, "x": 1}', "params.x: unknown key"),
                                ("random_tree", '{"n": 5, "d": 2}', "params.d: unknown key"),
                                ("cycle", '[]', "params: expected an object, got []"),
                                ("torus_grid", '{"rows": 3}', "params.cols: missing")):
        for argv in (["pipeline", "det", "--gen-kind", kind, "--gen-params", params],
                     ["gen", "--kind", kind, "--params", params]):
            capsys.readouterr()
            assert run(argv + ["--out", str(out)]) == 2
            assert not out.exists()
            assert capsys.readouterr().err == f"error: {field}\n"


def test_range_one_csps_solve_and_cover(tmp_path):
    # the binary reduction encodes range 1 with one bit per element
    free, forbidding = tmp_path / "free.json", tmp_path / "forbidding.json"
    out = tmp_path / "r.json"
    dump_json({"ground": [0, 1, 2], "m": 1, "constraints": []}, free)
    dump_json({"ground": [0, 1, 2], "m": 1,
               "constraints": [{"domain": [0, 1], "forbidden": [[1, 1]]}]}, forbidding)
    weighted = ["csp", "solve", "--method", "weighted", "--csp"]
    assert run(weighted + [str(free), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["assignment"] == {"values": [[0, 1], [1, 1], [2, 1]]}
    assert run(["csp", "cover", "--csp", str(free), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["members"] == 2
    for argv, error in ((weighted, "source fails the measurable condition by 32767/32768"),
                        (["csp", "cover", "--csp"],
                         "binary target fails the partial-solution precondition")):
        assert run(argv + [str(forbidding), "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert (report["outcome"], report["error"]) == ("infeasible", error)


def test_generator_specs_and_the_rand_range_name_their_fields(tmp_path, capsys):
    # a generator spec's unknown key used to be ignored, and m = 0 to be
    # refused as "range size must be >= 1", naming no field
    spec, out = tmp_path / "spec.json", tmp_path / "r.json"
    dump_json({"kind": "directed_cycle", "params": {"n": 6}, "bogus": 1}, spec)
    for argv, error in ((["pipeline", "det", "--graph", str(spec)], "graph.bogus: unknown key"),
                        (["pipeline", "rand", "--gen-kind", "directed_cycle", "--gen-params",
                          '{"n": 6}', "--params", '{"m": 0}'],
                         "params.m: expected int >= 1, got 0")):
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {error}\n"


def test_gadget_command(tmp_path):
    from locallemma.graphs import build_graph

    gpath = tmp_path / "star.json"
    dump_json(graph_to_json(build_graph(range(5), [(0, i) for i in range(1, 5)])), gpath)
    out = tmp_path / "r.json"
    assert run(["gadget", "--graph", str(gpath), "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["gadget_degree"] == 3


# Every command on inputs built here, with the sha256 of each report pinned:
# reports are a contract, so any byte of drift shows up as a mismatch.
GOLDEN = [
    ("gen", ["gen", "--kind", "directed_cycle", "--params", '{"n": 16}'], 0,
     "0e3f9e455bc0c412ba0dc446c5a2ca3cf091d82f8c36ac040553046e3aecb2d8"),
    ("run-local", ["run-local", "--graph", "cycle16.json", "--alg",
                   "cole_vishkin_3color", "--seed", "3"], 0,
     "d5d3c8c18179db072c08cd0a34e7980feefb4061ceb4366aa0ff535d7446e9e3"),
    ("run-local-explicit", ["run-local", "--graph", "cycle16.json", "--alg",
                            "cole_vishkin_3color", "--ids", "explicit",
                            "--rounds", "5"], 0,
     "2b040b526818e42447dc702ecb2f32a2bf88d0c7f0a2902c74f48288e4b0c55b"),
    ("verify", ["verify", "--problem", "proper-2", "--graph", "cycle4.json",
                "--labels", "labels4.json"], 0,
     "129ddefeedfa59f211c40e80d587905fed251b1c314d27468e74f83ceae791ca"),
    ("verify-bad", ["verify", "--problem", "proper-any", "--graph", "cycle4.json",
                    "--labels", "bad4.json"], 1,
     "03c7d6707f68134def670a849006b8359301599f32ba3d355c41d6f2fd594a15"),
    ("csp-check", ["csp", "check", "--csp", "sym.json", "--which", "symmetric"], 0,
     "8aa5064ec0a038a9c64de8fcbfd4d1ca5840199a59ba6228458e577fbb1677f2"),
    ("csp-check-measurable", ["csp", "check", "--csp", "meas.json",
                              "--which", "measurable"], 0,
     "cd7c960f08d76ae8391c2405d2e39bf17057f098ebb0e1f691958f0efd3f3095"),
    ("csp-solve-mt", ["csp", "solve", "--csp", "sym.json", "--method", "mt",
                      "--seed", "7", "--cap", "1000"], 0,
     "cf74e3d24a7a43339ceab6405dfcb6701a4fc078b3550b8e6066a1fe2f20fb1d"),
    ("csp-solve-weighted", ["csp", "solve", "--csp", "meas.json", "--method",
                            "weighted", "--seed", "7", "--trace", "trace.json"], 0,
     "4572d83163d3dd0bd24e858c159a70d60ca3fde6d449ab17f50dc636bb109041"),
    ("csp-cover", ["csp", "cover", "--csp", "cover.json"], 0,
     "f4df54cb88efeff64210ce9f59dbe3cb25f94d2f0c6bacdfe5f7220199c7f237"),
    # overlapping domains: the walk certifies residuals by solution witnesses
    # and meets two residual degrees (csp-cover's disjoint domains always give
    # d = 0); the report holds no certificates, so its bytes equal csp-cover's
    ("csp-cover-overlap", ["csp", "cover", "--csp", "overlap.json", "--seed", "3"], 0,
     "f4df54cb88efeff64210ce9f59dbe3cb25f94d2f0c6bacdfe5f7220199c7f237"),
    ("pipeline-det", ["pipeline", "det", "--gen-kind", "directed_cycle",
                      "--gen-params", '{"n": 16}', "--seed", "11"], 0,
     "f20605d54392ae8cf49dc4c9bd36f590ed89c2b3b3be83cc493eac3e715cec81"),
    ("pipeline-det-graph", ["pipeline", "det", "--graph", "cycle16.json"], 0,
     "1e8841b7e8e69df765b22936352ef7c02dbe5eb3690fe104c21132bc696fe530"),
    ("pipeline-rand", ["pipeline", "rand", "--gen-kind", "directed_cycle",
                       "--gen-params", '{"n": 6}', "--params", '{"m": 6}',
                       "--seed", "5"], 0,
     "710904579660985203d265d94e95e40b1a174eaa0e2107588b9892ce195377b4"),
    ("pipeline-rand-readme", ["pipeline", "rand", "--gen-kind", "directed_cycle",
                              "--gen-params", '{"n": 16}', "--params", '{"m": 16}'], 0,
     "d1d43dcc35ec59ae9bf59f863a1068582a9d3e43b7c94efd1e91d5ec77e41b20"),
    ("gadget", ["gadget", "--graph", "star5.json", "--k", "2"], 0,
     "29720db98751c3b0459b9fad8aad5764c9cb06799a9ecf349a30af9fde82971c"),
    ("report", ["report", "run-local.json", "verify-bad.json", "csp-check.json",
                "csp-solve-weighted.json", "missing.json"], 0,
     "9ceed54af98420bc519d5a3577fd50b4f894268cc15225b8e7596db7a03bda23"),
]
GOLDEN_TRACE = "8a482aa86682c9b9f6762a78f3c02db89ecd94bfc16c29a5bb1a02e140331267"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def overlap_csp():
    """Three constraints on overlapping domains: the `overlap.json` input
    of the golden `csp cover` command."""
    doms = (tuple(range(0, 10)), tuple(range(9, 19)), tuple(range(19, 29)))
    patterns = ((1,) * 10, (1,) * 10, (1, 2, 2, 1, 2, 1, 1, 2, 1, 2))
    return Csp(tuple(range(30)), 2, tuple(
        Constraint.explicit(dom, 2, [pattern]) for dom, pattern in zip(doms, patterns)))


def test_golden_reports(tmp_path, monkeypatch, capsys):
    from locallemma.graphs import build_graph
    from locallemma.graphs import build_graph
    from locallemma.randgen import random_measurable_csp

    monkeypatch.chdir(tmp_path)
    dump_json(graph_to_json(generate("directed_cycle", {"n": 16}, 0)), "cycle16.json")
    dump_json(graph_to_json(generate("cycle", {"n": 4}, 0)), "cycle4.json")
    dump_json({"values": [[0, 1], [1, 2], [2, 1], [3, 2]]}, "labels4.json")
    dump_json({"values": [[0, 1], [1, 1], [2, 1], [3, 2]]}, "bad4.json")
    dump_json(graph_to_json(build_graph(range(5), [(0, i) for i in range(1, 5)])),
              "star5.json")
    dump_json(csp_to_json(random_symmetric_csp(2)), "sym.json")
    dump_json(csp_to_json(random_cover_csp(1, max_levels=10)), "cover.json")
    dump_json(csp_to_json(random_measurable_csp(900, max_ground=40)), "meas.json")
    dump_json(csp_to_json(overlap_csp()), "overlap.json")

    got = {}
    for name, argv, code, _ in GOLDEN:
        capsys.readouterr()
        assert run(argv + ["--out", f"{name}.json"]) == code, name
        out_text = capsys.readouterr().out
        report = (tmp_path / f"{name}.json").read_bytes()
        got[name] = _sha(report)
        assert run(argv) == code, name
        stdout = capsys.readouterr().out
        if name == "report":  # the table goes to stdout either way
            assert stdout == out_text and "PARSE ERROR" in stdout
        else:
            assert stdout.encode() == report, name
    got["trace"] = _sha((tmp_path / "trace.json").read_bytes())
    expected = {name: sha for name, _, _, sha in GOLDEN}
    expected["trace"] = GOLDEN_TRACE
    assert got == expected


# The `csp cover` report holds no certificates, so csp-cover and
# csp-cover-overlap share one hash; this pins what the walk certifies on
# the same two inputs, read back from JSON as the CLI reads them, with the
# seeds their golden commands pass.
COVER_CERTIFICATES = {
    "cover.json": "495de16bc2924dd67a4014643afbf16ea5d6e494e5d8166539028893f7866bf5",
    "overlap.json": "6922f48ca192e575584df849f9bc33551bd8654237d3ccdf6f2de1bc9a9d60b9",
}


def test_cover_certificates_and_counts_are_pinned():
    from locallemma.engine import cover_family
    from locallemma.serialize import csp_from_json

    got = {}
    for name, csp, seed in (("cover.json", random_cover_csp(1, max_levels=10), 0),
                            ("overlap.json", overlap_csp(), 3)):
        result = cover_family(csp_from_json(json.loads(json.dumps(csp_to_json(csp)))), seed=seed)
        got[name] = _sha(json.dumps({"certificates": result.certificates,
                                     "per_element_counts": list(result.per_element_counts.items())},
                                    sort_keys=True, separators=(",", ":")).encode())
    assert got == COVER_CERTIFICATES


def test_pipeline_rand_reaches_the_measurable_regime(tmp_path):
    # m = 2^35 is the smallest range at which the compiled CSP meets
    # p(d+1)^8 <= 2^-15; enumerating m^3 seed patterns would cap out
    out = tmp_path / "r.json"
    assert run(["pipeline", "rand", "--gen-kind", "directed_cycle",
                "--gen-params", '{"n": 16}', "--params", '{"m": 34359738368}',
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    stats = report["checks"][0]
    assert stats["name"] == "compiled-stats"
    assert stats["p"] == "68719476735/1180591620717411303424" and stats["d"] == 4
