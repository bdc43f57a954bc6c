import json
import math
import os
import subprocess
import sys

import pytest

from metriclab import cli
from metriclab.cli import ConfigError, ScenarioConfig, emit_report, run_suite
from metriclab.verify import VerificationReport


def _run(args, **kw):
    return subprocess.run([sys.executable, "-m", "metriclab.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_cli_json_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = _run(["--suite", "grasshopper", "--seed", "7", "--out", str(out1)])
    r2 = _run(["--suite", "grasshopper", "--seed", "7", "--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_all_bytes_do_not_depend_on_the_hash_seed():
    # witnesses keep the order the checks find them in, so no iteration
    # over a hashed set of strings may reach the report
    outs = [_run(["--suite", "all", "--seed", "7"],
                 env={**os.environ, "PYTHONHASHSEED": hash_seed})
            for hash_seed in ("0", "12345")]
    assert [r.returncode for r in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    assert '"suite": "all"' in outs[0].stdout


def test_cli_exit_codes():
    ok = _run(["--suite", "scissors"])
    assert ok.returncode == 0
    usage = _run(["--suite", "definitely-not-a-suite"])
    assert usage.returncode == 2
    no_seed = _run(["--suite", "axioms"])
    assert no_seed.returncode == 2
    nothing = _run([])
    assert nothing.returncode == 2


def test_cli_failure_exit_code(monkeypatch):
    failing = VerificationReport("stub", tolerance=0.0)
    failing.fail({"reason": "stub"})
    failing.finalize()
    monkeypatch.setattr(cli, "run_named_suite", lambda *a, **k: [failing])
    assert cli.main(["--suite", "scissors"]) == 1


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "grasshopper", "seed": 3,
                               "parameters": {"pairs": 10}}))
    out = tmp_path / "r.json"
    r = _run(["--config", str(cfg), "--out", str(out)])
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "grasshopper"
    assert payload["seed"] == 3
    assert payload["parameters"]["pairs"] == 10
    # CLI flags override the file
    r = _run(["--config", str(cfg), "--suite", "scissors", "--out", str(out)])
    assert r.returncode == 0
    assert json.loads(out.read_text())["suite"] == "scissors"


def test_cli_tree_file_config(tmp_path):
    tree = {"vertices": ["a", "b", "c"],
            "edges": [["a", "b", "1/2"], ["b", "c", "1/2"]],
            "denominator_bound": 2}
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(tree))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "axioms", "seed": 5,
                               "tree_file": str(tree_path)}))
    r = _run(["--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert r.returncode == 0
    # --tol rebuilds the config, and the tree from tree_file passes again
    r = _run(["--config", str(cfg), "--tol", "1e-9", "--out", str(tmp_path / "o.json")])
    assert r.returncode == 0


def test_cli_horofn_tol_zero_reports_limit_failures():
    # at tol 0 the float Busemann limits cannot converge (E^2) or walk out
    # of double range (H^2): failed reports with witnesses, not a traceback
    r = _run(["--suite", "horofn", "--seed", "7", "--tol", "0"])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")
    reports = json.loads(r.stdout, parse_constant=reject)["reports"]
    euclid, hyper, tree = reports[:3]
    assert euclid["check"] == "busemann-oracle[euclidean-2]"
    assert euclid["status"] == "fail" and euclid["counts"]["violations"] == 50
    assert hyper["check"] == "busemann-oracle[hyperbolic-plane]"
    assert hyper["status"] == "fail"
    errors = [w["error"] for w in euclid["witnesses"] + hyper["witnesses"] if "error" in w]
    assert any("not stable" in e for e in errors)
    assert any("leaves double range" in e for e in errors)
    assert all(w["stage"] == "limit" for w in hyper["witnesses"] if "error" in w)
    assert tree["check"] == "busemann-oracle[tree]" and tree["status"] == "pass"


def test_emit_parse_roundtrip():
    config = ScenarioConfig(suite="scissors", seed=0)
    result = run_suite(config)
    text = emit_report(result, "json")
    back = json.loads(text)
    assert back == result.payload()
    assert back["summary"]["failed"] == 0
    # stable key order in each report
    first = back["reports"][0]
    assert list(first)[:5] == ["check", "status", "counts", "witnesses", "tolerance"]


def test_emit_is_strict_json():
    # a grasshopper distance of inf reaches a witness; JSON has no Infinity
    rep = VerificationReport("grasshopper-euclid-agreement", tolerance=1e-9)
    rep.fail({"analytic": 3, "graph": math.inf})
    rep.counts = {"low": -math.inf, "undefined": math.nan, "pairs": 1}
    result = cli.SuiteResult(suite="grasshopper", seed=0, parameters={"x": math.inf},
                             reports=[rep.finalize()], duration=0.0)

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")
    back = json.loads(emit_report(result), parse_constant=reject)
    assert back["reports"][0]["witnesses"] == [{"analytic": 3, "graph": "inf"}]
    assert back["reports"][0]["counts"] == {"low": "-inf", "undefined": "nan", "pairs": 1}
    assert back["parameters"] == {"x": "inf"}


def test_emit_text_format():
    config = ScenarioConfig(suite="scissors", seed=0)
    result = run_suite(config)
    text = emit_report(result, "text")
    assert "scissors-shift-agreement" in text
    assert "PASS" in text
    assert "failed: 0" in text


def test_counterexample_suite_contents():
    config = ScenarioConfig(suite="counterexamples", seed=7)
    result = run_suite(config)
    names = [r.check for r in result.reports]
    assert names == [
        "counterexample[line-sine]",
        "counterexample[sphere-flip]",
        "counterexample[tree-swap]",
        "counterexample[tree-smooth]",
        "counterexample[max-lift]",
    ]
    for r in result.reports:
        assert r.passed
    assert result.failed == 0


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(suite="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(suite="axioms")            # randomized without a seed
    with pytest.raises(ConfigError):
        ScenarioConfig(suite="axioms", seed=1, format="xml")
    cfg = ScenarioConfig(suite="tapes")           # deterministic: seed optional
    assert cfg.seed == 0


@pytest.mark.parametrize("config, flags", [
    ({"suite": "axioms", "seed": "abc"}, []),
    ({"suite": "tapes", "seed": "abc"}, []),
    ({"suite": "axioms", "seed": True}, []),
    ({"suite": "axioms", "seed": 7}, ["--tol", "nan"]),
    ({"suite": "axioms", "seed": 7}, ["--tol", "-1"]),
    ({"suite": "axioms", "seed": 7, "parameters": {"tol": -1}}, []),
    ({"suite": "axioms", "seed": 7, "parameters": {"tol": float("inf")}}, []),
    ({"suite": "axioms", "seed": 7, "parameters": 5}, []),
    ({"suite": "axioms", "seed": 7, "parameters": [["triples", 5]]}, []),
    ({"suite": "axioms", "seed": 7, "parameters": {"triples": "abc"}}, []),
    ({"suite": "axioms", "seed": 7, "parameters": {"triples": 0}}, []),
    ({"suite": "horofn", "seed": 7, "parameters": {"ray_pairs": 2.5}}, []),
    ({"suite": "grasshopper", "seed": 7, "parameters": {"pairs": True}}, []),
    ({"suite": "axioms", "seed": 7, "tree_file": 5}, []),
    (5, ["--suite", "axioms", "--seed", "7"]),
    ([1], ["--suite", "axioms", "--seed", "7"]),
    ("abc", ["--suite", "axioms", "--seed", "7"]),
    ({"suite": "axioms", "seed": 7, "output": 1.5}, []),
    ({"suite": "axioms", "seed": 7, "output": ["x.json"]}, []),
    ({"suite": "axioms", "seed": 7, "parameters": {"tree": 5}}, []),
    ({"suite": "axioms", "seed": 7, "parameters": {"tree": 5}}, ["--tol", "0.1"]),
    ({"suite": "tapes", "fromat": "text"}, []),
    ({"suite": "tapes", "parameters": {"oracle_pair": 3}}, []),
], ids=["seed-str", "seed-str-deterministic-suite", "seed-bool", "cli-tol-nan",
        "cli-tol-negative", "config-tol-negative", "config-tol-inf", "parameters-int",
        "parameters-list", "count-str", "count-zero", "count-float", "count-bool",
        "tree-file-int", "config-int", "config-list", "config-str", "output-float",
        "output-list", "tree-param-int", "tree-param-int-with-tol", "unknown-key",
        "unknown-parameter"])
def test_cli_rejects_bad_seed_and_tol(tmp_path, capsys, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    # an unknown key is named in the message
    for key in ("fromat", "oracle_pair"):
        assert (key in err) == (key in json.dumps(config))


@pytest.mark.parametrize("text", [
    '{"suite": "axioms", "seed": 1%s}' % ("0" * 5000),
    '{"suite": "axioms", "seed": 7, "parameters": {"triples": 1%s}}' % ("0" * 5000),
    '{"suite": "axioms", "seed": 7, "parameters": {"tol": 1%s}}' % ("0" * 399),
], ids=["seed-5001-digits", "triples-5001-digits", "tol-400-digits"])
def test_cli_rejects_huge_integers_in_a_config(tmp_path, capsys, text):
    # json refuses an int of more than 4300 digits with a plain ValueError;
    # a 400-digit tol parses but overflows a float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


GOOD_TREE = {"vertices": ["a", "b", "c"],
             "edges": [["a", "b", "1/2"], ["b", "c", "1/2"]],
             "denominator_bound": 2}


@pytest.mark.parametrize("tree", [
    dict(GOOD_TREE, ends=5),
    dict(GOOD_TREE, vertices=[["a"], "b", "c"]),
    dict(GOOD_TREE, vertices="abc"),
    dict(GOOD_TREE, edges=[["a", "b"], ["b", "c", "1/2"]]),
    dict(GOOD_TREE, edges=[[["a"], "b", "1/2"], ["b", "c", "1/2"]]),
    dict(GOOD_TREE, denominator_bound=[2]),
    dict(GOOD_TREE, edges=[["a", "b", "1"], ["b", "c", "2"]], denominator_bound=True),
    dict(GOOD_TREE, edges=[["a", "b", "1/0"], ["b", "c", "1/2"]]),
    dict(GOOD_TREE, ends=["a", "a"]),
    [GOOD_TREE],
], ids=["ends-int", "vertex-list", "vertices-str", "edge-pair", "endpoint-list",
        "bound-list", "bound-bool", "zero-denominator", "duplicate-ends", "not-an-object"])
def test_cli_rejects_malformed_tree_file(tmp_path, capsys, tree):
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(tree))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "axioms", "seed": 5, "tree_file": str(tree_path)}))
    assert cli.main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad tree file: ") and err.count("\n") == 1


def test_cli_runs_axioms_on_a_tree_beyond_float_range(tmp_path):
    # "1e400" is a valid exact edge length; the axiom checks compare it exactly
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(dict(GOOD_TREE, edges=[["a", "b", "1e400"],
                                                           ["b", "c", "1/2"]])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "axioms", "seed": 5, "tree_file": str(tree_path)}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
    reports = json.loads((tmp_path / "out.json").read_text())["reports"]
    assert all(r["status"] == "pass" for r in reports)


def test_unwritable_output_is_io_error(tmp_path):
    r = _run(["--suite", "scissors", "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert r.returncode == 2
