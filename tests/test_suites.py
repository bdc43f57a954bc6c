from pathlib import Path

import pytest

from metriclab import suites
from metriclab.cli import ScenarioConfig, emit_report, run_suite

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_SUITES = ("axioms", "busemann", "horofn", "transfers", "scissors", "tapes",
                 "grasshopper", "counterexamples")


@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_suite_output_matches_golden(suite):
    text = emit_report(run_suite(ScenarioConfig(suite=suite, seed=7)))
    assert text.encode("utf-8") == (GOLDEN / f"{suite}_seed7.json").read_bytes()


def test_all_enforces_declared_suite_sizes(monkeypatch):
    full = suites.SUITES["axioms"]
    monkeypatch.setitem(suites.SUITES, "axioms", lambda seed, params: full(seed, params)[1:])
    with pytest.raises(AssertionError, match="suite axioms produced 11 reports"):
        suites.run_named_suite("all", 7, {})
