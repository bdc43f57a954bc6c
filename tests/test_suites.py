import hashlib
import sys
from pathlib import Path

import pytest

from metriclab import numeric, suites, tapes
from metriclab.cli import ScenarioConfig, emit_report, run_suite

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_SUITES = ("axioms", "busemann", "horofn", "transfers", "scissors", "tapes",
                 "grasshopper", "counterexamples")


@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_suite_output_matches_golden(suite):
    text = emit_report(run_suite(ScenarioConfig(suite=suite, seed=7)))
    assert text.encode("utf-8") == (GOLDEN / f"{suite}_seed7.json").read_bytes()


@pytest.mark.parametrize("suite", ("horofn", "transfers", "scissors", "tapes"))
def test_suites_run_no_search(suite, monkeypatch):
    # rho on the normed planes, closest points on E^n and H^2 and the tape
    # chords are closed forms: with every bisection in the package replaced
    # by a stub that raises, these suites still reproduce their goldens
    def stub(*args, **kwargs):
        raise AssertionError(f"suite {suite} ran a bisection")
    search = numeric.bisect_root
    for modname, mod in list(sys.modules.items()):
        if modname == "metriclab" or modname.startswith("metriclab."):
            for name, obj in list(vars(mod).items()):
                if obj is search:
                    monkeypatch.setattr(mod, name, stub)
    text = emit_report(run_suite(ScenarioConfig(suite=suite, seed=7)))
    assert text.encode("utf-8") == (GOLDEN / f"{suite}_seed7.json").read_bytes()


def test_catalog_views_read_one_table(star_tree):
    full = suites.catalog()
    assert len(full) == len(suites.CATALOG) == 12
    assert full[7].desc == suites.ended_tree().desc
    assert full[8].desc == suites.swap_tree().desc
    # a given tree takes the ended tree's slot, and only that slot
    swapped = suites.catalog(star_tree)
    assert [k for k, (m, n) in enumerate(zip(full, swapped)) if m is not n] == [7]
    assert swapped[7] is star_tree
    # busemann_catalog returns catalog()'s own instances, in catalog order
    slots = [[k for k, m in enumerate(full) if m is b] for b in suites.busemann_catalog()]
    assert slots == [[0], [2], [3], [4], [6], [7], [10]]


# sha256 of the whole `all` report for three more seeds (seed 7 is pinned
# suite by suite above); the test ids name the seed alone, so a re-pin keeps
# them
@pytest.mark.parametrize("seed, digest", [
    (11, "e5073a2577d8339c5f4888492bdec162cd4c8b6d69b98c470b3a351767d4bd6d"),
    (23, "b0a6ec5a0d0fdecc5904dc3eb4c0069e8ad7d208100412d600426b9e7df67dd6"),
    (29, "401bac6643cc5ea0e45a77c3c3d4c6bc92eb1e956204e6bb5bfd6cf5aa46cb8b"),
], ids=["11", "23", "29"])
def test_all_output_digest(seed, digest):
    text = emit_report(run_suite(ScenarioConfig(suite="all", seed=seed)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_all_builds_points_for_reports_and_witnesses_only(builds):
    # the closed forms, the Busemann limit, the sum bound and the midpoint
    # check read coordinates; at seed 7 `all` built 6,426 Points and 1,340
    # GeodesicRefs while they still made Points of their own (ROADMAP item 15)
    run_suite(ScenarioConfig(suite="all", seed=7))
    assert builds["Point"] <= 4850
    assert builds["GeodesicRef"] <= 650


def test_all_checks_the_same_tape_rows_and_writes_the_same_text_on_each_run(monkeypatch):
    # nothing a run leaves behind changes what the next one checks or reports
    built, check = [], tapes.validate_r_sequence

    def counted(space, points, tol=1e-9):
        built[-1].append(len(points))
        return check(space, points, tol=tol)
    monkeypatch.setattr(tapes, "validate_r_sequence", counted)
    texts = []
    for _ in range(2):
        built.append([])
        texts.append(emit_report(run_suite(ScenarioConfig(suite="all", seed=7))))
    assert built[0] == built[1]
    assert texts[0] == texts[1]


def test_all_enforces_declared_suite_sizes(monkeypatch):
    full = suites.SUITES["axioms"]
    monkeypatch.setitem(suites.SUITES, "axioms", lambda seed, params: full(seed, params)[1:])
    with pytest.raises(AssertionError, match="suite axioms produced 11 reports"):
        suites.run_named_suite("all", 7, {})


# the inverse direction of the line-sine unit-distance check is decided by
# rounding near the half-integers, so these seeds fail; the samples stay
# where they are until the check itself is mended
@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
@pytest.mark.parametrize("seed", [336, 360, 4096, 5489])
def test_counterexamples_pass_at_every_seed(seed):
    reports = suites.SUITES["counterexamples"](seed, {})
    assert all(rep.passed for rep in reports), [rep.check for rep in reports if not rep.passed]
