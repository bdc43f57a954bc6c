"""Command-line entry point: load a scenario config, run a named check
suite, and emit a machine-readable report.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad
configuration or usage. JSON output is byte-identical across runs with the
same config and seed (volatile fields like wall-clock duration appear only
in text mode).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace

from .spaces import MetricTree, SpaceError, TreeDesc, _finite, _shown
from .suites import COUNT_PARAMETERS, RANDOMIZED_SUITES, SUITES, run_named_suite
from .verify import _jsonable

SUITE_NAMES = tuple(SUITES) + ("all",)
CONFIG_KEYS = ("suite", "seed", "parameters", "output", "format", "tree_file")
PARAMETER_KEYS = COUNT_PARAMETERS + ("tol", "tree")


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    suite: str
    seed: int = None
    parameters: dict = field(default_factory=dict)
    output: str = None
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {_shown(self.suite)}; choose from {SUITE_NAMES}")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a path string, got {_shown(self.output)}")
        if self.format not in ("json", "text"):
            raise ConfigError(f"unknown format {_shown(self.format)}")
        if self.seed is None:
            if self.suite in RANDOMIZED_SUITES:
                raise ConfigError(f"suite {_shown(self.suite)} is randomized: a seed is required")
            self.seed = 0
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {_shown(self.seed)}")
        if not isinstance(self.parameters, dict):
            raise ConfigError(f"parameters must be an object, got {_shown(self.parameters)}")
        self.parameters = dict(self.parameters)
        for key in self.parameters:
            if key not in PARAMETER_KEYS:
                raise ConfigError(f"unknown parameter {_shown(key)}; choose from {PARAMETER_KEYS}")
        if "tree" in self.parameters and not isinstance(self.parameters["tree"], MetricTree):
            raise ConfigError("parameters.tree must be a MetricTree (give a tree_file), "
                              f"got {_shown(self.parameters['tree'])}")
        for key in COUNT_PARAMETERS:
            n = self.parameters.get(key, 1)
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ConfigError(f"{key} must be a positive integer, got {_shown(n)}")
        tol = self.parameters.get("tol", 0.0)
        if not (_finite(tol) and tol >= 0):
            raise ConfigError(f"tol must be a finite number >= 0, got {_shown(tol)}")

    @staticmethod
    def from_file(path: str, overrides: dict = None) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            # ValueError: bad JSON, bad UTF-8, or an int past Python's digit limit
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ScenarioConfig.from_dict(raw, overrides)

    @staticmethod
    def from_dict(raw: dict, overrides: dict = None) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {_shown(raw)}")
        for key in raw:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {_shown(key)}; choose from {CONFIG_KEYS}")
        merged = dict(raw)
        for key, val in (overrides or {}).items():
            if val is not None:
                merged[key] = val
        config = ScenarioConfig(
            suite=merged.get("suite", "all"),
            seed=merged.get("seed"),
            parameters=merged.get("parameters", {}),
            output=merged.get("output"),
            format=merged.get("format", "json"),
        )
        if "tree_file" in merged:
            try:
                config.parameters["tree"] = MetricTree(TreeDesc.from_json(merged["tree_file"]))
            except (OSError, SpaceError, ValueError) as exc:
                raise ConfigError(f"bad tree file: {exc}") from exc
        return config


@dataclass
class SuiteResult:
    suite: str
    seed: int
    parameters: dict
    reports: list
    duration: float

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if not r.passed)

    def payload(self) -> dict:
        """Deterministic JSON payload; excludes wall-clock duration."""
        params = {k: v for k, v in sorted(self.parameters.items())
                  if isinstance(v, (int, float, str, bool))}
        return {
            "suite": self.suite,
            "seed": self.seed,
            "parameters": _jsonable(params),
            "reports": [r.to_json() for r in self.reports],
            "summary": {"total": len(self.reports), "failed": self.failed},
        }


def run_suite(config: ScenarioConfig) -> SuiteResult:
    t0 = time.perf_counter()
    reports = run_named_suite(config.suite, config.seed, config.parameters)
    return SuiteResult(suite=config.suite, seed=config.seed,
                       parameters=config.parameters, reports=reports,
                       duration=time.perf_counter() - t0)


def emit_report(result: SuiteResult, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(result.payload(), indent=2, allow_nan=False) + "\n"
    if fmt != "text":
        raise ConfigError(f"unknown format {_shown(fmt)}")
    lines = [f"suite: {result.suite}   seed: {result.seed}   "
             f"duration: {result.duration:.2f}s"]
    width = max(len(r.check) for r in result.reports)
    for r in result.reports:
        counts = ", ".join(f"{k}={v}" for k, v in r.counts.items())
        lines.append(f"  {r.check:<{width}}  {r.status.upper():4s}  {counts}")
    lines.append(f"total: {len(result.reports)}   failed: {result.failed}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="metriclab",
        description="Run verification suites over the model-space catalog.")
    ap.add_argument("--config", help="JSON scenario config file")
    ap.add_argument("--suite", choices=SUITE_NAMES, help="suite name")
    ap.add_argument("--seed", type=int, help="seed for randomized suites")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--format", choices=("json", "text"), dest="fmt")
    ap.add_argument("--tol", type=float, help="override the suite tolerance")
    args = ap.parse_args(argv)

    overrides = {"suite": args.suite, "seed": args.seed,
                 "output": args.out, "format": args.fmt}
    try:
        if args.config:
            config = ScenarioConfig.from_file(args.config, overrides)
        else:
            if args.suite is None:
                raise ConfigError("either --config or --suite is required")
            config = ScenarioConfig.from_dict({}, overrides)
        if args.tol is not None:
            config = replace(config, parameters={**config.parameters, "tol": args.tol})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    result = run_suite(config)
    text = emit_report(result, config.format)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"{result.suite}: {len(result.reports) - result.failed}/"
          f"{len(result.reports)} checks passed in {result.duration:.2f}s",
          file=sys.stderr)
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
