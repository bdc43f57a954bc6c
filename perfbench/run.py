"""metriclab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; metriclab is imported from its
``src/`` directory and nowhere else, and the run stops with exit code 2
when that directory is missing.

The run is a closed loop: one caller runs the workload's jobs one after
another, waiting for each, with no threads. Jobs run in whole cycles over
the workload's pool until ``--seconds`` have passed. Every output is
checked by the benchmark's own oracles; a job that raises or fails its check
counts in ``failed``.

``--trace 0`` reports the end-to-end metrics. Times are measured in wall
time and also at a reference machine speed (``speed.py``): the host's speed
is sampled from the start of the script, between jobs and every 50 ms, and
each wall time is scaled by the samples taken during it. The gated timings
are the ones at reference speed, because on a shared host wall times swing
with other people's load by more than a regression worth catching; the wall
times are printed beside them. ``setup_s`` is the median over three fresh
processes of the time from the start of this script to the end of one
warm-up job (importing metriclab, generating the inputs, the warm-up job);
this process is one of the three. ``job_p50_ref_ms`` is the median job time
and ``checks_per_ref_s`` the reports completed per second of busy time.

``--trace 1`` runs the same untraced loop, then one traced cycle of the pool,
and reports per-layer metrics from the traced cycle: ``calls``, ``evals``,
``nodes``, ``validations`` and ``self_s`` are totals over the cycle,
``.s`` and ``us_per_call`` are means per call. The spans of the last traced
run of each workload are written to ``.bench_build/perfbench/`` in the
checkout.

``--smoke`` shrinks every input so the benchmark's own tests run quickly.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it print each metric by name and unit for people.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
WORKLOADS = ("suite-all", "pair-checks", "tree-scale")

END_TO_END_UNITS = {"setup_s": "s", "job_p50_ref_ms": "ms", "checks_per_ref_s": "1/s",
                    "peak_rss_mb": "MB"}

SUITE_NAMES = ("axioms", "busemann", "horofn", "transfers", "scissors", "tapes",
               "grasshopper", "counterexamples")
MODELS = ("euclidean", "minkowski-lp", "minkowski-linf", "hyperbolic", "sphere",
          "real-line", "max-product", "tree")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from workloads import TREE_SIZES
    units = {
        "horofn.ray_pseudodistance.calls": "count",
        "horofn.ray_pseudodistance.self_s": "s",
        "horofn.ray_pseudodistance.distance_calls_per_call": "count",
        "horofn.ray_pseudodistance.max_abs_err.euclidean": "dist",
        "horofn.ray_pseudodistance.max_abs_err.hyperbolic": "dist",
        "horofn.ray_pseudodistance.raised.euclidean": "count",
        "horofn.ray_pseudodistance.raised.hyperbolic": "count",
        "horofn.busemann_value.closed.calls": "count",
        "horofn.busemann_value.limit.calls": "count",
        "horofn.busemann_value.limit.distance_calls_per_call": "count",
        "horofn.spherical_shadow_sample.self_s": "s",
        "spaces.distance.calls": "count",
        "spaces.distance.self_s": "s",
    }
    units.update({f"spaces.distance.us_per_call.{m}": "us" for m in MODELS})
    units["spaces.point.validations"] = "count"
    units.update({f"spaces.tree_tables.build_s.v{v}": "s" for v in TREE_SIZES})
    units.update({
        "spaces.tree_tables.peak_mb": "MB",
        "spaces.point_at.us_per_call.tree": "us",
        "verify.is_isometry.self_s": "s",
        "verify.preserves_unit_distance.self_s": "s",
        "verify.check_metric_axioms.self_s": "s",
        "verify.pairs_per_s": "1/s",
        "verify.preserves_unit_distance.false_violations.line-sine": "count",
        "grasshopper.UnitJumpGraph.build.self_s": "s",
        "grasshopper.grasshopper_distance.self_s": "s",
        "grasshopper.tree_offset_class_nodes.nodes": "count",
        "transfers.transfer_param.calls": "count",
        "transfers.transfer_param.self_s": "s",
        "numeric.bisect_root.calls": "count",
        "numeric.bisect_root.evals": "count",
        "numeric.golden_min.calls": "count",
        "numeric.golden_min.evals": "count",
        "tapes.build_p_tape.self_s": "s",
        "tapes.validate_p_tape.self_s": "s",
    })
    units.update({f"suites.{s}.s": "s" for s in SUITE_NAMES})
    units["cli.emit_report.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="metriclab benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_metriclab():
    """Import metriclab from the checkout's src/ only."""
    if not (SRC / "metriclab" / "__init__.py").is_file():
        print(f"perfbench: no metriclab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import metriclab
    if Path(metriclab.__file__).resolve().parent != (SRC / "metriclab").resolve():
        print(f"perfbench: metriclab was imported from {metriclab.__file__}", file=sys.stderr)
        raise SystemExit(2)


def run_meta(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "src_lines": src_lines}


class Loop:
    """Outcome of running jobs: latencies per pool index, reports, failures.

    With a ``sampler`` (a started ``speed.SpeedSampler``) a speed sample is
    taken after every job, and ``reference`` holds the time of every job
    that passed its check at the reference speed."""

    def __init__(self, pool_size: int, sampler=None):
        self.latencies = [[] for _ in range(pool_size)]
        self.sampler = sampler
        self.reference = []
        self.reports = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cycles = []   # [reports, busy seconds] of each whole cycle

    def run_job(self, job, index, span):
        self.attempted += 1
        sampler = self.sampler
        first = len(sampler.loops) - 1 if sampler else 0   # the sample just before
        try:
            t0 = time.perf_counter()
            out = job.run(span)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a job that raises is a failed job, not a crash
            self.failed += 1
            self.problems.append(f"{job.name}: {type(exc).__name__}: {exc}")
            return
        finally:
            if sampler:
                sampler.sample()
        issues = job.check(out)
        if issues:
            self.failed += 1
            self.problems.append(f"{job.name}: {'; '.join(issues)}")
            return
        self.latencies[index].append(elapsed)
        if sampler:
            self.reference.append(sampler.reference_seconds(elapsed, first, len(sampler.loops)))
        self.reports += job.checks
        if self.cycles:
            self.cycles[-1][0] += job.checks
            self.cycles[-1][1] += elapsed

    def all_latencies(self):
        return sorted(x for lat in self.latencies for x in lat)

    def busy(self):
        return sum(self.all_latencies())


def no_span(label):
    return nullcontext()


def run_cycles(pool, loop, seconds=None, cycles=None, span=no_span, tracer=None):
    """Run whole cycles over the pool until `seconds` have passed or
    `cycles` cycles are done."""
    t0 = time.perf_counter()
    done = 0
    while True:
        loop.cycles.append([0, 0.0])
        for index, job in enumerate(pool):
            if tracer is not None:
                tracer.job_id = done * len(pool) + index
                with tracer.span("job"):
                    loop.run_job(job, index, span)
            else:
                loop.run_job(job, index, span)
        done += 1
        if cycles is not None and done >= cycles:
            return
        if cycles is None and time.perf_counter() - t0 >= seconds:
            return


def setup(workloads, args):
    """Generate the inputs and run one warm-up job; returns (pool, loop)."""
    pool = workloads.make_pool(args.workload, args.seed, args.smoke)
    warm = Loop(len(pool))
    warm.run_job(pool[0], 0, no_span)
    return pool, warm


def setup_probes(args):
    """Set-up times (at reference speed, and wall) and failures of fresh
    processes."""
    times, walls, failed = [], [], 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            print(f"perfbench: set-up probe failed: {proc.stderr.strip()}", file=sys.stderr)
            raise SystemExit(2)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        walls.append(probe["setup_wall_s"])
        failed += probe["failed"]
    return times, walls, failed


def percentile_with_tail(values, q):
    """The q-quantile and the number of samples above it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]
    return cut, sum(1 for v in values if v > cut)


def fmt(name, value, unit, note=""):
    return f"  {name:<58} {value:>14.6g} {unit:<6} {note}".rstrip()


def end_to_end(args, pool, loop, main_setup, main_setup_wall):
    probe_times, probe_walls, probe_failed = setup_probes(args)
    setup_times = [main_setup] + probe_times
    lat = loop.all_latencies()
    ref = loop.reference
    ref_busy = sum(ref)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_p50_ref_ms": statistics.median(ref) * 1000.0 if ref else 0.0,
        "checks_per_ref_s": loop.reports / ref_busy if ref_busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"median of {len(setup_times)} fresh processes",
             "job_p50_ref_ms": f"n={len(ref)} jobs",
             "checks_per_ref_s": f"{loop.reports} reports over {ref_busy:.3f} s busy "
                                 f"at reference speed",
             "peak_rss_mb": "this process"}
    print(f"workload {args.workload}  seed {args.seed}  (end to end, untraced)")
    for name, unit in END_TO_END_UNITS.items():
        print(fmt(name, metrics[name], unit, notes[name]))
    print(fmt("setup_wall_s", statistics.median([main_setup_wall] + probe_walls), "s",
              f"median of {len(setup_times)} fresh processes, wall time"))
    loops = loop.sampler.loops
    if loops:
        print(fmt("reference_loop_ms", statistics.median(loops) * 1000.0, "ms",
                  f"median of {len(loops)} speed samples, "
                  f"{min(loops) * 1000.0:.3f} to {max(loops) * 1000.0:.3f}"))
    if lat:
        print(fmt("job_p50_ms", statistics.median(lat) * 1000.0, "ms",
                  f"n={len(lat)} jobs, wall time"))
        print(fmt("checks_per_s", statistics.median(r / b for r, b in loop.cycles if b > 0),
                  "1/s", f"median of {len(loop.cycles)} cycles, {loop.reports} reports "
                         f"over {loop.busy():.3f} s busy, wall time"))
    if args.workload == "suite-all" and lat:
        print(fmt("all_s", statistics.median(lat), "s", f"n={len(lat)} all runs"))
    if len(lat) > 1:
        p90, beyond = percentile_with_tail(lat, 90)
        if beyond >= 10:
            print(fmt("job_p90_ms", p90 * 1000.0, "ms", f"n={len(lat)}, {beyond} beyond"))
        else:
            print(f"  job_p90_ms: not reported, {beyond} samples beyond it (needs 10)")
    print(fmt("failed_ratio", loop.failed / max(1, loop.attempted), "ratio",
              f"{loop.failed} of {loop.attempted} jobs"))
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in END_TO_END_UNITS.items()}, probe_failed)


def tree_table_peak_mb(pool):
    """tracemalloc peak while building the largest tree of the pool."""
    trees = [job for job in pool if job.build is not None]
    if not trees:
        return 0.0
    job = max(trees, key=lambda j: j.size)
    tracemalloc.start()
    try:
        job.build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def per_layer(args, pool, loop, workloads, tracer_mod, meta):
    tracer = tracer_mod.Tracer()
    traced = Loop(len(pool))
    tracer.install()
    try:
        run_cycles(pool, traced, cycles=1, span=tracer.span, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced = sum(statistics.median(lat) for lat in loop.latencies if lat)
    stats, by_parent = tracer.aggregate()
    counters = tracer.counters

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_call(name, scale=1.0):
        calls = stat(name, "calls")
        return stat(name, "total") / calls * scale if calls else 0.0

    def under(child_prefix, parent_prefix, key="calls"):
        return sum(v[key] for (c, p), v in by_parent.items()
                   if c.startswith(child_prefix) and p.startswith(parent_prefix))

    def distance_children_per_call(parent):
        calls = stat(parent, "calls")
        return under("spaces.distance@", parent) / calls if calls else 0.0

    values = {}
    for name, unit in per_layer_units().items():
        layer, _, field = name.rpartition(".")
        if field == "calls":
            base, _, tag = layer.rpartition(".")
            values[name] = stat(f"{base}@{tag}" if tag in ("closed", "limit") else layer,
                                "calls")
        elif field == "self_s":
            values[name] = stat(layer, "self")
        elif field == "s":
            values[name] = per_call(layer)
        elif field == "evals":
            values[name] = counters.get(name, 0)
    rp, bl = "horofn.ray_pseudodistance", "horofn.busemann_value@limit"
    values[f"{rp}.distance_calls_per_call"] = distance_children_per_call(rp)
    values["horofn.busemann_value.limit.distance_calls_per_call"] = \
        distance_children_per_call(bl)
    build = "spaces.tree_tables.build@"
    for model in MODELS:
        # the first query on a fresh tree builds its tables: that call is
        # counted in build_s, not here
        label = f"spaces.distance@{model}"
        calls = stat(label, "calls") - under(label, build)
        values[f"spaces.distance.us_per_call.{model}"] = (
            (stat(label, "total") - under(label, build, "total")) / calls * 1e6 if calls else 0.0)
    values["spaces.point_at.us_per_call.tree"] = per_call("spaces.point_at@tree", 1e6)
    values["spaces.point.validations"] = counters.get("spaces.point.validations", 0)
    for v in workloads.TREE_SIZES:
        values[f"spaces.tree_tables.build_s.v{v}"] = per_call(f"spaces.tree_tables.build@v{v}")
    values["spaces.tree_tables.peak_mb"] = tree_table_peak_mb(pool)
    pair_time = stat("verify.is_isometry", "total") + stat("verify.preserves_unit_distance", "total")
    values["verify.pairs_per_s"] = counters.get("verify.pairs", 0) / pair_time if pair_time else 0.0
    values["grasshopper.tree_offset_class_nodes.nodes"] = counters.get(
        "grasshopper.tree_offset_class_nodes.nodes", 0)
    values["trace.overhead_ratio"] = traced.busy() / untraced if untraced else 0.0
    values.update(workloads.accuracy_probes(args.seed, pairs=4 if args.smoke else 20))

    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    dump = SPAN_DIR / f"spans-{args.workload}"
    tracer.dump(dump, meta)
    print(f"workload {args.workload}  seed {args.seed}  (per layer, one traced cycle; "
          f"{len(tracer.start)} spans in {dump}.json/.bin)")
    top = sorted(((s["self"], name) for name, s in stats.items()
                  if "@" not in name and name != "job"), reverse=True)[:8]
    print("  largest self times: " + ", ".join(f"{name} {t:.3f}s" for t, name in top))
    units = per_layer_units()
    for name, unit in units.items():
        print(fmt(name, values[name], unit))
    return ({name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        import_metriclab()
        import tracer as tracer_mod
        import workloads

        pool, warm = setup(workloads, args)
        main_setup_wall = time.perf_counter() - T_START
        main_setup = sampler.reference_seconds(main_setup_wall, 0, len(sampler.loops))
        if args.setup_probe:
            print(json.dumps({"setup_s": main_setup, "setup_wall_s": main_setup_wall,
                              "failed": warm.failed}))
            return 0

        loop = Loop(len(pool), sampler)
        run_cycles(pool, loop, seconds=args.seconds)
    finally:
        sampler.stop()
    meta = run_meta(args.seed)
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed
    problems = warm.problems + loop.problems
    if args.trace:
        metrics, traced = per_layer(args, pool, loop, workloads, tracer_mod, meta)
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
    else:
        metrics, probe_failed = end_to_end(args, pool, loop, main_setup, main_setup_wall)
        failed += probe_failed
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
