"""Print every end-to-end metric, by name and unit, for each workload.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace 0|1]

Runs ``run.py`` once per workload declared in BENCHMARK.json, each in a
fresh process (so ``peak_rss_mb`` is the workload's own), one after
another, and relays the metric lines. Exits 1 if any run was incorrect.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; BENCHMARK.json's run_seconds by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [sys.executable, str(ROOT / bench["command"][1]), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("{"):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"  {workload}: exit {proc.returncode}: {proc.stderr.strip()}")
            ok = False
            continue
        res = json.loads(lines[-1])
        print(f"  correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
