"""Run every workload over several seeds and write the medians and quartiles.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each run is `bench/run.py --trace 0` in its own process, one at a time.
For each workload and end-to-end metric (the gate metrics of the result
line and the '# e2e' lines) the file holds the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median.  A run that is not correct makes the script fail.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
E2E_LINE = re.compile(r"^# e2e (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float) -> dict[str, tuple[float, str]]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=600).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    values = {m.group(1): (float(m.group(2)), m.group(3))
              for m in map(E2E_LINE.match, out) if m}
    values.update({k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--workloads", default="ab-small,big-grid,loss-api")
    p.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = p.parse_args(argv)
    seeds = seed_list(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds) for s in seeds]
        summary = {}
        for name, (_v, unit) in runs[0].items():
            vals = [r[name][0] for r in runs if name in r]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None,
                             "values": vals}
            print(f"{workload} {name}: median {med:.6g} {unit}, "
                  f"spread {summary[name]['spread']}", flush=True)
        report["workloads"][workload] = summary
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
