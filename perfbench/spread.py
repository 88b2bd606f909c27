"""Run the benchmark once per seed, seeds 0 to 9, and report each end-to-end
metric's median and quartile spread (IQR as a share of the median) against
its bound.

    python3 perfbench/spread.py --workload single_shift

Runs are sequential, one process at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in SEEDS:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        spread = stats.quartile_spread(vals)
        verdict = "ok" if spread < m["bound"] / 3 else "WIDE" if spread <= m["bound"] else "OVER BOUND"
        print(f"{m['name']}: median {statistics.median(vals):.6g} {m['unit']}, spread {spread:.4f} "
              f"(bound {m['bound']}, a third of it {m['bound'] / 3:.4f}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
