"""Check that the benchmark is steady: run it over several seeds and
print each end-to-end metric's median and spread.

    python3 perfbench/steady.py --workload sweep --seeds 1-10 --seconds 30

The spread is the interquartile range over the median
(``statistics.quantiles(values, n=4)``).  Except for ``setup_s``, it must
stay within the metric's bound in BENCHMARK.json; aim for a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import spread

BENCH = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--seconds", default="30")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        share = spread(vals)
        print(f"{name:<12} median {statistics.median(vals):.5g}  "
              f"spread {share:.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
