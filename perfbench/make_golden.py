"""Regenerate ``golden.json`` from the program's current outputs.

    python3 perfbench/make_golden.py

Run this only when the program's outputs are meant to change; the
benchmark fails every op whose output differs from the committed table.
Plans are computed without a store, sweep points with ``jobs=2``; both
are promised identical to every other path (stores, ``--jobs``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as w  # noqa: E402
from golden import (  # noqa: E402
    GOLDEN_PATH,
    class_key,
    expected_plan,
    point_key,
    row_digest,
)


def main() -> int:
    from repro.analysis.sweeps import SweepRunner, SweepSpec
    from repro.core.serialization import schedule_to_dict
    from repro.service.api import ProvisionRequest, provision_batch_report

    classes = {cls for cls, _share in w.PLAN_COLD_CYCLE + w.WARM_CYCLE}
    table = {}
    for cls in sorted(classes, key=class_key):
        n, d, duty, balanced = cls
        result = provision_batch_report(
            [ProvisionRequest(n, d, duty, balanced)]).results[0]
        if result.error is not None:
            raise SystemExit(f"{class_key(cls)}: {result.error}")
        table[class_key(cls)] = expected_plan(
            result.plan, schedule_to_dict(result.plan.schedule))
        print(class_key(cls), table[class_key(cls)]["family"], flush=True)

    spec = SweepSpec(**w.SWEEP_AXES, seeds=tuple(range(w.SWEEP_SEED_POOL)))
    rows = SweepRunner(spec, jobs=2).run().rows
    points = {}
    for row in rows:
        if "error" in row:
            raise SystemExit(f"sweep point failed: {row}")
        p = row["point"]
        points[point_key(p["family"], p["traffic"], p["seed"])] = \
            row_digest(row)
    first = SweepRunner(w.sweep_spec(w.DEFAULT_SEED, 0), jobs=2).run()
    doc = {
        "format": "perfbench-golden",
        "classes": table,
        "sweep": {
            "axes": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in w.SWEEP_AXES.items()},
            "seed_pool": w.SWEEP_SEED_POOL,
            "points": points,
            "default_digest": hashlib.sha256(
                first.to_jsonl().encode("utf-8")).hexdigest(),
        },
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}: {len(table)} classes, {len(points)} "
          "sweep points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
