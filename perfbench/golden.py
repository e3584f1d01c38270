"""The committed golden table and the checks every op runs against it.

``golden.json`` holds, for every class any seed can draw, the expected
winner (family, alpha_T, alpha_R, throughput, frame length) and the
SHA-256 of its canonical schedule document: ``schedule_to_dict`` without
``meta``, dumped with sorted keys and compact separators.  For the sweep
it holds the SHA-256 of every point's canonical row
(:func:`repro.analysis.sweeps.render_row`) over the committed seed pool,
and the digest of the whole output of the default seed's first sweep.

Regenerate with ``python3 perfbench/make_golden.py`` (only when the
program's outputs are meant to change).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

_SCHEDULE_KEYS = ("format", "version", "n", "tx", "rx")


def class_key(cls: tuple) -> str:
    """Golden-table key of a ``(n, d, duty, balanced)`` class."""
    n, d, duty, balanced = cls
    return f"{n}:{d}:{duty}:{'balanced' if balanced else 'contiguous'}"


def sha256_json(doc: Any) -> str:
    data = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def schedule_digest(schedule_doc: dict[str, Any]) -> str:
    """Digest of a schedule document, ignoring its ``meta`` member."""
    return sha256_json({k: schedule_doc[k] for k in _SCHEDULE_KEYS})


def expected_plan(plan, schedule_doc: dict[str, Any] | None
                  ) -> dict[str, Any]:
    """The golden-table entry a plan and its schedule document give
    (without the digest when *schedule_doc* is None)."""
    doc = {"family": plan.family, "alpha_t": plan.alpha_t,
           "alpha_r": plan.alpha_r, "throughput": str(plan.throughput),
           "frame_length": plan.frame_length}
    if schedule_doc is not None:
        doc["schedule_sha256"] = schedule_digest(schedule_doc)
    return doc


def point_key(family: str, traffic: str, seed: int) -> str:
    return f"{family}:{traffic}:{seed}"


def row_digest(row: dict[str, Any]) -> str:
    from repro.analysis.sweeps import render_row

    return hashlib.sha256(render_row(row).encode("utf-8")).hexdigest()


class Golden:
    """Loaded golden table with the per-op checks."""

    def __init__(self, path: Path = GOLDEN_PATH) -> None:
        self.doc = json.loads(path.read_text())
        self.classes: dict[str, dict[str, Any]] = self.doc["classes"]
        self.points: dict[str, str] = self.doc["sweep"]["points"]
        # Schedule documents already matched against their digest, so a
        # repeated warm read is checked by equality instead of re-hashing.
        self._verified: dict[str, dict[str, Any]] = {}

    def check_plan(self, cls: tuple, plan, schedule_doc: dict[str, Any]
                   ) -> bool:
        """True when *plan* is the golden winner of *cls*."""
        key = class_key(cls)
        want = self.classes.get(key)
        if want is None or plan is None:
            return False
        schedule = {k: schedule_doc[k] for k in _SCHEDULE_KEYS}
        if any(want[k] != v for k, v in expected_plan(plan, None).items()):
            return False
        if self._verified.get(key) == schedule:
            return True
        if schedule_digest(schedule) != want["schedule_sha256"]:
            return False
        self._verified[key] = schedule
        return True

    def check_rows(self, rows: list[dict[str, Any]]) -> int:
        """Number of sweep rows that do not match their golden digest."""
        bad = 0
        for row in rows:
            p = row.get("point", {})
            want = self.points.get(point_key(p.get("family"),
                                             p.get("traffic"),
                                             p.get("seed")))
            if "error" in row or want != row_digest(row):
                bad += 1
        return bad
