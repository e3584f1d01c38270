"""Batch schedule-provisioning API: many ``(n, D, duty)`` requests at once.

The deployment story of the paper is "compute a schedule offline, flash it
to motes"; at fleet scale that becomes a service answering batches of
per-class requests.  :func:`provision_batch` is that service's core:

1. duplicate requests collapse to one computation;
2. plan-level cache hits (via a :class:`~repro.service.store.ScheduleStore`)
   short-circuit entire searches;
3. every other request ranks its whole grid in closed form
   (:func:`repro.core.planner.best_grid_point`, the census) with the same
   duty filter and grid-order tie-break as
   :func:`repro.core.planner.plan_schedule`, so the answer is identical;
4. only the winners are constructed — one task per distinct winner, so
   requests sharing a winner share its construction and its checkpoint.

Requests that fail (impossible class parameters, infeasible budgets) are
reported per-request via :attr:`ProvisionResult.error`; one bad request
never poisons the batch.  Winners are built under the fault-tolerant
runtime of :mod:`repro.service.runtime`: a crashed, hung or raising
worker costs *at most* the requests whose winner it was building.  Those
come back with an ``error`` and the lost task's status in
``failed_tasks`` (and :attr:`BatchReport.degraded` is set); no plan is
ever picked from anything but the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Iterable

from repro._validation import check_class_params, check_int
from repro.core.planner import (
    Plan,
    best_grid_point,
    candidate_sources,
    duty_budget_fraction,
    duty_grid,
)
from repro.core.serialization import schedule_from_dict, schedule_to_dict
from repro.faults import FaultPlan
from repro.obs.tracing import span
from repro.service.provision import EvalTask, task_from_point
from repro.service.runtime import RuntimeConfig, TaskReport, execute_tasks
from repro.service.store import ScheduleStore, StoreStats

__all__ = ["ProvisionRequest", "ProvisionResult", "BatchReport",
           "provision_batch", "provision_batch_report"]


@dataclass(frozen=True)
class ProvisionRequest:
    """One schedule request: a network class plus an energy budget.

    Attributes
    ----------
    n, d:
        The network class ``N_n^D``.
    max_duty:
        Duty budget; floats, exact fractions and ``"3/10"``-style strings
        are accepted (see
        :func:`repro.core.planner.duty_budget_fraction`).
    balanced:
        Use the section 7 balanced-energy divisions.
    """

    n: int
    d: int
    max_duty: float | str | Fraction
    balanced: bool = False

    def signature(self) -> tuple[int, int, Fraction, bool]:
        """Exact identity of the request — the deduplication key.

        Raises ``ValueError``/``TypeError`` when the request is invalid;
        :func:`provision_batch` converts that into a per-request error.
        """
        n, d = check_class_params(self.n, self.d)
        return n, d, duty_budget_fraction(self.max_duty), bool(self.balanced)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ProvisionRequest":
        """Parse a JSONL request line (``n``, ``d``, ``max_duty``, opt. ``balanced``).

        Strict by design — this is the parse boundary for untrusted input
        (``repro provision`` files and the ``repro.serve`` HTTP body).
        Unknown keys and wrong-typed fields raise a ``ValueError`` naming
        the offending key; nothing mis-typed ever reaches the planner.
        """
        if not isinstance(doc, dict):
            raise ValueError("request must be a JSON object")
        missing = {"n", "d", "max_duty"} - set(doc)
        if missing:
            raise ValueError(f"request missing fields: {sorted(missing)}")
        unknown = set(doc) - {"n", "d", "max_duty", "balanced"}
        if unknown:
            raise ValueError(f"request has unknown fields: {sorted(unknown)}")
        for key in ("n", "d"):
            if isinstance(doc[key], bool) or not isinstance(doc[key], int):
                raise ValueError(f"request field {key!r} must be an integer, "
                                 f"got {type(doc[key]).__name__}")
        max_duty = doc["max_duty"]
        if isinstance(max_duty, bool) or \
                not isinstance(max_duty, (int, float, str)):
            raise ValueError("request field 'max_duty' must be a number or "
                             f"a fraction string, got {type(max_duty).__name__}")
        balanced = doc.get("balanced", False)
        if not isinstance(balanced, bool):
            raise ValueError("request field 'balanced' must be a boolean, "
                             f"got {type(balanced).__name__}")
        return cls(n=doc["n"], d=doc["d"], max_duty=max_duty,
                   balanced=balanced)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable echo of the request."""
        max_duty = self.max_duty
        if isinstance(max_duty, Fraction):
            max_duty = str(max_duty)
        return {"n": self.n, "d": self.d, "max_duty": max_duty,
                "balanced": self.balanced}


@dataclass(frozen=True)
class ProvisionResult:
    """Outcome of one request within a batch.

    Attributes
    ----------
    request:
        The request this result answers.
    plan:
        The winning plan, or None when *error* is set.
    from_cache:
        True when the whole plan came from a plan-level cache hit
        (no grid point of this request was scored or constructed).
    error:
        Human-readable failure description, or None on success.
    degraded:
        Kept so protocol v1 documents round-trip: older servers answered
        from the surviving grid points and marked such plans degraded.
        Provisioning never sets it; a lost winner is an ``error``.
    failed_tasks:
        ``(digest, status)`` of this request's winner when its
        construction was lost to a worker fault (statuses from
        :mod:`repro.service.runtime`); empty otherwise.
    """

    request: ProvisionRequest
    plan: Plan | None
    from_cache: bool = False
    error: str | None = None
    degraded: bool = False
    failed_tasks: tuple[tuple[str, str], ...] = ()

    def to_dict(self, *, include_schedule: bool = True) -> dict[str, Any]:
        """JSONL result line; with *include_schedule*, embeds the flashable
        schedule document of :mod:`repro.core.serialization`."""
        doc: dict[str, Any] = {"request": self.request.to_dict()}
        if self.failed_tasks:
            doc["failed_tasks"] = {d: s for d, s in self.failed_tasks}
        if self.error is not None:
            doc["error"] = self.error
            return doc
        assert self.plan is not None
        if self.degraded:
            doc["degraded"] = True
        doc.update({
            "family": self.plan.family,
            "alpha_t": self.plan.alpha_t,
            "alpha_r": self.plan.alpha_r,
            "throughput": str(self.plan.throughput),
            "duty_cycle": str(self.plan.duty_cycle),
            "frame_length": self.plan.frame_length,
            "from_cache": self.from_cache,
        })
        if include_schedule:
            doc["schedule"] = schedule_to_dict(self.plan.schedule, meta={
                "class_n": self.plan.schedule.n, "class_d": self.request.d,
                "family": self.plan.family, "alpha_t": self.plan.alpha_t,
                "alpha_r": self.plan.alpha_r,
                "balanced": self.request.balanced,
            })
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ProvisionResult":
        """Inverse of :meth:`to_dict` — rebuild a result from its JSON line.

        This is what ``repro call provision`` and the serve client use to
        round-trip server responses; ``from_dict(r.to_dict()).to_dict()``
        equals ``r.to_dict()`` exactly.  Success documents must embed the
        ``schedule`` payload (``to_dict(include_schedule=True)``) — a plan
        cannot be reconstructed without its slot tables, so a document
        missing that key raises a ``ValueError`` naming it.
        """
        if not isinstance(doc, dict):
            raise ValueError("result must be a JSON object")
        request = ProvisionRequest.from_dict(doc["request"])
        failed = tuple(sorted(doc.get("failed_tasks", {}).items()))
        if "error" in doc:
            return cls(request, None, error=str(doc["error"]),
                       failed_tasks=failed)
        if "schedule" not in doc:
            raise ValueError("result missing field 'schedule' (serialize "
                             "with include_schedule=True to round-trip)")
        plan = Plan(
            schedule=schedule_from_dict(doc["schedule"]),
            family=str(doc["family"]),
            alpha_t=check_int(doc["alpha_t"], "alpha_t", minimum=1),
            alpha_r=check_int(doc["alpha_r"], "alpha_r", minimum=1),
            throughput=Fraction(doc["throughput"]),
            duty_cycle=Fraction(doc["duty_cycle"]),
            frame_length=check_int(doc["frame_length"], "frame_length",
                                   minimum=1),
        )
        return cls(request, plan, from_cache=bool(doc.get("from_cache", False)),
                   degraded=bool(doc.get("degraded", False)),
                   failed_tasks=failed)


def _no_plan_error(n: int, max_duty, balanced: bool) -> str:
    """The planner's infeasible-budget message, shared verbatim."""
    return (f"no ({'balanced ' if balanced else ''}alpha_T, alpha_R) choice "
            f"fits duty budget {max_duty} for n={n} (need >= 2/n)")


@dataclass
class BatchReport:
    """Full accounting of one :func:`provision_batch_report` run.

    Attributes
    ----------
    results:
        One :class:`ProvisionResult` per request, in request order —
        exactly what :func:`provision_batch` returns.
    task_reports:
        Digest -> :class:`~repro.service.runtime.TaskReport` for every
        distinct winner the batch constructed (cache hits are not
        attempts and do not appear).
    pool_rebuilds:
        Times the runtime rebuilt its worker pool (crashes + reclaimed
        hangs).
    store_stats:
        The live :class:`~repro.service.store.StoreStats` of the store
        used, or None when caching was disabled.
    """

    results: list[ProvisionResult]
    task_reports: dict[str, TaskReport] = field(default_factory=dict)
    pool_rebuilds: int = 0
    store_stats: StoreStats | None = None

    def task_summary(self) -> dict[str, int]:
        """Status -> count over every attempted winner construction."""
        counts: dict[str, int] = {}
        for report in self.task_reports.values():
            counts[report.status] = counts.get(report.status, 0) + 1
        return counts

    @property
    def degraded(self) -> bool:
        """True when any request lost its winner to a worker fault."""
        return any(r.failed_tasks for r in self.results)


def provision_batch(requests: Iterable[ProvisionRequest], *,
                    store: ScheduleStore | None = None,
                    jobs: int = 1, runtime: RuntimeConfig | None = None,
                    faults: FaultPlan | None = None) -> list[ProvisionResult]:
    """Answer a batch of provisioning requests, cached and in parallel.

    Thin wrapper over :func:`provision_batch_report` that keeps the
    historical return type (results only).  Never raises for a worker
    fault: a request whose winner's construction was lost comes back
    with an ``error`` and the lost task in ``failed_tasks``.

    Parameters
    ----------
    requests:
        The batch; results come back in the same order.
    store:
        Optional :class:`~repro.service.store.ScheduleStore` (or anything
        honouring its protocol).  None disables caching entirely.
    jobs:
        Process-pool width for winner construction; ``1`` runs inline.
        The selected plans are identical for every value of *jobs*.
    runtime:
        Optional :class:`~repro.service.runtime.RuntimeConfig` tuning
        timeouts, retries and quarantine; *jobs* (when not 1) overrides
        its pool width.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injecting worker
        faults — the hook used by crash-path tests and chaos benchmarks.
    """
    return provision_batch_report(requests, store=store, jobs=jobs,
                                  runtime=runtime, faults=faults).results


def provision_batch_report(requests: Iterable[ProvisionRequest], *,
                           store: ScheduleStore | None = None,
                           jobs: int = 1,
                           runtime: RuntimeConfig | None = None,
                           faults: FaultPlan | None = None) -> BatchReport:
    """Like :func:`provision_batch`, returning the full :class:`BatchReport`.

    The report adds what operators need under faults: per-task statuses
    (``ok / retried / timed-out / failed / quarantined``), pool-rebuild
    counts, and the store's hit/miss/corruption statistics.
    """
    jobs = check_int(jobs, "jobs", minimum=1)
    config = runtime if runtime is not None else RuntimeConfig()
    if jobs != 1 and config.jobs != jobs:
        config = replace(config, jobs=jobs)
    requests = list(requests)
    signatures: list[tuple | None] = []
    errors: dict[int, str] = {}
    for i, request in enumerate(requests):
        try:
            signatures.append(request.signature())
        except (ValueError, TypeError) as exc:
            signatures.append(None)
            errors[i] = str(exc)

    # Resolve each distinct signature once: a plan-cache hit, an
    # infeasible budget, or the census winner of its grid.
    resolved: dict[tuple, tuple[Plan | None, bool]] = {}
    winners: dict[tuple, EvalTask] = {}
    sources: dict[tuple[int, int], list] = {}
    with span("provision.plan", requests=len(requests)):
        for sig in signatures:
            if sig is None or sig in resolved or sig in winners:
                continue
            n, d, budget, balanced = sig
            if store is not None:
                hit = store.get_plan(n, d, budget, balanced)
                if hit is not None:
                    resolved[sig] = (hit, True)
                    continue
            if (n, d) not in sources:
                sources[(n, d)] = candidate_sources(n, d)
            best = best_grid_point(duty_grid(n, d, budget, sources[(n, d)]),
                                   d, budget, balanced=balanced)
            if best is None:
                resolved[sig] = (None, False)
            else:
                winners[sig] = task_from_point(best[0], n, d, balanced)
        plans: dict[str, Plan] = {}
        todo = []
        for task in {task.key(): task for task in winners.values()}.values():
            plan = None
            if store is not None:
                plan = store.get_eval(task.family, task.n, task.d,
                                      task.alpha_t, task.alpha_r,
                                      task.balanced)
            if plan is None:
                todo.append(task)
            else:
                plans[task.key()] = plan

    # Construct each distinct winner once under the fault-tolerant
    # runtime, which checkpoints it into the store the moment it is built
    # (so an interrupted batch resumes warm through the lookups above).
    with span("provision.evaluate", tasks=len(todo), jobs=config.jobs):
        outcome = execute_tasks(todo, config=config, store=store,
                                faults=faults)
    plans.update(outcome.plans)

    with span("provision.store", signatures=len(winners)):
        for sig, task in winners.items():
            plan = plans.get(task.key())
            resolved[sig] = (plan, False)
            if plan is not None and store is not None:
                store.put_plan(*sig, plan)

    results: list[ProvisionResult] = []
    for i, (request, sig) in enumerate(zip(requests, signatures)):
        if sig is None:
            results.append(ProvisionResult(request, None, error=errors[i]))
            continue
        plan, from_cache = resolved[sig]
        if plan is not None:
            results.append(ProvisionResult(request, plan,
                                           from_cache=from_cache))
        elif sig in winners:  # the winner's construction was lost
            digest = winners[sig].key()
            status = outcome.reports[digest].status
            results.append(ProvisionResult(
                request, None, failed_tasks=((digest, status),),
                error=(f"winning grid point {digest[:12]} lost to a worker "
                       f"fault ({status}); no plan served")))
        else:
            results.append(ProvisionResult(
                request, None,
                error=_no_plan_error(sig[0], request.max_duty, sig[3])))
    return BatchReport(results=results, task_reports=outcome.reports,
                       pool_rebuilds=outcome.pool_rebuilds,
                       store_stats=store.stats if store is not None else None)
