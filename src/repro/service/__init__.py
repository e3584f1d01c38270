"""Schedule provisioning service: cache, winner construction, batch API.

The first scaling layer of the reproduction.  Where :mod:`repro.core`
computes one schedule exactly, this package serves *many* schedule
requests fast.  Each request's grid is ranked in closed form by the
planner's census and only its winner is constructed; requests sharing a
winner share that construction.

``repro.service.store``
    Content-addressed, versioned on-disk schedule cache with an in-memory
    LRU front, atomic writes and corruption-tolerant loads.  It holds the
    winning plans and the winners' evaluations.
``repro.service.provision``
    :class:`EvalTask`, the pool-shippable unit of work: one census
    winner to construct, keyed by the store's eval key.
``repro.service.runtime``
    The fault-tolerant execution layer underneath: individual futures,
    per-task timeout, retry with seeded backoff, broken-pool recovery
    with bisection quarantine, and checkpointing into the store.
``repro.service.api``
    The batch request surface — :class:`ProvisionRequest`,
    :class:`ProvisionResult`, :func:`provision_batch`,
    :func:`provision_batch_report` — exposed on the command line as
    ``repro provision`` (JSONL in/out).
"""

from repro.service.api import (
    BatchReport,
    ProvisionRequest,
    ProvisionResult,
    provision_batch,
    provision_batch_report,
)
from repro.service.provision import EvalTask, task_from_point
from repro.service.runtime import (
    RuntimeConfig,
    RuntimeResult,
    TaskReport,
    execute_tasks,
)
from repro.service.store import (
    ScheduleStore,
    StoreStats,
    default_cache_dir,
    eval_key,
    key_digest,
    plan_key,
)

__all__ = [
    "ProvisionRequest",
    "ProvisionResult",
    "BatchReport",
    "provision_batch",
    "provision_batch_report",
    "RuntimeConfig",
    "RuntimeResult",
    "TaskReport",
    "execute_tasks",
    "EvalTask",
    "task_from_point",
    "ScheduleStore",
    "StoreStats",
    "default_cache_dir",
    "eval_key",
    "plan_key",
    "key_digest",
]
