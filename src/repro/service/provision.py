"""The unit of provisioning work: one census winner to construct.

The planner scores its whole substrate × ``(alpha_T, alpha_R)`` grid in
closed form (:func:`repro.core.planner.best_grid_point`) and constructs
only the winner.  :class:`EvalTask` packages that winning grid point so
the fault-tolerant runtime of :mod:`repro.service.runtime` can build it
inline or in a worker process, and checkpoint it into the store under the
store's eval key.  Requests whose winners coincide share one task, hence
one construction and one checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner import GridPoint
from repro.core.schedule import Schedule
from repro.service.store import key_digest, eval_key

__all__ = ["EvalTask", "task_from_point"]


@dataclass(frozen=True)
class EvalTask:
    """One self-contained grid-point evaluation, picklable for workers.

    Attributes
    ----------
    family:
        Substrate family name (part of the cache key).
    source:
        The substrate schedule itself, shipped to the worker so it does
        not rebuild the family from scratch.
    n, d:
        The network class the evaluation is quoted for.
    alpha_t, alpha_r:
        Energy parameters of the construction.
    balanced:
        Use the section 7 balanced-energy divisions.
    """

    family: str
    source: Schedule
    n: int
    d: int
    alpha_t: int
    alpha_r: int
    balanced: bool

    def key(self) -> str:
        """The task's store-key digest — its identity for deduplication."""
        return key_digest(eval_key(self.family, self.n, self.d,
                                   self.alpha_t, self.alpha_r, self.balanced))


def task_from_point(point: GridPoint, n: int, d: int, balanced: bool
                    ) -> EvalTask:
    """Package a planner grid point as a pool-shippable task."""
    return EvalTask(family=point.family, source=point.source, n=n, d=d,
                    alpha_t=point.alpha_t, alpha_r=point.alpha_r,
                    balanced=balanced)
