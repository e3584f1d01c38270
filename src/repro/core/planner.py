"""Deployment planner: from an energy budget to a concrete schedule.

A user's question is rarely "give me an (alpha_T, alpha_R)-schedule"; it is
"my nodes may keep the radio on at most 30% of the time — what is the best
topology-transparent schedule for up to n nodes of degree at most D?".
This module answers it by searching the substrate families and the
``(alpha_T, alpha_R)`` grid for the exact Theorem 2 average worst-case
throughput within the budget's exact awake fraction.

The search is exhaustive over a small grid: substrates are the library's
families, ``alpha_T`` ranges up to Theorem 4's saturation point (raising
it further provably cannot help), and for each ``alpha_T`` the largest
``alpha_R`` that still satisfies the duty budget is used (Theorem 4: the
bound is increasing in ``alpha_R``).

Every grid point is scored in closed form by
:func:`repro.core.construction.census` — throughput, duty cycle and frame
length follow from the histogram of source ``|T[i]|`` (Theorems 2 and 7,
Figure 2) — and only the winner is constructed.  Its materialization
(:func:`evaluate_grid_point`) re-checks the census exactly and raises on
a mismatch, so a wrong score can never become a served plan.

The search is exposed piecewise (:func:`duty_grid`,
:func:`best_grid_point`, :func:`evaluate_grid_point`) so that
:mod:`repro.service.api` can rank a batch's grids in-process and send
only the winners through the fault-tolerant runtime; a cache honouring
the :mod:`repro.service.store` protocol can be threaded through
:func:`plan_schedule` to turn repeated plans into lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro._validation import check_class_params, check_probability
from repro.core.construction import Census, census, construct_detailed
from repro.obs.tracing import span
from repro.core.nonsleeping import (
    mols_schedule,
    polynomial_schedule,
    projective_plane_schedule,
    steiner_schedule,
    tdma_schedule,
)
from repro.core.schedule import Schedule
from repro.core.throughput import (
    average_throughput,
    optimal_transmitters_constrained,
)

__all__ = [
    "Plan",
    "GridPoint",
    "plan_schedule",
    "candidate_sources",
    "duty_budget_fraction",
    "duty_grid",
    "best_grid_point",
    "evaluate_grid_point",
    "select_best",
]


@dataclass(frozen=True)
class Plan:
    """A planner recommendation.

    Attributes
    ----------
    schedule:
        The constructed topology-transparent duty-cycled schedule.
    family:
        The substrate family the source schedule came from.
    alpha_t, alpha_r:
        The energy parameters used by the construction.
    throughput:
        Exact average worst-case throughput (Theorem 2) in ``N_n^D``.
    duty_cycle:
        Exact average awake fraction of the schedule.
    frame_length:
        Constructed frame length (per-hop latency scale).
    """

    schedule: Schedule
    family: str
    alpha_t: int
    alpha_r: int
    throughput: Fraction
    duty_cycle: Fraction
    frame_length: int


@dataclass(frozen=True)
class GridPoint:
    """One candidate evaluation of the planner's substrate × energy grid.

    Attributes
    ----------
    family:
        Name of the substrate family *source* came from.
    source:
        The topology-transparent non-sleeping substrate schedule.
    alpha_t, alpha_r:
        The energy parameters to construct with.
    """

    family: str
    source: Schedule
    alpha_t: int
    alpha_r: int


def candidate_sources(n: int, d: int) -> list[tuple[str, Schedule]]:
    """Every substrate family constructible for ``(n, D)``."""
    n, d = check_class_params(n, d)
    out: list[tuple[str, Schedule]] = [("tdma", tdma_schedule(n))]
    out.append(("polynomial", polynomial_schedule(n, d)))
    if d <= 2:
        out.append(("steiner", steiner_schedule(n, d)))
    out.append(("projective", projective_plane_schedule(n, d)))
    out.append(("mols", mols_schedule(n, d)))
    return out


def duty_budget_fraction(max_duty: float | str | Fraction) -> Fraction:
    """Normalize a duty budget to one exact :class:`~fractions.Fraction`.

    Exact types (``Fraction``, ``int``, ``"3/10"``-style strings) pass
    through unchanged.  Floats are read as the decimal the caller typed —
    ``0.3`` means three tenths, not the nearest binary double — by
    snapping to the closest fraction with denominator at most ``10**9``.
    The conversion happens exactly once, so every downstream comparison
    (the per-candidate duty test and the ``floor(budget * n)`` awake-slot
    cap) is exact rational arithmetic.
    """
    if isinstance(max_duty, float):
        max_duty = check_probability(max_duty, "max_duty")
        return Fraction(max_duty).limit_denominator(10**9)
    try:
        budget = Fraction(max_duty)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"max_duty is not a valid fraction: {max_duty!r}") from exc
    if not 0 <= budget <= 1:
        raise ValueError(f"max_duty must lie in [0, 1], got {max_duty!r}")
    return budget


def duty_grid(n: int, d: int, budget: Fraction,
              sources: list[tuple[str, Schedule]]) -> list[GridPoint]:
    """Enumerate the planner's candidate grid for an exact duty *budget*.

    For each family, ``alpha_T`` ranges up to Theorem 4's saturation point
    and ``alpha_R`` is the largest value the budget allows:
    ``min(floor(budget * n) - alpha_T, n - alpha_T)`` (the duty cycle of a
    constructed schedule is ``(alpha_T* + alpha_R)/n`` per slot).  The
    awake-slot cap is computed with exact rational arithmetic — with the
    former float ``int(max_duty * n)`` a budget of ``0.3`` at ``n = 20``
    lost one awake slot to binary rounding.  ``(alpha_T, alpha_R)`` pairs
    already emitted for the same family are skipped, so no grid point is
    ever constructed (or cached, or farmed to a worker) twice.
    """
    n, d = check_class_params(n, d)
    alpha_cap = optimal_transmitters_constrained(n, d, n - 1)
    budget_slots = (budget.numerator * n) // budget.denominator
    points: list[GridPoint] = []
    seen: dict[str, set[tuple[int, int]]] = {}
    for name, source in sources:
        scored = seen.setdefault(name, set())
        for alpha_t in range(1, alpha_cap + 1):
            alpha_r = min(budget_slots - alpha_t, n - alpha_t)
            if alpha_r < 1:
                continue
            if (alpha_t, alpha_r) in scored:
                continue
            scored.add((alpha_t, alpha_r))
            points.append(GridPoint(name, source, alpha_t, alpha_r))
    return points


def best_grid_point(points: Iterable[GridPoint], d: int, budget: Fraction,
                    *, balanced: bool = False
                    ) -> tuple[GridPoint, Census] | None:
    """The census winner of a grid within *budget*, or None if none fits.

    Scores every point with :func:`repro.core.construction.census`, keeps
    those whose exact duty cycle is at most *budget*, and ranks them like
    :func:`select_best`: maximal ``(throughput, -frame_length)`` under a
    *strict* comparison, so ties go to the earliest point in grid order.
    Nothing is constructed.
    """
    best: tuple[GridPoint, Census] | None = None
    for point in points:
        score = census(point.source, d, point.alpha_t, point.alpha_r,
                       balanced=balanced)
        if score.duty_cycle <= budget and (best is None
                                           or _rank(score) > _rank(best[1])):
            best = (point, score)
    return best


def evaluate_grid_point(point: GridPoint, d: int, *,
                        balanced: bool = False) -> Plan:
    """Construct and score one grid point, independent of any duty budget.

    Returns the full :class:`Plan` (schedule, exact Theorem 2 throughput,
    exact awake fraction).  The result depends only on
    ``(family, n, D, alpha_T, alpha_R, balanced)`` — never on the budget —
    which is what makes it a sound unit of caching.  The constructed
    schedule's scores must equal the point's
    :func:`~repro.core.construction.census` exactly; a mismatch raises
    ``RuntimeError`` rather than return a plan the ranking never saw.
    """
    with span("planner.evaluate", family=point.family,
              alpha_t=point.alpha_t, alpha_r=point.alpha_r):
        res = construct_detailed(point.source, d, point.alpha_t,
                                 point.alpha_r, balanced=balanced)
        plan = Plan(
            schedule=res.schedule,
            family=point.family,
            alpha_t=point.alpha_t,
            alpha_r=point.alpha_r,
            throughput=average_throughput(res.schedule, d),
            duty_cycle=res.schedule.average_duty_cycle(),
            frame_length=res.schedule.frame_length,
        )
        expected = census(point.source, d, point.alpha_t, point.alpha_r,
                          balanced=balanced)
        built = Census(plan.throughput, plan.duty_cycle, plan.frame_length)
        if built != expected:
            raise RuntimeError(
                f"census mismatch for {point.family} (n={point.source.n}, "
                f"D={d}, alpha_T={point.alpha_t}, alpha_R={point.alpha_r}, "
                f"balanced={balanced}): constructed {built}, "
                f"census {expected}")
        return plan


def _rank(score) -> tuple[Fraction, int]:
    """The planner's objective: throughput first, then the shorter frame."""
    return score.throughput, -score.frame_length


def select_best(candidates: Iterable[Plan]) -> Plan | None:
    """Deterministic winner of a candidate sequence, or None if empty.

    Maximizes ``(throughput, -frame_length)`` with a *strict* comparison,
    so ties break toward the earliest candidate in iteration order — the
    same rule :func:`best_grid_point` applies to census scores.
    """
    best: Plan | None = None
    for plan in candidates:
        if best is None or _rank(plan) > _rank(best):
            best = plan
    return best


def plan_schedule(n: int, d: int, max_duty: float | str | Fraction, *,
                  balanced: bool = False,
                  families: list[tuple[str, Schedule]] | None = None,
                  cache=None) -> Plan:
    """Best topology-transparent schedule within a duty-cycle budget.

    Parameters
    ----------
    n, d:
        The network class ``N_n^D``.
    max_duty:
        Maximum allowed average awake fraction in ``(0, 1]``; floats,
        exact fractions and ``"3/10"``-style strings are accepted (see
        :func:`duty_budget_fraction`).
    balanced:
        Use the balanced-energy divisions (section 7 variant).
    families:
        Optional pre-built ``(name, source)`` candidates; defaults to
        :func:`candidate_sources`.
    cache:
        Optional schedule store honouring the
        :class:`repro.service.store.ScheduleStore` protocol
        (``get_eval``/``put_eval``/``get_plan``/``put_plan``).  The
        winning plan and the winner's evaluation are memoized through it,
        so a repeated request — or another budget with the same winner —
        performs zero constructions.  Only consulted for the default
        families — custom substrate lists are not identified by the
        store's key schema.

    Returns the :class:`Plan` maximizing exact average worst-case
    throughput subject to ``duty_cycle <= max_duty``; ties break toward
    the shorter frame (lower latency).  Raises ``ValueError`` when the
    budget admits no schedule (it must allow at least 1 transmitter and 1
    receiver per slot, i.e. ``max_duty >= 2/n``).
    """
    n, d = check_class_params(n, d)
    budget = duty_budget_fraction(max_duty)
    with span("planner.plan", n=n, d=d, budget=str(budget),
              balanced=balanced):
        return _plan_schedule(n, d, max_duty, budget, balanced=balanced,
                              families=families, cache=cache)


def _plan_schedule(n, d, max_duty, budget, *, balanced, families, cache):
    """The :func:`plan_schedule` body, separated so the public entry can
    wrap the whole search in one ``planner.plan`` span."""
    cacheable = cache is not None and families is None
    if cacheable:
        hit = cache.get_plan(n, d, budget, balanced)
        if hit is not None:
            return hit
    sources = families if families is not None else candidate_sources(n, d)
    best = best_grid_point(duty_grid(n, d, budget, sources), d, budget,
                           balanced=balanced)
    if best is None:
        raise ValueError(
            f"no ({'balanced ' if balanced else ''}alpha_T, alpha_R) choice "
            f"fits duty budget {max_duty} for n={n} (need >= 2/n)"
        )
    point = best[0]
    plan = None
    if cacheable:
        plan = cache.get_eval(point.family, n, d, point.alpha_t,
                              point.alpha_r, balanced)
    if plan is None:
        plan = evaluate_grid_point(point, d, balanced=balanced)
        if cacheable:
            cache.put_eval(point.family, n, d, point.alpha_t, point.alpha_r,
                           balanced, plan)
    if cacheable:
        cache.put_plan(n, d, budget, balanced, plan)
    return plan
