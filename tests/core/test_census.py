"""The census: closed-form scores equal the constructed schedule's.

The planner ranks its grid with :func:`repro.core.construction.census`
and constructs only the winner, so the census must agree with
materialization exactly — throughput, duty cycle and frame length — for
every family, both division strategies and any ``(n, D, alpha_T,
alpha_R)``.  The hypothesis sweep is ``slow``; a seeded sample of the
same space runs in the fast tier.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.planner as planner_mod
from repro.core.construction import (
    Census,
    census,
    construct_detailed,
    frame_length_formula,
)
from repro.core.planner import (
    GridPoint,
    best_grid_point,
    candidate_sources,
    duty_budget_fraction,
    duty_grid,
    evaluate_grid_point,
    select_best,
)
from repro.core.throughput import (
    average_throughput,
    optimal_transmitters_constrained,
)

FAMILIES = ("tdma", "polynomial", "steiner", "projective", "mols")


def _source(family, n, d):
    sources = dict(candidate_sources(n, d))
    return sources.get(family)


def _assert_census_matches(source, d, alpha_t, alpha_r, balanced):
    """Census == materialized, and Theorem 7's exact L agrees too."""
    score = census(source, d, alpha_t, alpha_r, balanced=balanced)
    built = construct_detailed(source, d, alpha_t, alpha_r,
                               balanced=balanced)
    schedule = built.schedule
    assert score == Census(average_throughput(schedule, d),
                           schedule.average_duty_cycle(),
                           schedule.frame_length)
    exact, _bound = frame_length_formula(source, built.alpha_t_star,
                                         alpha_r, balanced=balanced)
    assert exact == score.frame_length


def _seeded_cases(count, seed=2024):
    """A reproducible sample of the property's parameter space."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        family = rng.choice(FAMILIES)
        d = rng.randint(2, 4)
        n = rng.randint(d + 3, 40)
        if family == "steiner" and d > 2:
            continue
        cap = optimal_transmitters_constrained(n, d, n - 1)
        if cap < 1:
            continue
        alpha_t = rng.randint(1, cap + 2)
        if alpha_t >= n:
            continue
        alpha_r = rng.randint(1, n - alpha_t)
        cases.append((family, n, d, alpha_t, alpha_r, rng.random() < 0.5))
    return cases


@pytest.mark.parametrize("family,n,d,alpha_t,alpha_r,balanced",
                         _seeded_cases(40))
def test_census_equals_materialized_seeded(family, n, d, alpha_t, alpha_r,
                                           balanced):
    _assert_census_matches(_source(family, n, d), d, alpha_t, alpha_r,
                           balanced)


@pytest.mark.slow
@given(family=st.sampled_from(FAMILIES),
       d=st.integers(min_value=2, max_value=4),
       n_extra=st.integers(min_value=3, max_value=45),
       at_extra=st.integers(min_value=0, max_value=2),
       at_pick=st.floats(min_value=0, max_value=1),
       ar_pick=st.floats(min_value=0, max_value=1),
       balanced=st.booleans())
@settings(max_examples=150, deadline=None)
def test_census_equals_materialized_property(family, d, n_extra, at_extra,
                                             at_pick, ar_pick, balanced):
    n = d + n_extra
    source = _source(family, n, d)
    if source is None:  # steiner only exists for D <= 2
        return
    cap = optimal_transmitters_constrained(n, d, n - 1)
    alpha_t = min(n - 1, 1 + int(at_pick * (cap + at_extra)))
    alpha_r = 1 + int(ar_pick * (n - alpha_t - 1))
    _assert_census_matches(source, d, alpha_t, alpha_r, balanced)


@pytest.mark.parametrize("n,d,duty,balanced", [
    (12, 2, "1/2", False), (20, 2, "3/10", True), (34, 3, "9/20", False),
    (30, 3, "2/5", True), (44, 3, "2/5", False),
])
def test_census_winner_equals_full_grid_winner(n, d, duty, balanced):
    """Ranking by census picks the plan the materialize-everything
    search picked: same duty filter, same grid-order tie-break."""
    budget = duty_budget_fraction(duty)
    grid = duty_grid(n, d, budget, candidate_sources(n, d))
    plans = [evaluate_grid_point(p, d, balanced=balanced) for p in grid]
    reference = select_best(p for p in plans if p.duty_cycle <= budget)
    point, score = best_grid_point(grid, d, budget, balanced=balanced)
    winner = evaluate_grid_point(point, d, balanced=balanced)
    assert winner == reference
    assert score == Census(winner.throughput, winner.duty_cycle,
                           winner.frame_length)


def test_tie_breaks_toward_earliest_grid_point():
    source = _source("tdma", 12, 2)
    twice = [GridPoint("a", source, 2, 4), GridPoint("b", source, 2, 4)]
    point, _score = best_grid_point(twice, 2, Fraction(1, 2))
    assert point.family == "a"


def test_budget_filter_and_empty_grid():
    source = _source("tdma", 12, 2)
    point = GridPoint("tdma", source, 2, 4)
    score = census(source, 2, 2, 4)
    assert best_grid_point([point], 2, score.duty_cycle) is not None
    assert best_grid_point([point], 2, score.duty_cycle
                           - Fraction(1, 10**6)) is None
    assert best_grid_point([], 2, Fraction(1)) is None


def test_census_rejects_what_construction_rejects():
    source = _source("tdma", 12, 2)
    for alpha_t, alpha_r in [(6, 7), (0, 3), (3, 0)]:
        with pytest.raises(ValueError):
            census(source, 2, alpha_t, alpha_r)
        with pytest.raises(ValueError):
            construct_detailed(source, 2, alpha_t, alpha_r)


def test_census_mismatch_raises(monkeypatch):
    """A materialized winner that disagrees with its census is refused."""
    source = _source("tdma", 12, 2)
    real = planner_mod.census

    def off_by_one(*args, **kwargs):
        score = real(*args, **kwargs)
        return replace(score, frame_length=score.frame_length + 1)

    monkeypatch.setattr(planner_mod, "census", off_by_one)
    with pytest.raises(RuntimeError, match="census mismatch"):
        evaluate_grid_point(GridPoint("tdma", source, 2, 4), 2)


def test_census_mismatch_fails_the_task_not_the_batch(monkeypatch):
    from repro.service.api import ProvisionRequest, provision_batch_report
    from repro.service.runtime import RuntimeConfig

    real = planner_mod.census

    def off(*args, **kwargs):
        score = real(*args, **kwargs)
        return replace(score, throughput=score.throughput / 2)

    monkeypatch.setattr(planner_mod, "census", off)
    report = provision_batch_report([ProvisionRequest(12, 2, 0.5)],
                                    runtime=RuntimeConfig(max_retries=0))
    result = report.results[0]
    assert result.plan is None and report.degraded
    assert [status for _d, status in result.failed_tasks] == ["failed"]
    assert "census mismatch" in next(iter(report.task_reports.values())).error
