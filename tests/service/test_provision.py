"""The batch provisioning API and its parallel/sequential parity."""

from fractions import Fraction

import pytest

import repro.core.planner as planner_mod
from repro.core.planner import plan_schedule
from repro.core.transparency import is_topology_transparent
from repro.service.api import ProvisionRequest, ProvisionResult, provision_batch
from repro.service.store import ScheduleStore


@pytest.fixture
def store(tmp_path) -> ScheduleStore:
    """A store rooted in a fresh temporary directory."""
    return ScheduleStore(tmp_path / "cache")


def _count_constructions(monkeypatch):
    """Route planner constructions through a counter; returns the list."""
    calls = []
    real = planner_mod.construct_detailed
    monkeypatch.setattr(
        planner_mod, "construct_detailed",
        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


class TestRequests:
    def test_from_dict_round_trip(self):
        req = ProvisionRequest.from_dict(
            {"n": 15, "d": 2, "max_duty": "2/5", "balanced": True})
        assert req == ProvisionRequest(15, 2, "2/5", balanced=True)
        assert req.to_dict() == {"n": 15, "d": 2, "max_duty": "2/5",
                                 "balanced": True}

    def test_from_dict_rejects_missing_and_unknown_fields(self):
        with pytest.raises(ValueError, match="missing"):
            ProvisionRequest.from_dict({"n": 15, "d": 2})
        with pytest.raises(ValueError, match="unknown"):
            ProvisionRequest.from_dict(
                {"n": 15, "d": 2, "max_duty": 0.4, "alpha": 1})

    def test_signature_is_exact(self):
        float_sig = ProvisionRequest(15, 2, 0.4).signature()
        exact_sig = ProvisionRequest(15, 2, Fraction(2, 5)).signature()
        assert float_sig == exact_sig == (15, 2, Fraction(2, 5), False)

    def test_from_dict_rejects_wrong_types_naming_the_key(self):
        good = {"n": 15, "d": 2, "max_duty": 0.4}
        for key, bad in [("n", "15"), ("n", 15.0), ("n", True),
                         ("d", "2"), ("d", None), ("d", False)]:
            with pytest.raises(ValueError, match=f"field '{key}' must be"):
                ProvisionRequest.from_dict({**good, key: bad})
        for bad_duty in ([0.4], None, True, {"num": 2}):
            with pytest.raises(ValueError, match="'max_duty' must be"):
                ProvisionRequest.from_dict({**good, "max_duty": bad_duty})
        for bad_balanced in ("yes", 1, 0, None):
            with pytest.raises(ValueError, match="'balanced' must be"):
                ProvisionRequest.from_dict({**good,
                                            "balanced": bad_balanced})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            ProvisionRequest.from_dict([15, 2, 0.4])

    def test_from_dict_accepts_integer_duty(self):
        # max_duty=1 (always-on) is an int, not a float: still a number.
        req = ProvisionRequest.from_dict({"n": 15, "d": 2, "max_duty": 1})
        assert req.max_duty == 1


class TestResultFromDict:
    def test_success_round_trips_exactly(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        doc = result.to_dict()
        back = ProvisionResult.from_dict(doc)
        assert back.plan == result.plan
        assert back.request == result.request
        assert back.to_dict() == doc

    def test_error_result_round_trips(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.05)])
        back = ProvisionResult.from_dict(result.to_dict())
        assert back.plan is None
        assert back.error == result.error
        assert back.to_dict() == result.to_dict()

    def test_schedule_free_document_is_rejected(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        doc = result.to_dict(include_schedule=False)
        with pytest.raises(ValueError, match="missing field 'schedule'"):
            ProvisionResult.from_dict(doc)

    def test_from_cache_and_degraded_flags_survive(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        doc = result.to_dict()
        doc["from_cache"] = True
        doc["degraded"] = True
        back = ProvisionResult.from_dict(doc)
        assert back.from_cache is True
        assert back.degraded is True


class TestBatch:
    def test_matches_sequential_planner(self):
        requests = [ProvisionRequest(15, 2, 0.4),
                    ProvisionRequest(12, 2, "1/2"),
                    ProvisionRequest(12, 2, 0.5, balanced=True)]
        results = provision_batch(requests)
        for req, res in zip(requests, results):
            assert res.error is None
            assert res.plan == plan_schedule(req.n, req.d, req.max_duty,
                                             balanced=req.balanced)
            assert is_topology_transparent(res.plan.schedule, req.d)

    def test_jobs_1_and_jobs_4_identical(self):
        requests = [ProvisionRequest(15, 2, 0.4),
                    ProvisionRequest(12, 2, 0.5)]
        sequential = provision_batch(requests, jobs=1)
        parallel = provision_batch(requests, jobs=4)
        assert [r.plan for r in sequential] == [r.plan for r in parallel]

    def test_duplicate_requests_computed_once(self, monkeypatch):
        calls = _count_constructions(monkeypatch)
        once = provision_batch([ProvisionRequest(12, 2, 0.5)])
        single_cost = len(calls)
        calls.clear()
        twice = provision_batch([ProvisionRequest(12, 2, 0.5),
                                 ProvisionRequest(12, 2, Fraction(1, 2))])
        assert len(calls) == single_cost  # float and exact dedupe together
        assert twice[0].plan == twice[1].plan == once[0].plan

    def test_error_isolated_per_request(self):
        results = provision_batch([ProvisionRequest(15, 2, 0.05),
                                   ProvisionRequest(15, 2, 0.4),
                                   ProvisionRequest(15, 99, 0.4)])
        assert "duty budget" in results[0].error
        assert results[1].error is None and results[1].plan is not None
        assert "D must be" in results[2].error
        assert results[0].plan is None and results[2].plan is None

    def test_result_to_dict_shapes(self):
        ok, bad = provision_batch([ProvisionRequest(12, 2, 0.5),
                                   ProvisionRequest(12, 2, 0.05)])
        doc = ok.to_dict()
        assert doc["family"] == ok.plan.family
        assert doc["schedule"]["format"] == "repro-schedule"
        assert "schedule" not in ok.to_dict(include_schedule=False)
        assert set(bad.to_dict()) == {"request", "error"}


class TestCaching:
    def test_second_batch_zero_constructions(self, store, monkeypatch):
        requests = [ProvisionRequest(15, 2, 0.4),
                    ProvisionRequest(12, 2, 0.5)]
        cold = provision_batch(requests, store=store, jobs=1)
        assert all(not r.from_cache for r in cold)
        calls = _count_constructions(monkeypatch)
        warm = provision_batch(requests,
                               store=ScheduleStore(store.cache_dir), jobs=1)
        assert calls == []
        assert all(r.from_cache for r in warm)
        assert [r.plan for r in warm] == [r.plan for r in cold]

    def test_cold_parallel_equals_cold_sequential_through_cache(
            self, tmp_path):
        requests = [ProvisionRequest(15, 2, 0.4), ProvisionRequest(12, 2, 0.5)]
        seq = provision_batch(requests,
                              store=ScheduleStore(tmp_path / "a"), jobs=1)
        par = provision_batch(requests,
                              store=ScheduleStore(tmp_path / "b"), jobs=4)
        assert [r.plan for r in seq] == [r.plan for r in par]

    def test_eval_entries_shared_between_requests(self, store, monkeypatch):
        """A cold request constructs only its census winner; another
        budget with the same winner reuses that checkpoint."""
        calls = _count_constructions(monkeypatch)
        provision_batch([ProvisionRequest(12, 2, Fraction(1, 3))],
                        store=store)
        assert len(calls) == 1
        assert store.stats.stores == 2  # the winner's eval + the plan
        assert _winner_digest(12, 2, Fraction(1, 3)) == \
            _winner_digest(12, 2, 0.4)
        calls.clear()
        warm_store = ScheduleStore(store.cache_dir)
        second = provision_batch([ProvisionRequest(12, 2, 0.4)],
                                 store=warm_store)
        assert calls == []
        assert not second[0].from_cache  # a new plan entry, an old eval
        assert warm_store.stats.hits == 1
        assert second[0].plan == plan_schedule(12, 2, 0.4)

    def test_no_store_means_no_disk(self, tmp_path):
        provision_batch([ProvisionRequest(12, 2, 0.5)], store=None)
        assert list(tmp_path.iterdir()) == []


class TestResultDataclass:
    def test_frozen(self):
        result = provision_batch([ProvisionRequest(12, 2, 0.5)])[0]
        assert isinstance(result, ProvisionResult)
        with pytest.raises(AttributeError):
            result.from_cache = True  # type: ignore[misc]


def _winner_digest(n, d, duty, balanced=False):
    """The store-key digest of the census winner of a request's grid."""
    from repro.core.planner import (best_grid_point, candidate_sources,
                                    duty_budget_fraction, duty_grid)
    from repro.service.provision import task_from_point
    budget = duty_budget_fraction(duty)
    point, _score = best_grid_point(
        duty_grid(n, d, budget, candidate_sources(n, d)), d, budget,
        balanced=balanced)
    return task_from_point(point, n, d, balanced).key()


class TestFaultTolerance:
    """Crash + hang on the winners' constructions, then warm resume."""

    def test_crash_and_hang_then_resume_from_checkpoint(
            self, store, monkeypatch):
        from repro.faults import FaultPlan
        from repro.service.api import provision_batch_report
        from repro.service.runtime import RuntimeConfig

        requests = [ProvisionRequest(12, 2, 0.5), ProvisionRequest(15, 2, 0.4)]
        crash, hang = (_winner_digest(r.n, r.d, r.max_duty) for r in requests)
        assert crash != hang
        faults = FaultPlan(hang_seconds=20, targeted_worker_faults=(
            (crash, ("crash",)), (hang, ("hang",) * 4)))

        # --- faulted run: one worker crash, one wedged worker ----------
        report = provision_batch_report(
            requests, store=store,
            runtime=RuntimeConfig(jobs=2, task_timeout=1.0, max_retries=1,
                                  backoff_base=0.01),
            faults=faults)
        assert report.pool_rebuilds >= 1
        assert report.task_reports[crash].status == "retried"
        assert report.task_reports[hang].status == "timed-out"
        survivor, lost = report.results
        assert survivor.error is None and survivor.failed_tasks == ()
        assert survivor.plan == plan_schedule(12, 2, 0.5)
        assert lost.plan is None and "lost to a worker fault" in lost.error
        assert dict(lost.failed_tasks) == {hang: "timed-out"}
        assert report.degraded and not lost.degraded
        # A request whose winner was lost leaves no plan entry behind.
        assert store.get_plan(15, 2, Fraction(2, 5), False) is None

        # --- warm re-run: only the lost winner is constructed ----------
        calls = _count_constructions(monkeypatch)
        warm_store = ScheduleStore(store.cache_dir)
        resumed = provision_batch_report(requests, store=warm_store)
        assert len(calls) == 1  # the survivor's plan entry was reaped
        assert warm_store.stats.hits == 1
        cached, final = resumed.results
        assert cached.from_cache and cached.plan == survivor.plan
        assert not resumed.degraded and final.failed_tasks == ()
        assert final.plan == plan_schedule(15, 2, 0.4)
        assert resumed.task_summary() == {"ok": 1}
        # The healthy run caches the plan like any other.
        assert warm_store.stats.stores == 2  # the lost eval + the plan

    def test_all_grid_points_lost_yields_error_not_raise(self):
        from repro.faults import FaultPlan
        from repro.service.api import provision_batch_report
        from repro.service.runtime import RuntimeConfig

        winner = _winner_digest(12, 2, 0.5)
        faults = FaultPlan(targeted_worker_faults=((winner, ("error",) * 9),))
        report = provision_batch_report(
            [ProvisionRequest(12, 2, 0.5)],
            runtime=RuntimeConfig(max_retries=0), faults=faults)
        result = report.results[0]
        assert result.plan is None
        assert "lost to a worker fault" in result.error
        assert result.failed_tasks == ((winner, "failed"),)
        assert report.degraded
        assert set(result.to_dict()) == {"request", "error", "failed_tasks"}

    def test_healthy_batch_report_shape(self, store):
        from repro.service.api import provision_batch_report

        report = provision_batch_report(
            [ProvisionRequest(12, 2, 0.5)], store=store)
        assert not report.degraded
        assert report.pool_rebuilds == 0
        assert set(report.task_summary()) == {"ok"}
        assert report.store_stats is store.stats
        assert report.store_stats.stores > 0
