"""The fused dispatch layer: RenderPlan/RenderTicket semantics.

The contract under test: any set of logical renders enqueued on one
plan — across couplings, coil stacks, engines and thread splits — executes
as fused engine passes whose demultiplexed results are bit-identical
to the standalone ``engine.render`` calls.
"""

import numpy as np
import pytest

from repro.core.sensors import quadrant_coil
from repro import parallel
from repro.engine import MeasurementEngine, RenderPlan
from repro.errors import MeasurementError
from repro.workloads.campaign import StreamSegment

def _records(campaign, scenario, n):
    return campaign.stream_records([StreamSegment(scenario, n)])


# -- fusion bit-identity -----------------------------------------------------


def test_fused_requests_demux_bit_identically(psa, campaign):
    """Requests sharing (coupling, receivers) fuse into one job and
    slice back apart exactly."""
    recs = _records(campaign, "T1", 4)
    reference = psa.render(recs, trace_indices=[3, 5, 7, 9], sensors=[10, 5])
    plan = RenderPlan()
    first = psa.enqueue(
        plan, recs[:2], trace_indices=[3, 5], sensors=[10, 5], tag="a"
    )
    second = psa.enqueue(
        plan, recs[2:], trace_indices=[7, 9], sensors=[10, 5], tag="b"
    )
    plan.execute()
    assert first.tag == "a" and second.tag == "b"
    assert np.array_equal(first.result().samples, reference.samples[:, :2])
    assert np.array_equal(second.result().samples, reference.samples[:, 2:])


def test_mixed_couplings_and_stacks_on_one_plan(psa, campaign):
    """Standard-sensor renders and ad-hoc coil stacks share a plan."""
    recs = _records(campaign, "T2", 2)
    coils = [quadrant_coil(10, which) for which in ("sw", "ne")]
    ref_sensors = psa.render(recs, trace_indices=[11, 12], sensors=[10])
    ref_coils = psa.measure_coils_batch(coils, recs, trace_indices=[11, 12])
    plan = RenderPlan()
    sensor_ticket = psa.enqueue(
        plan, recs, trace_indices=[11, 12], sensors=[10]
    )
    coil_ticket = psa.enqueue_coils(plan, coils, recs, trace_indices=[11, 12])
    plan.execute()
    assert np.array_equal(
        sensor_ticket.result().samples, ref_sensors.samples
    )
    assert np.array_equal(coil_ticket.result().samples, ref_coils.samples)
    assert coil_ticket.result().labels == ref_coils.labels


def test_multiple_engines_one_plan(config, psa, campaign):
    """Engines with distinct seeds fuse at the wave level, each demuxed
    against its own standalone render."""
    other_engine = MeasurementEngine(
        config.with_(seed=config.seed + 1), amplifier=psa.amplifier
    )
    recs = _records(campaign, "baseline", 2)
    ref_a = psa.render(recs, trace_indices=[1, 2], sensors=[10])
    ref_b = other_engine.render(
        psa.coupling, recs, trace_indices=[1, 2], receiver_indices=[10]
    )
    assert not np.array_equal(ref_a.samples, ref_b.samples)
    plan = RenderPlan()
    t_a = psa.enqueue(plan, recs, trace_indices=[1, 2], sensors=[10])
    t_b = plan.add(
        psa.coupling,
        recs,
        trace_indices=[1, 2],
        receiver_indices=[10],
        engine=other_engine,
    )
    plan.execute()
    assert np.array_equal(t_a.result().samples, ref_a.samples)
    assert np.array_equal(t_b.result().samples, ref_b.samples)


def test_fused_plan_split_across_threads(config, psa, campaign, monkeypatch):
    """A fused job split across threads demuxes to the one-thread bits."""
    recs = _records(campaign, "T3", 4)
    monkeypatch.setattr(parallel, "THREADS", 1)
    ref = psa.render(recs, trace_indices=[3, 5, 7, 9], sensors=[10, 5])
    monkeypatch.setattr(parallel, "THREADS", 3)
    engine = MeasurementEngine(config, amplifier=psa.amplifier)
    plan = RenderPlan(engine=engine)
    t1 = plan.add(
        psa.coupling, recs[:2], trace_indices=[3, 5],
        receiver_indices=[10, 5],
    )
    t2 = plan.add(
        psa.coupling, recs[2:], trace_indices=[7, 9],
        receiver_indices=[10, 5],
    )
    plan.execute()
    fused = np.concatenate(
        [t1.result().samples, t2.result().samples], axis=1
    )
    assert np.array_equal(fused, ref.samples)


def test_score_map_prefetch_matches_standalone(psa, campaign):
    from repro.core.analysis.localizer import Localizer

    localizer = Localizer(psa)
    base = _records(campaign, "baseline", 2)
    active = _records(campaign, "T1", 2)
    reference = localizer.score_map(base, active)
    plan = RenderPlan()
    tickets = localizer.enqueue_score_map(plan, base, active)
    plan.execute()
    assert np.array_equal(localizer.finish_score_map(tickets), reference)


# -- plan lifecycle errors ---------------------------------------------------


def test_result_before_execute_raises(psa, campaign):
    plan = RenderPlan()
    ticket = psa.enqueue(plan, _records(campaign, "idle", 1))
    with pytest.raises(MeasurementError, match="not executed"):
        ticket.result()


def test_plan_executes_once(psa, campaign):
    plan = RenderPlan()
    psa.enqueue(plan, _records(campaign, "idle", 1))
    plan.execute()
    with pytest.raises(MeasurementError, match="already executed"):
        plan.execute()
    with pytest.raises(MeasurementError, match="already executed"):
        psa.enqueue(plan, _records(campaign, "idle", 1))


def test_add_without_engine_raises(psa, campaign):
    plan = RenderPlan()
    with pytest.raises(MeasurementError, match="no engine"):
        plan.add(psa.coupling, _records(campaign, "idle", 1))


def test_empty_plan_executes(config):
    RenderPlan().execute()
