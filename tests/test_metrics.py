"""Slice sampling, pair classification, confusion metrics, probability curves."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomclock import (
    BloomClock,
    ConfusionCounts,
    CurveRow,
    EventRecord,
    ExperimentConfig,
    SliceSpec,
    VectorClock,
    causality_spread,
    classify_pair,
    classify_probabilities,
    compute_metrics,
    confusion_counts,
    probability_curve,
    run,
    sample_slice,
    slice_metrics,
)
from bloomclock.simulation import Events


def _event(gsn, pid, vector, bloom, kind="internal", event_index=1):
    return EventRecord(
        gsn=gsn,
        pid=pid,
        kind=kind,
        event_index=event_index,
        sender=None,
        receiver=None,
        send_gsn=None,
        vector_ts=VectorClock(tuple(vector)),
        bloom_ts=BloomClock(tuple(bloom)),
    )


# ---------------------------------------------------------------------------
# slice sampling


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(start_gsn=0)
    with pytest.raises(ValueError):
        SliceSpec(stride=0)


def test_sample_slice_grid():
    log = run(ExperimentConfig("complete", n=3, m=2, k=1, seed=1, gsn_limit=30))
    events = sample_slice(log, SliceSpec(start_gsn=10, stride=5, end_gsn=25))
    assert [e.gsn for e in events] == [10, 15, 20, 25]


def test_sample_slice_defaults():
    log = run(ExperimentConfig("complete", n=100, m=10, k=2, seed=1))
    events = sample_slice(log)
    assert [e.gsn for e in events] == list(range(1000, 10001, 100))
    assert len(events) == 91
    both_direction_pairs = len(events) * (len(events) - 1)
    assert both_direction_pairs == 91 * 90


def test_sample_slice_empty_or_out_of_range():
    log = run(ExperimentConfig("complete", n=3, m=2, k=1, seed=1, gsn_limit=30))
    with pytest.raises(ValueError):
        sample_slice(log, SliceSpec(start_gsn=40))
    with pytest.raises(ValueError):
        sample_slice(log, SliceSpec(start_gsn=5, end_gsn=50))


# ---------------------------------------------------------------------------
# pair classification


def test_classify_pair_true_positive():
    y = _event(1, 0, vector=(1, 0), bloom=(1, 1))
    z = _event(2, 1, vector=(1, 1), bloom=(1, 1))
    assert classify_pair(y, z) == "TP"


def test_classify_pair_false_positive_on_concurrent():
    y = _event(1, 0, vector=(1, 0), bloom=(1, 0))
    z = _event(2, 1, vector=(0, 1), bloom=(2, 1))
    assert classify_pair(y, z) == "FP"


def test_classify_pair_true_negative():
    y = _event(1, 0, vector=(1, 0), bloom=(2, 0))
    z = _event(2, 1, vector=(0, 1), bloom=(0, 2))
    assert classify_pair(y, z) == "TN"


def test_confusion_counts_match_scalar_classification():
    # The vectorized pair classifier must agree with the one-pair reference.
    log = run(ExperimentConfig("complete", n=30, m=4, k=2, pr_i=0.1, seed=21, gsn_limit=900))
    events = sample_slice(log, SliceSpec(start_gsn=10, stride=30))
    expected = ConfusionCounts()
    for y in events:
        for z in events:
            if y.gsn != z.gsn:
                outcome = classify_pair(y, z)
                expected = expected + ConfusionCounts(**{outcome.lower(): 1})
    assert confusion_counts(events) == expected


def test_confusion_counts_agree_across_chunks():
    # 1,600 events at m=4 take three row chunks of the Bloom comparison.
    events = run(ExperimentConfig("complete", n=40, m=4, k=2, pr_i=0.2, seed=5)).events
    own = events.vectors[np.arange(len(events)), events.pids]
    oracle = events.vectors[:, events.pids] >= own  # [z, y]: y -> z
    predicted = (events.blooms[None, :, :] <= events.blooms[:, None, :]).all(axis=2)  # [z, y]
    np.fill_diagonal(oracle, False)
    np.fill_diagonal(predicted, False)
    tp = int(np.count_nonzero(oracle & predicted))
    fp = int(np.count_nonzero(predicted & ~oracle))
    fn = int(np.count_nonzero(oracle & ~predicted))
    tn = len(events) * (len(events) - 1) - tp - fp - fn
    assert confusion_counts(events) == ConfusionCounts(tp, fp, tn, fn)


def test_confusion_counts_requires_two_events():
    with pytest.raises(ValueError):
        confusion_counts(Events.from_records([_event(1, 0, (1, 0), (1,))], entities=2, m=1))


def test_no_false_negatives_over_full_run():
    for topology, n in [("complete", 40), ("star", 15), ("broadcast", 25)]:
        log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=3))
        assert confusion_counts(log.events).fn == 0


def test_slice_metrics_stamps_only_the_slice():
    # All 40,000 rows of this run's clocks take 35 MB; its 381-row slice
    # and the rows still to be read while stamping it take a few.
    tracemalloc.start()
    try:
        slice_metrics(run(ExperimentConfig("complete", n=200, m=20, k=2)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# ---------------------------------------------------------------------------
# ratio metrics


def test_metrics_direct_arithmetic():
    report = compute_metrics(ConfusionCounts(tp=3, fp=1, tn=6, fn=0))
    assert report.precision == pytest.approx(0.75)
    assert report.accuracy == pytest.approx(0.9)
    assert report.recall == 1.0
    assert report.fpr == pytest.approx(1 / 7)
    assert report.alpha == pytest.approx(0.3)
    assert report.sentinels == ()


def test_metrics_sentinels():
    report = compute_metrics(ConfusionCounts(tp=1))
    assert report.precision == 1.0 and report.accuracy == 1.0 and report.recall == 1.0
    assert report.fpr == 0.0
    assert report.sentinels == ("fpr",)
    negatives_only = compute_metrics(ConfusionCounts(tn=4))
    assert negatives_only.precision == 1.0 and negatives_only.recall == 1.0
    assert set(negatives_only.sentinels) == {"precision", "recall"}


def test_metrics_reject_empty_counts():
    with pytest.raises(ValueError):
        compute_metrics(ConfusionCounts())
    with pytest.raises(ValueError):
        causality_spread(ConfusionCounts())


def test_alpha_half_for_a_chain():
    log = run(ExperimentConfig("star", n=1, m=2, k=1, messages_per_client=100))
    report = slice_metrics(log, SliceSpec(start_gsn=4, stride=16))
    assert report.alpha == 0.5
    assert report.recall == 1.0


def test_alpha_zero_for_isolated_events():
    records = [_event(pid + 1, pid, [1 if i == pid else 0 for i in range(4)], (1,)) for pid in range(4)]
    counts = confusion_counts(Events.from_records(records, entities=4, m=1))
    assert counts.tp + counts.fn == 0
    assert causality_spread(counts) == 0.0


def test_alpha_bounded_by_half_on_runs():
    for topology, n in [("complete", 30), ("star", 12), ("broadcast", 20)]:
        log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=2))
        assert 0.0 <= slice_metrics(log, SliceSpec(start_gsn=5, stride=20)).alpha <= 0.5


# ---------------------------------------------------------------------------
# probability curves


def test_curve_rows_and_gating():
    log = run(ExperimentConfig("complete", n=20, m=4, k=2, seed=5))
    rows = probability_curve(log, 50, 51, 350)
    assert len(rows) == 300
    assert [r.z_gsn for r in rows] == list(range(51, 351))
    for row in rows:
        assert row.outcome in ("TP", "FP", "TN")
        assert row.pr_fp_smooth <= 0.25
        if row.outcome == "TN":
            assert row.pr_fp_step == 0.0


@st.composite
def curve_cases(draw):
    topology = draw(st.sampled_from(("complete", "star", "broadcast")))
    config = ExperimentConfig(
        topology,
        n=draw(st.integers(min_value=2, max_value=6)),
        m=draw(st.integers(min_value=1, max_value=6)),
        k=draw(st.integers(min_value=1, max_value=4)),
        pr_i=draw(st.sampled_from((0.0, 0.5, 1.0))) if topology == "complete" else 0.0,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        # Up to 600 events, so Bloom sums reach past EXACT_CUTOFF at small n.
        gsn_limit=draw(st.integers(min_value=2, max_value=600)) if topology == "complete" else None,
        messages_per_client=draw(st.integers(min_value=1, max_value=40)) if topology == "star" else None,
    )
    end = config.event_count
    y_gsn = draw(st.integers(min_value=1, max_value=end - 1))
    z_from = draw(st.integers(min_value=y_gsn + 1, max_value=end))
    return config, y_gsn, z_from, draw(st.integers(min_value=z_from, max_value=end))


@settings(max_examples=60, deadline=None)
@given(curve_cases())
def test_curve_matches_per_pair_classification(case):
    config, y_gsn, z_from, z_to = case
    log = run(config)
    y = log.events[y_gsn - 1]
    expected = []
    for z in log.events[z_from - 1 : z_to]:
        report = classify_probabilities(y.bloom_ts, z.bloom_ts)
        expected.append(
            CurveRow(z.gsn, report.pr_p, report.pr_fp_step, report.pr_fp_smooth, classify_pair(y, z))
        )
    rows = probability_curve(log, y_gsn, z_from, z_to)
    # Exact, not approximate: curve.csv prints these floats with repr().
    assert [repr(r) for r in rows] == [repr(r) for r in expected]


def test_curve_range_validation():
    log = run(ExperimentConfig("complete", n=20, m=4, k=2, seed=5))
    with pytest.raises(ValueError):
        probability_curve(log, 50, 50, 100)
    with pytest.raises(ValueError):
        probability_curve(log, 50, 51, 10**6)
    with pytest.raises(ValueError):
        probability_curve(log, 0, 10, 20)
