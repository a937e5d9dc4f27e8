"""Slice sampling, pair classification, confusion metrics, probability curves."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomclock import (
    BloomClock,
    ConfigurationError,
    ConfusionCounts,
    CurveRow,
    EventRecord,
    ExecutionLog,
    ExperimentConfig,
    ReplayError,
    SliceSpec,
    VectorClock,
    causality_spread,
    classify_pair,
    classify_probabilities,
    compute_metrics,
    confusion_counts,
    persist_trace,
    probability_curve,
    run,
    run_experiment,
    sample_slice,
)
from bloomclock.cli import main
from bloomclock.clocks import DigestTable
from bloomclock.metrics import slice_metrics
from bloomclock.simulation import Events
from reference import broadcast_counts


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"stride": 2.5}, "stride must be an integer, got 2.5"),
        ({"start_gsn": 1.5}, "start_gsn must be an integer, got 1.5"),
        ({"stride": True}, "stride must be an integer, got True"),
    ],
)
def test_slice_spec_refuses_a_float_or_bool(fields, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        SliceSpec(**fields)


def _internal_events(pids, vectors, blooms):
    """Events built from columns: each pid's internal event in GSN order, stamped with the given clocks."""
    count = len(pids)
    absent = np.full(count, -1, np.int32)
    gsns, kinds, xs = np.arange(1, count + 1, dtype=np.int32), np.zeros(count, np.int32), np.ones(count, np.int32)
    columns = [gsns, np.array(pids, np.int32), kinds, xs, absent, absent, absent]
    return Events(columns, np.hstack([vectors, blooms]).astype(np.int32), len(vectors[0]))


def test_sample_slice_grid():
    log = run(ExperimentConfig("complete", n=3, m=2, k=1, seed=1, gsn_limit=25))
    events = sample_slice(log, SliceSpec(start_gsn=10, stride=5))
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
    # A log whose GSNs skip 11 has a gap the grid would step over; building
    # it refuses the first receive whose link no longer names an earlier send.
    for read in (
        lambda gapped: sample_slice(gapped, SliceSpec(start_gsn=1, stride=1)),
        lambda gapped: slice_metrics(gapped, [(2, 1)], DigestTable(1), SliceSpec(start_gsn=1, stride=1)),
    ):
        with pytest.raises(ReplayError, match="^gsn 16: receive links to unknown send gsn 16$"):
            read(ExecutionLog(log.config, log.events[np.r_[0:10, 11:30]]))


def test_select_and_the_curve_refuse_a_log_whose_gsns_skip():
    # Held rows of GSNs 1, 2, 3, 14, 15, 16: row 4 holds GSN 14, which
    # select([4]) would return and a curve over z in [2, 5] would report.
    # The whole log is checked when it is built, so rows 1-3 are refused with it.
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=20))
    for read in (lambda g: g.select([4]), lambda g: probability_curve(g, 1, 2, 5), lambda g: g.select([1, 3])):
        with pytest.raises(ReplayError, match="^gsn 4: receive links to unknown send gsn 11$"):
            read(ExecutionLog(log.config, log.events[np.r_[0:3, 13:16]]))


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


def _pairwise_counts(events):
    """Reference count: classify_pair on every ordered pair of distinct records."""
    counts = ConfusionCounts()
    records = list(events)
    for y in records:
        for z in records:
            if y.gsn != z.gsn:
                counts = counts + ConfusionCounts(**{classify_pair(y, z).lower(): 1})
    return counts


def test_confusion_counts_match_scalar_classification():
    # The bitset pair classifier must agree with the one-pair reference.
    log = run(ExperimentConfig("complete", n=30, m=4, k=2, pr_i=0.1, seed=21, gsn_limit=900))
    events = sample_slice(log, SliceSpec(start_gsn=10, stride=30))
    assert confusion_counts(events) == _pairwise_counts(events)


def test_confusion_counts_match_the_broadcast_reference():
    # 1,600 events: bitset rows of 25 words, and three oracle blocks of up to 655 rows.
    events = run(ExperimentConfig("complete", n=40, m=4, k=2, pr_i=0.2, seed=5)).events
    assert confusion_counts(events) == broadcast_counts(events)


@st.composite
def classified_slices(draw):
    """Events drawn from a run of any topology, S in {2, 63, 64, 65, 129} or below 130, m down to 1."""
    topology = draw(st.sampled_from(("complete", "star", "broadcast")))
    config = ExperimentConfig(
        topology,
        n=draw(st.integers(min_value=2, max_value=6)) if topology != "broadcast" else draw(st.integers(12, 14)),
        m=draw(st.sampled_from((1, 2, 3, 8))),
        k=draw(st.integers(min_value=1, max_value=3)),
        pr_i=draw(st.sampled_from((0.0, 0.5, 1.0))) if topology == "complete" else 0.0,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        gsn_limit=draw(st.integers(min_value=130, max_value=400)) if topology == "complete" else None,
        messages_per_client=draw(st.integers(min_value=17, max_value=30)) if topology == "star" else None,
    )
    size = draw(st.one_of(st.sampled_from((2, 63, 64, 65, 129)), st.integers(min_value=2, max_value=129)))
    pick = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    return config, np.sort(pick.choice(config.event_count, size, replace=False))


@settings(max_examples=40, deadline=None)
@given(classified_slices())
def test_confusion_counts_match_both_references(case):
    config, rows = case
    events = run(config).events[rows]
    counts = confusion_counts(events)
    assert counts == broadcast_counts(events)
    assert counts == _pairwise_counts(events)
    assert counts.fn == 0


@pytest.mark.parametrize("count", [2, 63, 64, 65, 129])
def test_equal_bloom_clocks_of_isolated_events_are_all_false_positives(count):
    # Each process's single internal event: no pair is causal, yet every
    # Bloom clock equals every other, so each ordered pair is predicted.
    events = _internal_events(range(count), np.eye(count), [[3, 1]] * count)
    assert confusion_counts(events) == ConfusionCounts(fp=count * (count - 1))


def test_confusion_counts_requires_two_events():
    with pytest.raises(ValueError):
        confusion_counts(_internal_events([0], [[1, 0]], [[1]]))


@pytest.mark.parametrize("pid", [-1, 6])
def test_confusion_counts_refuses_a_pid_outside_the_vector_clock(pid):
    # Unchecked, pid -1 reads the last vector counter as its own and pid 6 reads past the row.
    config = ExperimentConfig("complete", n=6, m=4, k=2, pr_i=0.3, seed=3, gsn_limit=200)
    events = run(config).events[59::5]
    columns = [c.copy() for c in events.columns()]
    columns[1][0] = pid
    with pytest.raises(ValueError, match=rf"^gsn 60: pid {pid} outside \[0, 6\)$"):
        confusion_counts(Events(columns, events.clocks, config.entities))
    assert confusion_counts(events).fn == 0


def test_no_false_negatives_over_full_run():
    for topology, n in [("complete", 40), ("star", 15), ("broadcast", 25)]:
        log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=3))
        assert confusion_counts(log.events).fn == 0


def test_slice_metrics_stamps_only_the_slice():
    # All 40,000 rows of this run's clocks take 35 MB; its 381-row slice
    # and the rows still to be read while stamping it take a few.
    tracemalloc.start()
    try:
        run_experiment(ExperimentConfig("complete", n=200, m=20, k=2), (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_a_slice_of_one_event_is_refused_before_it_is_stamped(monkeypatch, capsys):
    # The slice holds only the last GSN; stamping up to it would walk the whole log.
    def no_stamp(*args):
        raise AssertionError("a one-event slice was stamped")

    monkeypatch.setattr("bloomclock.simulation._stamp", no_stamp)
    config = ExperimentConfig("complete", n=20, m=4, k=2)
    with pytest.raises(ValueError, match="^need at least two events to form pairs, got 1$"):
        slice_metrics(run(config), [(config.m, config.k)], DigestTable(config.seed), SliceSpec(start_gsn=400))
    assert main(["run", "--n", "20", "--m", "4", "--runs", "1", "--slice-start", "400"]) == 2
    assert capsys.readouterr().err == "configuration error: need at least two events to form pairs, got 1\n"


@pytest.mark.parametrize(
    "column,value,message",
    [
        (1, -1, "gsn 51: pid -1 outside [0, 6)"),
        (3, 0, "gsn 51: column event_indices holds 0, replay derives 11"),
        (1, 7, "gsn 51: pid 7 outside [0, 6)"),
        # Pid 4 moved to 5, a process in range: read whole, this log gave fn=66 where the clean one gives 0.
        (1, 5, "gsn 51: column event_indices holds 11, replay derives 10"),
    ],
    ids=["negative-pid", "event-index", "pid-beyond-n", "pid-moved"],
)
@pytest.mark.parametrize(
    "read",
    [
        lambda log: log.select([60, 65]),
        lambda log: sample_slice(log, SliceSpec(start_gsn=60, stride=5)),
        lambda log: probability_curve(log, 60, 61, 200),
        lambda log: slice_metrics(log, [(4, 2)], DigestTable(log.config.seed), SliceSpec(start_gsn=60, stride=5)),
        lambda log: confusion_counts(log.events),
        lambda log: list(log.events),
        lambda log: persist_trace(log, os.devnull),
        lambda log: log == run(log.config),
    ],
    ids=["select", "sample_slice", "probability_curve", "slice_metrics", "events", "records", "persist", "equality"],
)
def test_every_read_of_a_recorded_log_is_guarded(column, value, message, read):
    # A log built from rows, as a loaded trace is, checks its linkage
    # against the one replay rebuilds when it is built, so no reader ever
    # holds a log with an edited field to read, or stamp, as if it were recorded.
    config = ExperimentConfig("complete", n=6, m=4, k=2, pr_i=0.3, seed=3, gsn_limit=200)
    events = run(config).events
    columns = [c.copy() for c in events.columns()]
    assert columns[1][50] == 4
    columns[column][50] = value
    with pytest.raises(ReplayError) as caught:
        read(ExecutionLog(config, Events(columns, events.clocks, config.entities)))
    assert str(caught.value) == message


def test_a_run_log_is_read_without_the_guard_once_its_rows_are_kept(monkeypatch):
    # log.events keeps the run's own stamp, so its reads rebuild no linkage.
    def no_guard(config, columns):
        raise AssertionError("a run log was guarded")

    monkeypatch.setattr("bloomclock.simulation._rebuilt_linkage", no_guard)
    config = ExperimentConfig("complete", n=6, m=4, k=2, pr_i=0.3, seed=3, gsn_limit=200)
    log = run(config)
    log.events
    assert log.select([60, 65]) == log.events[np.array([59, 64])]
    assert len(probability_curve(log, 60, 61, 200)) == 140
    slice_metrics(log, [(4, 2)], DigestTable(config.seed), SliceSpec(start_gsn=60, stride=5))


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
    config = ExperimentConfig("star", n=1, m=2, k=1, messages_per_client=100)
    (report,) = run_experiment(config, (1,), SliceSpec(start_gsn=4, stride=16)).reports
    assert report.alpha == 0.5
    assert report.recall == 1.0


def test_alpha_zero_for_isolated_events():
    counts = confusion_counts(_internal_events(range(4), np.eye(4), [[1]] * 4))
    assert counts.tp + counts.fn == 0
    assert causality_spread(counts) == 0.0


def test_alpha_bounded_by_half_on_runs():
    for topology, n in [("complete", 30), ("star", 12), ("broadcast", 20)]:
        config = ExperimentConfig(topology, n=n, m=4, k=2)
        (report,) = run_experiment(config, (2,), SliceSpec(start_gsn=5, stride=20)).reports
        assert 0.0 <= report.alpha <= 0.5


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
    # A fresh log holds no rows, so its curve reads them through the stamp.
    fresh = probability_curve(run(config), y_gsn, z_from, z_to)
    assert [repr(r) for r in fresh] == [repr(r) for r in expected]


def test_curve_range_validation():
    log = run(ExperimentConfig("complete", n=20, m=4, k=2, seed=5))
    with pytest.raises(ValueError):
        probability_curve(log, 50, 50, 100)
    with pytest.raises(ValueError):
        probability_curve(log, 50, 51, 10**6)
    with pytest.raises(ValueError):
        probability_curve(log, 0, 10, 20)
