"""Experiment orchestration: sweeps, aggregation, artifact files."""

from __future__ import annotations

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloomclock import (
    ConfigurationError,
    ExperimentConfig,
    SliceSpec,
    SweepSpec,
    average_over,
    probability_curve,
    ratio_to_width,
    run,
    run_experiment,
    run_sweep,
    write_artifacts_json,
    write_curve_csv,
    write_sweep_csv,
)
from bloomclock import experiments, simulation
from bloomclock.clocks import DigestTable
from bloomclock.experiments import CURVE_HEADER, CURVE_OUTCOMES, sweep_table
from bloomclock.metrics import CurveRow
from reference import reference_artifact

SMALL = ExperimentConfig("complete", n=10, m=3, k=2, gsn_limit=400)


def test_run_experiment_aggregate_is_mean():
    artifact = run_experiment(SMALL, (1, 2, 3))
    assert artifact.seeds == (1, 2, 3)
    assert len(artifact.reports) == 3
    for field in ("precision", "accuracy", "recall", "fpr", "alpha"):
        values = [getattr(r, field) for r in artifact.reports]
        assert getattr(artifact.aggregate, field) == pytest.approx(math.fsum(values) / 3)


def test_run_experiment_needs_seeds():
    with pytest.raises(ConfigurationError):
        run_experiment(SMALL, ())


def test_run_sweep_needs_seeds():
    with pytest.raises(ConfigurationError, match=r"^need one or more distinct seeds, got \[\]$"):
        run_sweep(SweepSpec(n_values=(10,), m_values=(2,), seeds=()))


def test_run_experiment_refuses_a_repeated_seed():
    with pytest.raises(ConfigurationError, match=r"need one or more distinct seeds, got \[1, 1\]"):
        run_experiment(SMALL, (1, 1))


def test_run_experiment_deterministic():
    a = run_experiment(SMALL, (5, 6))
    b = run_experiment(SMALL, (5, 6))
    assert a == b


def test_ratio_to_width_rounds_half_up():
    assert ratio_to_width(0.1, 125) == 13
    assert ratio_to_width(0.1, 50) == 5
    assert ratio_to_width(0.01, 10) == 1
    with pytest.raises(ConfigurationError):
        ratio_to_width(0.0, 50)
    with pytest.raises(ConfigurationError, match="overflows"):
        ratio_to_width(1e308, 10)


def test_sweep_expansion():
    spec = SweepSpec(
        topology="complete",
        n_values=(10, 20),
        m_ratios=(0.1, 0.2),
        k_values=(1, 2),
        pr_i_values=(0.0,),
        seeds=(1,),
        gsn_limit=100,
    )
    configs = spec.expand()
    assert len(configs) == 8
    assert {(c.n, c.m) for c in configs} == {(10, 1), (10, 2), (20, 2), (20, 4)}


def test_sweep_mixes_absolute_and_ratio_widths():
    spec = SweepSpec(n_values=(50,), m_values=(3,), m_ratios=(0.1,), seeds=(1,))
    assert spec.widths(50) == [3, 5]


def test_sweep_requires_widths_and_ns():
    with pytest.raises(ConfigurationError):
        SweepSpec(n_values=(10,), seeds=(1,)).expand()
    with pytest.raises(ConfigurationError):
        SweepSpec(m_values=(2,), seeds=(1,)).expand()
    for empty in ({"k_values": ()}, {"pr_i_values": ()}):
        with pytest.raises(ConfigurationError, match="at least one k and one pr_i"):
            SweepSpec(n_values=(10,), m_values=(2,), seeds=(1,), **empty).expand()


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(
            "complete", n_values=(8, 12), m_values=(2, 5), k_values=(1, 3), pr_i_values=(0.0, 0.6),
            seeds=(1, 2), gsn_limit=400, slice_spec=SliceSpec(start_gsn=50, stride=7),
        ),
        SweepSpec(
            "star", n_values=(4, 6), m_values=(1, 3), k_values=(2, 4), seeds=(3, 2**64 - 1),
            messages_per_client=5, slice_spec=SliceSpec(start_gsn=1, stride=3),
        ),
        SweepSpec(
            "broadcast", n_values=(5, 9), m_values=(2,), m_ratios=(0.5,), k_values=(1, 2), seeds=(5, 6, 7),
            slice_spec=SliceSpec(start_gsn=1, stride=2),
        ),
        # Slices of S events, S from 2 across byte and word edges of the bitset rows; at m=1 many
        # Bloom clocks are equal.
        *(
            pytest.param(
                SweepSpec(
                    "complete", n_values=(5,), m_values=(1, 4, 9), k_values=(1, 3), pr_i_values=(0.0, 0.6),
                    seeds=(4,), gsn_limit=300, slice_spec=SliceSpec(start_gsn=300 - 2 * (size - 1), stride=2),
                ),
                id=f"slice-of-{size}",
            )
            for size in (2, 7, 9, 63, 65, 127, 129)
        ),
        # The first nine events of this seed are internal events of nine processes: no pair is
        # causally related, and at m=1 every Bloom clock is (k,), so every pair is a false positive.
        pytest.param(
            SweepSpec(
                "complete", n_values=(32,), m_values=(1, 2, 5), k_values=(1, 3), pr_i_values=(1.0,), seeds=(1,),
                gsn_limit=9, slice_spec=SliceSpec(start_gsn=1, stride=1),
            ),
            id="concurrent-slice",
        ),
    ],
    ids=lambda spec: spec.topology,
)
def test_a_sweep_equals_its_cells_run_one_by_one(spec):
    # Each (n, pr_i) group's linkages are recorded once and stamped once for every (m, k), and
    # each (m, k) is classified against the group's one oracle.
    _check_against_the_reference(spec)


def _check_against_the_reference(spec):
    expected = [reference_artifact(config, spec.seeds, spec.slice_spec) for config in spec.expand()]
    assert run_sweep(spec) == expected
    assert [run_experiment(config, spec.seeds, spec.slice_spec) for config in spec.expand()] == expected


@st.composite
def sweep_specs(draw):
    """Small sweeps of every topology whose slices hold at least two events.

    Repeated n, pr_i and k values put a repeated (m, k) in one (n, pr_i)
    group; widths run from 1, hash counts past them, and ratio widths mix
    with absolute ones.
    """
    topology = draw(st.sampled_from(("complete", "star", "broadcast")))
    few = lambda values: st.lists(values, min_size=1, max_size=3)  # noqa: E731
    return SweepSpec(
        topology,
        n_values=tuple(draw(few(st.integers(min_value=1 if topology == "star" else 2, max_value=6)))),
        m_values=tuple(draw(st.lists(st.integers(min_value=1, max_value=6), max_size=2))),
        m_ratios=tuple(draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 1.5)), min_size=1, max_size=2))),
        k_values=tuple(draw(few(st.integers(min_value=1, max_value=8)))),
        pr_i_values=tuple(draw(few(st.sampled_from((0.0, 0.5, 1.0))))) if topology == "complete" else (0.0,),
        seeds=tuple(draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=2, unique=True))),
        gsn_limit=draw(st.integers(min_value=4, max_value=120)) if topology == "complete" else None,
        messages_per_client=draw(st.integers(min_value=1, max_value=4)) if topology == "star" else None,
        # Every run has at least four events, so these slices hold two or more.
        slice_spec=SliceSpec(start_gsn=draw(st.integers(min_value=1, max_value=2)), stride=draw(st.integers(1, 2))),
    )


@settings(max_examples=60, deadline=None)
@given(sweep_specs())
@example(
    SweepSpec(
        "complete", n_values=(3, 3), m_values=(1, 2), k_values=(4, 4), pr_i_values=(0.5, 0.5), seeds=(2, 1),
        gsn_limit=60, slice_spec=SliceSpec(start_gsn=1, stride=1),
    )
)
def test_a_drawn_sweep_equals_its_cells_run_one_by_one(spec):
    _check_against_the_reference(spec)


def test_a_sweep_plans_and_records_each_linkage_once_and_hashes_each_pair_once(monkeypatch):
    recorded, planned, hashed = [], [], []
    real_run, real_plan, real_hash = experiments.run, simulation._row_plan, DigestTable._hash
    monkeypatch.setattr(experiments, "run", lambda config: recorded.append(config) or real_run(config))
    monkeypatch.setattr(simulation, "_row_plan", lambda *args: planned.append(len(args[0])) or real_plan(*args))
    monkeypatch.setattr(DigestTable, "_hash", lambda self, pids, xs: hashed.append(len(pids)) or real_hash(self, pids, xs))
    spec = SweepSpec(n_values=(10,), m_values=(2, 3), k_values=(1, 2), pr_i_values=(0.0, 0.5), seeds=(1, 2), gsn_limit=300)
    run_sweep(spec)
    assert [(c.pr_i, c.seed) for c in recorded] == [(0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2)]
    # One plan and one walk per (group, seed) for all four (m, k), not one per cell.
    assert planned == [300] * 4

    def pairs(config):
        _, pids, _, xs, *_ = real_run(config).columns()
        return set(zip(pids.tolist(), xs.tolist()))

    # Each slice ends at the log's end, so its stamp walks every event.
    distinct = sum(len(set().union(*(pairs(c) for c in recorded if c.seed == seed))) for seed in spec.seeds)
    assert sum(hashed) == distinct
    # The digest tables live for one call: a second sweep records and hashes again.
    run_sweep(spec)
    assert len(recorded) == 8 and len(planned) == 8 and sum(hashed) == 2 * distinct


def test_sweep_cells_are_independent():
    spec = SweepSpec(
        n_values=(10,), m_values=(2, 3), k_values=(1, 2), seeds=(1, 2), gsn_limit=300
    )
    full = run_sweep(spec)
    reduced = run_sweep(
        SweepSpec(n_values=(10,), m_values=(3,), k_values=(1, 2), seeds=(1, 2), gsn_limit=300)
    )
    kept = [a for a in full if a.config.m == 3]
    assert kept == reduced


def test_average_over_groups():
    spec = SweepSpec(n_values=(10,), m_values=(2, 3), k_values=(1, 2), seeds=(1,), gsn_limit=300)
    artifacts = run_sweep(spec)
    grouped = average_over(artifacts, ("m",))
    assert {tuple(key.items()) for key, _ in grouped} == {
        (("topology", "complete"), ("n", 10), ("k", 1), ("pr_i", 0.0)),
        (("topology", "complete"), ("n", 10), ("k", 2), ("pr_i", 0.0)),
    }
    for key, agg in grouped:
        members = [a for a in artifacts if a.config.k == key["k"]]
        assert agg.precision == pytest.approx(
            math.fsum(a.aggregate.precision for a in members) / len(members)
        )


def test_average_over_unknown_field():
    with pytest.raises(ConfigurationError):
        average_over([], ("width",))


def test_sweep_table_rounds_to_three_decimals():
    artifacts = run_sweep(SweepSpec(n_values=(10,), m_values=(3,), seeds=(1, 2), gsn_limit=300))
    row = sweep_table(artifacts)[0]
    assert row["n"] == 10 and row["seeds"] == 2
    assert row["precision"] == round(artifacts[0].aggregate.precision, 3)


def test_sweep_csv_and_json(tmp_path):
    artifacts = run_sweep(SweepSpec(n_values=(10,), m_values=(3,), seeds=(1, 2), gsn_limit=300))
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    write_sweep_csv(artifacts, csv_path)
    write_artifacts_json(artifacts, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("topology,n,m,k,pr_i,seeds,precision")
    assert len(lines) == 2
    payload = json.loads(json_path.read_text())
    cell = payload["cells"][0]
    assert cell["config"]["n"] == 10
    assert cell["per_seed"][0]["seed"] == 1
    # raw values in JSON, not the 3-decimal table rounding
    assert cell["aggregate"]["precision"] == artifacts[0].aggregate.precision
    with pytest.raises(ConfigurationError, match="no rows to write"):
        write_sweep_csv([], tmp_path / "empty.csv")


def test_curve_csv_round_trip(tmp_path):
    rows = probability_curve(run(ExperimentConfig("complete", n=10, m=3, k=2, gsn_limit=400, seed=3)), 100, 101, 200)
    path = tmp_path / "curve.csv"
    write_curve_csv(rows, path)
    assert path.read_text().splitlines()[0] == "z_gsn,pr_p,pr_fp_step,pr_fp_smooth,outcome"
    with open(path, newline="") as handle:
        _, *lines = csv.reader(handle)
    parsed = [CurveRow(int(z), float(p), float(step), float(smooth), outcome) for z, p, step, smooth, outcome in lines]
    assert parsed == rows


def _write_curve_csv_per_row(rows, path):
    """The curve CSV written one ``csv.writer`` row at a time: the reference."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CURVE_HEADER)
        for row in rows:
            writer.writerow([row.z_gsn, repr(row.pr_p), repr(row.pr_fp_step), repr(row.pr_fp_smooth), row.outcome])


edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1.0, 0.25]),
    st.floats(),
)
outcomes = st.one_of(
    st.sampled_from(["TP", "FP", "TN", "FN", "", "a,b", 'say "hi"', "two\r\nlines"]),
    st.text(alphabet=' ,"\r\nTPFN', max_size=5),
)


@st.composite
def curve_rows(draw):
    # Rows drawn from a small pool of tails repeat classes, as a curve does.
    pool = draw(st.lists(st.tuples(edge_floats, edge_floats, edge_floats, outcomes), min_size=1, max_size=5))
    tails = draw(st.lists(st.sampled_from(pool), max_size=30))
    return [CurveRow(draw(st.integers(min_value=-(2**63), max_value=2**63)), *tail) for tail in tails]


@settings(max_examples=200, deadline=None)
@given(curve_rows())
@example([CurveRow(1, 0.0, -0.0, 0.0, "TN"), CurveRow(2, -0.0, 0.0, -0.0, "TN"), CurveRow(3, 0.0, -0.0, 0.0, "TN")])
@example([CurveRow(1, math.nan, math.inf, -math.inf, "FP"), CurveRow(2, 5e-324, math.nan, math.nan, 'q"a,b')])
def test_curve_csv_matches_per_row_writer(rows):
    # The writer joins the fields unquoted, so it refuses any outcome but
    # the four; the rows with each other outcome renamed FN give csv's bytes.
    named = [row if row.outcome in CURVE_OUTCOMES else row._replace(outcome="FN") for row in rows]
    with tempfile.TemporaryDirectory() as scratch:
        expected, written = Path(scratch, "expected.csv"), Path(scratch, "written.csv")
        _write_curve_csv_per_row(named, expected)
        write_curve_csv(named, written)
        assert written.read_bytes() == expected.read_bytes()
        for row in rows:
            if row.outcome not in CURVE_OUTCOMES:
                with pytest.raises(ValueError, match=r"^outcome .* is not one of \('TP', 'FP', 'TN', 'FN'\)$"):
                    write_curve_csv([row], written)
