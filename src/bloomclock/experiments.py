"""Experiment orchestration: multi-seed runs, parameter sweeps, artifact emission.

A run artifact holds the per-seed slice metrics plus their arithmetic mean;
a sweep expands the cartesian product of parameter lists into independent
cells.  Tables are written as CSV rounded to three decimals, full artifacts
as JSON with raw values; neither carries timestamps, so byte-identical
reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from itertools import groupby, product
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .clocks import DigestTable
from .errors import ConfigurationError
from .metrics import CurveRow, MetricsReport, SliceSpec, slice_metrics
from .simulation import ExperimentConfig, run

CURVE_HEADER = ("z_gsn", "pr_p", "pr_fp_step", "pr_fp_smooth", "outcome")
# The pair outcomes a curve row may name.
CURVE_OUTCOMES = ("TP", "FP", "TN", "FN")
METRIC_FIELDS = ("precision", "accuracy", "recall", "fpr", "alpha")


@dataclass(frozen=True)
class AggregateMetrics:
    """Arithmetic means of the ratio metrics over a set of reports."""

    precision: float
    accuracy: float
    recall: float
    fpr: float
    alpha: float


@dataclass(frozen=True)
class RunArtifact:
    """One configuration's per-seed reports plus their aggregate."""

    config: ExperimentConfig
    seeds: tuple[int, ...]
    reports: tuple[MetricsReport, ...]
    aggregate: AggregateMetrics


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def aggregate_reports(reports: Sequence[MetricsReport]) -> AggregateMetrics:
    return AggregateMetrics(
        **{field: _mean([getattr(r, field) for r in reports]) for field in METRIC_FIELDS}
    )


def _check_seeds(seeds: Sequence[int]) -> None:
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"need one or more distinct seeds, got {list(seeds)}")


def _run_cells(
    cells: Sequence[ExperimentConfig], tables: dict[int, DigestTable], slice_spec: SliceSpec | None
) -> list[RunArtifact]:
    """One artifact per cell over the seeds of ``tables``; the cells differ only in m and k, so each seed runs once."""
    seeds = tuple(tables)
    geometries = list(dict.fromkeys((config.m, config.k) for config in cells))
    per_seed = [slice_metrics(run(replace(cells[0], seed=s)), geometries, tables[s], slice_spec) for s in seeds]
    artifacts = []
    for config in cells:
        reports = tuple(by_geometry[geometries.index((config.m, config.k))] for by_geometry in per_seed)
        artifacts.append(RunArtifact(config, seeds, reports, aggregate_reports(reports)))
    return artifacts


def run_experiment(config: ExperimentConfig, seeds: Sequence[int], slice_spec: SliceSpec | None = None) -> RunArtifact:
    """Run one configuration once per seed and average the slice metrics."""
    _check_seeds(seeds)
    return _run_cells([config], {seed: DigestTable(seed) for seed in seeds}, slice_spec)[0]


def ratio_to_width(ratio: float, n: int) -> int:
    """Clock width from a ratio of n, rounded half-up with a floor of 1."""
    if not (math.isfinite(ratio) and ratio > 0):
        raise ConfigurationError(f"width ratio must be a positive finite number, got {ratio}")
    if not math.isfinite(ratio * n):
        raise ConfigurationError(f"width ratio {ratio} times n={n} overflows")
    return max(1, int(math.floor(ratio * n + 0.5)))


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over (n, pr_i, m, k); widths may be absolute, ratios of n, or both."""

    topology: str = "complete"
    n_values: tuple[int, ...] = ()
    m_values: tuple[int, ...] = ()
    m_ratios: tuple[float, ...] = ()
    k_values: tuple[int, ...] = (2,)
    pr_i_values: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (1, 2, 3)
    gsn_limit: int | None = None
    messages_per_client: int | None = None
    slice_spec: SliceSpec | None = None

    def widths(self, n: int) -> list[int]:
        widths = list(self.m_values) + [ratio_to_width(r, n) for r in self.m_ratios]
        if not widths:
            raise ConfigurationError("sweep needs m values or m ratios")
        return sorted(set(widths))

    def expand(self) -> list[ExperimentConfig]:
        _check_seeds(self.seeds)
        if not self.n_values:
            raise ConfigurationError("sweep needs at least one n value")
        if not self.k_values or not self.pr_i_values:
            raise ConfigurationError("sweep needs at least one k and one pr_i value")
        configs = []
        for n, pr_i in product(self.n_values, self.pr_i_values):
            for m, k in product(self.widths(n), self.k_values):
                configs.append(
                    ExperimentConfig(
                        topology=self.topology,
                        n=n,
                        m=m,
                        k=k,
                        pr_i=pr_i,
                        seed=self.seeds[0],
                        gsn_limit=self.gsn_limit,
                        messages_per_client=self.messages_per_client,
                    )
                )
        return configs


def run_sweep(spec: SweepSpec) -> list[RunArtifact]:
    """One independent artifact per sweep cell, in expansion order.

    The cells of one (n, pr_i) come one after another and differ only in m
    and k, so they are one ``_run_cells`` group.  Each seed stamps through
    one ``DigestTable`` for the whole call, so each (seed, pid, x) is hashed once.
    """
    configs = spec.expand()
    tables = {seed: DigestTable(seed) for seed in spec.seeds}
    groups = groupby(configs, lambda config: (config.n, config.pr_i))
    return [artifact for _, cells in groups for artifact in _run_cells(list(cells), tables, spec.slice_spec)]


_CELL_FIELDS = ("topology", "n", "m", "k", "pr_i")


def average_over(
    artifacts: Sequence[RunArtifact], averaged: Sequence[str]
) -> list[tuple[dict, AggregateMetrics]]:
    """Group cells by the parameters not being averaged and mean their aggregates.

    Supports presentations like metrics per pr_i averaged over the m and k
    grid: ``average_over(artifacts, ("m", "k"))``.
    """
    unknown = set(averaged) - set(_CELL_FIELDS)
    if unknown:
        raise ConfigurationError(f"cannot average over unknown fields {sorted(unknown)}")
    key_fields = [f for f in _CELL_FIELDS if f not in averaged]
    groups: dict[tuple, list[RunArtifact]] = {}
    for artifact in artifacts:
        key = tuple(getattr(artifact.config, f) for f in key_fields)
        groups.setdefault(key, []).append(artifact)
    return [
        (dict(zip(key_fields, key)), aggregate_reports([a.aggregate for a in members]))
        for key, members in groups.items()
    ]


def _artifact_dict(artifact: RunArtifact) -> dict:
    return {
        "config": asdict(artifact.config),
        "seeds": list(artifact.seeds),
        "per_seed": [
            {"seed": seed, **asdict(report)}
            for seed, report in zip(artifact.seeds, artifact.reports)
        ],
        "aggregate": asdict(artifact.aggregate),
    }


def write_artifacts_json(artifacts: Sequence[RunArtifact], path: str | Path) -> None:
    """Full artifacts with raw (unrounded) values."""
    payload = {"cells": [_artifact_dict(a) for a in artifacts]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def table_row(key: dict, aggregate: AggregateMetrics) -> dict:
    """A table row: the key fields, then the metrics rounded to three decimals."""
    return {**key, **{field: round(getattr(aggregate, field), 3) for field in METRIC_FIELDS}}


def sweep_table(artifacts: Sequence[RunArtifact]) -> list[dict]:
    """One row per cell: its parameters, its seed count and its 3-decimal metrics."""
    rows = []
    for artifact in artifacts:
        key = {field: getattr(artifact.config, field) for field in _CELL_FIELDS}
        rows.append(table_row({**key, "seeds": len(artifact.seeds)}, artifact.aggregate))
    return rows


def write_sweep_csv(artifacts: Sequence[RunArtifact], path: str | Path) -> None:
    write_csv(sweep_table(artifacts), path)


def write_csv(rows: Sequence[dict], path: str | Path) -> None:
    """Rows of one table as CSV, with the first row's keys as the header."""
    if not rows:
        raise ConfigurationError("no rows to write")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


_pack_floats = struct.Struct("<3d").pack


def write_curve_csv(rows: Iterable[CurveRow], path: str | Path) -> None:
    """Curve CSV with header z_gsn,pr_p,pr_fp_step,pr_fp_smooth,outcome."""
    with open(path, "w", newline="") as handle:
        handle.writelines(curve_lines(rows, "\r\n"))


def curve_lines(rows: Iterable[CurveRow], ending: str) -> Iterator[str]:
    """The curve CSV's header and rows, comma-joined, each line ending in ``ending``.

    Floats are written with ``repr`` so the file round-trips losslessly.
    No field needs CSV quoting, as each is an integer, a float ``repr`` or
    one of ``CURVE_OUTCOMES``; any other outcome is refused.  A curve has
    few distinct (pr_p, pr_fp_step, pr_fp_smooth, outcome) tails, so each
    tail is joined once and reused after the row's z_gsn.  The tails are
    keyed by the floats' bit patterns, which tell -0.0 from 0.0 and let a
    NaN match itself.
    """
    yield ",".join(CURVE_HEADER) + ending
    tails: dict[tuple[bytes, str], str] = {}
    for row in rows:
        key = (_pack_floats(row.pr_p, row.pr_fp_step, row.pr_fp_smooth), row.outcome)
        tail = tails.get(key)
        if tail is None:
            if row.outcome not in CURVE_OUTCOMES:
                raise ValueError(f"outcome {row.outcome!r} is not one of {CURVE_OUTCOMES}")
            fields = (repr(row.pr_p), repr(row.pr_fp_step), repr(row.pr_fp_smooth), row.outcome)
            tail = tails[key] = ",".join(fields) + ending
        yield f"{row.z_gsn},{tail}"
