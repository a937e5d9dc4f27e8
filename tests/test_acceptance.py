"""Acceptance suite: exact invariants plus tolerance-banded checks of the
experiment metrics against their target values, averaged over fixed seeds.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  The expensive n=200 sweep and the trend curves are session-scoped
fixtures shared across criteria.
"""

from __future__ import annotations

import random

import mpmath as mp

from bloomclock import (
    BloomClock,
    ExperimentConfig,
    HashFamily,
    average_over,
    confusion_counts,
    poisson_cdf_via_gamma,
    replay_timestamps,
    run,
    sample_slice,
)

mp.mp.dps = 50

TOLERANCE_TABLE = 0.08
# Moving-average dips up to ~0.005 come from per-process clock-sum scatter
# (different merge recency across processes); the trend gate must sit above
# that floor while still rejecting any real regression of the curve.
MA_WINDOW = 200
MA_TOLERANCE = 0.01
FLATTEN_GSN = 4000


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number:2d}: {name}{suffix}")
    assert ok, f"criterion {number}: {name} {suffix}"


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


# ---------------------------------------------------------------------------


def test_c01_no_false_negatives_all_topologies():
    failures = []
    for topology in ("complete", "star", "broadcast"):
        for n in (20, 50, 100):
            pr_i = 0.3 if topology == "complete" else 0.0
            for seed in (1, 2):
                log = run(ExperimentConfig(topology, n=n, m=max(2, n // 10), k=2, pr_i=pr_i, seed=seed))
                events = log.events if n == 20 else sample_slice(log)
                counts = confusion_counts(events)
                if counts.fn != 0:
                    failures.append((topology, n, seed, counts.fn))
    _criterion(1, "no false negatives over all tested pairs", not failures, str(failures or "fn=0 everywhere"))


def test_c02_recall_is_one_when_positives_exist(complete50, complete100, star50_m3, broadcast100_m5):
    reports = (
        complete50.reports + complete100.reports + star50_m3.reports + broadcast100_m5.reports
    )
    checked = [r for r in reports if r.counts.tp + r.counts.fn > 0]
    ok = bool(checked) and all(r.recall == 1.0 for r in checked)
    _criterion(2, "recall == 1 whenever positives exist", ok, f"{len(checked)} reports")


def test_c03_table5_bloom_vs_scalar_at_n50(complete50, scalar50):
    bloom, scalar = complete50.aggregate, scalar50.aggregate
    bands = (
        _within(bloom.precision, 0.492, TOLERANCE_TABLE)
        and _within(bloom.accuracy, 0.788, TOLERANCE_TABLE)
        and _within(bloom.fpr, 0.266, TOLERANCE_TABLE)
        and _within(scalar.precision, 0.434, TOLERANCE_TABLE)
        and _within(scalar.accuracy, 0.713, TOLERANCE_TABLE)
        and _within(scalar.fpr, 0.368, TOLERANCE_TABLE)
    )
    beats = (
        bloom.precision > scalar.precision
        and bloom.accuracy > scalar.accuracy
        and bloom.fpr < scalar.fpr
    )
    detail = (
        f"bloom {bloom.precision:.3f}/{bloom.accuracy:.3f}/{bloom.fpr:.3f} "
        f"scalar {scalar.precision:.3f}/{scalar.accuracy:.3f}/{scalar.fpr:.3f}"
    )
    _criterion(3, "n=50 bloom and scalar rows within bands, bloom wins", bands and beats, detail)


def test_c04_metrics_improve_with_process_count(complete50, complete100, grid200):
    by_cell = {(a.config.pr_i, a.config.m, a.config.k): a for a in grid200}
    n200 = by_cell[(0.0, 20, 2)].aggregate
    n50, n100 = complete50.aggregate, complete100.aggregate
    monotone = (
        n50.precision < n100.precision < n200.precision
        and n50.accuracy < n100.accuracy < n200.accuracy
        and n50.fpr > n100.fpr > n200.fpr
    )
    points = (
        _within(n100.precision, 0.644, TOLERANCE_TABLE)
        and _within(n100.accuracy, 0.852, TOLERANCE_TABLE)
        and _within(n100.fpr, 0.203, TOLERANCE_TABLE)
        and _within(n200.precision, 0.781, TOLERANCE_TABLE)
        and _within(n200.accuracy, 0.905, TOLERANCE_TABLE)
        and _within(n200.fpr, 0.145, TOLERANCE_TABLE)
    )
    detail = f"prec {n50.precision:.3f} < {n100.precision:.3f} < {n200.precision:.3f}"
    _criterion(4, "precision/accuracy rise and fpr falls across n=50,100,200", monotone and points, detail)


def test_c05_internal_event_probability_degrades_precision(grid200):
    rows = {key["pr_i"]: agg for key, agg in average_over(grid200, ("m", "k"))}
    ok = (
        rows[0.0].precision > rows[0.90].precision > rows[0.95].precision
        and rows[1.0].precision < 0.2
    )
    detail = " > ".join(f"{rows[p].precision:.3f}" for p in (0.0, 0.90, 0.95)) + f"; pr_i=1: {rows[1.0].precision:.3f}"
    _criterion(5, "precision ordering over pr_i and pr_i=1 below 0.2", ok, detail)


def test_c06_hash_count_insensitivity(grid200):
    zero = [a for a in grid200 if a.config.pr_i == 0.0]
    by_k = [agg for _, agg in sorted(average_over(zero, ("m",)), key=lambda r: r[0]["k"])]
    spreads = {
        field: max(getattr(a, field) for a in by_k) - min(getattr(a, field) for a in by_k)
        for field in ("precision", "accuracy", "fpr")
    }
    ok = all(s <= 0.02 for s in spreads.values())
    _criterion(6, "k in {2,3,4} moves metrics by at most 0.02", ok,
               " ".join(f"{f}={s:.4f}" for f, s in spreads.items()))


def test_c07_wider_clocks_weakly_dominate(grid200):
    zero = [a for a in grid200 if a.config.pr_i == 0.0]
    by_m = {key["m"]: agg for key, agg in average_over(zero, ("k",))}
    narrow, wide = by_m[20], by_m[60]
    dominates = (
        wide.precision >= narrow.precision
        and wide.accuracy >= narrow.accuracy
        and wide.fpr <= narrow.fpr
    )
    bounded = (
        wide.precision - narrow.precision <= TOLERANCE_TABLE
        and wide.accuracy - narrow.accuracy <= TOLERANCE_TABLE
        and narrow.fpr - wide.fpr <= TOLERANCE_TABLE
    )
    detail = f"prec +{wide.precision - narrow.precision:.3f} acc +{wide.accuracy - narrow.accuracy:.3f} fpr -{narrow.fpr - wide.fpr:.3f}"
    _criterion(7, "m=0.3n dominates m=0.1n by at most 0.08", dominates and bounded, detail)


def test_c08_client_server_results(star50_m3, star100_m5):
    small, large = star50_m3.aggregate, star100_m5.aggregate
    ok = (
        small.precision >= 0.98
        and small.fpr <= 0.02
        and _within(large.precision, 0.996, 0.01)
        and _within(large.fpr, 0.004, 0.01)
    )
    detail = f"n=50,m=3: {small.precision:.3f}/{small.fpr:.3f}; n=100,m=5: {large.precision:.3f}/{large.fpr:.3f}"
    _criterion(8, "star precision/fpr at both table rows", ok, detail)


def test_c09_causality_spread_hypothesis(
    broadcast100_m5, broadcast100_m10, complete100_pri95, complete100, star100_m10
):
    spread = broadcast100_m5.aggregate
    points = sorted(
        (a.aggregate for a in (broadcast100_m10, complete100_pri95, complete100, star100_m10)),
        key=lambda agg: agg.alpha,
    )
    monotone = all(points[i].precision <= points[i + 1].precision for i in range(len(points) - 1))
    ok = _within(spread.alpha, 0.005, 0.003) and spread.precision <= 0.05 and monotone
    detail = (
        f"alpha={spread.alpha:.4f} prec={spread.precision:.3f}; "
        + " -> ".join(f"({p.alpha:.3f},{p.precision:.3f})" for p in points)
    )
    _criterion(9, "broadcast spread and precision monotone in alpha", ok, detail)


def test_c10_positive_probability_trend(trend_curves):
    # Both clauses hold of the smoothed curve: individual events at processes
    # with stale clocks scatter below the trend line at every gsn, so the
    # per-row signal never flattens exactly.
    ok = True
    details = []
    for rows in trend_curves:
        values = [r.pr_p for r in rows]
        ma = [sum(values[i:i + MA_WINDOW]) / MA_WINDOW for i in range(len(values) - MA_WINDOW + 1)]
        worst = min(ma[i] - ma[i - 1] for i in range(1, len(ma)))
        rises = ma[0] < 0.2 and ma[-1] > 0.9
        tail = [
            ma[i] for i in range(len(ma))
            if rows[i + MA_WINDOW - 1].z_gsn >= FLATTEN_GSN
        ]
        ok = ok and worst >= -MA_TOLERANCE and rises and min(tail) >= 0.95
        details.append(f"dip={worst:+.4f} tail_min={min(tail):.3f}")
    _criterion(10, "pr_p trend non-decreasing and flattening near 1", ok, "; ".join(details))


def _fp_thirds(rows, z_lo: int, z_hi: int) -> tuple[float, float, float]:
    """Shares of the FP rows in [z_lo, z_hi] falling in its first, middle and last third."""
    third = (z_hi - z_lo) / 3
    counts = [0, 0, 0]
    for r in rows:
        if r.outcome == "FP" and z_lo <= r.z_gsn <= z_hi:
            counts[min(2, int((r.z_gsn - z_lo) // third))] += 1
    total = sum(counts)
    early, middle, late = (c / total for c in counts)
    return early, middle, late


def test_c11_false_positive_placement(trend_curves):
    pooled = [r for rows in trend_curves for r in rows if r.z_gsn <= 4500]
    assert len(pooled) == len(trend_curves) * 3500
    step_gated = all(r.pr_fp_step == 0.0 for r in pooled if r.outcome == "TN")
    smooth_capped = all(r.pr_fp_smooth <= 0.25 for r in pooled)
    early, middle, late = _fp_thirds(pooled, 1001, 4500)
    # The share a fixed third captures depends on m, on the seed's y and on
    # message delay, so the clause tests where the FP band peaks.
    ok = step_gated and smooth_capped and middle > early and middle > late
    detail = (
        f"step_gated={step_gated} smooth_capped={smooth_capped} "
        f"thirds={early:.2f}/{middle:.2f}/{late:.2f}"
    )
    _criterion(11, "fp rows gated, capped, and concentrated mid-slice", ok, detail)


def _binomial_cdf_below(threshold: int, trials: int, width: int) -> float:
    p = mp.mpf(1) / width
    return float(sum(mp.binomial(trials, h) * p**h * (1 - p) ** (trials - h) for h in range(threshold)))


def test_c12_numerical_oracles():
    worst_poisson = 0.0
    for width in (20, 50, 100):
        for ratio in (5, 10, 20, 50):
            trials = width * ratio
            top = 4 * ratio
            for threshold in range(1, top + 1, max(1, top // 12)):
                diff = abs(
                    _binomial_cdf_below(threshold, trials, width)
                    - poisson_cdf_via_gamma(threshold, trials / width)
                )
                worst_poisson = max(worst_poisson, diff)
    rng = random.Random(2024)
    worst_gamma = 0.0
    for _ in range(100):
        threshold = rng.randint(1, 400)
        mean = rng.uniform(0.0, 4.0 * threshold)
        lam = mp.mpf(mean)
        oracle = float(mp.e ** (-lam) * sum(lam**j / mp.factorial(j) for j in range(threshold)))
        worst_gamma = max(worst_gamma, abs(poisson_cdf_via_gamma(threshold, mean) - oracle))
    ok = worst_poisson < 0.01 and worst_gamma < 1e-8
    _criterion(12, "poisson/gamma path within 0.01 of exact, gamma within 1e-8 of series",
               ok, f"poisson={worst_poisson:.4f} gamma={worst_gamma:.2e}")


def test_c13_protocol_replay_and_lattice_laws():
    for topology, n in (("complete", 40), ("star", 20), ("broadcast", 30)):
        for seed in (1, 2):
            log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=seed))
            # Stamped events give replay recorded rows to check, not only linkage columns.
            log.events
            replay_timestamps(log)

    rng = random.Random(99)
    family = HashFamily(k=2, m=6, seed=55)
    ok = True
    for _ in range(10_000):
        a = BloomClock(tuple(rng.randrange(30) for _ in range(6)))
        b = BloomClock(tuple(rng.randrange(30) for _ in range(6)))
        c = BloomClock(tuple(rng.randrange(30) for _ in range(6)))
        joined = a.merge(b)
        ok = ok and joined == b.merge(a) and a.merge(a) == a
        ok = ok and a.merge(b).merge(c) == a.merge(b.merge(c))
        ok = ok and a.leq(joined) and b.leq(joined)
        ticked = a.tick(family, rng.randrange(50), rng.randrange(1, 10**6))
        ok = ok and ticked.total == a.total + 2 and a.leq(ticked)
        if not ok:
            break
    _criterion(13, "replay reproduces timestamps; lattice and tick laws hold", ok)
