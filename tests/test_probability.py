"""Probability estimators against brute-force and high-precision oracles."""

from __future__ import annotations

import itertools
import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloomclock import (
    EXACT_CUTOFF,
    BloomClock,
    ConfigurationError,
    binom_pmf,
    classify_probabilities,
    count_threshold_cdf,
    poisson_cdf_via_gamma,
    pr_positive,
    regularized_gamma_q,
)
from bloomclock.probability import pr_positive_by_sum

mp.mp.dps = 50


def enumerate_cdf_below(threshold: int, trials: int, width: int) -> float:
    """P[cell 0 gets < threshold hits] by enumerating all width**trials assignments."""
    favorable = 0
    for outcome in itertools.product(range(width), repeat=trials):
        if outcome.count(0) < threshold:
            favorable += 1
    return favorable / width**trials


def poisson_tail_oracle(threshold: int, mean: float) -> float:
    """P[X <= threshold-1] for Poisson(mean) summed directly at 50 digits."""
    lam = mp.mpf(mean)
    return float(mp.e ** (-lam) * sum(lam**j / mp.factorial(j) for j in range(threshold)))


# ---------------------------------------------------------------------------
# binomial pmf


def test_pmf_empty_trials():
    assert binom_pmf(0, 0, 8) == 1.0


def test_pmf_all_misses():
    assert binom_pmf(0, 3, 2) == pytest.approx(0.125, abs=1e-14)


def test_pmf_normalizes():
    assert math.fsum(binom_pmf(h, 20, 5) for h in range(21)) == pytest.approx(1.0, abs=1e-12)


def test_pmf_rejects_hits_beyond_trials():
    with pytest.raises(ValueError):
        binom_pmf(4, 3, 2)
    with pytest.raises(ValueError):
        binom_pmf(-1, 3, 2)


def test_pmf_degenerate_width():
    assert binom_pmf(5, 5, 1) == 1.0
    assert binom_pmf(4, 5, 1) == 0.0


# ---------------------------------------------------------------------------
# count-threshold tail


def test_cdf_empty_sum_is_zero():
    assert count_threshold_cdf(0, 17, 4) == 0.0
    assert count_threshold_cdf(0, 0, 4) == 0.0


def test_cdf_full_support_is_one():
    assert count_threshold_cdf(8, 7, 4) == pytest.approx(1.0, abs=1e-12)


def test_cdf_matches_enumeration():
    for threshold, trials, width in [(2, 3, 2), (1, 4, 3), (3, 6, 3), (2, 5, 2)]:
        assert count_threshold_cdf(threshold, trials, width) == pytest.approx(
            enumerate_cdf_below(threshold, trials, width), abs=1e-12
        )


def test_cdf_switches_to_poisson_above_cutoff():
    exact = sum(binom_pmf(h, 2000, 64) for h in range(30))
    approximated = count_threshold_cdf(30, 2000, 64)
    assert approximated == poisson_cdf_via_gamma(30, 2000 / 64)
    assert abs(approximated - exact) < 0.01


def test_cdf_is_exact_at_width_one_above_cutoff():
    # One cell gets every hit, so fewer hits than the trial count is impossible.
    assert count_threshold_cdf(2000, 2000, 1) == 0.0
    assert count_threshold_cdf(2001, 2000, 1) == 1.0
    assert pr_positive(BloomClock((2000,)), BloomClock((2000,))) == 1.0


def test_cdf_rejects_negative_arguments():
    with pytest.raises(ValueError):
        count_threshold_cdf(-1, 5, 4)
    with pytest.raises(ValueError):
        count_threshold_cdf(1, -5, 4)


@pytest.mark.parametrize("width", [0, -3])
@pytest.mark.parametrize(
    "threshold,trials", [(5, 20), (5, 2000), (0, 2000), (3000, 2000)], ids=["exact", "gamma", "empty", "whole"]
)
def test_cdf_refuses_a_width_below_one_on_every_path(threshold, trials, width):
    # The width is checked before the early returns of an empty or whole support and before either path reads it.
    with pytest.raises(ConfigurationError, match=f"^width must be at least 1, got {width}$"):
        count_threshold_cdf(threshold, trials, width)


# ---------------------------------------------------------------------------
# Poisson tail via the regularized gamma function


def test_poisson_zero_mean():
    assert poisson_cdf_via_gamma(1, 0.0) == 1.0


def test_poisson_unit_mean():
    assert poisson_cdf_via_gamma(1, 1.0) == pytest.approx(math.exp(-1), abs=1e-10)


def test_poisson_matches_direct_summation():
    for threshold, mean in [(3, 0.5), (5, 5.0), (40, 35.0), (200, 180.0), (10, 40.0)]:
        assert poisson_cdf_via_gamma(threshold, mean) == pytest.approx(
            poisson_tail_oracle(threshold, mean), abs=1e-10
        )


def test_gamma_q_covers_both_branches():
    # x < a+1 goes through the series, x >= a+1 through the continued fraction.
    for a, x in [(10.0, 2.0), (10.0, 50.0), (3.5, 3.0), (3.5, 20.0)]:
        expected = float(mp.gammainc(mp.mpf(a), a=mp.mpf(x), regularized=True))
        assert regularized_gamma_q(a, x) == pytest.approx(expected, abs=1e-10)


def test_gamma_q_domain_errors():
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(2.0, -1.0)
    with pytest.raises(ValueError):
        poisson_cdf_via_gamma(0, 1.0)


# ---------------------------------------------------------------------------
# pr_p and the outcome reports


def test_pr_positive_all_zero_reference():
    assert pr_positive(BloomClock((0, 0, 0)), BloomClock((4, 9, 2))) == 1.0


def test_pr_positive_two_cell_example():
    # Each factor is 1 - P[X = 0] with X ~ Binomial(2, 1/2): (1 - 0.25)^2.
    by = BloomClock((1, 1))
    bz = BloomClock((2, 0))
    assert pr_positive(by, bz) == pytest.approx(0.5625, abs=1e-12)


def test_pr_positive_width_mismatch():
    with pytest.raises(ConfigurationError):
        pr_positive(BloomClock((1,)), BloomClock((1, 2)))


def test_pr_positive_monotone_in_reference_sum():
    rng = random.Random(5)
    for _ in range(1000):
        m = rng.randint(1, 8)
        by = BloomClock(tuple(rng.randrange(6) for _ in range(m)))
        low = tuple(rng.randrange(12) for _ in range(m))
        bump = list(low)
        bump[rng.randrange(m)] += rng.randint(1, 5)
        assert pr_positive(by, BloomClock(tuple(bump))) >= pr_positive(by, BloomClock(low)) - 1e-12


def test_pr_positive_decreases_as_threshold_grows():
    rng = random.Random(6)
    for _ in range(300):
        m = rng.randint(1, 8)
        base = [rng.randrange(5) for _ in range(m)]
        bz = BloomClock(tuple(rng.randrange(3, 15) for _ in range(m)))
        raised = list(base)
        raised[rng.randrange(m)] += 1
        assert pr_positive(BloomClock(tuple(raised)), bz) <= pr_positive(BloomClock(tuple(base)), bz) + 1e-12


small_clock = st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=3)


@given(small_clock, small_clock)
def test_report_invariants(a, b):
    by, bz = BloomClock(tuple(a)), BloomClock(tuple(b))
    rep = classify_probabilities(by, bz)
    p, delta = rep.pr_p, rep.pr_delta_p
    assert 0.0 <= p <= 1.0
    assert delta in (0, 1)
    assert rep.pr_fp_step == (1.0 - p) * delta
    assert rep.pr_fp_smooth == (1.0 - p) * p
    assert rep.pr_fp_smooth <= 0.25


def test_report_step_gating():
    # A dominance failure zeroes the step variant regardless of pr_p.
    rep = classify_probabilities(BloomClock((3, 0)), BloomClock((2, 9)))
    assert rep.pr_delta_p == 0
    assert rep.pr_fp_step == 0.0


def test_report_zero_reference():
    rep = classify_probabilities(BloomClock((0, 0)), BloomClock((4, 7)))
    assert rep.pr_p == 1.0
    assert rep.pr_fp_step == 0.0


def test_smooth_variant_peaks_at_one_quarter():
    # pr_p = 0.5 maximizes (1 - pr_p) * pr_p.
    by = BloomClock((1, 1))
    for total in range(2, 40):
        spread = BloomClock((total - total // 2, total // 2))
        assert classify_probabilities(by, spread).pr_fp_smooth <= 0.25


# ---------------------------------------------------------------------------
# batch evaluator against the per-pair evaluation it replaced


def _cdf_left_to_right(threshold, trials, width):
    """``count_threshold_cdf`` with its exact tail added one binomial term at a time: the reference."""
    if threshold == 0:
        return 0.0
    if threshold > trials:
        return 1.0
    if trials > EXACT_CUTOFF and width > 1:
        return poisson_cdf_via_gamma(threshold, trials / width)
    total = 0.0
    for hits in range(threshold):
        total += binom_pmf(hits, trials, width)
    return min(1.0, max(0.0, total))


def _pr_positive_per_pair(by, bz):
    """``pr_positive`` evaluated one pair and one counter at a time: the reference."""
    trials = bz.total
    width = by.width
    log_product = 0.0
    for threshold in by.counters:
        factor = 1.0 - _cdf_left_to_right(threshold, trials, width)
        if factor <= 0.0:
            return 0.0
        log_product += math.log(factor)
    return min(1.0, max(0.0, math.exp(log_product)))


def _assert_matches_per_pair(by, trials):
    # Exact, not approximate: curve.csv prints these floats with repr().
    expected = [_pr_positive_per_pair(by, BloomClock((t,) + (0,) * (by.width - 1))) for t in trials]
    got = pr_positive_by_sum(by, trials)
    assert [repr(p) for p in got] == [repr(p) for p in expected]
    assert all(type(p) is float for p in got)


def test_batch_evaluator_edge_cases():
    around_cutoff = [0, 1, 7, EXACT_CUTOFF - 1, EXACT_CUTOFF, EXACT_CUTOFF + 1, 4000, 7, EXACT_CUTOFF, 0]
    _assert_matches_per_pair(BloomClock((0, 0, 0)), around_cutoff)  # an all-zero y: every pr_p is 1
    assert pr_positive_by_sum(BloomClock((0, 0, 0)), around_cutoff) == [1.0] * len(around_cutoff)
    _assert_matches_per_pair(BloomClock((5, 0, 2, 5)), around_cutoff)  # a threshold beyond 0, 1 and 7 trials
    _assert_matches_per_pair(BloomClock((30, 1, 30, 2)), [30, 31, 30])  # a factor that rounds to 0 on the exact path
    assert 1.0 - count_threshold_cdf(30, 30, 4) == 0.0
    _assert_matches_per_pair(BloomClock((1, 3000)), [3000, 2999, 3001, 3000])  # and on the gamma path
    assert 1.0 - count_threshold_cdf(3000, 3000, 2) == 0.0
    assert pr_positive_by_sum(BloomClock((1, 2)), []) == []


@st.composite
def batch_cases(draw):
    width = draw(st.integers(min_value=1, max_value=8))
    # A pool as large as the clock still allows width distinct thresholds;
    # smaller pools repeat thresholds, whose tails share one pass.
    thresholds = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=width))
    counters = draw(st.lists(st.sampled_from(thresholds), min_size=width, max_size=width))
    sums = st.one_of(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=EXACT_CUTOFF - 40, max_value=EXACT_CUTOFF + 40),
        st.integers(min_value=EXACT_CUTOFF + 41, max_value=5000),
    )
    pool = draw(st.lists(sums, min_size=1, max_size=6))
    # Drawing from a small pool repeats sums, which the batch evaluates once.
    return BloomClock(tuple(counters)), draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(batch_cases())
def test_batch_evaluator_matches_per_pair_reference(case):
    _assert_matches_per_pair(*case)


@given(small_clock, small_clock)
def test_scalar_pr_positive_is_the_batch_of_one(a, b):
    by, bz = BloomClock(tuple(a)), BloomClock(tuple(b))
    assert repr(pr_positive(by, bz)) == repr(_pr_positive_per_pair(by, bz))


def test_cdf_pinned_values():
    # Recorded on CPython 3.11, whose sum() adds left to right; 3.12's
    # compensated sum() gives ...316 for the first.  curve.csv prints these.
    assert count_threshold_cdf(3, 38, 20) == 0.7044841940294315
    assert count_threshold_cdf(3, 3, 20) == 0.9998750000000002


cdf_trials = st.one_of(
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=EXACT_CUTOFF - 20, max_value=EXACT_CUTOFF + 20),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=90), cdf_trials, st.integers(min_value=1, max_value=30))
@example(0, 17, 4)  # the empty tail
@example(9, 8, 3)  # a threshold above the trial count
@example(3, EXACT_CUTOFF, 1)  # m = 1: every hit lands in the one cell
@example(1030, 1030, 1)  # and stays exact above the cutoff
@example(40, EXACT_CUTOFF, 20)
@example(40, EXACT_CUTOFF + 1, 20)
def test_cdf_matches_left_to_right_reference(threshold, trials, width):
    assert repr(count_threshold_cdf(threshold, trials, width)) == repr(
        _cdf_left_to_right(threshold, trials, width)
    )
