"""Probability estimators for the Bloom-clock causality test.

Given two Bloom timestamps ``B_y`` and ``B_z``, the chance that ``B_z``
dominates ``B_y`` under a uniform-hashing model is

    pr_p = prod_i ( 1 - P[fewer than B_y[i] of the B_z_sum applications hit cell i] )

where each cell's hit count is Binomial(B_z_sum, 1/m).  The inner tail is
summed exactly for small trial counts and through the Poisson limit (whose
CDF is a regularized incomplete gamma function) for large ones, except at
width 1, where a cell's hit count is the trial count and the tail is
summed exactly at every trial count.

Two readings of the false-positive probability are produced: the
*step* variant gates on the exact 0/1 outcome of the dominance test, the
*smooth* variant reuses ``pr_p`` for both factors and is capped at 0.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .clocks import BloomClock
from .errors import ConfigurationError, NumericError

# Above this many trials the exact binomial tail sum gives way to the
# Poisson/gamma evaluation at widths of 2 and more; below it both paths
# stay testable against each other.  Width 1 stays exact.
EXACT_CUTOFF = 1024

_MAX_ITER = 10_000
_REL_TOL = 1e-10
_CLAMP_SLACK = 1e-12


def _as_probability(value: float) -> float:
    if value < -_CLAMP_SLACK or value > 1.0 + _CLAMP_SLACK:
        raise NumericError(f"probability {value!r} outside [0, 1] beyond numerical slack")
    return min(1.0, max(0.0, value))


def binom_pmf(hits: int, trials: int, width: int) -> float:
    """P[X = hits] for X ~ Binomial(trials, 1/width), evaluated in log space."""
    if width < 1:
        raise ConfigurationError(f"width must be at least 1, got {width}")
    if hits < 0 or hits > trials:
        raise ValueError(f"hits must lie in [0, trials]; got hits={hits}, trials={trials}")
    if trials == 0:
        return 1.0
    if width == 1:
        return 1.0 if hits == trials else 0.0
    log_choose = (
        math.lgamma(trials + 1) - math.lgamma(hits + 1) - math.lgamma(trials - hits + 1)
    )
    log_hit = -math.log(width)
    log_miss = math.log1p(-1.0 / width)
    return _as_probability(math.exp(log_choose + hits * log_hit + (trials - hits) * log_miss))


def count_threshold_cdf(threshold: int, trials: int, width: int) -> float:
    """P[X < threshold] for X ~ Binomial(trials, 1/width).

    This is the per-cell failure probability of the dominance test: the
    chance that a cell received fewer increments than its count threshold.
    An empty sum (threshold = 0) is 0; a threshold beyond the trial count
    covers the whole support and is 1.
    """
    if width < 1:
        raise ConfigurationError(f"width must be at least 1, got {width}")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    return _threshold_cdfs((threshold,), trials, width)[threshold]


def _threshold_cdfs(thresholds: Iterable[int], trials: int, width: int) -> dict[int, float]:
    """``count_threshold_cdf`` of every distinct threshold in ``thresholds``, keyed by threshold.

    On the exact path the binomial terms of ``trials`` are computed once and
    added left to right in one running sum; each threshold's tail is the
    prefix of that sum below it.  The explicit loop, not the built-in
    ``sum``, fixes the rounding: from CPython 3.12 on ``sum`` of floats
    compensates its rounding errors, which would make the tails, and the
    curve files printed from them, depend on the interpreter.
    """
    cdfs: dict[int, float] = {}
    exact = []
    for threshold in set(thresholds):
        if threshold == 0:
            cdfs[threshold] = 0.0
        elif threshold > trials:
            cdfs[threshold] = 1.0
        elif trials > EXACT_CUTOFF and width > 1:
            cdfs[threshold] = poisson_cdf_via_gamma(threshold, trials / width)
        else:
            exact.append(threshold)
    total = 0.0
    hits = 0
    for threshold in sorted(exact):
        while hits < threshold:
            total += binom_pmf(hits, trials, width)
            hits += 1
        cdfs[threshold] = _as_probability(total)
    return cdfs


def poisson_cdf_via_gamma(threshold: int, mean: float) -> float:
    """P[X <= threshold - 1] for X ~ Poisson(mean), as the regularized upper gamma Q(threshold, mean)."""
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    if mean < 0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    return regularized_gamma_q(float(threshold), mean)


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x) / Gamma(a).

    Series expansion of the lower function for ``x < a + 1``, Lentz-style
    continued fraction of the upper function otherwise; both iterate to
    relative tolerance 1e-10.
    """
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return _as_probability(1.0 - _gamma_p_series(a, x))
    return _as_probability(_gamma_q_continued_fraction(a, x))


def _log_prefactor(a: float, x: float) -> float:
    return a * math.log(x) - x - math.lgamma(a)


def _gamma_p_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _REL_TOL:
            return math.exp(_log_prefactor(a, x)) * total
    raise NumericError(f"gamma series did not converge for a={a}, x={x}")


def _gamma_q_continued_fraction(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return math.exp(_log_prefactor(a, x)) * h
    raise NumericError(f"gamma continued fraction did not converge for a={a}, x={x}")


def pr_positive_by_sum(by: BloomClock, trials: Sequence[int]) -> list[float]:
    """``pr_positive`` of ``by`` against one z per entry of ``trials``, z's Bloom sum.

    ``pr_p`` depends on z only through its sum, so each distinct sum is
    evaluated once.
    """
    by_sum = {total: _pr_positive_at_sum(by.counters, total) for total in dict.fromkeys(trials)}
    return [by_sum[total] for total in trials]


def _pr_positive_at_sum(thresholds: tuple[int, ...], trials: int) -> float:
    """``pr_p`` for reference counters ``thresholds`` against a z whose Bloom sum is ``trials``.

    Every distinct threshold's tail comes from one ``_threshold_cdfs`` pass
    over the binomial terms of ``trials``.  The factors are accumulated in
    log space, in counter order, so that widths in the hundreds cannot
    underflow the running product.
    """
    cdfs = _threshold_cdfs(thresholds, trials, len(thresholds))
    log_product = 0.0
    for threshold in thresholds:
        factor = 1.0 - cdfs[threshold]
        if factor <= 0.0:
            return 0.0
        log_product += math.log(factor)
    return _as_probability(math.exp(log_product))


def pr_positive(by: BloomClock, bz: BloomClock) -> float:
    """Probability that every cell of ``bz`` was incremented at least ``by[i]`` times."""
    if by.width != bz.width:
        raise ConfigurationError(f"clock width mismatch: {by.width} vs {bz.width}")
    return pr_positive_by_sum(by, (bz.total,))[0]


def false_positive_probabilities(p: float, delta: int) -> tuple[float, float]:
    """The step and smooth false-positive probabilities for ``pr_p = p`` and dominance bit ``delta``."""
    return (1.0 - p) * delta, (1.0 - p) * p


@dataclass(frozen=True)
class ProbabilityReport:
    """Both readings of the false-positive probability for one ordered pair (y, z)."""

    pr_p: float
    pr_delta_p: int
    pr_fp_step: float
    pr_fp_smooth: float


def classify_probabilities(by: BloomClock, bz: BloomClock) -> ProbabilityReport:
    """Evaluate ``pr_p`` and derive the step- and smooth-variant false-positive probabilities."""
    p = pr_positive(by, bz)
    delta = int(by.leq(bz))
    return ProbabilityReport(p, delta, *false_positive_probabilities(p, delta))
