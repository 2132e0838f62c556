"""Violation-rate estimation from a sample (paper §7.1).

For a DC φ and a uniform tuple sample J of D, the violating-pair rate
``p = 1 − f1(D, S_φ)`` is estimated by the sample rate
``p̂ = |E_J| / (|V_J|(|V_J|−1))`` — an unbiased estimator (the paper's
``2·C(|V_J|,2)`` denominator, ordered pairs). Two error bounds are
implemented: the assumption-free Chebyshev bound and the normal-CI bound
under the random-polluter (independent edges) model.

The inverse normal CDF is the standard library's ``NormalDist.inv_cdf``.
"""
from __future__ import annotations

import math
from statistics import NormalDist


def p_hat(n_violations: int, n_sample_tuples: int) -> float:
    """Sample estimate of the violating ordered-pair rate."""
    pairs = n_sample_tuples * (n_sample_tuples - 1)
    if pairs <= 0:
        return 0.0
    return n_violations / pairs


def chebyshev_bound(p: float, n_sample_tuples: int, a: float) -> float:
    """Upper bound on ``Pr(|p̂ − p| > a)`` from §7.1 (no independence
    assumptions): ``(p/a²)·[(C + C(C,2)) / C² − p]`` with ``C = C(|V_J|,2)``.
    """
    if a <= 0:
        return 1.0
    c = n_sample_tuples * (n_sample_tuples - 1) / 2
    if c <= 0:
        return 1.0
    var_bound = p * ((c + c * (c - 1) / 2) / (c * c) - p)
    return min(1.0, max(0.0, var_bound / (a * a)))


def inv_norm_cdf(q: float) -> float:
    """Standard normal quantile Φ⁻¹(q); a ``ValueError`` outside (0, 1)."""
    return NormalDist().inv_cdf(q)


def z_value(alpha: float) -> float:
    """``z_{1−2α}`` of the paper: the two-sided normal quantile for
    confidence level 1−2α, i.e. Φ⁻¹(1−α)."""
    return inv_norm_cdf(1.0 - alpha)


def normal_ci_halfwidth(phat: float, n_pairs: int, alpha: float) -> float:
    """Half-width ``z_{1−2α}·sqrt(p̂(1−p̂)/n)`` of Inequality 1."""
    if n_pairs <= 0:
        return 0.0
    return z_value(alpha) * math.sqrt(max(0.0, phat * (1.0 - phat)) / n_pairs)
