"""Sample thresholds (paper §7.2).

Inequality 2: accept a DC on the sample J iff

    (1 − p̂) ≥ z_{1−2α} · sqrt(p̂(1−p̂)/n) + (1 − ε),    n = |V_J|(|V_J|−1)

which guarantees ``1 − f1(D,S_φ) ≤ ε`` on the full database with
probability ≥ 1−α. Equivalently this is the approximation function
``f1' = (1−p̂) − z_{1−2α}·sqrt(p̂(1−p̂)/n)`` with the original ε —
implemented as :class:`F1Prime` so ADCEnum can consume it unchanged.
"""
from __future__ import annotations

from typing import Iterable

from ..core.evidence import EvidenceSet
from ..core.functions import ApproximationFunction, _TOL, one_minus_f1, weight_threshold
from .estimator import normal_ci_halfwidth


def sample_epsilon(eps: float, phat: float, n_pairs: int, alpha: float) -> float:
    """The per-DC sample threshold ``ε_J^φ = ε − z·sqrt(p̂(1−p̂)/n)``.

    Accepting φ on the sample iff ``p̂ ≤ ε_J^φ`` is exactly Inequality 2.
    """
    return eps - normal_ci_halfwidth(phat, n_pairs, alpha)


def accept_on_sample(eps: float, phat: float, n_pairs: int, alpha: float) -> bool:
    """Inequality 2 as an acceptance test."""
    return phat <= sample_epsilon(eps, phat, n_pairs, alpha) + _TOL


class F1Prime(ApproximationFunction):
    """The corrected approximation function f1' of §7.2.

    Monotone in the uncovered weight (score decreases as p̂ grows for
    p̂ ≤ ½ + CI-term, which holds in the ε ≪ 1 regime of DC mining), and
    indifferent to redundancy since it depends only on the violating pairs.
    """

    name = "f1'"

    def __init__(self, alpha: float = 0.05):
        self.alpha = alpha

    def score(self, ev: EvidenceSet, uncovered: Iterable[int]) -> float:
        phat = one_minus_f1(ev, uncovered)
        hw = normal_ci_halfwidth(phat, ev.total_pairs, self.alpha)
        return max(0.0, (1.0 - phat) - hw)

    def passes(self, ev: EvidenceSet, uncovered: Iterable[int], eps: float) -> bool:
        phat = one_minus_f1(ev, uncovered)
        return accept_on_sample(eps, phat, ev.total_pairs, self.alpha)

    def max_passing_weight(self, ev: EvidenceSet, eps: float) -> int | None:
        """A pass needs ``p̂ + CI-term ≤ ε + tol``, so ``p̂ ≤ ε + tol``; below
        ½ the left side grows with p̂, so the passing weights are a prefix
        when ``ε + tol < ½``. Otherwise ``None``."""
        if eps + _TOL >= 0.5:
            return None
        return weight_threshold(self.passes, ev, eps)
