"""Valid approximation functions (paper §5).

An :class:`ApproximationFunction` scores the current hitting-set-side
predicate set ``S`` through the evidence sets *not hit* by ``S`` — exactly
the violating pairs of the DC ``S_φ = Ŝ``. All functions here satisfy the
paper's two axioms (monotonicity, indifference to redundancy); property
tests in ``tests/test_functions.py`` verify both.

- :class:`F1` — fraction of satisfied ordered tuple pairs (used by
  AFASTDC/BFASTDC/DCFinder).
- :class:`F2` — fraction of tuples not involved in any violation.
- :class:`F3Greedy` — the greedy stand-in for the NP-hard cardinality-repair
  function f3 (Figure 2): tuples sorted by violation degree are removed
  until the covered-violation counter reaches the total.

F1 and F1' (``repro.sampling.threshold``) read only the uncovered weight
and are monotone in it, so :meth:`ApproximationFunction.max_passing_weight`
turns their check into one integer compare (DESIGN.md §5).
``F2``/``F3Greedy`` apply the Proposition 5.3 prefilter: when
``1 − f1 > 2ε`` neither can pass, and f1 is computable from the uncovered
weight alone, without the ``vios`` structure. Their ``passes`` applies it,
and :meth:`ApproximationFunction.weight_cap` states it as the largest
weight it lets through, so ADCEnum rejects those nodes with one integer
compare and calls ``passes`` only below the cap.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable

from .evidence import EvidenceSet

_TOL = 1e-12


class ApproximationFunction:
    """Interface taken as *input* by ADCMiner/ADCEnum (paper contribution).

    ``uncovered`` must be re-iterable (a list, a range or an
    :class:`UncoveredView`): the Prop. 5.3 prefilter and the score may both
    walk it, and copying it into a list would discard the precomputed
    ``UncoveredView.weight``.
    """

    name: str = "abstract"
    #: whether scoring needs the per-tuple ``vios`` structure (f2, f3)
    needs_vios: bool = False

    def score(self, ev: EvidenceSet, uncovered: Iterable[int]) -> float:
        """``f(D, S_φ)`` given the indices of evidence sets not hit by S."""
        raise NotImplementedError

    def passes(self, ev: EvidenceSet, uncovered: Iterable[int], eps: float) -> bool:
        """Whether ``1 − f(D,S_φ) ≤ ε``."""
        return 1.0 - self.score(ev, uncovered) <= eps + _TOL

    def max_passing_weight(self, ev: EvidenceSet, eps: float) -> int | None:
        """The largest uncovered weight that passes, when f reads only the
        uncovered weight and is monotone in it: then ``passes`` holds iff
        the weight is at most this (−1: no weight passes). ``None`` when
        that is not known; the caller must then call :meth:`passes`."""
        return None

    def weight_cap(self, ev: EvidenceSet, eps: float) -> int:
        """An uncovered weight above which :meth:`passes` never holds: the
        weight of the whole bag (no cap) unless f knows a bound."""
        return int(ev.counts.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class UncoveredView:
    """Uncovered evidence-set indices with a precomputed total weight.

    The enumerator maintains the uncovered weight incrementally, making
    f1-style ``passes`` checks O(1) instead of O(|uncov|). Functions that
    need the indices (f2/f3) still iterate normally.
    """

    __slots__ = ("indices", "weight")

    def __init__(self, indices, weight: int):
        self.indices = indices
        self.weight = int(weight)

    def __iter__(self):
        return iter(self.indices)


def _uncovered_weight(ev: EvidenceSet, uncovered: Iterable[int]) -> int:
    if isinstance(uncovered, UncoveredView):
        return uncovered.weight
    return int(sum(int(ev.counts[i]) for i in uncovered))


def weight_threshold(
    passes: Callable[[EvidenceSet, Iterable[int], float], bool], ev: EvidenceSet, eps: float
) -> int:
    """The largest weight in ``[0, total_pairs]`` at which the check
    ``passes`` (such as ``f.passes``) holds (−1 if none), by a binary search
    over the check itself; exact for a check whose passing weights are a
    prefix of that range."""
    lo, hi = -1, ev.total_pairs
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if passes(ev, UncoveredView((), mid), eps):
            lo = mid
        else:
            hi = mid - 1
    return lo


def one_minus_f1(ev: EvidenceSet, uncovered: Iterable[int]) -> float:
    """Violating-pair fraction — shared by F1 and the Prop. 5.3 prefilter."""
    if ev.total_pairs == 0:
        return 0.0
    return _uncovered_weight(ev, uncovered) / ev.total_pairs


def within_prop_53(ev: EvidenceSet, uncovered: Iterable[int], eps: float) -> bool:
    """Proposition 5.3: ``1 − f ≤ ε`` for f2 or f3 implies ``1 − f1 ≤ 2ε``."""
    return one_minus_f1(ev, uncovered) <= 2 * eps + _TOL


class F1(ApproximationFunction):
    """g1 of Kivinen & Mannila generalized to DCs: satisfied-pair fraction."""

    name = "f1"

    def score(self, ev: EvidenceSet, uncovered: Iterable[int]) -> float:
        return 1.0 - one_minus_f1(ev, uncovered)

    def max_passing_weight(self, ev: EvidenceSet, eps: float) -> int:
        return weight_threshold(self.passes, ev, eps)


def _require_vios(ev: EvidenceSet) -> dict[int, dict[int, int]]:
    if ev.vios is None:
        raise ValueError(
            "this approximation function needs ev.vios "
            "(build the evidence with with_vios=True)"
        )
    return ev.vios


class _Prop53(ApproximationFunction):
    """f2 and f3: they read ``vios``, and pass only within Prop. 5.3."""

    needs_vios = True

    def passes(self, ev: EvidenceSet, uncovered: Iterable[int], eps: float) -> bool:
        return within_prop_53(ev, uncovered, eps) and super().passes(ev, uncovered, eps)

    def weight_cap(self, ev: EvidenceSet, eps: float) -> int:
        return weight_threshold(within_prop_53, ev, eps)


class F2(_Prop53):
    """g2: fraction of tuples that appear in no violating pair."""

    name = "f2"

    def score(self, ev: EvidenceSet, uncovered: Iterable[int]) -> float:
        if ev.n_tuples == 0:
            return 1.0
        vios = _require_vios(ev)
        bad: set[int] = set()
        for i in uncovered:
            bad.update(vios[i].keys())
        return 1.0 - len(bad) / ev.n_tuples


class F3Greedy(_Prop53):
    """GreedyF3 (Figure 2): greedy upper bound on the tuples to delete.

    ``score`` returns ``1 − |R|/|D|`` where R is the greedy removal set, so
    the generic ``1 − f ≤ ε`` check coincides with the algorithm's
    ``|R|/|D| ≤ ε`` return value.
    """

    name = "f3"

    def removal_set(self, ev: EvidenceSet, uncovered: Iterable[int]) -> list[int]:
        vios = _require_vios(ev)
        u = _uncovered_weight(ev, uncovered)  # total violations to cover
        if u == 0:
            return []
        v: dict[int, int] = {}
        for i in uncovered:
            for t, c in vios[i].items():
                v[t] = v.get(t, 0) + c
        order = sorted(v, key=lambda t: (-v[t], t))  # SortTuples, desc degree
        covered, removed = 0, []
        for t in order:
            if covered >= u:
                break
            covered += v[t]
            removed.append(t)
        return removed

    def score(self, ev: EvidenceSet, uncovered: Iterable[int]) -> float:
        if ev.n_tuples == 0:
            return 1.0
        return 1.0 - len(self.removal_set(ev, uncovered)) / ev.n_tuples
