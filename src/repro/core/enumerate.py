"""ADCEnum — enumeration of minimal approximate hitting sets / ADCs.

Implements Figures 3–5 of the paper: the MMCS algorithm of Murakami & Uno
[32] extended with

- an approximate base case ``1 − f(D,S) ≤ ε`` plus an explicit
  ``IsMinimal`` check (monotonicity makes one-element removals sufficient),
- a second recursive branch that *skips* the chosen uncovered set F,
  guarded by the ``canHit`` flags and the ``WillCover`` monotonicity prune,
- ``RemoveRedundantPreds``: after adding predicate ``e`` to S, candidates
  differing from ``e`` only by the operator are dropped for the subtree,
- pivot selection: the uncovered set with the **maximal** intersection with
  ``cand`` (paper §6.2; ``choose="min"`` reproduces [32] for Figure 10).

With ``eps=0`` and ``F1`` the algorithm degenerates to exact MMCS — tests
exploit this. ``groups=None`` uses ``ev.space.group_others``; empty groups
turn the DC-specific pruning off, yielding a generic minimal-approximate-
hitting-set enumerator (paper contribution 2).

All sets are Python-int bitsets, as in MMCS and FastADC: ``uncov``,
``canHit`` and ``crit[e]`` over evidence ids, ``cand`` over predicate ids,
with ``rows[i]`` (evidence set i) and ``cols[e]`` (predicate e) as the two
views of membership. Every set update is a few ``&``/``|``/``~``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import getitem, or_

from .dc import DenialConstraint
from .evidence import EvidenceSet
from .functions import ApproximationFunction, UncoveredView


class EnumerationLimit(Exception):
    """Raised internally to unwind when max_results/deadline is reached."""


@dataclass
class EnumStats:
    nodes: int = 0
    outputs: int = 0
    f_evals: int = 0
    seconds: float = 0.0
    truncated: bool = False


class _Bits:
    """The set bit positions of ``x``, ascending. As evidence ids handed to
    f, they are walked only if f needs them (f2/f3 do; f1 reads the weight)."""

    __slots__ = ("x",)

    def __init__(self, x: int):
        self.x = x

    def __iter__(self):
        x = self.x
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low


class ADCEnum:
    """One enumeration run; use :func:`adc_enum` for the functional API."""

    def __init__(
        self,
        ev: EvidenceSet,
        f: ApproximationFunction,
        eps: float,
        *,
        choose: str = "max",
        groups: list[tuple[int, ...]] | None = None,
        n_elements: int | None = None,
        max_results: int | None = None,
        timeout_s: float | None = None,
    ):
        self.ev = ev
        self.f = f
        self.eps = eps
        if choose not in ("max", "min"):
            raise ValueError("choose must be 'max' or 'min'")
        self.sign = 1 if choose == "max" else -1  # the pivot maximizes sign·|F ∩ cand|
        self.n_elements = n_elements if n_elements is not None else len(ev.space)
        # groups[e] = other predicate ids differing from e only by operator
        groups = groups if groups is not None else ev.space.group_others
        self.group_mask = [sum(1 << g for g in groups[e]) for e in range(self.n_elements)]
        self.max_results = max_results
        self.timeout_s = timeout_s
        self.results: list[frozenset[int]] = []
        self.stats = EnumStats()
        # rows[i]: predicates of evidence set i; cols[e]: evidence sets holding e
        full = (1 << self.n_elements) - 1
        self.rows = [m & full for m in ev.masks]
        self.cols = [0] * self.n_elements
        for i, row in enumerate(self.rows):
            for e in _Bits(row):
                self.cols[e] |= 1 << i
        # wtab[k][b]: weight of the evidence sets 8k..8k+7 that byte b selects
        counts = [int(c) for c in ev.counts] + [0] * 7
        self.wtab = []
        for k in range(0, len(self.rows), 8):
            tab = [0]
            for c in counts[k : k + 8]:
                tab += [t + c for t in tab]
            self.wtab.append(tab)

    # -- helpers --------------------------------------------------------------

    def _weight(self, bits: int) -> int:
        return sum(map(getitem, self.wtab, bits.to_bytes(len(self.wtab), "little")))

    def _passes(self, bits: int, weight: int) -> bool:
        self.stats.f_evals += 1
        return self.f.passes(self.ev, UncoveredView(_Bits(bits), weight), self.eps)

    def _is_minimal(self, S: list[int]) -> bool:
        """IsMinimal (Figure 5): S∖{e} must fail for every e ∈ S."""
        for e in S:
            crit_e = self.crit[e]
            if self._passes(self.uncov | crit_e, self.uncov_weight + self._weight(crit_e)):
                return False
        return True

    def _choose_f(self) -> int | None:
        """Pivot: the lowest uncovered, choosable set with max/min
        |F ∩ cand| > 0."""
        rows, cand, sign = self.rows, self.cand, self.sign
        best, best_i = -self.n_elements - 1, None
        for i in _Bits(self.uncov & self.canhit):
            k = (rows[i] & cand).bit_count()
            if k and sign * k > best:
                best, best_i = sign * k, i
        return best_i

    def _check_limits(self) -> None:
        if self.max_results is not None and len(self.results) >= self.max_results:
            self.stats.truncated = True
            raise EnumerationLimit
        if self.timeout_s is not None and time.perf_counter() - self._t0 > self.timeout_s:
            self.stats.truncated = True
            raise EnumerationLimit

    # -- main recursion (Figure 4) --------------------------------------------

    def run(self) -> list[frozenset[int]]:
        all_sets = (1 << len(self.rows)) - 1
        self.uncov = all_sets
        self.uncov_weight = self._weight(all_sets)
        self.canhit = all_sets
        self.cand = (1 << self.n_elements) - 1
        self.crit: dict[int, int] = {}
        self._t0 = time.perf_counter()
        try:
            self._recurse([])
        except EnumerationLimit:
            pass
        self.stats.seconds = time.perf_counter() - self._t0
        self.stats.outputs = len(self.results)
        return self.results

    def _recurse(self, S: list[int]) -> None:
        self.stats.nodes += 1
        self._check_limits()

        # base case (lines 1-3): threshold met → output iff minimal; any
        # extension would be non-minimal, so return either way
        if self._passes(self.uncov, self.uncov_weight):
            if self._is_minimal(S):
                self.results.append(frozenset(S))
                self._check_limits()
            return

        fi = self._choose_f()  # line 4
        if fi is None:  # lines 5-6
            return
        frow = self.rows[fi]

        # ---- branch 1 (lines 7-12): do NOT hit F -----------------------------
        removed = frow & self.cand
        self.cand ^= removed
        # cand-disjoint uncovered sets: both the canHit update and WillCover
        # need them (UpdateCanCover marks them unhittable; WillCover sums them)
        disjoint = self.uncov & ~reduce(or_, [self.cols[e] for e in _Bits(self.cand)], 0)
        flipped = disjoint & self.canhit
        self.canhit ^= flipped  # UpdateCanCover
        if self._passes(disjoint, self._weight(disjoint)):  # WillCover
            self._recurse(S)
        self.canhit |= flipped  # line 12
        self.cand |= removed  # line 11

        # ---- branch 2 (lines 13-22): hit F -----------------------------------
        C = frow & self.cand
        self.cand ^= C
        for e in _Bits(C):
            ecol = self.cols[e]
            # UpdateCritUncov (Figure 3)
            newly = ecol & self.uncov
            newly_weight = self._weight(newly)
            self.uncov ^= newly
            self.uncov_weight -= newly_weight
            self.crit[e] = newly
            moved: dict[int, int] = {}
            ok = True
            for u in S:
                cu = self.crit[u]
                mv = cu & ecol
                if mv:
                    moved[u] = mv
                    self.crit[u] = cu = cu ^ mv
                if not cu:
                    ok = False  # u no longer critical anywhere → prune (line 17)
            if ok:
                # RemoveRedundantPreds: same attribute pair, other operator
                grp = self.group_mask[e] & self.cand
                self.cand ^= grp
                self._recurse(S + [e])
                # line 20: add e back too, as the crit test succeeded
                self.cand |= grp | 1 << e
            # line 21: undo UpdateCritUncov
            self.uncov |= newly
            self.uncov_weight += newly_weight
            del self.crit[e]
            for u, mv in moved.items():
                self.crit[u] |= mv
        # line 22: restore cand to its state on entry to the loop
        self.cand |= C


def adc_enum(
    ev: EvidenceSet,
    f: ApproximationFunction,
    eps: float,
    **kw,
) -> tuple[list[frozenset[int]], EnumStats]:
    """Enumerate minimal approximate hitting sets of ``ev`` w.r.t. f, ε."""
    algo = ADCEnum(ev, f, eps, **kw)
    return algo.run(), algo.stats


def hitting_sets_to_dcs(
    ev: EvidenceSet, hitting_sets: list[frozenset[int]]
) -> list[DenialConstraint]:
    """Map hitting-set-side predicate id sets to DCs (complement predicates).

    Hitting sets containing a predicate with no complement in the space are
    skipped (cannot be stated as a DC over P_R), as is the empty set.
    """
    space = ev.space
    out = []
    for hs in hitting_sets:
        if not hs:
            continue
        comp = [space.complement_idx[e] for e in hs]
        if any(c is None for c in comp):
            continue
        out.append(DenialConstraint(frozenset(space.predicates[c] for c in comp)))
    return out
