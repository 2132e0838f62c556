"""ADCEnum — enumeration of minimal approximate hitting sets / ADCs.

Implements Figures 3–5 of the paper: the MMCS algorithm of Murakami & Uno
[32] extended with

- an approximate base case ``1 − f(D,S) ≤ ε`` plus an explicit
  ``IsMinimal`` check (monotonicity makes one-element removals sufficient),
- a second recursive branch that *skips* the chosen uncovered set F,
  guarded by the ``WillCover`` monotonicity prune,
- ``RemoveRedundantPreds``: after adding predicate ``e`` to S, candidates
  differing from ``e`` only by the operator are dropped for the subtree,
- pivot selection: the uncovered set with the **maximal** intersection with
  ``cand`` (paper §6.2; ``choose="min"`` reproduces [32] for Figure 10).

One bound is added to Figure 4, at every node once the base case fails.
Every descendant's S lies in S ∪ cand, so the uncovered sets that no
predicate of ``cand`` hits (``dead``) stay uncovered in the whole subtree.
If their weight alone exceeds ``cap`` — the largest uncovered weight that
can pass, exact for the f1 family, the Prop. 5.3 bound for f2/f3 — no
descendant passes and the node returns. MMCS returns at such a node too:
its min pivot picks a set F with F ∩ cand = ∅ and finds nothing to branch
on. ADCEnum's pivot skips those sets, so without the bound it walks the
dead subtree to its leaves; WillCover only tests the skip branch. SearchMC
(``searchmc.py``) tests the same bound at every node with a full f check.
The bound also makes Figure 4's ``canHit`` flags redundant: the sets
UpdateCanCover clears are ``dead`` everywhere below the skip branch that
cleared them (cand only shrinks there), and the pivot is drawn from the
uncovered sets outside ``dead``, so they are never chosen.

With ``eps=0`` and ``F1`` the algorithm degenerates to exact MMCS — tests
exploit this. ``RemoveRedundantPreds`` reads ``ev.space.group_others``; a
space whose groups are empty turns the DC-specific pruning off, yielding a
generic minimal-approximate-hitting-set enumerator (paper contribution 2).

All sets are Python-int bitsets, as in MMCS and FastADC: ``uncov`` and
``crit[e]`` over evidence ids, ``cand`` over predicate ids, with
``rows[i]`` (evidence set i) and ``cols[e]`` (predicate e) as the two
views of membership. Every set update is a few ``&``/``|``/``~``; the
weight of an evidence bitset and the cover of a predicate bitset are one
table lookup per byte.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import add, getitem, or_

from .dc import DenialConstraint
from .evidence import EvidenceSet
from .functions import ApproximationFunction, UncoveredView


class EnumerationLimit(Exception):
    """Raised internally to unwind when max_results/deadline is reached."""


@dataclass
class EnumStats:
    """Counters of one enumeration run.

    ADCEnum ends every node it builds in exactly one way, so on its runs
    ``nodes == outputs + non_minimal + infeasible + no_pivot + expanded``
    (truncated runs included). An expanded node may still skip a child:
    ``willcover_skips`` counts skip branches WillCover cuts, ``crit_cuts``
    hit-branch children cut because some u ∈ S lost every critical set.
    SearchMC fills only the first five fields.
    """

    nodes: int = 0
    outputs: int = 0
    f_evals: int = 0
    seconds: float = 0.0
    truncated: bool = False
    non_minimal: int = 0  # passed the threshold, but some S∖{e} passes too
    infeasible: int = 0  # the per-node bound: the dead sets alone fail
    no_pivot: int = 0  # every uncovered set misses cand, within cap (f2/f3)
    expanded: int = 0  # a pivot was chosen and both branches tried
    willcover_skips: int = 0
    crit_cuts: int = 0


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


def _byte_tables(values: list, fold) -> list[list]:
    """``tab[k][b]``: ``fold`` (``+`` or ``|``) over the ``values[8k..8k+7]``
    that the bits of byte b select, so folding ``values`` over a bitset is
    one lookup per byte of it."""
    tabs = []
    for k in range(0, len(values), 8):
        tab = [0]
        for v in values[k : k + 8]:
            tab += [fold(t, v) for t in tab]
        tabs.append(tab)
    return tabs


class ADCEnum:
    """One enumeration run; use :func:`adc_enum` for the functional API."""

    def __init__(
        self,
        ev: EvidenceSet,
        f: ApproximationFunction,
        eps: float,
        *,
        choose: str = "max",
        max_results: int | None = None,
        timeout_s: float | None = None,
    ):
        self.ev = ev
        self.f = f
        self.eps = eps
        if choose not in ("max", "min"):
            raise ValueError("choose must be 'max' or 'min'")
        self.sign = 1 if choose == "max" else -1  # the pivot maximizes sign·|F ∩ cand|
        self.n_elements = len(ev.space)
        # group_mask[e]: the other predicates differing from e only by operator
        self.group_mask = [sum(1 << g for g in others) for others in ev.space.group_others]
        # f's check as integer compares on the uncovered weight: above cap f
        # fails; at or below it f passes if the cap is exact (the f1 family),
        # else f.passes decides (f2/f3 within the Prop. 5.3 cap)
        exact = f.max_passing_weight(ev, eps)
        self.cap = f.weight_cap(ev, eps) if exact is None else exact
        self.exact = exact is not None
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
        # wtab: the weight of a set of evidence ids; ctab: the evidence sets
        # a set of predicate ids covers
        self.wtab = _byte_tables([int(c) for c in ev.counts], add)
        self.ctab = _byte_tables(self.cols, or_)

    # -- helpers --------------------------------------------------------------

    def _weight(self, bits: int) -> int:
        return sum(map(getitem, self.wtab, bits.to_bytes(len(self.wtab), "little")))

    def _passes(self, bits: int, weight: int) -> bool:
        self.stats.f_evals += 1
        if weight > self.cap:
            return False
        return self.exact or self.f.passes(self.ev, UncoveredView(_Bits(bits), weight), self.eps)

    def _is_minimal(self, S: list[int]) -> bool:
        """IsMinimal (Figure 5): S∖{e} must fail for every e ∈ S."""
        for e in S:
            crit_e = self.crit[e]
            if self._passes(self.uncov | crit_e, self.uncov_weight + self._weight(crit_e)):
                return False
        return True

    # -- main recursion (Figure 4) --------------------------------------------

    def run(self) -> list[frozenset[int]]:
        all_sets = (1 << len(self.rows)) - 1
        self.uncov = all_sets
        self.uncov_weight = self._weight(all_sets)
        self.cand = (1 << self.n_elements) - 1
        self.crit: dict[int, int] = {}
        self._t0 = time.perf_counter()
        self._deadline = math.inf if self.timeout_s is None else self._t0 + self.timeout_s
        self._max_results = math.inf if self.max_results is None else self.max_results
        try:
            if self._max_results < 1:
                raise EnumerationLimit
            self._recurse([])
        except EnumerationLimit:
            self.stats.truncated = True
        self.stats.seconds = time.perf_counter() - self._t0
        self.stats.outputs = len(self.results)
        return self.results

    def _recurse(self, S: list[int]) -> None:
        stats = self.stats
        if time.perf_counter() > self._deadline:
            raise EnumerationLimit
        stats.nodes += 1
        uncov, cand, cap = self.uncov, self.cand, self.cap

        # base case (lines 1-3): threshold met → output iff minimal; any
        # extension would be non-minimal, so return either way (_passes,
        # inlined, as on every node)
        stats.f_evals += 1
        weight = self.uncov_weight
        if weight <= cap and (
            self.exact or self.f.passes(self.ev, UncoveredView(_Bits(uncov), weight), self.eps)
        ):
            if self._is_minimal(S):
                self.results.append(frozenset(S))
                if len(self.results) >= self._max_results:
                    raise EnumerationLimit
            else:
                stats.non_minimal += 1
            return

        # the bound at every node: every descendant's S lies in S ∪ cand, so
        # the uncovered sets no predicate of cand hits stay uncovered below
        # here; if they alone weigh more than any passing weight, no
        # descendant passes (for MMCS's min pivot, such a set is an F with
        # F ∩ cand = ∅)
        wtab, ctab = self.wtab, self.ctab
        reach = uncov & reduce(or_, map(getitem, ctab, cand.to_bytes(len(ctab), "little")), 0)
        dead = uncov ^ reach
        if dead and sum(map(getitem, wtab, dead.to_bytes(len(wtab), "little"))) > cap:
            stats.infeasible += 1
            return

        # line 4, the pivot: the lowest set in reach with max/min |F ∩ cand|.
        # reach holds the uncovered sets with |F ∩ cand| > 0; the sets
        # Figure 4's canHit marks unhittable are never in it, as they miss
        # the skip branch's cand and cand below there only shrinks
        rows, sign = self.rows, self.sign
        best, fi = -self.n_elements - 1, -1
        x = reach
        while x:
            low = x & -x
            x ^= low
            i = low.bit_length() - 1
            k = sign * (rows[i] & cand).bit_count()
            if k > best:
                best, fi = k, i
        if fi < 0:  # lines 5-6
            stats.no_pivot += 1
            return
        stats.expanded += 1
        frow = rows[fi]

        # ---- branch 1 (lines 7-12): do NOT hit F -----------------------------
        C = frow & cand
        self.cand = rest = cand ^ C
        # WillCover: the uncovered sets no predicate of the smaller cand hits
        # (UpdateCanCover's unhittable sets) must not fail f on their own
        disjoint = uncov & ~reduce(or_, map(getitem, ctab, rest.to_bytes(len(ctab), "little")), 0)
        if self._passes(disjoint, sum(map(getitem, wtab, disjoint.to_bytes(len(wtab), "little")))):
            self._recurse(S)
        else:
            stats.willcover_skips += 1

        # ---- branch 2 (lines 13-22): hit F -----------------------------------
        # lines 11 and 13 put C back into cand and take it out again: cand
        # stays rest
        crit, cols = self.crit, self.cols
        for e in _Bits(C):
            ecol = cols[e]
            # UpdateCritUncov (Figure 3)
            newly = ecol & uncov
            self.uncov = uncov ^ newly
            self.uncov_weight = weight - sum(map(getitem, wtab, newly.to_bytes(len(wtab), "little")))
            crit[e] = newly
            moved: dict[int, int] = {}
            ok = True
            for u in S:
                cu = crit[u]
                mv = cu & ecol
                if mv:
                    moved[u] = mv
                    crit[u] = cu = cu ^ mv
                if not cu:
                    ok = False  # u no longer critical anywhere → prune (line 17)
            if ok:
                # RemoveRedundantPreds: same attribute pair, other operator
                grp = self.group_mask[e] & self.cand
                self.cand ^= grp
                self._recurse(S + [e])
                # line 20: add e back too, as the crit test succeeded
                self.cand |= grp | 1 << e
            else:
                stats.crit_cuts += 1
            # line 21: undo UpdateCritUncov
            del crit[e]
            for u, mv in moved.items():
                crit[u] |= mv
        # line 22: restore cand, uncov and its weight to their state on entry
        self.cand, self.uncov, self.uncov_weight = cand, uncov, weight


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
