"""SearchMC — the FASTDC-family minimal-cover search (baseline, paper §8.2).

This is the enumeration used by FASTDC/AFASTDC [11] and kept unchanged in
BFASTDC [36] and DCFinder [37]: a depth-first set-enumeration over the
predicate space, ordered by coverage of the still-uncovered evidence sets,
with the AFASTDC *approximate* base case (stop when ``1 − f(D,S) ≤ ε``
instead of when every evidence set is covered).

Differences from ADCEnum (what the paper's contribution removes):

- no ``crit`` structure → no criticality pruning; minimality is enforced by
  an explicit per-candidate check plus a global subset filter,
- no skip branch → the search tree is the classic "each branch
  excludes the predicates ordered before it" subset tree,
- the only prune is the WillCover-style bound (S ∪ remaining candidates
  must be able to reach the threshold — monotonicity).

Complete and duplicate-free by the standard set-enumeration-tree argument;
tests check it returns exactly ADCEnum's results on shared instances.
"""
from __future__ import annotations

import time

from .enumerate import EnumStats
from .evidence import EvidenceSet
from .functions import ApproximationFunction


def search_mc(
    ev: EvidenceSet,
    f: ApproximationFunction,
    eps: float,
    *,
    max_results: int | None = None,
    timeout_s: float | None = None,
) -> tuple[list[frozenset[int]], EnumStats]:
    """Enumerate minimal approximate hitting sets, FASTDC-style."""
    n_el = len(ev.space)
    grp = ev.space.group_others
    masks = list(ev.masks)
    stats = EnumStats()
    results: list[frozenset[int]] = []
    t0 = time.perf_counter()

    def passes(uncovered: list[int]) -> bool:
        stats.f_evals += 1
        return f.passes(ev, uncovered, eps)

    def coverage_weight(e: int, uncovered: list[int]) -> int:
        bit = 1 << e
        return sum(int(ev.counts[i]) for i in uncovered if masks[i] & bit)

    def is_minimal(S: frozenset[int]) -> bool:
        for e in S:
            rest = S - {e}
            rest_mask = 0
            for x in rest:
                rest_mask |= 1 << x
            unc = [i for i in range(len(masks)) if (masks[i] & rest_mask) == 0]
            if passes(unc):
                return False
        return True

    limit = [False]

    def dfs(S: list[int], uncovered: list[int], cand: list[int]) -> None:
        if limit[0]:
            return
        stats.nodes += 1
        if timeout_s is not None and time.perf_counter() - t0 > timeout_s:
            stats.truncated = True
            limit[0] = True
            return
        # FASTDC branch pruning [11]: a discovered cover that is a subset of
        # the current path makes every extension non-minimal. This linear
        # scan over the discovered-cover list is part of the baseline's real
        # per-node cost (ADCEnum replaces it with the crit structure).
        fs = frozenset(S)
        if any(r <= fs for r in results):
            return
        if passes(uncovered):
            if is_minimal(fs):
                results.append(fs)
                if max_results is not None and len(results) >= max_results:
                    stats.truncated = True
                    limit[0] = True
            return
        if not cand:
            return
        # WillCover-style bound: adding every remaining candidate must reach
        # the threshold, else this subtree is hopeless (monotonicity)
        cand_mask = 0
        for e in cand:
            cand_mask |= 1 << e
        if not passes([i for i in uncovered if (masks[i] & cand_mask) == 0]):
            return
        # FASTDC ordering: candidates by descending covered violation weight
        ordered = sorted(
            cand, key=lambda e: (-coverage_weight(e, uncovered), e)
        )
        for k, e in enumerate(ordered):
            bit = 1 << e
            rest = ordered[k + 1 :]
            # set-enumeration tree: exclude predicates ordered before e;
            # RemoveRedundantPreds equivalent: drop e's operator siblings
            sibs = set(grp[e])
            nxt_cand = [x for x in rest if x not in sibs]
            nxt_unc = [i for i in uncovered if (masks[i] & bit) == 0]
            dfs(S + [e], nxt_unc, nxt_cand)
            if limit[0]:
                return

    dfs([], list(range(len(masks))), list(range(n_el)))
    # For a monotone f, is_minimal (no one-element removal passes) implies
    # set-minimality: any passing proper subset S' ⊂ S would make S∖{e}
    # (⊇ S') pass for e ∈ S∖S'. DFS paths in the set-enumeration tree are
    # unique, so results are already distinct — no global filter needed.
    stats.outputs = len(results)
    stats.seconds = time.perf_counter() - t0
    return results, stats
