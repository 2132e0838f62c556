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

**The engine is level-synchronous.** A node's work depends only on its own
state, so the tree is walked one level at a time, and every step of every
node of a level is a few numpy calls over the whole level. A level holds,
per node:

- ``owner`` (nodes × evidence sets, small ints): −1 where the set is
  uncovered, the slot of the one element of S that covers it (so the set
  is in that element's ``crit``), or −2 where S covers it twice or more.
  The ``crit`` sets of S are disjoint, so this one row is ``uncov`` and
  every ``crit`` at once;
- ``cand``, a packed bitset over predicate ids;
- ``S`` (nodes × depth): the predicate each level of the path added, or
  −1 where the path took the skip branch. A node's slots are its levels,
  so its elements stand in the order they were added; ``S + 1`` is its
  **DFS key**, one child ordinal per level (0 for the skip branch,
  ``1 + e`` for the hit child on predicate e). Figure 4's recursion
  visits nodes in the lexicographic order of their keys.

Uncovered weights, pivots, the bound and WillCover are computed over the
(node, uncovered set) pairs of ``np.nonzero(owner == −1)``, a few per node,
with packed rows and an 8-bit popcount table; weights are summed by
``np.bincount``, whose float64 sums are exact while the bag weight
``n(n−1)`` is below 2⁵³. No float matrix product is used: a BLAS call
leaves its worker threads spinning after it returns, which cost more
process CPU than the product saved. Where the cap does not decide f
(f2/f3), ``f.passes`` is called per node through :meth:`ADCEnum._passes`,
in Figure 4's order within a node: base case, IsMinimal in S order up to
the first passing slot, WillCover.

Levels wider than ``_BATCH`` nodes are split into batches in key order,
and the batches wait on a stack, leftmost on top, so memory stays bounded
by the depth times a batch. Outputs are sorted by key at the end, so a
complete run returns the list of Figure 4's depth-first recursion, in its
order, with the same counters. ``max_results = k`` returns the first k
outputs of that list: once k are held, a waiting node whose key is
greater than the k-th smallest output key is dropped, since its whole
subtree comes after that output. ``timeout_s`` is checked before each
batch.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dc import DenialConstraint
from .evidence import EvidenceSet
from .functions import ApproximationFunction, UncoveredView

#: Nodes per batch at most. A batch holds ``_BATCH × (M + 8⌈P/64⌉)`` bytes
#: of state (M distinct evidence sets, P predicates) plus a few temporaries
#: of that size. Sized on food n=40, f1/max (42,801 nodes over 9 levels,
#: 4 cores): batches of 1,024, 4,096 and 16,384 nodes ran in 123, 108 and
#: 98 ms, for +1, +9 and +20 MB of peak RSS. The benchmark trees' widest
#: levels (under 1,400 nodes) fit in one batch.
_BATCH = 4096

#: ``_POP[b]``: the number of set bits of byte b.
_POP = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

#: Predicate bitsets are rows of little-endian 64-bit words.
_WORD = np.dtype("<u8")


@dataclass
class EnumStats:
    """Counters of one enumeration run.

    ADCEnum ends every node it builds in exactly one way, so on its runs
    ``nodes == outputs + non_minimal + infeasible + no_pivot + expanded``
    (truncated runs included). An expanded node may still skip a child:
    ``willcover_skips`` counts skip branches WillCover cuts, ``crit_cuts``
    hit-branch children cut because some u ∈ S lost every critical set.
    On a run cut by ``max_results``, ``outputs`` counts every output node
    expanded, which may exceed the ``max_results`` returned. ``max_depth``
    is the depth of the deepest node expanded (the root is at 0). SearchMC
    fills only the first five fields.
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
    max_depth: int = 0


def _pack(bitsets: list[int], words: int) -> np.ndarray:
    """Python-int bitsets as rows of ``words`` 64-bit words."""
    buf = b"".join(x.to_bytes(8 * words, "little") for x in bitsets)
    return np.frombuffer(buf, dtype=_WORD).reshape(len(bitsets), words)


def _popcount(x: np.ndarray) -> np.ndarray:
    """The set bits of each row of the word rows ``x``."""
    return _POP[np.ascontiguousarray(x).view(np.uint8)].sum(axis=1, dtype=np.int64)


def _bits(x: np.ndarray, n_el: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) of every set bit of the word rows ``x``, bits ascending."""
    bytes_ = np.ascontiguousarray(x).view(np.uint8)
    return _cells(np.unpackbits(bytes_, axis=1, count=n_el, bitorder="little"))


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the set cells of a 2-D bool array, row-major: as
    ``np.nonzero``, but by one flat scan and int32 arithmetic."""
    k = np.flatnonzero(mask).astype(np.int32 if mask.size < 1 << 31 else np.int64)
    r = k // max(1, mask.shape[1])
    return r, k - r * mask.shape[1]


def _sums(idx: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Per-node sums of the weights ``w`` of pairs on nodes ``idx``: exact
    int64 while every sum is below 2⁵³."""
    return np.bincount(idx, weights=w, minlength=n).astype(np.int64)


def _segments(idx: np.ndarray, n: int) -> np.ndarray:
    """``starts[k]:starts[k + 1]``: the pairs of node k in node-sorted ``idx``."""
    return np.searchsorted(idx, np.arange(n + 1))


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
        self.n_elements = n_el = len(ev.space)
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
        # rows[i]: the predicates of evidence set i, packed; cols[e]: the
        # evidence sets holding predicate e
        words = max(1, (n_el + 63) // 64)
        full = (1 << n_el) - 1
        self.rows = _pack([m & full for m in ev.masks], words)
        self.cols = np.zeros((n_el, len(ev.masks)), dtype=bool)
        i, e = _bits(self.rows, n_el)
        self.cols[e, i] = True
        self.counts = np.asarray(ev.counts, dtype=np.int64)
        self.full = _pack([full], words)
        # group[e]: the other predicates differing from e only by operator;
        # below[e]: the predicates with a lower id
        self.group = _pack([sum(1 << g for g in others) for others in ev.space.group_others], words)
        self.below = _pack([(1 << e) - 1 for e in range(n_el)], words)
        # owner holds −2, −1 and slots up to the depth, at most n_el
        self.owner_dtype = np.int8 if n_el < 127 else np.int16 if n_el < 32767 else np.int32

    # -- f's check --------------------------------------------------------------

    def _passes(self, uncovered: list[int], weight: int) -> bool:
        """f's check on one uncovered set, counted as one f-eval: its
        evidence ids and their weight. The cap decides where it can; else
        ``f.passes`` does."""
        self.stats.f_evals += 1
        if weight > self.cap:
            return False
        return self.exact or self.f.passes(self.ev, UncoveredView(uncovered, weight), self.eps)

    def _check(self, weight: np.ndarray, ids) -> np.ndarray:
        """:meth:`_passes` on each of a level's uncovered sets, given their
        weights; ``ids(j)`` gives set j's evidence ids, asked only where
        the cap does not decide."""
        ok = weight <= self.cap
        if self.exact:
            self.stats.f_evals += len(weight)
            return ok
        self.stats.f_evals += len(weight) - int(np.count_nonzero(ok))
        for j in np.flatnonzero(ok):
            ok[j] = self._passes(ids(j).tolist(), int(weight[j]))
        return ok

    # -- the search (Figure 4) ----------------------------------------------------

    def run(self) -> list[frozenset[int]]:
        stats = self.stats
        t0 = time.perf_counter()
        deadline = math.inf if self.timeout_s is None else t0 + self.timeout_s
        k = math.inf if self.max_results is None else self.max_results
        root = (
            np.full((1, len(self.counts)), -1, dtype=self.owner_dtype),
            self.full.copy(),
            np.zeros((1, 0), dtype=np.int32),
        )
        stack = [root] if k >= 1 else []
        found: list[np.ndarray] = []  # S of the output nodes, a block per batch
        held = 0
        while stack:
            if time.perf_counter() > deadline:
                stats.truncated = True
                break
            out, children = self._level(*stack.pop())
            if len(out):
                found.append(out)
                held += len(out)
            if children is not None:
                stack += reversed(_batches(*children))
            if held >= k:
                # keep the first k outputs so far, and drop each waiting node
                # whose key is after the k-th: its whole subtree comes after
                first = _in_key_order(found)[:k]
                found, held = [first], k
                last = first[-1]
                stack = [b for b in (_up_to(b, last) for b in stack) if b is not None]
        stats.truncated |= held >= k
        ordered = _in_key_order(found)[: min(held, k)]
        self.results = [frozenset(e for e in row if e >= 0) for row in ordered.tolist()]
        stats.seconds = time.perf_counter() - t0
        return self.results

    def _level(self, owner: np.ndarray, cand: np.ndarray, S: np.ndarray):
        """Every node of one batch, all at one depth: the S of its output
        nodes, and the state of all their children (``None`` if none)."""
        stats, rows, counts, cap = self.stats, self.rows, self.counts, self.cap
        n, depth = S.shape
        n_el, m = self.n_elements, len(counts)
        stats.nodes += n
        stats.max_depth = max(stats.max_depth, depth)

        # the uncovered sets as (node, evidence id) pairs, in node order
        pn, pi = _cells(owner == -1)
        pw = counts[pi]
        weight = _sums(pn, pw, n)

        # base case (lines 1-3): threshold met → output iff minimal; any
        # extension would be non-minimal, so the node ends either way
        starts = _segments(pn, n)
        base = self._check(weight, lambda j: pi[starts[j] : starts[j + 1]])
        out = self._minimal(owner[base], S[base], weight[base])

        # the bound at every other node: every descendant's S lies in
        # S ∪ cand, so the uncovered sets no predicate of cand hits (dead)
        # stay uncovered below it; if they alone weigh more than any passing
        # weight, no descendant passes (for MMCS's min pivot, such a set is
        # an F with F ∩ cand = ∅)
        keep = ~base[pn]
        pn, pi, pw = pn[keep], pi[keep], pw[keep]
        hits = _popcount(rows[pi] & cand[pn])  # |F ∩ cand|
        dead = hits == 0
        infeasible = np.zeros(n, dtype=bool)
        infeasible[pn[dead]] = True
        infeasible &= _sums(pn[dead], pw[dead], n) > cap

        # line 4, the pivot: the lowest set outside dead with max/min
        # |F ∩ cand|, as the max of a code ordered by sign·|F ∩ cand|, then
        # by the lowest id; the sets Figure 4's canHit marks unhittable are
        # never outside dead, as they miss the skip branch's cand and cand
        # below there only shrinks
        live = ~dead & ~infeasible[pn]
        code = (self.sign * hits[live] + n_el + 1) * (m + 1) + (m - pi[live])
        best = np.zeros(n, dtype=np.int64)
        np.maximum.at(best, pn[live], code)
        expanded = best > 0
        stats.infeasible += int(infeasible.sum())
        stats.no_pivot += int((~base & ~infeasible & ~expanded).sum())  # lines 5-6
        stats.expanded += int(expanded.sum())
        xe = np.flatnonzero(expanded)
        if not len(xe):
            return out, None
        owner, cand, S = owner[xe], cand[xe], S[xe]
        C = rows[m - best[xe] % (m + 1)] & cand  # F ∩ cand
        rest = cand & ~C

        # ---- branch 1 (lines 7-12): do NOT hit F ------------------------------
        # WillCover: the uncovered sets no predicate of the smaller cand hits
        # (UpdateCanCover's unhittable sets) must not fail f on their own
        at = np.cumsum(expanded) - 1  # node → its index among the expanded
        keep = expanded[pn]
        qn, qi, qw = at[pn[keep]], pi[keep], pw[keep]
        disjoint = ~(rows[qi] & rest[qn]).any(axis=1)
        qn, qi = qn[disjoint], qi[disjoint]
        dstarts = _segments(qn, len(xe))
        skip = self._check(_sums(qn, qw[disjoint], len(xe)), lambda j: qi[dstarts[j] : dstarts[j + 1]])
        stats.willcover_skips += int(len(xe) - skip.sum())

        # ---- branch 2 (lines 13-22): hit F with each e ∈ C ------------------
        # the crit test (line 17): S ∪ {e} keeps every u ∈ S critical unless
        # each set in crit[u] holds e, so ``lost`` ORs over u the AND of
        # the rows of crit[u]
        lost = np.zeros_like(C)
        for u in range(depth):
            # crit[u] of each node, in node order; one slot at a time keeps
            # the temporaries to a slot's crit sets
            r, i = _cells(owner == u)
            if len(r):
                first = np.flatnonzero(np.diff(r, prepend=-1))
                lost[r[first]] |= np.bitwise_and.reduceat(rows[i], first, axis=0)
        ok = C & ~lost
        stats.crit_cuts += int(_popcount(C & lost).sum())
        hn, he = _bits(ok, n_el)
        xs = np.flatnonzero(skip)
        if not len(xs) and not len(hn):
            return out, None

        # the children: the skip children, then the hit children on e
        idx = np.concatenate([xs, hn])
        child_owner = np.take(owner, idx, axis=0)
        # UpdateCritUncov (Figure 3): the sets e newly covers become crit[e]
        # (slot ``depth``); those in some crit[u] are now covered twice.
        # In place, so a level's temporaries stay at a few bool copies
        hit = child_owner[len(xs) :]
        covered = self.cols[he]
        twice = hit != -1
        twice &= covered
        covered ^= twice
        np.putmask(hit, twice, -2)
        np.putmask(hit, covered, depth)
        # line 20: each e that passed the crit test goes back into cand for
        # its later siblings; RemoveRedundantPreds drops e's group
        hit_cand = (rest[hn] | (ok[hn] & self.below[he])) & ~self.group[he]
        # a skip child adds the invalid slot −1, a hit child e
        child_S = np.empty((len(idx), depth + 1), dtype=S.dtype)
        child_S[:, :depth] = S[idx]
        child_S[: len(xs), depth], child_S[len(xs) :, depth] = -1, he
        return out, (child_owner, np.concatenate([rest[xs], hit_cand]), child_S)

    def _minimal(self, owner: np.ndarray, S: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """IsMinimal (Figure 5) on nodes that pass: S∖{e} must fail for
        every e ∈ S, tried in S order up to the first that passes. The S of
        the minimal ones."""
        stats = self.stats
        n, depth = S.shape
        nonmin = np.zeros(n, dtype=bool)
        if n and depth:
            valid = S >= 0
            # S∖{u} leaves uncov ∪ crit[u] uncovered
            r, i = _cells(owner >= 0)
            slot = r * depth + owner[r, i]  # (node, slot of u) of each crit set
            crit_w = _sums(slot, self.counts[i], n * depth).reshape(n, depth)
            w = weight[:, None] + crit_w
            if self.exact:
                passes = valid & (w <= self.cap)
                nonmin = passes.any(axis=1)
                upto = np.where(nonmin, passes.argmax(axis=1), depth)
                stats.f_evals += int((valid & (np.arange(depth) <= upto[:, None])).sum())
            else:
                # per (node, slot), the ids of crit[u], for f to read
                at = np.argsort(slot, kind="stable")
                crit, cb = i[at].tolist(), _segments(slot[at], n * depth).tolist()
                ur, ui = _cells(owner == -1)
                unc, ub = ui.tolist(), _segments(ur, n).tolist()
                for j, (row, wj) in enumerate(zip(S.tolist(), w.tolist())):
                    for u in (u for u, e in enumerate(row) if e >= 0):
                        ids = unc[ub[j] : ub[j + 1]] + crit[cb[j * depth + u] : cb[j * depth + u + 1]]
                        if self._passes(ids, wj[u]):
                            nonmin[j] = True
                            break
        stats.non_minimal += int(nonmin.sum())
        stats.outputs += int(n - nonmin.sum())
        return S[~nonmin]


def _batches(owner: np.ndarray, cand: np.ndarray, S: np.ndarray) -> list[tuple]:
    """A level as batches of at most ``_BATCH`` nodes, in DFS key order."""
    n = len(S)
    if n <= _BATCH:
        return [(owner, cand, S)]
    order = np.lexsort(S.T[::-1])
    return [(owner[o], cand[o], S[o]) for o in np.array_split(order, -(-n // _BATCH))]


def _padded(blocks: list[np.ndarray]) -> np.ndarray:
    """S blocks of several depths as one matrix, padded with −2 (a key of −1,
    below every child ordinal)."""
    width = max((b.shape[1] for b in blocks), default=0)
    out = np.full((sum(len(b) for b in blocks), width), -2, dtype=np.int32)
    k = 0
    for b in blocks:
        out[k : k + len(b), : b.shape[1]] = b
        k += len(b)
    return out


def _in_key_order(blocks: list[np.ndarray]) -> np.ndarray:
    """The S rows of ``blocks``, padded (:func:`_padded`), sorted by DFS key."""
    keys = _padded(blocks)
    return keys[np.lexsort(keys.T[::-1])] if keys.shape[1] else keys


def _up_to(batch: tuple, last: np.ndarray):
    """``batch`` without its nodes whose key is greater than the padded key
    row ``last``, or ``None`` if none is left."""
    owner, cand, S = batch
    keys = _padded([S, last[None, :]])
    a, b = keys[:-1], keys[-1]
    diff = a != b
    col = diff.argmax(axis=1)
    keep = ~(diff.any(axis=1) & (a[np.arange(len(a)), col] > b[col]))
    if keep.all():
        return batch
    return (owner[keep], cand[keep], S[keep]) if keep.any() else None


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
