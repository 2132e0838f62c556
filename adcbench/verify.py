"""Output check for every ``adc_miner`` call the benchmark makes.

The check is independent of the code it checks where that is cheap:

- the evidence set is rebuilt here with numpy for full-relation workloads
  and must match the miner's bag (and per-tuple ``vios`` counts) exactly;
- every returned hitting set is re-scored from the evidence masks with the
  benchmark's own f1 / f1' / f2 formulas: it must pass ``1 − f ≤ ε`` and
  every one-predicate removal must fail (minimality, by monotonicity);
- the result set must equal SearchMC's on the same evidence, so a dropped
  ADC fails the call, and a deadline hit on these complete workloads fails
  it too.

:func:`check_call` returns the list of problems; an empty list passes.
"""
from __future__ import annotations

import hashlib
import math
import operator
from statistics import NormalDist

import numpy as np
import pandas as pd

#: slack for float thresholds; f1 margins are multiples of 1/n(n-1) ≫ this
TOL = 1e-9

_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def local_evidence(pdf: pd.DataFrame, space, with_vios: bool, block: int = 128):
    """Evidence bag of ``pdf`` over ``space`` as ``{mask: count}``.

    With ``with_vios`` also ``{mask: sorted per-tuple pair counts}``: the
    multiset of ``vios`` values for that mask, which does not depend on how
    the miner numbers its rows.
    """
    n = len(pdf)
    cols = {c: pdf[c].to_numpy() for c in pdf.columns}
    n_words = max(1, (len(space) + 63) // 64)
    bag: dict[int, int] = {}
    per: dict[int, np.ndarray] = {}  # mask -> pairs per tuple
    for lo in range(0, n, block):  # row blocks keep the check's memory small
        hi = min(n, lo + block)
        words = np.zeros((n_words, hi - lo, n), dtype=np.uint64)
        for k, p in enumerate(space.predicates):
            lhs = cols[p.lhs][lo:hi, None]
            rhs = cols[p.rhs][lo:hi, None] if p.single_tuple else cols[p.rhs][None, :]
            sat = np.asarray(_OPS[p.op.value](lhs, rhs), dtype=bool)
            words[k // 64] |= np.broadcast_to(sat, (hi - lo, n)).astype(np.uint64) << np.uint64(k % 64)
        ii, jj = np.nonzero(np.arange(lo, hi)[:, None] != np.arange(n)[None, :])
        flat = words[:, ii, jj].T  # (pairs, words)
        uniq, inv, cnt = np.unique(flat, axis=0, return_inverse=True, return_counts=True)
        inv = inv.reshape(-1)
        for u, (row, c) in enumerate(zip(uniq, cnt)):
            m = sum(int(w) << (64 * k) for k, w in enumerate(row))
            bag[m] = bag.get(m, 0) + int(c)
            if with_vios:
                sel = inv == u
                acc = per.setdefault(m, np.zeros(n, dtype=np.int64))
                acc += np.bincount(ii[sel] + lo, minlength=n)
                acc += np.bincount(jj[sel], minlength=n)
    if not with_vios:
        return bag, None
    return bag, {m: sorted(int(v) for v in row[row > 0]) for m, row in per.items()}


class Judge:
    """``1 − f`` for a predicate set, computed from the evidence masks."""

    def __init__(self, ev, kind: str, eps: float, alpha: float | None):
        self.masks = list(ev.masks)
        self.counts = [int(c) for c in ev.counts]
        self.total = ev.n_tuples * (ev.n_tuples - 1)
        self.n = ev.n_tuples
        self.kind = kind
        self.eps = eps
        self.vios = ev.vios
        self.z = NormalDist().inv_cdf(1.0 - alpha) if kind == "f1'" else 0.0

    def margin(self, preds) -> float:
        """``(1 − f) − ε``: at most 0 (within TOL) iff the set passes."""
        bits = 0
        for e in preds:
            bits |= 1 << e
        unc = [i for i, m in enumerate(self.masks) if not m & bits]
        if self.kind == "f2":
            bad: set[int] = set()
            for i in unc:
                bad.update(self.vios[i])
            return len(bad) / self.n - self.eps
        phat = sum(self.counts[i] for i in unc) / self.total
        if self.kind == "f1'":
            hw = self.z * math.sqrt(phat * (1.0 - phat) / self.total)
            return phat - (self.eps - hw)
        return phat - self.eps


def evidence_problems(res, bag=None, vios=None) -> list[str]:
    ev = res.evidence
    out = []
    try:
        ev.check()
    except AssertionError as e:
        out.append(f"EvidenceSet.check failed: {e}")
    n = ev.n_tuples
    total = int(np.asarray(ev.counts).sum())
    if total != n * (n - 1):
        out.append(f"evidence holds {total} pairs, expected n(n-1) = {n * (n - 1)}")
    if n != res.n_sampled:
        out.append(f"evidence covers {n} tuples, the miner sampled {res.n_sampled}")
    if len(set(ev.masks)) != len(ev.masks):
        out.append("evidence masks are not distinct")
    if bag is not None:
        got = {m: int(c) for m, c in zip(ev.masks, ev.counts)}
        if got != bag:
            diff = len(set(got.items()) ^ set(bag.items()))
            out.append(f"evidence bag differs from the local rebuild in {diff} entries")
    if vios is not None:
        if ev.vios is None:
            out.append("vios missing")
        else:
            got = {m: sorted(ev.vios[i].values()) for i, m in enumerate(ev.masks)}
            if got != vios:
                out.append("vios per-tuple counts differ from the local rebuild")
    elif ev.vios is not None:
        for i, c in enumerate(ev.counts):
            if sum(ev.vios[i].values()) != 2 * int(c):
                out.append(f"vios of evidence set {i} does not sum to 2 x its count")
                break
    return out


def adc_problems(res, judge: Judge) -> list[str]:
    """Each hitting set passes and is minimal; the DCs are their complements."""
    out = []
    hs = res.hitting_sets
    if len(set(hs)) != len(hs):
        out.append("duplicate hitting sets")
    for s in hs:
        if judge.margin(s) > TOL:
            out.append(f"hitting set {sorted(s)} does not pass 1-f <= eps")
            break
        if any(judge.margin(s - {e}) <= -TOL for e in s):
            out.append(f"hitting set {sorted(s)} is not minimal")
            break
    space = res.space
    expected = set()
    for s in hs:
        comp = [space.complement_idx[e] for e in s]
        if s and all(c is not None for c in comp):
            expected.add(frozenset(space.predicates[c] for c in comp))
    if {dc.predicates for dc in res.dcs} != expected or len(res.dcs) != len(expected):
        out.append("DCs are not the complements of the hitting sets")
    return out


def fingerprint(ev) -> str:
    h = hashlib.sha256(str(ev.n_tuples).encode())
    for m, c in sorted(zip(ev.masks, (int(c) for c in ev.counts))):
        h.update(f"{m}:{c};".encode())
    return h.hexdigest()


def reference_sets(ev, f, eps: float, timeout_s: float) -> set[frozenset] | None:
    """SearchMC's minimal hitting sets, as predicate sets; None on deadline."""
    from repro.core import search_mc

    sets, stats = search_mc(ev, f, eps, timeout_s=timeout_s)
    if stats.truncated:
        return None
    return {frozenset(ev.space.predicates[e] for e in s) for s in sets}


def check_call(res, kind: str, eps: float, alpha, reference, bag=None, vios=None) -> list[str]:
    """Every problem with one miner result; ``reference`` from SearchMC."""
    out = evidence_problems(res, bag, vios)
    if res.enum_stats.truncated:
        out.append("enumeration hit its deadline on a complete workload")
    out += adc_problems(res, Judge(res.evidence, kind, eps, alpha))
    if reference is None:
        out.append("no reference: SearchMC hit its deadline")
    else:
        got = {frozenset(res.space.predicates[e] for e in s) for s in res.hitting_sets}
        if got != reference:
            out.append(
                f"result differs from SearchMC: {len(reference - got)} missing, "
                f"{len(got - reference)} extra"
            )
    return out
