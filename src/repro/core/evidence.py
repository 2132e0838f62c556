"""Evidence set construction (paper §3, §4.2 component 3).

``Evi(D)`` is the bag ``{{Sat(t,t') : t,t' ∈ D, t ≠ t'}}`` over *ordered*
tuple pairs. We store each distinct predicate set once as an integer bitmask
over the predicate space, with its multiplicity — the representation both
ADCEnum and the approximation functions operate on.

Builders:

- :func:`build_evidence_local` — the evidence kernel, over a pandas frame.
  It encodes each column once, cuts the n×n pair grid into row-block
  tiles, evaluates one representative per complement pair (``=``, ``<``,
  ``>``) per tile and takes ``≠``, ``≥``, ``≤`` as its bitwise NOT, packs
  the bits eight to a byte into uint64 words, drops the ``t = t'`` cells
  and pre-aggregates the tile with ``np.unique``. Tiles run on driver
  threads (numpy releases the GIL in these loops) and are merged on the
  driver. This plays the role of DCFinder's [37] bit-level evidence
  builder (see DESIGN.md §2).
- :func:`build_evidence_spark` — the production entry for a Spark frame:
  one Arrow collect of its rows, then the kernel. The evidence is collected
  to the driver anyway, and the collect moves O(n) rows, not O(n²) pairs.
  Given a rule instead of a predicate space, it builds the space from the
  collected rows, so a mining call runs one Spark action.
- :func:`build_evidence_naive` — AFASTDC-style [11] baseline: a Catalyst
  self cross-join with a per-pair Python UDF that calls
  :meth:`~repro.core.predicates.Predicate.eval` per predicate, i.e.
  tuple-at-a-time evaluation. Used only for the Figure-7 runtime comparison.

All three take ``with_vios``: it also fills the ``vios`` structure of
Figure 2 (per evidence set, per tuple pair counts, needed by f2 and
GreedyF3), each ordered pair counted once for each of its two tuples.
The kernel gets it from the same one evaluation per pair: each tile
writes its pairs' local mask ids into an n×n int32 grid, the merge maps
them to global ids (the ``t = t'`` diagonal to a spare id), and a tuple's
counts are its grid row's histogram plus its grid column's, by
``np.bincount`` over blocks of rows and of columns on the tile threads.
The grid costs n²·4 bytes.
:func:`build_vios_spark` is the Spark builder with ``with_vios`` set.
Every builder returns its masks in one canonical order (count descending,
then mask ascending), so ADCEnum walks the same tree whatever builder,
row order or partitioning produced the bag.
"""
from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark import StorageLevel
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .predicates import PY_OP, REPRESENTATIVE, Predicate, PredicateSpace, is_numeric_dtype

RID = "__rid"

#: Pairs per tile of the kernel at most: a tile is whole rows of the pair
#: grid, at least one.
_TILE_PAIRS = 1 << 16


def _quote(name: str) -> str:
    """Backtick ``name``, doubling inner backticks, so dots and spaces resolve."""
    return "`" + name.replace("`", "``") + "`"


@dataclass
class EvidenceSet:
    """Driver-side evidence set: distinct ``Sat`` masks with multiplicities.

    ``vios[i]`` (when loaded) maps tuple id → number of ordered pairs with
    ``Sat = masks[i]`` that involve the tuple (as either side). A tuple id
    is the row's position in the order of the frame the builder read.
    """

    space: PredicateSpace
    masks: list[int]
    counts: np.ndarray  # int64, parallel to masks
    n_tuples: int
    vios: dict[int, dict[int, int]] | None = field(default=None, repr=False)

    @property
    def total_pairs(self) -> int:
        return self.n_tuples * (self.n_tuples - 1)

    @property
    def n_distinct(self) -> int:
        return len(self.masks)

    def check(self) -> None:
        """Structural invariants (used by tests)."""
        assert int(self.counts.sum()) == self.total_pairs, "bag size != n(n-1)"
        for i, p in enumerate(self.space.predicates):
            ci = self.space.complement_idx[i]
            if ci is None:
                continue
            for m in self.masks:
                assert (m >> i & 1) != (m >> ci & 1), (
                    f"mask must contain exactly one of {p} / {p.complement}"
                )


def _finish(
    space: PredicateSpace,
    n: int,
    masks: list[int],
    counts: list[int],
    vios: list[dict[int, int]] | None,
) -> EvidenceSet:
    """The evidence set in canonical order: count descending, then mask
    ascending. ``counts`` and ``vios`` (if given) are parallel to ``masks``."""
    order = sorted(range(len(masks)), key=lambda i: (-counts[i], masks[i]))
    ev = EvidenceSet(
        space,
        [masks[i] for i in order],
        np.array([counts[i] for i in order], dtype=np.int64),
        n,
    )
    if vios is not None:
        ev.vios = {k: vios[i] for k, i in enumerate(order)}
    return ev


# -- the kernel ---------------------------------------------------------------


def _encode(pdf: pd.DataFrame) -> dict[str, np.ndarray]:
    """The column arrays the kernel compares.

    Numeric columns stay as they are. The other columns are factorized
    against one code table they all share, so equal values get equal codes
    in every column and cross-column equality still holds; the codes keep
    the values' order where the values order among each other. A null
    becomes NaN, which every raw comparison reads as false: that is the
    rule of :meth:`Predicate.eval` with no extra pass over the tile.
    """
    n = len(pdf)
    cols = {c: pdf[c].to_numpy() for c in pdf.columns if is_numeric_dtype(pdf[c])}
    other = [c for c in pdf.columns if c not in cols]
    if other:
        values = pd.concat([pdf[c] for c in other], ignore_index=True)
        try:
            codes, _ = pd.factorize(values, sort=True)
        except TypeError:  # values of types that do not order among each other
            codes, _ = pd.factorize(values)
        codes = np.where(codes < 0, np.nan, codes)
        cols.update((c, codes[k * n : (k + 1) * n]) for k, c in enumerate(other))
    return cols


def _keys(cols, plan, flip, ts: slice, ss: slice, keep: np.ndarray) -> np.ndarray:
    """The mask key of each pair ``(t, t')`` with ``t`` in rows ``ts`` and
    ``t'`` in rows ``ss`` where ``keep`` (shaped as that grid) holds, in
    row-major order: a uint64 when the space fits one word, else a void
    item of its words' bytes."""
    t = {c: v[ts, None] for c, v in cols.items()}
    s = {c: v[None, ss] for c, v in cols.items()}
    nb = len(flip)
    by = np.zeros((nb,) + keep.shape, dtype=np.uint8)  # byte j: predicates 8j..8j+7
    tmp = np.empty(keep.shape, dtype=np.uint8)
    with np.errstate(invalid="ignore"):  # NaN compares false, silently
        for rep, bits in plan.items():
            right = t if rep.single_tuple else s
            sat = np.asarray(PY_OP[rep.op](t[rep.lhs], right[rep.rhs]), dtype=bool).view(np.uint8)
            for k in bits:
                np.left_shift(sat, k % 8, out=tmp)
                np.bitwise_or(by[k // 8], tmp, out=by[k // 8])
    by ^= flip[:, None, None]  # ≠, ≥, ≤: the NOT of their representative
    pairs = np.ascontiguousarray(by.reshape(nb, -1)[:, keep.ravel()].T)
    # a 1-D unique over these keys beats np.unique(axis=0) over word rows
    return pairs.view("<u8").ravel() if nb == 8 else pairs.view(np.dtype((np.void, nb))).ravel()


def _tile(cols, plan, flip, n: int, lo: int, hi: int, grid: np.ndarray | None):
    """The pre-aggregated evidence of the pairs whose first tuple is a row
    in ``[lo, hi)``: distinct mask keys and their counts. Given the pair
    ``grid``, also writes each pair's index into those keys to its cell in
    the grid's rows ``[lo, hi)``, and ``len(keys)`` to the ``t = t'`` cells."""
    ids = np.arange(n)
    out = ids[lo:hi, None] != ids[None, :]  # (t, t') with t here and t ≠ t'
    keys = _keys(cols, plan, flip, slice(lo, hi), slice(0, n), out)
    if grid is None:
        return np.unique(keys, return_counts=True)
    uniq, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    grid[lo:hi][out] = inv
    np.fill_diagonal(grid[lo:hi, lo:], len(uniq))
    return uniq, counts


def _per_tuple(grid: np.ndarray, k: int, lo: int, hi: int):
    """The nonzero per-tuple counts of tuples ``[lo, hi)`` over a grid of
    global ids in ``[0, k]`` (``k``: the ``t = t'`` cells): each tuple's row
    histogram plus its column histogram, as (id, tuple, count) arrays."""
    r = hi - lo
    at = np.arange(r, dtype=np.int64) * (k + 1)  # tuple lo + j counts in [at[j], at[j] + k]
    h = np.bincount((grid[lo:hi] + at[:, None]).ravel(), minlength=r * (k + 1))
    h += np.bincount((grid[:, lo:hi] + at).ravel(), minlength=r * (k + 1))
    h = h.reshape(r, k + 1)[:, :k]
    t, g = np.nonzero(h)
    return g, lo + t, h[t, g]


def build_evidence_local(
    pdf: pd.DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """The evidence kernel over a pandas frame (see module doc)."""
    used = {c for p in space.predicates for c in (p.lhs, p.rhs)}
    work = pdf[[c for c in pdf.columns if c in used]].reset_index(drop=True)
    n = len(work)
    if n < 2:
        return _finish(space, n, [], [], [] if with_vios else None)
    cols = _encode(work)
    plan: dict[Predicate, list[int]] = {}  # representative -> the bits it sets
    for k, p in enumerate(space.predicates):
        plan.setdefault(p if p.op in REPRESENTATIVE else p.complement, []).append(k)
    flip = sum(1 << k for k, p in enumerate(space.predicates) if p.op not in REPRESENTATIVE)
    flip = np.frombuffer(flip.to_bytes(8 * space.n_words, "little"), dtype=np.uint8)
    # one thread per core: more only contend (8 threads on 4 cores were
    # slower than 4); at least one tile per thread
    workers = os.cpu_count() or 1
    rows = max(1, min(_TILE_PAIRS // n, -(-n // workers)))
    starts = range(0, n, rows)
    grid = np.empty((n, n), dtype=np.int32) if with_vios else None
    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(
            lambda lo: _tile(cols, plan, flip, n, lo, min(n, lo + rows), grid), starts
        ))
        # merge the tiles: one global id per distinct mask key
        keys, gid = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
        counts = np.bincount(gid, np.concatenate([p[1] for p in parts]), len(keys))
        if with_vios:
            k = len(keys)  # the id of the t = t' cells

            def to_global(lo: int, ids: np.ndarray) -> None:  # local id i → ids[i], t = t' → k
                grid[lo : lo + rows] = np.append(ids, k).astype(np.int32)[grid[lo : lo + rows]]

            tile_ids = np.split(gid, np.cumsum([len(p[0]) for p in parts])[:-1])
            list(pool.map(to_global, starts, tile_ids))
            # tuples per block: its dense histograms hold max(_TILE_PAIRS, k + 1) counts at most
            step = max(1, min(rows, _TILE_PAIRS // (k + 1)))
            per = list(pool.map(
                lambda lo: _per_tuple(grid, k, lo, min(n, lo + step)), range(0, n, step)
            ))
    if keys.dtype.kind == "u":
        masks = keys.tolist()
    else:
        masks = [int.from_bytes(k.tobytes(), "little") for k in keys]
    vios = None
    if with_vios:
        g = np.concatenate([p[0] for p in per])
        order = np.argsort(g, kind="stable")  # per id, tuples stay ascending
        bounds = np.searchsorted(g[order], np.arange(len(keys) + 1))
        t = np.concatenate([p[1] for p in per])[order].tolist()
        c = np.concatenate([p[2] for p in per])[order].tolist()
        vios = [dict(zip(t[a:b], c[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]
    return _finish(space, n, masks, counts.astype(np.int64).tolist(), vios)


# -- Spark entry points ---------------------------------------------------------


#: a predicate space, or the rule that builds one from the collected rows
SpaceOrRule = PredicateSpace | Callable[[pd.DataFrame], PredicateSpace]


def build_evidence_spark(
    spark: SparkSession, df: DataFrame, space: SpaceOrRule, *, with_vios: bool = False
) -> EvidenceSet:
    """The evidence of a Spark frame: one Arrow collect of its rows, then the
    kernel on the driver (see module doc). Tuple ids are row positions in
    the collected order. When ``space`` is a rule, the space is built from
    every collected row, so that collect is the only Spark action."""
    pdf = df.drop(RID).toPandas()
    if not isinstance(space, PredicateSpace):
        space = space(pdf)
    return build_evidence_local(pdf, space, with_vios=with_vios)


def build_vios_spark(spark: SparkSession, df: DataFrame, space: SpaceOrRule) -> EvidenceSet:
    """:func:`build_evidence_spark` with ``with_vios``: the bag and ``vios``
    from one pass.

    :func:`~repro.core.miner.adc_miner` calls it under this name when the
    function needs ``vios``: adcbench's per-layer trace wraps it as its
    ``evidence.vios`` layer, which therefore times the whole pass.
    """
    return build_evidence_spark(spark, df, space, with_vios=True)


def with_rid(df: DataFrame) -> DataFrame:
    """Attach a row id if absent: unique, not dense, and partition-parallel.

    ``monotonically_increasing_id`` numbers rows inside each partition, so no
    exchange or sort is needed. The id tells tuples apart (``t ≠ t'``) in
    the naive builder's self-join.
    """
    if RID in df.columns:
        return df
    return df.withColumn(RID, F.monotonically_increasing_id())


def _pairs(df: DataFrame) -> DataFrame:
    left, right = df.alias("l"), df.alias("r")
    return left.join(right, on=F.col(f"l.{RID}") != F.col(f"r.{RID}"), how="inner")


@contextmanager
def _cached(df: DataFrame) -> Iterator[DataFrame]:
    """``df`` cached for the block; released after it only if it was not
    cached before, so a caller's cached frame stays cached."""
    own = df.storageLevel == StorageLevel.NONE
    if own:
        df.cache()
    try:
        yield df
    finally:
        if own:
            df.unpersist()


def _aggregate(df: DataFrame, space: PredicateSpace, key: Column, with_vios: bool) -> EvidenceSet:
    """The naive builder's pair scan: ``key`` is a pair's mask as a hex
    string over the self-join. With ``with_vios`` each ordered pair is
    attributed to both its tuples (``tid``) in the same aggregate, so a
    mask's pair count is half the sum over its tuples; a tid becomes the
    rank of its row id, which is the row's position in the frame's order.
    """
    # The id is nondeterministic in Catalyst: both sides of the self-join
    # must read the same materialised ids, so the rid'ed frame is cached.
    with _cached(with_rid(df)) as df:
        n = df.count()
        cols, group = [key.alias("m")], ["m"]
        if with_vios:
            cols.append(F.explode(F.array(F.col(f"l.{RID}"), F.col(f"r.{RID}"))).alias("tid"))
            group.append("tid")
        rows = (
            _pairs(df)
            .select(*cols)
            .groupBy(*group)
            .agg(F.count(F.lit(1)).alias("cnt"))
            .collect()
        )
    bag: dict[str, int] = {}
    per_tid: dict[str, dict[int, int]] = {}
    rank = {t: i for i, t in enumerate(sorted({r["tid"] for r in rows}))} if with_vios else {}
    for r in rows:
        bag[r["m"]] = bag.get(r["m"], 0) + r["cnt"]
        if with_vios:
            per_tid.setdefault(r["m"], {})[rank[r["tid"]]] = r["cnt"]
    masks = [int(m, 16) for m in bag]
    counts = [c // 2 if with_vios else c for c in bag.values()]
    return _finish(space, n, masks, counts, [per_tid[m] for m in bag] if with_vios else None)


def build_evidence_naive(
    spark: SparkSession, df: DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """AFASTDC-style builder: per-pair Python UDF computing ``Sat`` masks.

    Deliberately tuple-at-a-time (no columnar bit packing) to serve as the
    slow baseline of the Figure-7 comparison. Masks are returned as hex
    strings to avoid UDF bigint overflow for spaces wider than 63
    predicates. Each bit is :meth:`Predicate.eval` on the pair's Python
    values, so nulls and NaN follow the kernel's rule (DESIGN.md §5).
    """
    attrs = [c for c in df.columns if c != RID]
    preds = space.predicates

    @F.udf(returnType=T.StringType())
    def sat_hex(lrow, rrow):
        t = dict(zip(attrs, lrow))
        s = dict(zip(attrs, rrow))
        return format(sum(1 << i for i, p in enumerate(preds) if p.eval(t, s)), "x")

    lstruct = F.struct(*[F.col(f"l.{_quote(a)}") for a in attrs])
    rstruct = F.struct(*[F.col(f"r.{_quote(a)}") for a in attrs])
    return _aggregate(df, space, sat_hex(lstruct, rstruct), with_vios)
