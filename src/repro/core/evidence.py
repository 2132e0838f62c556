"""Evidence set construction (paper §3, §4.2 component 3).

``Evi(D)`` is the bag ``{{Sat(t,t') : t,t' ∈ D, t ≠ t'}}`` over *ordered*
tuple pairs. We store each distinct predicate set once as an integer bitmask
over the predicate space, with its multiplicity — the representation both
ADCEnum and the approximation functions operate on.

Builders:

- :func:`build_evidence_spark` — the production path. A Catalyst self
  cross-join evaluates every predicate as a boolean column, packs the bits
  into int64 words with ``shiftleft``/``bitwiseOR`` and aggregates with
  ``groupBy(words).count()``. This plays the role of DCFinder's [37]
  bit-level evidence builder (see DESIGN.md §2).
- :func:`build_evidence_naive` — AFASTDC-style [11] baseline: the same
  cross-join but a per-pair Python UDF, i.e. tuple-at-a-time evaluation.
  Used only for the Figure-7 runtime comparison.
- :func:`build_evidence_local` — numpy reference implementation used by the
  test oracle and for driver-only micro-instances.

The two Spark builders differ only in their mask columns; the scan, the
aggregate and the collect are one shared pass (``_aggregate``).

All three take ``with_vios``: it also fills the ``vios`` structure of
Figure 2 (per evidence set, per tuple pair counts, needed by f2 and
GreedyF3). The Spark builders get it from the same scan by grouping on
(mask, tid), each ordered pair counted once for each of its two tuples;
a mask's pair count is then half its summed tuple counts.
:func:`build_vios_spark` is the Catalyst builder with ``with_vios`` set.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import pandas as pd
from pyspark import StorageLevel
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .predicates import PredicateSpace, pair_grid

RID = "__rid"


def _quote(name: str) -> str:
    """Backtick ``name``, doubling inner backticks, so dots and spaces resolve."""
    return "`" + name.replace("`", "``") + "`"


@dataclass
class EvidenceSet:
    """Driver-side evidence set: distinct ``Sat`` masks with multiplicities.

    ``vios[i]`` (when loaded) maps tuple rid → number of ordered pairs with
    ``Sat = masks[i]`` that involve the tuple (as either side).
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


def with_rid(df: DataFrame) -> DataFrame:
    """Attach a stable 0..n-1 row id if absent.

    Uses a window row_number over the natural column order; stability only
    matters within one mining run (the id keys the ``vios`` structure).
    """
    if RID in df.columns:
        return df
    from pyspark.sql.window import Window

    w = Window.orderBy(*[F.col(_quote(c)) for c in df.columns])
    return df.withColumn(RID, F.row_number().over(w) - F.lit(1))


class _Side:
    """One side of the pair self-join as the ``name → Column`` mapping
    :meth:`Predicate.eval` reads: ``_Side("l")["A"]`` is ``F.col("l.`A`")``."""

    __slots__ = ("alias",)

    def __init__(self, alias: str):
        self.alias = alias

    def __getitem__(self, name: str) -> Column:
        return F.col(f"{self.alias}.{_quote(name)}")


def _word_columns(space: PredicateSpace) -> dict[str, Column]:
    """Pack the space's boolean predicate columns into int64 words."""
    t, s = _Side("l"), _Side("r")
    words: dict[str, Column] = {}
    for w in range(space.n_words):
        bits = [
            F.shiftleft(p.eval(t, s).cast("long"), k)
            for k, p in enumerate(space.predicates[w * 64 : (w + 1) * 64])
        ]
        words[f"w{w}"] = reduce(Column.bitwiseOR, bits)
    return words


def _mask_from_words(row_words: tuple[int, ...]) -> int:
    mask = 0
    for i, w in enumerate(row_words):
        mask |= (int(w) & 0xFFFFFFFFFFFFFFFF) << (64 * i)
    return mask


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


def _aggregate(
    df: DataFrame,
    space: PredicateSpace,
    keys: dict[str, Column],
    decode: Callable[[tuple], int],
    with_vios: bool,
) -> EvidenceSet:
    """The pair scan both Spark builders share.

    ``keys`` names the builder's mask columns over the pair join and
    ``decode`` turns one row's key values into the mask. With ``with_vios``
    each ordered pair is attributed to both its tuples (``tid``) in the same
    aggregate, so a mask's pair count is half the sum over its tuples.
    """
    with _cached(with_rid(df)) as df:
        n = df.count()
        cols = [c.alias(name) for name, c in keys.items()]
        group = list(keys)
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
    k = len(keys)
    bag: dict[tuple, int] = {}
    per_tid: dict[tuple, dict[int, int]] = {}
    for r in rows:
        key, cnt = tuple(r[:k]), r[-1]
        bag[key] = bag.get(key, 0) + cnt
        if with_vios:
            per_tid.setdefault(key, {})[r[k]] = cnt
    masks = [decode(key) for key in bag]
    counts = np.fromiter(bag.values(), dtype=np.int64, count=len(bag))
    ev = EvidenceSet(space, masks, counts // 2 if with_vios else counts, n)
    if with_vios:
        ev.vios = {i: per_tid[key] for i, key in enumerate(bag)}
    return ev


def build_evidence_spark(
    spark: SparkSession, df: DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """Distributed evidence construction via Catalyst (see module doc)."""
    return _aggregate(df, space, _word_columns(space), _mask_from_words, with_vios)


def build_vios_spark(spark: SparkSession, df: DataFrame, space: PredicateSpace) -> EvidenceSet:
    """:func:`build_evidence_spark` with ``with_vios``: the bag and ``vios``
    from one pass.

    :func:`~repro.core.miner.adc_miner` calls it under this name when the
    function needs ``vios``: adcbench's per-layer trace wraps it as its
    ``evidence.vios`` layer, which therefore times the whole pass.
    """
    return build_evidence_spark(spark, df, space, with_vios=True)


def build_evidence_naive(
    spark: SparkSession, df: DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """AFASTDC-style builder: per-pair Python UDF computing ``Sat`` masks.

    Deliberately tuple-at-a-time (no columnar bit packing) to serve as the
    slow baseline of the Figure-7 comparison. Only the first 63-bit words
    trick differs: masks are returned as hex strings to avoid UDF bigint
    overflow for spaces wider than 63 predicates.
    """
    attrs = [c for c in df.columns if c != RID]
    preds = list(space.predicates)

    @F.udf(returnType=T.StringType())
    def sat_hex(lrow, rrow):
        t = dict(zip(attrs, lrow))
        s = dict(zip(attrs, rrow))
        m = 0
        for i, p in enumerate(preds):
            if p.eval(t, s):
                m |= 1 << i
        return format(m, "x")

    lstruct = F.struct(*[_Side("l")[a] for a in attrs])
    rstruct = F.struct(*[_Side("r")[a] for a in attrs])
    keys = {"m": sat_hex(lstruct, rstruct)}
    return _aggregate(df, space, keys, lambda k: int(k[0], 16), with_vios)


def build_evidence_local(
    pdf: pd.DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """Numpy reference builder over a pandas frame (tests / micro-instances)."""
    work = pdf.drop(columns=[RID], errors="ignore").reset_index(drop=True)
    n = len(work)
    t, s = pair_grid(work)
    # bit-pack predicate truth over the full n×n pair grid into uint64 words
    words = [np.zeros((n, n), dtype=np.uint64) for _ in range(space.n_words)]
    for k, p in enumerate(space.predicates):
        sat = np.asarray(p.eval(t, s), dtype=bool)
        words[k // 64] |= sat.astype(np.uint64) << np.uint64(k % 64)
    bag: dict[int, int] = {}
    vios: dict[int, dict[int, int]] = {}
    cell_masks = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = 0
            for w, wm in enumerate(words):
                m |= int(wm[i, j]) << (64 * w)
            cell_masks[i][j] = m
            bag[m] = bag.get(m, 0) + 1
    masks = list(bag)
    counts = np.array([bag[m] for m in masks], dtype=np.int64)
    ev = EvidenceSet(space, masks, counts, n)
    if with_vios:
        idx_of = {m: k for k, m in enumerate(masks)}
        vios = {k: {} for k in range(len(masks))}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                k = idx_of[cell_masks[i][j]]
                d = vios[k]
                d[i] = d.get(i, 0) + 1
                d[j] = d.get(j, 0) + 1
        ev.vios = vios
    return ev
