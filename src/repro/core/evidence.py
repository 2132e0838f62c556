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

The ``vios`` structure of Figure 2 (per evidence set, per tuple violation
counts, needed by f2 and GreedyF3) is built by :func:`build_vios_spark` /
locally, again as a DataFrame aggregation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import pandas as pd
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


def _word_columns(space: PredicateSpace) -> list[Column]:
    """Pack the space's boolean predicate columns into int64 words."""
    t, s = _Side("l"), _Side("r")
    words: list[Column] = []
    for w in range(space.n_words):
        bits = [
            F.shiftleft(p.eval(t, s).cast("long"), k)
            for k, p in enumerate(space.predicates[w * 64 : (w + 1) * 64])
        ]
        words.append(reduce(Column.bitwiseOR, bits).alias(f"w{w}"))
    return words


def _mask_from_words(row_words: tuple[int, ...]) -> int:
    mask = 0
    for i, w in enumerate(row_words):
        mask |= (int(w) & 0xFFFFFFFFFFFFFFFF) << (64 * i)
    return mask


def _pairs(df: DataFrame) -> DataFrame:
    left, right = df.alias("l"), df.alias("r")
    return left.join(right, on=F.col(f"l.{RID}") != F.col(f"r.{RID}"), how="inner")


def build_evidence_spark(
    spark: SparkSession, df: DataFrame, space: PredicateSpace
) -> EvidenceSet:
    """Distributed evidence construction via Catalyst (see module doc)."""
    df = with_rid(df).cache()
    n = df.count()
    word_names = [f"w{w}" for w in range(space.n_words)]
    agg = (
        _pairs(df)
        .select(*_word_columns(space))
        .groupBy(*word_names)
        .agg(F.count(F.lit(1)).alias("cnt"))
        .collect()
    )
    masks = [_mask_from_words(tuple(r[w] for w in word_names)) for r in agg]
    counts = np.array([r["cnt"] for r in agg], dtype=np.int64)
    return EvidenceSet(space, masks, counts, n)


def build_vios_spark(
    spark: SparkSession, df: DataFrame, ev: EvidenceSet
) -> None:
    """Populate ``ev.vios`` with per-(evidence set, tuple) pair counts.

    For every ordered pair the pair's mask is attributed to both its tuples,
    then aggregated by (mask, rid) — a single extra DataFrame aggregation.
    """
    space = ev.space
    df = with_rid(df)
    word_names = [f"w{w}" for w in range(space.n_words)]
    rows = (
        _pairs(df)
        .select(
            *_word_columns(space),
            F.explode(F.array(F.col(f"l.{RID}"), F.col(f"r.{RID}"))).alias("tid"),
        )
        .groupBy(*word_names, "tid")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .collect()
    )
    idx_of = {m: i for i, m in enumerate(ev.masks)}
    vios: dict[int, dict[int, int]] = {i: {} for i in range(ev.n_distinct)}
    for r in rows:
        i = idx_of[_mask_from_words(tuple(r[w] for w in word_names))]
        vios[i][int(r["tid"])] = int(r["cnt"])
    ev.vios = vios


def build_evidence_naive(
    spark: SparkSession, df: DataFrame, space: PredicateSpace
) -> EvidenceSet:
    """AFASTDC-style builder: per-pair Python UDF computing ``Sat`` masks.

    Deliberately tuple-at-a-time (no columnar bit packing) to serve as the
    slow baseline of the Figure-7 comparison. Only the first 63-bit words
    trick differs: masks are returned as hex strings to avoid UDF bigint
    overflow for spaces wider than 63 predicates.
    """
    df = with_rid(df).cache()
    n = df.count()
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
    agg = (
        _pairs(df)
        .select(sat_hex(lstruct, rstruct).alias("m"))
        .groupBy("m")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .collect()
    )
    masks = [int(r["m"], 16) for r in agg]
    counts = np.array([r["cnt"] for r in agg], dtype=np.int64)
    return EvidenceSet(space, masks, counts, n)


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
