"""Evidence set construction (paper §3, §4.2 component 3).

``Evi(D)`` is the bag ``{{Sat(t,t') : t,t' ∈ D, t ≠ t'}}`` over *ordered*
tuple pairs. We store each distinct predicate set once as an integer bitmask
over the predicate space, with its multiplicity — the representation both
ADCEnum and the approximation functions operate on.

Builders:

- :func:`build_evidence_local` — the evidence kernel, over a pandas frame.
  It encodes each column once, in the narrowest type that holds its values
  exactly, and cuts the n×n pair grid into row-block tiles of equal
  height, in rounds of one tile per thread. Within a group of predicates
  on one attribute pair (one ``group_key``), ``=``, ``<`` and ``>``
  exclude each other and ``≠``, ``≥``, ``≤`` are their NOTs, so a pair's
  ``Sat`` over the group is one of at most four *states*: none of the
  group's representatives holds (also on a null or NaN), or exactly its
  ``j``-th one does. The groups' states are packed mixed-radix into one
  small integer code per pair, and a tile builds it with one compare per
  representative and one add of ``j · radix`` where it holds. When the
  code space (the product of the groups' state counts) is small, a tile is
  counted by ``np.bincount`` over all its cells, with no sort; else by
  ``np.unique`` over the codes, split across several uint64 words (void
  items) when the space reaches 2⁶⁴. Either way the tile counts every cell
  and subtracts its ``t = t'`` cells. Tiles run on driver threads (numpy
  releases the GIL in its compare and arithmetic loops, though not in
  ``np.bincount``) and are merged on the driver; each
  distinct code becomes its predicate bitmask once, through per-group
  tables. This plays the role of DCFinder's [37] evidence builder and
  FastADC's per-group clues (see DESIGN.md §2).
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
writes its pairs' codes (for a small code space; else their indices into
the tile's distinct codes) into one n×n pair grid, the merge maps them to
global ids by a lookup table (the ``t = t'`` diagonal to a spare id), and
a tuple's counts are its grid row's histogram plus its grid column's, by
``np.bincount`` over blocks of rows and of columns on the tile threads.
The grid holds the smallest unsigned type that fits its ids: at most
n²·2 bytes (uint16) when tiles are counted by ``np.bincount``, else n²·4
bytes (uint32) for n ≥ 256.
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

from .predicates import REPRESENTATIVE, Op, Predicate, PredicateSpace, is_numeric_dtype

RID = "__rid"

#: Pairs per tile of the kernel at most: a tile is whole rows of the pair
#: grid, at least one. The tile threads take the GIL between numpy calls
#: (and through ``np.bincount``), so a tile's calls must be long for the
#: threads to overlap: 2^18 built the two Spark benchmark inputs 25–45%
#: faster than 2^16 on 4 cores, for about 3.3 MB of buffers per thread.
_TILE_PAIRS = 1 << 18

#: Code spaces of at most this many codes are counted per tile by
#: ``np.bincount``; larger ones by ``np.unique`` over the tile's codes. On a
#: 64k-pair tile the two cost the same near 2^15 codes (4 cores, numpy 1.26);
#: above it the histogram's zeroing and nonzero scan dominate.
_DENSE_CODES = 1 << 15


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

#: The ufunc of each representative, so a tile compares into a reused buffer.
_UFUNC = {Op.EQ: np.equal, Op.LT: np.less, Op.GT: np.greater}


def _encode(pdf: pd.DataFrame) -> dict[str, np.ndarray]:
    """The column arrays the kernel compares.

    Numeric columns keep their values, in the narrowest type that holds
    them exactly; numeric extension arrays (``boolean``, ``Int64``,
    ``Float64``, ...) with an NA are read as float64 with NaN for NA first,
    as pandas already does for all but ``boolean``. The other
    columns are factorized against one code table they all share, so
    equal values get equal codes in every column and cross-column equality
    still holds; the codes keep the values' order where the values order
    among each other. In a column with a null, the null becomes NaN, which
    every raw comparison reads as false: that is the rule of
    :meth:`Predicate.eval` with no extra pass over the tile.
    """
    n = len(pdf)
    cols = {}
    for c, s in pdf.items():
        nullable = isinstance(s.dtype, pd.api.extensions.ExtensionDtype)
        if nullable and pd.api.types.is_numeric_dtype(s) and s.hasnans:
            cols[c] = _narrow(s.to_numpy(dtype=np.float64, na_value=np.nan))
        elif is_numeric_dtype(s):
            cols[c] = _narrow(s.to_numpy())
    other = [c for c in pdf.columns if c not in cols]
    if other:
        values = pd.concat([pdf[c] for c in other], ignore_index=True)
        try:
            codes, _ = pd.factorize(values, sort=True)
        except TypeError:  # values of types that do not order among each other
            codes, _ = pd.factorize(values)
        for k, c in enumerate(other):
            v = codes[k * n : (k + 1) * n]
            cols[c] = _narrow(np.where(v < 0, np.nan, v) if (v < 0).any() else v)
    return cols


def _exact_across(cols: dict[str, np.ndarray], space: PredicateSpace) -> None:
    """Re-code, in place, the columns that a float64 compare would misread.

    numpy compares an integer column with a float column in float64, where
    integers beyond 2⁵³ lose their low bits. So each set of columns linked
    by the space's predicates that holds a float column and an integer
    column with such a value is re-coded as a whole: every value becomes its
    rank among the distinct values of the set, in Python's exact order of
    ints and floats, and NaN stays NaN. Every compare within the set then
    reads as on the values, and every other column is left as it is."""
    link = {c: c for c in cols}

    def root(c: str) -> str:
        while link[c] != c:
            c = link[c]
        return c

    for p in space.predicates:
        if p.lhs in link and p.rhs in link:
            link[root(p.lhs)] = root(p.rhs)
    linked: dict[str, list[str]] = {}
    for c in cols:
        linked.setdefault(root(c), []).append(c)

    def beyond_float(v: np.ndarray) -> bool:
        return v.dtype.kind in "iu" and v.size > 0 and max(-int(v.min()), int(v.max())) > 1 << 53

    for names in linked.values():
        vs = [cols[c] for c in names]
        if not (any(v.dtype.kind == "f" for v in vs) and any(map(beyond_float, vs))):
            continue
        values = {x: None for c in names for x in cols[c].tolist() if x == x}  # x ≠ x: NaN
        rank = {x: float(k) for k, x in enumerate(sorted(values))}
        for c in names:
            cols[c] = _narrow(np.array([rank.get(x, np.nan) for x in cols[c].tolist()]))


def _narrow(v: np.ndarray) -> np.ndarray:
    """``v`` in the narrowest type of its kind that holds every value
    exactly, so every comparison reads the same and costs less: a tile's
    compare runs at the width of its operands."""
    if v.size and v.dtype.kind in "iu":
        # a signed minimum with an unsigned 64-bit maximum promotes to float
        narrow = np.result_type(np.min_scalar_type(v.min()), np.min_scalar_type(v.max()))
        return v.astype(narrow) if narrow.kind in "iu" else v
    if v.dtype == np.float64:
        narrow = v.astype(np.float32)
        if np.array_equal(narrow, v, equal_nan=True):
            return narrow
    return v


@dataclass(frozen=True)
class _Codes:
    """The group state codes of a predicate space (see module doc).

    A group's state is 0 when none of its representatives holds and ``j``
    when its ``j``-th representative does; the groups are packed mixed-radix
    into code words of fewer than 2⁶⁴ codes each. A group with all of
    ``=``, ``<``, ``>`` on columns with no null or NaN is never in state 0,
    so its ``=`` is not evaluated: its word starts at the ``=`` state and
    ``<``, ``>`` add the difference.
    """

    #: (representative, code word, what it adds to the word where it holds)
    steps: list[tuple[Predicate, int, int]]
    #: (code word, radix, states, the mask words of each state)
    groups: list[tuple[int, int, int, np.ndarray]]
    #: codes per word
    sizes: list[int]
    #: the code each word starts from
    bases: list[int]
    #: 64-bit words per predicate bitmask
    n_words: int

    @classmethod
    def of(cls, space: PredicateSpace, known: frozenset[str] = frozenset()) -> "_Codes":
        """The codes of ``space``; ``known``: the columns with no null or NaN."""
        members: dict[tuple, list[int]] = {}
        for k, p in enumerate(space.predicates):
            members.setdefault(p.group_key, []).append(k)
        steps, groups, sizes, bases = [], [], [1], [0]
        for ids in members.values():
            preds = [space.predicates[k] for k in ids]
            reps = [p if p.op in REPRESENTATIVE else p.complement for p in preds]
            held = sorted(set(reps), key=lambda r: list(_UFUNC).index(r.op))
            if sizes[-1] * (1 + len(held)) >= 1 << 64:
                sizes.append(1)
                bases.append(0)
            w, radix = len(sizes) - 1, sizes[-1]
            if len(held) == 3 and {preds[0].lhs, preds[0].rhs} <= known:
                bases[w] += radix
                steps += [(r, w, (j - 1) * radix) for j, r in enumerate(held[1:], 2)]
            else:
                steps += [(r, w, j * radix) for j, r in enumerate(held, 1)]
            states = [None] + held  # the representative that holds in each state
            masks = [
                sum(1 << k for k, p, r in zip(ids, preds, reps)
                    if (r == rep) != (p.op not in REPRESENTATIVE))
                for rep in states
            ]
            table = np.array(
                [[m >> 64 * i & (1 << 64) - 1 for i in range(space.n_words)] for m in masks],
                dtype=np.uint64,
            )
            groups.append((w, radix, len(states), table))
            sizes[-1] *= len(states)
        return cls(steps, groups, sizes, bases, space.n_words)

    @property
    def dtype(self) -> np.dtype:
        """The smallest unsigned type that holds every code and the code count."""
        return np.min_scalar_type(self.sizes[0]) if len(self.sizes) == 1 else np.dtype(np.uint64)

    @property
    def dense(self) -> bool:
        """Whether tiles are counted by ``np.bincount`` over the whole code space."""
        return len(self.sizes) == 1 and self.sizes[0] <= _DENSE_CODES

    def masks(self, keys: np.ndarray) -> list[int]:
        """The predicate bitmask of each code in ``keys`` (void items for a
        code of several words)."""
        words = keys.view(np.uint64).reshape(len(keys), -1) if keys.dtype.kind == "V" else keys
        out = np.zeros((len(keys), self.n_words), dtype=np.uint64)
        for w, radix, states, table in self.groups:
            col = words if words.ndim == 1 else words[:, w]
            out |= table[col.astype(np.uint64) // np.uint64(radix) % np.uint64(states)]
        if out.shape[1] == 1:
            return out[:, 0].tolist()
        return [int.from_bytes(m.tobytes(), "little") for m in out]


def _tile(cols, codes: _Codes, n: int, lo: int, hi: int, grid: np.ndarray | None):
    """The pre-aggregated evidence of the pairs ``(t, t')`` whose first tuple
    is a row in ``[lo, hi)``, ``t = t'`` excluded: distinct codes and their
    counts. Given the pair ``grid``, also writes to its rows ``[lo, hi)``
    each pair's code (dense codes) or index into the returned codes."""
    r = hi - lo
    words = len(codes.sizes)
    if grid is not None and codes.dense:
        code = grid[None, lo:hi]
    else:
        code = np.empty((words, r, n), dtype=codes.dtype)
    code[...] = np.array(codes.bases, dtype=codes.dtype)[:, None, None]
    t = {c: v[lo:hi, None] for c, v in cols.items()}
    s = {c: v[None, :] for c, v in cols.items()}
    sat = np.empty((r, n), dtype=bool)
    add = np.empty((r, n), dtype=codes.dtype)
    # the loop below holds the GIL only between numpy calls, so it is set up first;
    # a single-tuple representative is one value per row
    steps = [
        (_UFUNC[rep.op], t[rep.lhs], (t if rep.single_tuple else s)[rep.rhs],
         sat[:, :1] if rep.single_tuple else sat, code[w], codes.dtype.type(c))
        for rep, w, c in codes.steps
    ]
    with np.errstate(invalid="ignore"):  # NaN compares false, silently
        for op, a, b, holds, acc, c in steps:
            op(a, b, out=holds)
            np.multiply(holds, c, out=add)
            np.add(acc, add, out=acc)
    diag = np.arange(r) * (n + 1) + lo  # the t = t' cells
    if codes.dense:
        flat = code.reshape(-1)
        h = np.bincount(flat, minlength=codes.sizes[0])
        np.subtract.at(h, flat[diag], 1)
        keys = np.flatnonzero(h)
        return keys, h[keys]
    if words == 1:
        flat = code.reshape(-1)
    else:  # a 1-D unique over void items beats np.unique(axis=0) over word rows
        flat = np.ascontiguousarray(code.reshape(words, -1).T)
        flat = flat.view(np.dtype((np.void, 8 * words))).ravel()
    if grid is None:
        keys, counts = np.unique(flat, return_counts=True)
        np.subtract.at(counts, np.searchsorted(keys, flat[diag]), 1)
    else:
        keys, inv, counts = np.unique(flat, return_inverse=True, return_counts=True)
        np.subtract.at(counts, inv[diag], 1)
        grid[lo:hi] = inv.reshape(r, n)
    return keys, counts


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
    _exact_across(cols, space)
    codes = _Codes.of(space, frozenset(c for c, v in cols.items() if not pd.isna(v).any()))
    # one thread per core: more only contend (8 threads on 4 cores were
    # slower than 4); tiles of equal rows, in rounds of one per thread
    workers = os.cpu_count() or 1
    rounds = -(-n // (workers * max(1, _TILE_PAIRS // n)))
    rows = -(-n // (workers * rounds))
    starts = range(0, n, rows)
    grid = None
    if with_vios:  # codes, or indices into a tile's codes; then global ids
        grid = np.empty((n, n), dtype=codes.dtype if codes.dense else np.min_scalar_type(n * n))
    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(
            lambda lo: _tile(cols, codes, n, lo, min(n, lo + rows), grid), starts
        ))
        # merge the tiles: one global id per distinct code that some pair has
        keys, gid = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
        counts = np.bincount(gid, np.concatenate([p[1] for p in parts]), len(keys))
        live = counts > 0  # codes seen only on t = t' cells drop out
        keys, counts = keys[live], counts[live]
        if with_vios:
            k = len(keys)  # the id of the t = t' cells
            if codes.dense:
                lut = np.full(codes.sizes[0], k, dtype=grid.dtype)
                lut[keys] = np.arange(k)
                luts = [lut] * len(starts)
            else:
                gid = (np.cumsum(live) - live)[gid]  # live ids before; a dead one is on t = t' only
                luts = np.split(gid.astype(grid.dtype), np.cumsum([len(p[0]) for p in parts])[:-1])

            def to_global(lo: int, lut: np.ndarray) -> None:
                grid[lo : lo + rows] = lut[grid[lo : lo + rows]]
                np.fill_diagonal(grid[lo : lo + rows, lo:], k)

            list(pool.map(to_global, starts, luts))
            # tuples per block: its dense histograms hold max(_TILE_PAIRS, k + 1) counts at most
            step = max(1, min(rows, _TILE_PAIRS // (k + 1)))
            per = list(pool.map(
                lambda lo: _per_tuple(grid, k, lo, min(n, lo + step)), range(0, n, step)
            ))
    masks = codes.masks(keys)
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
    # only with_rid frames carry RID; the schema read here is cached on the
    # frame, and toPandas reuses it
    pdf = (df.drop(RID) if RID in df.columns else df).toPandas()
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
