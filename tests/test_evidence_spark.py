"""Spark evidence builders vs the local reference, and DuckDB oracle checks.

Every query-result test goes through ``repro.oracle.assert_equivalent`` so a
broken cross-join, predicate translation, or bit-packing bug is caught
against an independent engine, not just "it ran".
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.core import (
    F1,
    F2,
    adc_enum,
    adc_miner,
    build_evidence_local,
    build_evidence_naive,
    build_evidence_spark,
    build_predicate_space,
    with_rid,
)
from repro.core.dc import DenialConstraint
from repro.core.evidence import RID
from repro.core.predicates import REPRESENTATIVE, Op, Predicate, PredicateSpace
from repro.datasets import DATASETS, PHI1, PHI2, running_example

P = Predicate


def _bag(ev) -> dict[int, int]:
    return dict(zip(ev.masks, ev.counts.tolist()))


def _vios_by_mask(ev) -> dict[int, dict[int, int]]:
    """Per mask, tuple → pair count; every builder numbers a tuple by its
    row's position in the frame it read."""
    return {ev.masks[i]: v for i, v in ev.vios.items()}


@pytest.fixture(scope="module")
def re_ctx(spark):
    pdf = running_example()
    space = build_predicate_space(pdf, include_pairs=[("Income", "Tax")])
    df = with_rid(spark.createDataFrame(pdf)).cache()
    return pdf, space, df


class TestFastBuilder:
    def test_matches_local_reference(self, spark, re_ctx):
        pdf, space, df = re_ctx
        ev_s = build_evidence_spark(spark, df, space)
        ev_l = build_evidence_local(pdf, space)
        assert dict(zip(ev_s.masks, ev_s.counts.tolist())) == dict(
            zip(ev_l.masks, ev_l.counts.tolist())
        )

    def test_invariants(self, spark, re_ctx):
        _, space, df = re_ctx
        ev = build_evidence_spark(spark, df, space)
        ev.check()

    @pytest.mark.parametrize(
        "case,n",
        [("running", None), ("running", 0), ("running", 1), ("running", 2), ("flight", None)],
        ids=["running-example", "n0", "n1", "n2", "flight-multiword"],
    )
    def test_vios_matches_local(self, spark, re_ctx, case, n):
        """One scan gives the bag and vios of the local reference; a mask's
        tuple counts sum to twice its pair count."""
        if case == "flight":
            pdf, schema = DATASETS["flight"](20, seed=1).pdf, None
            space = build_predicate_space(pdf)
            assert space.n_words >= 2
        else:
            pdf, space, df = re_ctx
            if n is not None:
                pdf = pdf.head(n)
            schema = df.drop(RID).schema  # an empty frame has none to infer
        self._assert_vios_matches_local(spark, spark.createDataFrame(pdf, schema), space)

    def test_rid_is_partition_parallel(self, spark, re_ctx):
        """The row id adds no single-partition exchange, and a frame spread
        over 8 partitions gives the local reference's bag and vios."""
        pdf, space, _ = re_ctx
        plan = with_rid(spark.createDataFrame(pdf))._jdf.queryExecution().executedPlan()
        assert "SinglePartition" not in plan.toString()
        self._assert_vios_matches_local(spark, spark.createDataFrame(pdf).repartition(8), space)

    @staticmethod
    def _assert_vios_matches_local(spark, df, space):
        df = df.cache()
        rows = df.toPandas()
        ev_s = build_evidence_spark(spark, df, space, with_vios=True)
        ev_l = build_evidence_local(rows, space, with_vios=True)
        df.unpersist()
        ev_s.check()
        assert _bag(ev_s) == _bag(ev_l)
        assert _vios_by_mask(ev_s) == _vios_by_mask(ev_l)
        for i, c in enumerate(ev_s.counts.tolist()):
            assert sum(ev_s.vios[i].values()) == 2 * c

    @pytest.mark.parametrize("name", ["tax", "stock", "airport"])
    def test_datasets_match_local(self, spark, name):
        spec = DATASETS[name](50, seed=11)
        pdf = spec.pdf
        space = build_predicate_space(pdf)
        df = spark.createDataFrame(pdf)
        ev_s = build_evidence_spark(spark, df, space)
        ev_l = build_evidence_local(pdf, space)
        assert dict(zip(ev_s.masks, ev_s.counts.tolist())) == dict(
            zip(ev_l.masks, ev_l.counts.tolist())
        )

    def test_wide_space_multi_word_masks(self, spark):
        # flight's space is > 128 predicates → exercises 3+ word packing
        spec = DATASETS["flight"](30, seed=1)
        pdf = spec.pdf
        space = build_predicate_space(pdf)
        assert space.n_words >= 3
        df = spark.createDataFrame(pdf)
        ev_s = build_evidence_spark(spark, df, space)
        ev_l = build_evidence_local(pdf, space)
        assert dict(zip(ev_s.masks, ev_s.counts.tolist())) == dict(
            zip(ev_l.masks, ev_l.counts.tolist())
        )

    def test_lineitem_synth_data(self, spark):
        # exercise the provided TPC-H-lite generator through the builder
        li = synth_data.lineitem(spark, sf=0.00001).select(
            "l_quantity", "l_extendedprice", "l_discount", "l_tax"
        )
        pdf = li.toPandas()
        space = build_predicate_space(pdf, include_pairs=[("l_discount", "l_tax")])
        df = spark.createDataFrame(pdf)
        ev_s = build_evidence_spark(spark, df, space)
        ev_l = build_evidence_local(pdf, space)
        assert dict(zip(ev_s.masks, ev_s.counts.tolist())) == dict(
            zip(ev_l.masks, ev_l.counts.tolist())
        )


class TestNaiveBuilder:
    @pytest.mark.parametrize("with_vios", [False, True], ids=["bag", "vios"])
    def test_matches_fast_builder(self, spark, re_ctx, with_vios):
        _, space, df = re_ctx
        ev_f = build_evidence_spark(spark, df, space, with_vios=with_vios)
        ev_n = build_evidence_naive(spark, df, space, with_vios=with_vios)
        assert _bag(ev_f) == _bag(ev_n)
        if with_vios:
            assert _vios_by_mask(ev_f) == _vios_by_mask(ev_n)
        else:
            assert ev_f.vios is None and ev_n.vios is None

    def test_on_dataset(self, spark):
        spec = DATASETS["adult"](30, seed=5)
        pdf = spec.pdf
        space = build_predicate_space(pdf)
        df = spark.createDataFrame(pdf)
        ev_f = build_evidence_spark(spark, df, space)
        ev_n = build_evidence_naive(spark, df, space)
        assert dict(zip(ev_f.masks, ev_f.counts.tolist())) == dict(
            zip(ev_n.masks, ev_n.counts.tolist())
        )


class TestNullsAndNaN:
    """DESIGN.md §5: a representative (=, <, >) that reads a null or NaN is
    false, so its complement (≠, ≥, ≤) holds on that pair."""

    ROWS = [(1.0, 2.0, "x"), (None, 1.0, "y"), (float("nan"), 3.0, None), (2.0, float("nan"), "x")]
    SCHEMA = "a double, b double, s string"

    @pytest.fixture(scope="class")
    def case(self, spark):
        pdf = pd.DataFrame(self.ROWS, columns=["a", "b", "s"])
        assert pdf["a"].isna().sum() == 2  # None and NaN both read as NaN
        space = build_predicate_space(pdf, include_pairs=[("a", "b")])
        return pdf, space, spark.createDataFrame(self.ROWS, self.SCHEMA)

    def test_builders_agree_and_check(self, spark, case):
        pdf, space, df = case
        assert df.where(F.col("a").isNull()).count() == 1
        assert df.where(F.isnan("a")).count() == 1
        for with_vios in (False, True):
            ev_s = build_evidence_spark(spark, df, space, with_vios=with_vios)
            ev_l = build_evidence_local(pdf, space, with_vios=with_vios)
            ev_s.check()
            ev_l.check()
            assert _bag(ev_s) == _bag(ev_l)
            if with_vios:
                assert _vios_by_mask(ev_s) == _vios_by_mask(ev_l)

    def test_rule(self, case):
        """Rows 1 and 2 read a null and a NaN in ``a`` and one null in ``s``:
        on both their pairs every representative is false and every
        complement holds."""
        pdf, space, _ = case
        ev = build_evidence_local(pdf.iloc[[1, 2]], space)
        assert ev.n_distinct == 2
        same = [p for p in space.predicates if p.lhs == p.rhs and p.lhs in "as" and not p.single_tuple]
        assert len(same) == 8
        for m in ev.masks:
            for p in same:
                assert (m >> space.id_of(p) & 1) == (p.op not in REPRESENTATIVE), p

    @pytest.mark.parametrize("bad", [None, float("nan")], ids=["null", "nan"])
    def test_naive_builder_follows_the_rule(self, spark, bad):
        """The naive UDF reads a None or NaN side as false, like the kernel."""
        df = spark.createDataFrame([(1.0, "x"), (bad, None), (2.0, "x")], "a double, s string")
        pdf = df.toPandas()
        space = build_predicate_space(pdf)
        for with_vios in (False, True):
            ev_n = build_evidence_naive(spark, df, space, with_vios=with_vios)
            ev_l = build_evidence_local(pdf, space, with_vios=with_vios)
            ev_n.check()
            assert _bag(ev_n) == _bag(ev_l)
            if with_vios:
                assert _vios_by_mask(ev_n) == _vios_by_mask(ev_l)

    @pytest.mark.parametrize("f", [F1(), F2()], ids=["f1", "f2"])
    def test_miner_runs(self, spark, case, f):
        _, space, df = case
        res = adc_miner(spark, df, f, 0.1)
        res.evidence.check()
        assert res.n_sampled == 4
        res = adc_miner(spark, df, f, 0.1, space=space)
        res.evidence.check()


class TestCanonicalOrder:
    """Every builder returns masks by (count descending, mask ascending), so
    ADCEnum's tree depends on neither the builder nor the partitioning."""

    def test_same_masks_and_nodes(self, spark):
        pdf = DATASETS["airport"](40, seed=4).pdf
        space = build_predicate_space(pdf)
        one = spark.createDataFrame(pdf).coalesce(1)
        eight = spark.createDataFrame(pdf).repartition(8)
        evs = [
            build_evidence_spark(spark, one, space, with_vios=True),
            build_evidence_spark(spark, eight, space, with_vios=True),
            build_evidence_naive(spark, eight, space, with_vios=True),
        ]
        order = [(-int(c), m) for m, c in zip(evs[0].masks, evs[0].counts)]
        assert order == sorted(order)
        for ev in evs[1:]:
            assert ev.masks == evs[0].masks
            assert ev.counts.tolist() == evs[0].counts.tolist()
        for f in (F1(), F2()):
            nodes = {adc_enum(ev, f, 0.01)[1].nodes for ev in evs}
            assert len(nodes) == 1


def _violations(ev, dc) -> int:
    """Violating ordered pairs of ``dc`` read off an evidence bag: the pairs
    whose ``Sat`` holds every predicate of the DC."""
    bits = sum(1 << ev.space.id_of(p) for p in dc.predicates)
    return sum(int(c) for m, c in zip(ev.masks, ev.counts) if m & bits == bits)


def _assert_oracle_counts(spark, counts, dcs, pdf):
    """Assert that ``counts[k]`` is DuckDB's count of the ordered pairs of
    ``pdf`` that violate ``dcs[k]``; the counts reach ``assert_equivalent``
    as the columns of a 1-row Spark frame."""
    from repro.oracle import assert_equivalent

    got = spark.range(1).select(
        *[F.lit(c).cast("long").alias(f"c{k}") for k, c in enumerate(counts)]
    )
    cols = ", ".join(
        f"count(*) FILTER (WHERE {dc.violation_sql('t1', 't2')}) AS c{k}"
        for k, dc in enumerate(dcs)
    )
    sql = f"SELECT {cols} FROM d t1, d t2 WHERE t1.__rid <> t2.__rid"
    assert_equivalent(got, sql, d=pdf.assign(__rid=range(len(pdf))))


def _assert_evidence_matches_oracle(spark, df, dc):
    """The production route (``build_evidence_spark``'s bag over a space of
    the DC's own predicates) counts ``dc``'s violations as DuckDB does."""
    pdf = df.toPandas()
    ev = build_evidence_spark(spark, df, PredicateSpace(dc.sorted_predicates()))
    _assert_oracle_counts(spark, [_violations(ev, dc)], [dc], pdf)


_CLEAN = [
    ("tax", DenialConstraint.of(P("state", Op.EQ, "state"), P("salary", Op.GT, "salary"), P("rate", Op.LT, "rate"))),
    ("tax", DenialConstraint.of(P("zip", Op.EQ, "zip"), P("state", Op.NE, "state"))),
    ("stock", DenialConstraint.of(P("high", Op.LT, "low", single_tuple=True))),
    ("stock", DenialConstraint.of(P("ticker", Op.EQ, "ticker"), P("volume", Op.GT, "volume"))),
    ("voter", DenialConstraint.of(P("age", Op.LT, "age"), P("birth_year", Op.LT, "birth_year"))),
    ("airport", DenialConstraint.of(P("state", Op.EQ, "state"), P("elevation", Op.LE, "elevation"))),
    ("stock", DenialConstraint.of(P("open", Op.EQ, "close", single_tuple=True), P("volume", Op.GE, "volume"))),
    ("stock", DenialConstraint.of(P("open", Op.NE, "low", single_tuple=True), P("close", Op.LE, "high", single_tuple=True), P("ticker", Op.EQ, "ticker"))),
    ("stock", DenialConstraint.of(P("high", Op.GT, "close", single_tuple=True), P("open", Op.GE, "low", single_tuple=True), P("trade_date", Op.LT, "trade_date"))),
]
_CLEAN_IDS = ["tax-rate", "tax-zip", "stock-hilo", "stock-vol", "voter-age", "airport-elev",
              "stock-st-eq", "stock-st-ne-le", "stock-st-gt-ge"]

_LINEITEM_DC = DenialConstraint.of(
    P("l_orderkey", Op.EQ, "l_orderkey"),
    P("l_quantity", Op.GT, "l_quantity"),
    P("l_extendedprice", Op.LT, "l_extendedprice"),
)


def _lineitem(spark):
    li = synth_data.lineitem(spark, sf=0.00002, seed=9).select(
        "l_orderkey", "l_quantity", "l_extendedprice"
    )
    return spark.createDataFrame(li.toPandas())


class TestOracleViolationCounts:
    """Violation counts from the evidence bag vs DuckDB over the same
    input tables."""

    @pytest.mark.parametrize("dc", [PHI1, PHI2], ids=["phi1", "phi2"])
    def test_running_example(self, spark, re_ctx, dc):
        pdf, space, df = re_ctx
        ev = build_evidence_spark(spark, df, space)
        _assert_oracle_counts(spark, [_violations(ev, dc)], [dc], pdf)

    @pytest.mark.parametrize("name,dc", _CLEAN, ids=_CLEAN_IDS)
    def test_datasets_clean(self, spark, name, dc):
        """The cases cover every operator in a two-tuple and in a
        single-tuple predicate."""
        _assert_evidence_matches_oracle(spark, spark.createDataFrame(DATASETS[name](60, seed=3).pdf), dc)

    def test_dirty_dataset(self, spark):
        from repro.datasets import add_noise

        spec = DATASETS["tax"](60, seed=3)
        dirty = add_noise(spec.pdf, rate=0.02, mode="spread", seed=1)
        _assert_evidence_matches_oracle(spark, spark.createDataFrame(dirty), spec.golden[1])  # zip → state

    @pytest.mark.parametrize(
        "name,dc",
        _CLEAN + [("lineitem", _LINEITEM_DC), ("nulls", None)],
        ids=_CLEAN_IDS + ["lineitem", "nulls"],
    )
    def test_evidence_route_matches_oracle(self, spark, name, dc):
        """Four evaluators count the same violations: the kernel's bag
        (``build_evidence_spark``), the naive builder's bag,
        ``violating_pairs_pandas`` and DuckDB. They are checked on the DC
        and on each predicate of the space alone. ``nulls`` holds a null and
        a NaN in a double column and a null in a string column; its space
        is the frame's full ``P_R``, so every operator meets them."""
        if name == "nulls":
            df = spark.createDataFrame(TestNullsAndNaN.ROWS, TestNullsAndNaN.SCHEMA)
        elif name == "lineitem":
            df = _lineitem(spark)
        else:
            df = spark.createDataFrame(DATASETS[name](60, seed=3).pdf)
        pdf = df.toPandas()
        if dc is None:
            space, dcs = build_predicate_space(pdf, include_pairs=[("a", "b")]), []
        else:
            space, dcs = PredicateSpace(dc.sorted_predicates()), [dc]
        dcs += [DenialConstraint.of(p) for p in space]
        ev = build_evidence_spark(spark, df, space)
        naive = build_evidence_naive(spark, df, space)
        ev.check()
        naive.check()
        counts = [_violations(ev, d) for d in dcs]
        assert [_violations(naive, d) for d in dcs] == counts
        assert [d.violating_pairs_pandas(pdf) for d in dcs] == counts
        _assert_oracle_counts(spark, counts, dcs, pdf)

    def test_column_names_needing_quotes(self, spark):
        """Column names with a space, a dot, a backtick and a double quote
        reach DuckDB as quoted identifiers: each predicate alone and a
        two-tuple DC across them count as the evidence does."""
        names = ["a b", "a.b", "a`b", 'a"b']
        pdf = pd.DataFrame(
            {c: [float((k * (i + 3)) % 4) for k in range(10)] for i, c in enumerate(names)}
        )
        pdf.loc[3, "a.b"] = float("nan")
        space = build_predicate_space(pdf, min_overlap=0.0)
        assert {p.lhs for p in space} == set(names)
        dcs = [DenialConstraint.of(P("a b", Op.EQ, "a`b"), P("a.b", Op.GT, 'a"b'))]
        dcs += [DenialConstraint.of(p) for p in space]
        ev = build_evidence_spark(spark, spark.createDataFrame(pdf), space)
        ev.check()
        counts = [_violations(ev, d) for d in dcs]
        assert [d.violating_pairs_pandas(pdf) for d in dcs] == counts
        _assert_oracle_counts(spark, counts, dcs, pdf)


class TestLineitemOracle:
    def test_discount_tax_dc_on_lineitem(self, spark):
        _assert_evidence_matches_oracle(spark, _lineitem(spark), _LINEITEM_DC)
