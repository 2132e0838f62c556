"""Spark evidence builders vs the local reference, and DuckDB oracle checks.

Every query-result test goes through ``repro.oracle.assert_equivalent`` so a
broken cross-join, predicate translation, or bit-packing bug is caught
against an independent engine, not just "it ran".
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.core import (
    build_evidence_local,
    build_evidence_naive,
    build_evidence_spark,
    build_predicate_space,
    violating_pairs_df,
    with_rid,
)
from repro.core.dc import DenialConstraint
from repro.core.evidence import RID
from repro.core.predicates import Op, Predicate
from repro.datasets import DATASETS, PHI1, PHI2, running_example

P = Predicate


def _sorted_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Sort rows like with_rid's window (orderBy all columns) so local rids
    align with Spark rids."""
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def _bag(ev) -> dict[int, int]:
    return dict(zip(ev.masks, ev.counts.tolist()))


def _vios_by_mask(ev) -> dict[int, dict[int, int]]:
    return {ev.masks[i]: v for i, v in ev.vios.items()}


@pytest.fixture(scope="module")
def re_ctx(spark):
    pdf = _sorted_pdf(running_example())
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
            pdf = _sorted_pdf(DATASETS["flight"](20, seed=1).pdf)
            space = build_predicate_space(pdf)
            assert space.n_words >= 2
            df = with_rid(spark.createDataFrame(pdf))
        else:
            pdf, space, df = re_ctx
            if n is not None:  # the first n rows by rid
                pdf, df = pdf.head(n), df.where(F.col(RID) < n)
        ev_s = build_evidence_spark(spark, df, space, with_vios=True)
        ev_l = build_evidence_local(pdf, space, with_vios=True)
        ev_s.check()
        assert _bag(ev_s) == _bag(ev_l)
        assert _vios_by_mask(ev_s) == _vios_by_mask(ev_l)
        for i, c in enumerate(ev_s.counts.tolist()):
            assert sum(ev_s.vios[i].values()) == 2 * c

    @pytest.mark.parametrize("name", ["tax", "stock", "airport"])
    def test_datasets_match_local(self, spark, name):
        spec = DATASETS[name](50, seed=11)
        pdf = _sorted_pdf(spec.pdf)
        space = build_predicate_space(pdf)
        df = with_rid(spark.createDataFrame(pdf))
        ev_s = build_evidence_spark(spark, df, space)
        ev_l = build_evidence_local(pdf, space)
        assert dict(zip(ev_s.masks, ev_s.counts.tolist())) == dict(
            zip(ev_l.masks, ev_l.counts.tolist())
        )

    def test_wide_space_multi_word_masks(self, spark):
        # flight's space is > 128 predicates → exercises 3+ word packing
        spec = DATASETS["flight"](30, seed=1)
        pdf = _sorted_pdf(spec.pdf)
        space = build_predicate_space(pdf)
        assert space.n_words >= 3
        df = with_rid(spark.createDataFrame(pdf))
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
        pdf = _sorted_pdf(li.toPandas())
        space = build_predicate_space(pdf, include_pairs=[("l_discount", "l_tax")])
        df = with_rid(spark.createDataFrame(pdf))
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
        pdf = _sorted_pdf(spec.pdf)
        space = build_predicate_space(pdf)
        df = with_rid(spark.createDataFrame(pdf))
        ev_f = build_evidence_spark(spark, df, space)
        ev_n = build_evidence_naive(spark, df, space)
        assert dict(zip(ev_f.masks, ev_f.counts.tolist())) == dict(
            zip(ev_n.masks, ev_n.counts.tolist())
        )


class TestOracleViolationCounts:
    """violating_pairs_df vs DuckDB over the same input tables."""

    @pytest.mark.parametrize("dc", [PHI1, PHI2], ids=["phi1", "phi2"])
    def test_running_example(self, spark, dc):
        from repro.oracle import assert_equivalent

        pdf = running_example()
        pdf["__rid"] = range(len(pdf))
        df = spark.createDataFrame(pdf)
        got = violating_pairs_df(df, dc)
        sql = (
            "SELECT count(*) AS n_violations FROM d t1, d t2 "
            f"WHERE t1.__rid <> t2.__rid AND {dc.violation_sql('t1', 't2')}"
        )
        assert_equivalent(got, sql, d=pdf)

    @pytest.mark.parametrize(
        "name,dc",
        [
            ("tax", DenialConstraint.of(P("state", Op.EQ, "state"), P("salary", Op.GT, "salary"), P("rate", Op.LT, "rate"))),
            ("tax", DenialConstraint.of(P("zip", Op.EQ, "zip"), P("state", Op.NE, "state"))),
            ("stock", DenialConstraint.of(P("high", Op.LT, "low", single_tuple=True))),
            ("stock", DenialConstraint.of(P("ticker", Op.EQ, "ticker"), P("volume", Op.GT, "volume"))),
            ("voter", DenialConstraint.of(P("age", Op.LT, "age"), P("birth_year", Op.LT, "birth_year"))),
            ("airport", DenialConstraint.of(P("state", Op.EQ, "state"), P("elevation", Op.LE, "elevation"))),
            ("stock", DenialConstraint.of(P("open", Op.EQ, "close", single_tuple=True), P("volume", Op.GE, "volume"))),
            ("stock", DenialConstraint.of(P("open", Op.NE, "low", single_tuple=True), P("close", Op.LE, "high", single_tuple=True), P("ticker", Op.EQ, "ticker"))),
            ("stock", DenialConstraint.of(P("high", Op.GT, "close", single_tuple=True), P("open", Op.GE, "low", single_tuple=True), P("trade_date", Op.LT, "trade_date"))),
        ],
        ids=["tax-rate", "tax-zip", "stock-hilo", "stock-vol", "voter-age", "airport-elev",
             "stock-st-eq", "stock-st-ne-le", "stock-st-gt-ge"],
    )
    def test_datasets_clean(self, spark, name, dc):
        """Spark Column, numpy and SQL renderings agree on the count. The
        cases cover every operator in a two-tuple and in a single-tuple
        predicate."""
        from repro.oracle import assert_equivalent

        pdf = DATASETS[name](60, seed=3).pdf.copy()
        pdf["__rid"] = range(len(pdf))
        df = spark.createDataFrame(pdf)
        sql = (
            "SELECT count(*) AS n_violations FROM d t1, d t2 "
            f"WHERE t1.__rid <> t2.__rid AND {dc.violation_sql('t1', 't2')}"
        )
        assert_equivalent(violating_pairs_df(df, dc), sql, d=pdf)
        numpy_count = spark.range(1).select(
            F.lit(dc.violating_pairs_pandas(pdf)).cast("long").alias("n_violations")
        )
        assert_equivalent(numpy_count, sql, d=pdf)

    def test_dirty_dataset(self, spark):
        from repro.datasets import add_noise
        from repro.oracle import assert_equivalent

        spec = DATASETS["tax"](60, seed=3)
        dirty = add_noise(spec.pdf, rate=0.02, mode="spread", seed=1)
        dirty["__rid"] = range(len(dirty))
        df = spark.createDataFrame(dirty)
        dc = spec.golden[1]  # zip → state
        got = violating_pairs_df(df, dc)
        sql = (
            "SELECT count(*) AS n_violations FROM d t1, d t2 "
            f"WHERE t1.__rid <> t2.__rid AND {dc.violation_sql('t1', 't2')}"
        )
        assert_equivalent(got, sql, d=dirty)

    def test_evidence_route_matches_oracle(self, spark, re_ctx):
        """f1 numerator derived from the evidence bag == DuckDB pair count,
        wrapped as a 1-row DataFrame on the Spark side."""
        from repro.oracle import assert_equivalent

        pdf, space, df = re_ctx
        ev = build_evidence_spark(spark, df, space)
        bits = [space.id_of(p) for p in PHI2.predicates]
        viol = sum(
            int(c)
            for m, c in zip(ev.masks, ev.counts)
            if all(m >> b & 1 for b in bits)
        )
        got = spark.range(1).select(F.lit(viol).cast("long").alias("n_violations"))
        sql = (
            "SELECT count(*) AS n_violations FROM d t1, d t2 "
            f"WHERE t1.__rid <> t2.__rid AND {PHI2.violation_sql('t1', 't2')}"
        )
        pdf_rid = pdf.copy()
        pdf_rid["__rid"] = range(len(pdf_rid))
        assert_equivalent(got, sql, d=pdf_rid)


class TestLineitemOracle:
    def test_discount_tax_dc_on_lineitem(self, spark):
        from repro.oracle import assert_equivalent

        li = synth_data.lineitem(spark, sf=0.00002, seed=9).select(
            "l_orderkey", "l_quantity", "l_extendedprice"
        )
        pdf = li.toPandas()
        pdf["__rid"] = range(len(pdf))
        df = spark.createDataFrame(pdf)
        dc = DenialConstraint.of(
            P("l_orderkey", Op.EQ, "l_orderkey"),
            P("l_quantity", Op.GT, "l_quantity"),
            P("l_extendedprice", Op.LT, "l_extendedprice"),
        )
        got = violating_pairs_df(df, dc)
        sql = (
            "SELECT count(*) AS n_violations FROM d t1, d t2 "
            f"WHERE t1.__rid <> t2.__rid AND {dc.violation_sql('t1', 't2')}"
        )
        assert_equivalent(got, sql, d=pdf)
