"""End-to-end ADCMiner pipeline (Figure 1)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import (
    F1,
    F2,
    F3Greedy,
    adc_enum,
    adc_miner,
    build_evidence_local,
    build_predicate_space,
    hitting_sets_to_dcs,
    with_rid,
)
from repro.core.predicates import Op, Predicate
from repro.datasets import DATASETS, PHI1, add_noise, running_example
from repro.metrics import g_recall, prf


@pytest.fixture(scope="module")
def re_df(spark):
    return spark.createDataFrame(running_example()).cache()


@pytest.fixture(scope="module")
def re_space():
    return build_predicate_space(running_example(), include_pairs=[("Income", "Tax")])


class TestSparkPipeline:
    def test_finds_phi1(self, spark, re_df, re_space):
        res = adc_miner(spark, re_df, F1(), 0.01, space=re_space)
        assert PHI1.predicates in res.dc_set

    def test_matches_local_pipeline(self, spark, re_df, re_space):
        """Spark pipeline vs the driver-only reference: numpy evidence,
        the same enumerator."""
        res_s = adc_miner(spark, re_df, F1(), 0.01, space=re_space)
        ev = build_evidence_local(running_example(), re_space)
        local = hitting_sets_to_dcs(ev, adc_enum(ev, F1(), 0.01)[0])
        assert res_s.dc_set == {dc.predicates for dc in local}

    def test_timings_recorded(self, spark, re_df, re_space):
        """Five keys; ``total`` is the sum of the four stages, so a space
        built inside the evidence pass is counted once."""
        for space in (re_space, None):
            t = adc_miner(spark, re_df, F1(), 0.05, space=space).timings
            assert set(t) == {"predicate_space", "sampling", "evidence", "enumeration", "total"}
            assert all(v >= 0 for v in t.values())
            assert t["total"] == pytest.approx(
                t["predicate_space"] + t["sampling"] + t["evidence"] + t["enumeration"]
            )
            assert (t["predicate_space"] == 0) == (space is not None)

    def test_space_inferred_when_missing(self, spark, re_df):
        res = adc_miner(spark, re_df, F1(), 0.05)
        assert len(res.space) > 0 and len(res.dcs) > 0

    def test_vios_functions(self, spark, re_df, re_space):
        res2 = adc_miner(spark, re_df, F2(), 0.2, space=re_space)
        res3 = adc_miner(spark, re_df, F3Greedy(), 0.1, space=re_space)
        assert res2.evidence.vios is not None
        assert res3.evidence.vios is not None
        assert res2.dcs and res3.dcs

    @pytest.mark.parametrize("f", [F1(), F2()], ids=["f1", "f2"])
    def test_one_evidence_pass(self, spark, re_df, re_space, monkeypatch, f):
        """The fast path runs one builder call: ``build_vios_spark`` when the
        function needs vios (adcbench traces it as its vios layer), else
        ``build_evidence_spark``. Without a space, the pass reaches
        ``build_predicate_space`` once, through the miner's namespace."""
        from repro.core import miner

        calls = []
        for name in ("build_evidence_spark", "build_vios_spark", "build_predicate_space"):
            def spy(*args, _name=name, _fn=getattr(miner, name), **kw):
                calls.append(_name)
                return _fn(*args, **kw)

            monkeypatch.setattr(miner, name, spy)
        build = "build_vios_spark" if f.needs_vios else "build_evidence_spark"
        for space, expected in ((re_space, [build]), (None, [build, "build_predicate_space"])):
            calls.clear()
            res = adc_miner(spark, re_df, f, 0.2, space=space)
            assert calls == expected
            assert (res.evidence.vios is not None) == f.needs_vios

    @pytest.mark.parametrize("fraction", [None, 0.5], ids=["full", "sampled"])
    @pytest.mark.parametrize("f", [F1(), F2()], ids=["f1", "f2"])
    def test_one_spark_job_per_call(self, spark, f, fraction):
        """A call without a space runs one Spark job: the collect of the
        (sampled) frame, from which both ``P_R`` and the evidence come."""
        df = spark.createDataFrame(DATASETS["airport"](60, seed=0).pdf).cache()
        df.count()
        sc = spark.sparkContext
        group = f"one-call-{f.name}-{fraction}"
        sc.setJobGroup(group, "one adc_miner call")
        try:
            adc_miner(spark, df, f, 0.05, sample_fraction=fraction, seed=1,
                      alpha=0.05, timeout_s=60)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            df.unpersist()
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1

    def test_searchmc_backend_agrees(self, spark, re_df, re_space):
        a = adc_miner(spark, re_df, F1(), 0.05, space=re_space)
        b = adc_miner(spark, re_df, F1(), 0.05, space=re_space, enumerator="searchmc")
        assert a.dc_set == b.dc_set

    def test_naive_builder_agrees(self, spark, re_df, re_space):
        a = adc_miner(spark, re_df, F1(), 0.05, space=re_space)
        b = adc_miner(spark, re_df, F1(), 0.05, space=re_space, builder="naive")
        assert a.dc_set == b.dc_set

    def test_releases_only_its_own_cache(self, spark, re_df, re_space):
        """Each call unpersists the frame it cached itself; a caller's cached
        frame (with or without a row id) stays cached."""
        def persistent():
            return spark.sparkContext._jsc.sc().getPersistentRDDs().size()

        with_id = with_rid(spark.createDataFrame(running_example())).cache()
        with_id.count()
        before = persistent()
        adc_miner(spark, re_df, F2(), 0.1, space=re_space)
        adc_miner(spark, re_df, F1(), 0.05, space=re_space, sample_fraction=0.5)
        adc_miner(spark, with_id, F2(), 0.1, space=re_space)
        assert persistent() == before
        for df in (re_df, with_id):
            assert df.is_cached and df.storageLevel.useMemory
        with_id.unpersist()

    def test_sampling_reduces_input(self, spark, re_space):
        spec = DATASETS["tax"](200, seed=0)
        df = spark.createDataFrame(spec.pdf)
        space = build_predicate_space(spec.pdf)
        res = adc_miner(spark, df, F1(), 0.05, space=space, sample_fraction=0.3,
                        seed=1, max_results=300)
        assert 20 <= res.n_sampled <= 120
        assert res.evidence.n_tuples == res.n_sampled

    def test_alpha_switches_to_f1prime(self, spark, re_space):
        spec = DATASETS["airport"](60, seed=0)
        df = spark.createDataFrame(spec.pdf)
        space = build_predicate_space(spec.pdf)
        plain = adc_miner(
            spark, df, F1(), 0.01, space=space, sample_fraction=0.5, seed=2, timeout_s=60
        )
        strict = adc_miner(
            spark, df, F1(), 0.01, space=space, sample_fraction=0.5, seed=2,
            alpha=0.05, timeout_s=60,
        )
        # f1' is pointwise stricter: every DC mined under f1' satisfies the
        # plain f1 threshold on the same sample (minimal sets may differ —
        # an f1'-minimal ADC can be a strict superset of an f1-minimal one)
        assert strict.dcs
        ev = strict.evidence
        for hs in strict.hitting_sets:
            sm = 0
            for e in hs:
                sm |= 1 << e
            unc = [i for i, m in enumerate(ev.masks) if (m & sm) == 0]
            assert F1().passes(ev, unc, 0.01)
        assert plain.dcs  # the plain run is exercised too


class TestSpaceFromCollectedRows:
    """``P_R`` comes from every row the evidence pass collects."""

    @staticmethod
    def frame(n=2400):
        """Sorted on ``a``. ``b`` takes the 400 values 2000..2399 on every
        stretch of rows; ``a`` reaches them only past row 2000, so the
        (a, b) overlap is 0 on the first 2000 rows and 1 on all of them."""
        a = np.arange(n, dtype=np.int64)
        return pd.DataFrame({"a": a, "b": 2000 + a % 400})

    def test_independent_of_row_order(self, spark):
        pdf = self.frame()
        shuffled = pdf.sample(frac=1.0, random_state=0).reset_index(drop=True)
        spaces = [
            mine(spark, x, F1(), 0.01, max_results=1, timeout_s=60).space.predicates
            for x in (pdf, shuffled)
        ]
        assert spaces[0] == spaces[1]
        assert Predicate("a", Op.EQ, "b") in spaces[0]

    def test_sample_mode_uses_the_sample(self, spark):
        """``a`` and ``b`` share 30 values over 480 rows and hold unique
        values on the other 120: the (a, b) overlap is 30/150 on all rows
        and about 30/66 on a 30% sample, so only the sample's ``P_R`` has
        the cross pair."""
        i = np.arange(600)
        pdf = pd.DataFrame({
            "a": np.where(i < 480, i % 30, 1000 + i),
            "b": np.where(i < 480, i % 30, 5000 + i),
        })
        df = spark.createDataFrame(pdf).cache()
        sample = df.sample(withReplacement=False, fraction=0.3, seed=3).toPandas()
        res = adc_miner(spark, df, F1(), 0.01, sample_fraction=0.3, seed=3, timeout_s=60)
        df.unpersist()
        assert res.n_sampled == len(sample)
        assert res.space.predicates == build_predicate_space(sample).predicates
        cross = Predicate("a", Op.EQ, "b")
        assert cross in res.space.predicates
        assert cross not in build_predicate_space(pdf).predicates


def mine(spark, pdf, f, eps, **kw):
    return adc_miner(spark, spark.createDataFrame(pdf), f, eps, **kw)


class TestLocalPipeline:
    """The pipeline on small pandas inputs (Spark DataFrames built from them)."""

    def test_golden_recovery_clean_airport(self, spark):
        spec = DATASETS["airport"](40, seed=4)
        res = mine(spark, spec.pdf, F1(), 0.0, timeout_s=60)
        assert not res.enum_stats.truncated
        assert g_recall(res.dcs, spec.golden) == 1.0

    def test_golden_recovery_dirty_spread(self, spark):
        spec = DATASETS["airport"](40, seed=4)
        dirty = add_noise(spec.pdf, rate=0.01, mode="spread", seed=1)
        valid = mine(spark, dirty, F1(), 0.0, timeout_s=60)
        approx = mine(spark, dirty, F1(), 0.02, timeout_s=60)
        # §8.4 headline: valid-DC mining loses golden DCs, ADC mining recovers
        assert g_recall(approx.dcs, spec.golden) >= g_recall(valid.dcs, spec.golden)
        assert g_recall(approx.dcs, spec.golden) >= 0.5

    def test_eps_zero_only_valid_dcs(self, spark):
        spec = DATASETS["food"](40, seed=2)
        res = mine(spark, spec.pdf, F1(), 0.0, timeout_s=60)
        for dc in res.dcs:
            assert dc.violating_pairs_pandas(spec.pdf) == 0

    def test_outputs_satisfy_threshold(self, spark):
        pdf = running_example()
        res = mine(spark, pdf, F1(), 0.02)
        n_pairs = len(pdf) * (len(pdf) - 1)
        for dc in res.dcs:
            assert dc.violating_pairs_pandas(pdf) / n_pairs <= 0.02 + 1e-9

    def test_outputs_are_minimal_wrt_threshold(self, spark):
        from repro.core.dc import DenialConstraint

        pdf = running_example()
        res = mine(spark, pdf, F1(), 0.02)
        n_pairs = len(pdf) * (len(pdf) - 1)
        for dc in res.dcs:
            for p in dc.predicates:
                sub = DenialConstraint(dc.predicates - {p})
                if not sub.predicates:
                    continue
                assert (
                    sub.violating_pairs_pandas(pdf) / n_pairs > 0.02 - 1e-9
                ), f"{dc} not minimal: {sub} also passes"

    def test_sample_vs_full_prf(self, spark):
        """§8.3 protocol at micro scale: mine a sample, score against full."""
        spec = DATASETS["food"](50, seed=5)
        full = mine(spark, spec.pdf, F1(), 0.0, timeout_s=60)
        import numpy as np

        rng = np.random.default_rng(0)
        idx = rng.choice(len(spec.pdf), size=35, replace=False)
        sub = spec.pdf.iloc[idx].reset_index(drop=True)
        space = full.space  # same predicate space on both sides
        sampled = mine(spark, sub, F1(), 0.0, space=space, timeout_s=60)
        r = prf(sampled.dcs, full.dcs)
        assert 0.0 <= r.f1 <= 1.0
        # exact (ε=0) DCs cannot reliably be mined from a sample — the
        # paper's very motivation for ADCs — so only expect partial recall
        assert r.recall > 0.15

    def test_larger_eps_more_general_dcs(self, spark):
        """Higher thresholds produce shorter (more general) DCs on average —
        the §8.4 observation behind 'too general' DCs."""
        pdf = running_example()
        small = mine(spark, pdf, F1(), 0.001)
        large = mine(spark, pdf, F1(), 0.1)
        if small.dcs and large.dcs:
            avg_small = sum(map(len, small.dcs)) / len(small.dcs)
            avg_large = sum(map(len, large.dcs)) / len(large.dcs)
            assert avg_large <= avg_small


class TestOddColumnNames:
    """Column names with a dot, a space or a backtick mine like plain ones."""

    ODD = {"city": "x.y", "state": "a b", "elevation": "c`d"}

    @pytest.fixture(scope="class")
    def airport(self):
        pdf = DATASETS["airport"](60, seed=0).pdf
        return pdf[["iata", "city", "state", "country", "elevation", "tz_offset"]]

    @pytest.mark.parametrize("builder", ["fast", "naive"])
    @pytest.mark.parametrize("f", [F1(), F2()], ids=["f1", "f2"])
    def test_same_result_as_plain_names(self, spark, airport, f, builder):
        plain = mine(spark, airport, f, 0.01, builder=builder, timeout_s=60)
        odd = mine(spark, airport.rename(columns=self.ODD), f, 0.01, builder=builder, timeout_s=60)
        assert not plain.enum_stats.truncated and not odd.enum_stats.truncated
        assert [p.lhs for p in odd.space] == [self.ODD.get(p.lhs, p.lhs) for p in plain.space]
        assert set(odd.hitting_sets) == set(plain.hitting_sets) and odd.dcs
        assert odd.enum_stats.nodes == plain.enum_stats.nodes
