"""Approximation functions f1 / f2 / GreedyF3 (paper §5).

Pins the exact numbers of Example 1.2 and property-tests the two axioms
(monotonicity, indifference to redundancy) plus Proposition 5.3.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import F1, F2, F3Greedy, build_evidence_local, build_predicate_space
from repro.core.enumerate import ADCEnum
from repro.core.functions import UncoveredView, one_minus_f1, within_prop_53
from repro.datasets import PHI1, PHI2, running_example
from repro.sampling.threshold import F1Prime


@pytest.fixture(scope="module")
def ctx():
    pdf = running_example()
    space = build_predicate_space(pdf, include_pairs=[("Income", "Tax")])
    ev = build_evidence_local(pdf, space, with_vios=True)
    return pdf, space, ev


def uncovered_for(ev, space, dc):
    bits = [space.id_of(p) for p in dc.predicates]
    return [i for i, m in enumerate(ev.masks) if all(m >> b & 1 for b in bits)]


def uncovered_for_hs(ev, hs_bits):
    """Uncovered sets for a hitting-set-side predicate set."""
    sm = 0
    for b in hs_bits:
        sm |= 1 << b
    return [i for i, m in enumerate(ev.masks) if (m & sm) == 0]


class TestExample12:
    """The paper's worked numbers for Table 1."""

    def test_f1_phi1(self, ctx):
        _, space, ev = ctx
        # 2/210 ≈ 0.95% violating pairs
        assert F1().score(ev, uncovered_for(ev, space, PHI1)) == pytest.approx(1 - 2 / 210)

    def test_f1_phi2(self, ctx):
        _, space, ev = ctx
        # 16/210 ≈ 7.62%
        assert F1().score(ev, uncovered_for(ev, space, PHI2)) == pytest.approx(1 - 16 / 210)

    def test_f3_phi1_removes_two_tuples(self, ctx):
        # 2/15 ≈ 13.3% of tuples must be removed
        _, space, ev = ctx
        unc = uncovered_for(ev, space, PHI1)
        assert len(F3Greedy().removal_set(ev, unc)) == 2
        assert F3Greedy().score(ev, unc) == pytest.approx(1 - 2 / 15)

    def test_f3_phi2_removes_one_tuple(self, ctx):
        # only t15 needs to go: 1/15 ≈ 6.67%
        _, space, ev = ctx
        unc = uncovered_for(ev, space, PHI2)
        assert len(F3Greedy().removal_set(ev, unc)) == 1
        assert F3Greedy().score(ev, unc) == pytest.approx(1 - 1 / 15)

    def test_f2_phi1(self, ctx):
        # t6,t7,t14,t15 are involved in violations → 11/15 clean
        _, space, ev = ctx
        assert F2().score(ev, uncovered_for(ev, space, PHI1)) == pytest.approx(11 / 15)

    def test_f2_phi2(self, ctx):
        # t6..t13 and t15 are involved → 6/15 clean
        _, space, ev = ctx
        assert F2().score(ev, uncovered_for(ev, space, PHI2)) == pytest.approx(6 / 15)

    def test_example_12_threshold_disagreement(self, ctx):
        """ε=0.05: φ1 is an ADC under f1 but not under f3 (paper Ex. 1.2)."""
        _, space, ev = ctx
        unc = uncovered_for(ev, space, PHI1)
        assert F1().passes(ev, unc, 0.05)
        assert not F3Greedy().passes(ev, unc, 0.05)

    def test_example_12_reverse_disagreement(self, ctx):
        """ε=0.07: φ2 is an ADC under f3 but not under f1."""
        _, space, ev = ctx
        unc = uncovered_for(ev, space, PHI2)
        assert not F1().passes(ev, unc, 0.07)
        assert F3Greedy().passes(ev, unc, 0.07)


class TestEdgeCases:
    def test_empty_uncovered_scores_one(self, ctx):
        _, _, ev = ctx
        for f in (F1(), F2(), F3Greedy()):
            assert f.score(ev, []) == 1.0
            assert f.passes(ev, [], 0.0)

    def test_all_uncovered_f1_zero(self, ctx):
        _, _, ev = ctx
        assert F1().score(ev, range(ev.n_distinct)) == pytest.approx(0.0)

    def test_needs_vios_flags(self):
        assert not F1.needs_vios and F2.needs_vios and F3Greedy.needs_vios

    def test_missing_vios_raises(self, ctx):
        pdf, space, _ = ctx
        ev = build_evidence_local(pdf, space)  # no vios
        with pytest.raises(ValueError):
            F2().score(ev, [0])

    def test_f3_greedy_covers_total(self, ctx):
        """The greedy loop stops only once c ≥ u (Figure 2 line 4)."""
        _, space, ev = ctx
        unc = uncovered_for(ev, space, PHI2)
        removed = F3Greedy().removal_set(ev, unc)
        u = sum(int(ev.counts[i]) for i in unc)
        covered = 0
        v = {}
        for i in unc:
            for t, c in ev.vios[i].items():
                v[t] = v.get(t, 0) + c
        for t in removed:
            covered += v[t]
        assert covered >= u


@st.composite
def hitting_sets(draw, n_preds):
    size = draw(st.integers(0, n_preds))
    return draw(
        st.lists(st.integers(0, n_preds - 1), min_size=size, max_size=size, unique=True)
    )


class TestAxioms:
    """Monotonicity + indifference to redundancy on the running example.

    Monotonicity is stated for DCs (S_φ ⊂ S_φ'); on the hitting-set side a
    *smaller* hitting set corresponds to a smaller DC, and adding hitting
    elements can only shrink the uncovered set, so we check f(S) ≤ f(S∪{e}).
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_monotonic(self, ctx, data):
        _, space, ev = ctx
        n = len(space)
        hs = data.draw(hitting_sets(n))
        extra = data.draw(st.integers(0, n - 1))
        small = uncovered_for_hs(ev, hs)
        big = uncovered_for_hs(ev, hs + [extra])
        # F3Greedy is excluded: the paper proves monotonicity for the exact
        # f3 only, and explicitly gives no guarantees for the greedy variant
        for f in (F1(), F2()):
            assert f.score(ev, small) <= f.score(ev, big) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_indifferent_to_redundancy(self, ctx, data):
        """If adding elements leaves the uncovered sets identical, the score
        is identical (the functions only read the uncovered sets)."""
        _, space, ev = ctx
        n = len(space)
        hs = data.draw(hitting_sets(n))
        unc = uncovered_for_hs(ev, hs)
        # add an element that covers nothing new among the uncovered sets
        candidates = [
            e
            for e in range(n)
            if all((ev.masks[i] >> e) & 1 == 0 for i in unc)
        ]
        if not candidates:
            return
        e = candidates[data.draw(st.integers(0, len(candidates) - 1))]
        unc2 = uncovered_for_hs(ev, hs + [e])
        assert sorted(unc) == sorted(unc2)
        for f in (F1(), F2(), F3Greedy()):
            assert f.score(ev, unc) == pytest.approx(f.score(ev, unc2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_proposition_53(self, ctx, data):
        """If 1−f_i ≤ ε (i ∈ {2,3}) then 1−f1 ≤ 2ε."""
        _, space, ev = ctx
        hs = data.draw(hitting_sets(len(space)))
        unc = uncovered_for_hs(ev, hs)
        omf1 = one_minus_f1(ev, unc)
        for f in (F2(), F3Greedy()):
            eps = 1.0 - f.score(ev, unc)
            assert omf1 <= 2 * eps + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prefilter_never_rejects_true_positive(self, ctx, data):
        """passes() with the Prop-5.3 prefilter equals the unfiltered check,
        given the uncovered sets as a list or as the enumerator's
        UncoveredView (indices plus precomputed weight)."""
        _, space, ev = ctx
        hs = data.draw(hitting_sets(len(space)))
        eps = data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3]))
        unc = uncovered_for_hs(ev, hs)
        view = UncoveredView(unc, sum(int(ev.counts[i]) for i in unc))
        for f in (F2(), F3Greedy()):
            direct = 1.0 - f.score(ev, unc) <= eps + 1e-12
            assert f.passes(ev, unc, eps) == direct
            assert f.passes(ev, view, eps) == direct


class TestWeightThreshold:
    """``max_passing_weight`` is exact: ``passes`` holds at a weight iff the
    weight is at most the threshold."""

    @pytest.fixture(scope="class", params=["running-example", "food-40"])
    def ev(self, request):
        if request.param == "running-example":
            pdf = running_example()
        else:
            from repro.datasets import DATASETS

            pdf = DATASETS["food"](40, seed=0).pdf
        return build_evidence_local(pdf, build_predicate_space(pdf))

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.005, 0.01, 0.05, 0.2, 0.45])
    @pytest.mark.parametrize(
        "f", [F1(), F1Prime(0.01), F1Prime(0.05)], ids=["f1", "f1'-0.01", "f1'-0.05"]
    )
    def test_agrees_with_passes(self, ev, f, eps):
        limit = f.max_passing_weight(ev, eps)
        total = ev.total_pairs
        assert -1 <= limit <= total
        window = range(max(0, limit - 40), min(total, limit + 40) + 1)
        for w in [0, total, *window]:
            assert f.passes(ev, UncoveredView((), w), eps) == (w <= limit), w

    def test_none_where_not_weight_monotone(self, ctx):
        _, _, ev = ctx
        assert F2().max_passing_weight(ev, 0.01) is None
        assert F3Greedy().max_passing_weight(ev, 0.01) is None
        assert F1Prime(0.05).max_passing_weight(ev, 0.5) is None
        assert F1().max_passing_weight(ev, 0.5) == ev.total_pairs // 2


class TestProp53Cap:
    """ADCEnum turns the Prop. 5.3 prefilter of f2/f3 into one integer cap
    on the uncovered weight; its decision must stay ``passes``'s."""

    @staticmethod
    def _counting(f):
        """``f`` with a ``passes`` that counts its calls in ``f.calls``."""
        f.calls = 0
        inner = f.passes

        def passes(*args):
            f.calls += 1
            return inner(*args)

        f.passes = passes
        return f

    @pytest.mark.parametrize("eps", [0.0, 0.005, 0.01, 0.05, 0.3])
    @pytest.mark.parametrize("cls", [F2, F3Greedy], ids=["f2", "f3"])
    def test_at_and_above_the_cap(self, ctx, cls, eps):
        """At ``cap`` the prefilter holds and ``passes`` decides; at
        ``cap + 1`` the prefilter fails, and the enumerator rejects without
        calling ``passes`` but still counts an f-eval."""
        _, _, ev = ctx
        f = self._counting(cls())
        algo = ADCEnum(ev, f, eps)
        cap = algo.cap
        assert within_prop_53(ev, UncoveredView((), cap), eps)
        assert not within_prop_53(ev, UncoveredView((), cap + 1), eps)
        rng = np.random.default_rng(int(eps * 1000))
        for _ in range(10):
            size = int(rng.integers(0, 6))
            ids = sorted(rng.choice(ev.n_distinct, size=size, replace=False).tolist())
            for w in (cap, cap + 1):
                calls, evals = f.calls, algo.stats.f_evals
                got = algo._passes(ids, w)
                assert algo.stats.f_evals == evals + 1
                assert got == cls().passes(ev, UncoveredView(ids, w), eps)
                assert f.calls == calls + (w <= cap)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_uncovered_sets(self, ctx, data):
        """On the uncovered sets of a random hitting-set-side set, at their
        true weight, the enumerator decides as ``passes``."""
        _, space, ev = ctx
        hs = data.draw(hitting_sets(len(space)))
        eps = data.draw(st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1, 0.3]))
        unc = uncovered_for_hs(ev, hs)
        weight = sum(int(ev.counts[i]) for i in unc)
        for f in (F2(), F3Greedy()):
            assert ADCEnum(ev, f, eps)._passes(unc, weight) == f.passes(ev, unc, eps)
