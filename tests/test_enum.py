"""ADCEnum correctness (Theorem 6.1): only / all / once, vs brute force."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    F1,
    F2,
    F3Greedy,
    adc_enum,
    build_evidence_local,
    build_predicate_space,
    search_mc,
)
from repro.core.enumerate import hitting_sets_to_dcs
from repro.core.evidence import EvidenceSet
from repro.core.functions import ApproximationFunction
from repro.datasets import DATASETS, PHI1, running_example


class _FakeSpace:
    """Minimal space for generic hitting-set instances (no DC structure)."""

    def __init__(self, n):
        self.n = n
        self.group_others = [()] * n
        self.complement_idx = [None] * n
        self.predicates = [None] * n

    def __len__(self):
        return self.n


class FracF1(ApproximationFunction):
    """f1 over the evidence weights (works with n_tuples=0 fake instances)."""

    name = "f1"

    def score(self, ev, uncovered):
        tot = int(ev.counts.sum())
        if tot == 0:
            return 1.0
        return 1.0 - sum(int(ev.counts[i]) for i in uncovered) / tot


def make_instance(masks, counts, n_el) -> EvidenceSet:
    return EvidenceSet(_FakeSpace(n_el), masks, np.array(counts, dtype=np.int64), 0)


def brute_force(masks, counts, n_el, eps):
    tot = sum(counts)

    def passes(S):
        sm = 0
        for e in S:
            sm |= 1 << e
        return sum(c for m, c in zip(masks, counts) if (m & sm) == 0) / tot <= eps + 1e-12

    out = set()
    for r in range(n_el + 1):
        for S in map(frozenset, itertools.combinations(range(n_el), r)):
            if passes(S) and all(
                not passes(S - {e}) for e in S
            ) and not any(o < S for o in out):
                out.add(S)
    return out


@st.composite
def instances(draw):
    n_el = draw(st.integers(3, 9))
    n_sets = draw(st.integers(1, min(12, (1 << n_el) - 1)))
    masks = draw(
        st.lists(st.integers(1, (1 << n_el) - 1), min_size=n_sets, max_size=n_sets, unique=True)
    )
    counts = draw(
        st.lists(st.integers(1, 25), min_size=len(masks), max_size=len(masks))
    )
    eps = draw(st.sampled_from([0.0, 0.03, 0.1, 0.25, 0.5]))
    return masks, counts, n_el, eps


class TestAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(inst=instances())
    def test_matches_brute_force(self, inst):
        masks, counts, n_el, eps = inst
        ev = make_instance(masks, counts, n_el)
        got, _ = adc_enum(ev, FracF1(), eps)
        assert len(got) == len(set(got)), "duplicate outputs"
        assert set(got) == brute_force(masks, counts, n_el, eps)

    @settings(max_examples=60, deadline=None)
    @given(inst=instances())
    def test_min_choice_same_results(self, inst):
        masks, counts, n_el, eps = inst
        ev = make_instance(masks, counts, n_el)
        got_max, _ = adc_enum(ev, FracF1(), eps, choose="max")
        got_min, _ = adc_enum(ev, FracF1(), eps, choose="min")
        assert set(got_max) == set(got_min)

    def test_eps_zero_is_exact_mmcs(self):
        # K={0,1,2,3}, M={{0,1},{1,2},{2,3}} → minimal hitting sets
        masks = [0b0011, 0b0110, 0b1100]
        ev = make_instance(masks, [1, 1, 1], 4)
        got, _ = adc_enum(ev, FracF1(), 0.0)
        assert set(got) == {
            frozenset({1, 2}), frozenset({1, 3}), frozenset({0, 2})
        }

    def test_high_eps_returns_empty_set(self):
        masks = [0b01, 0b10]
        ev = make_instance(masks, [1, 1], 2)
        got, _ = adc_enum(ev, FracF1(), 1.0)
        assert got == [frozenset()]

    def test_weighted_threshold(self):
        # covering the weight-9 set leaves 1/10 ≤ ε=0.1 → {1} is the only
        # minimal approximate hitting set
        ev = make_instance([0b01, 0b10], [1, 9], 2)
        got, _ = adc_enum(ev, FracF1(), 0.1)
        assert set(got) == {frozenset({1})}


class TestWideInstance:
    """Bitsets wider than one 64-bit word on both axes: 70 predicates and
    80 distinct evidence sets (the generator above stops at 9 and 12)."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(0)
        n_el, masks = 70, set()
        while len(masks) < 80:
            bits = np.flatnonzero(rng.random(n_el) < 0.9)
            masks.add(sum(1 << int(e) for e in bits))
        return make_instance(sorted(masks), rng.integers(1, 20, size=80).tolist(), n_el)

    @pytest.mark.parametrize("eps", [0.02, 0.05])
    def test_matches_search_mc(self, wide, eps):
        got, stats = adc_enum(wide, FracF1(), eps, timeout_s=60)
        expected, mc_stats = search_mc(wide, FracF1(), eps, timeout_s=60)
        assert not stats.truncated and not mc_stats.truncated
        assert len(got) == len(set(got)), "duplicate outputs"
        assert set(got) == set(expected)
        assert any(max(s) >= 64 for s in got)


class TestSearchTreePinned:
    """The exact tree ADCEnum walks on food n=40 (seed 0, ε=0.005).

    ``nodes`` and ``f_evals`` are pinned, so an engine change that alters
    the pivot, a prune or the order of the recursion fails here.
    """

    PINNED = {
        # (function, choose): (nodes, f_evals)
        ("f1", "max"): (52378, 114960),
        ("f1", "min"): (15207, 57533),
        ("f2", "max"): (50019, 79269),
        ("f2", "min"): (6100, 12127),
        ("f3", "max"): (50019, 79269),
        ("f3", "min"): (6100, 12127),
    }

    @pytest.fixture(scope="class")
    def ev(self):
        pdf = DATASETS["food"](40, seed=0).pdf
        return build_evidence_local(pdf, build_predicate_space(pdf), with_vios=True)

    @pytest.mark.parametrize("choose", ["max", "min"])
    @pytest.mark.parametrize("f", [F1(), F2(), F3Greedy()], ids=["f1", "f2", "f3"])
    def test_nodes_and_f_evals(self, ev, f, choose):
        _, stats = adc_enum(ev, f, 0.005, choose=choose)
        assert not stats.truncated
        assert (stats.nodes, stats.f_evals) == self.PINNED[(f.name, choose)]


class TestLimits:
    def test_max_results_truncates(self):
        masks = [1 << i for i in range(8)]
        ev = make_instance(masks, [1] * 8, 8)
        got, stats = adc_enum(ev, FracF1(), 0.0, max_results=1)
        assert len(got) == 1 and stats.truncated

    def test_timeout_flag(self):
        masks = [1 << i for i in range(10)]
        ev = make_instance(masks, [1] * 10, 10)
        got, stats = adc_enum(ev, FracF1(), 0.0, timeout_s=0.0)
        assert stats.truncated

    def test_stats_populated(self):
        ev = make_instance([0b11], [1], 2)
        got, stats = adc_enum(ev, FracF1(), 0.0)
        assert stats.nodes >= 1 and stats.outputs == len(got) >= 1
        assert stats.seconds >= 0 and stats.f_evals > 0

    def test_invalid_choose_rejected(self):
        ev = make_instance([0b1], [1], 1)
        with pytest.raises(ValueError):
            adc_enum(ev, FracF1(), 0.0, choose="random")


class TestDCOutput:
    @pytest.fixture(scope="class")
    def mined(self):
        pdf = running_example()
        space = build_predicate_space(pdf, include_pairs=[("Income", "Tax")])
        ev = build_evidence_local(pdf, space)
        hs, _ = adc_enum(ev, F1(), 0.01)
        return space, ev, hs, hitting_sets_to_dcs(ev, hs)

    def test_phi1_discovered_at_eps_001(self, mined):
        _, _, _, dcs = mined
        assert PHI1.predicates in {dc.predicates for dc in dcs}

    def test_no_trivial_dcs(self, mined):
        _, _, _, dcs = mined
        assert not any(dc.is_trivial() for dc in dcs)

    def test_no_dc_is_subset_of_another(self, mined):
        """Only minimal ADCs are returned (Theorem 6.1 (a))."""
        _, _, _, dcs = mined
        sets = [dc.predicates for dc in dcs]
        for a in sets:
            for b in sets:
                assert a == b or not (a < b)

    def test_every_output_passes_threshold(self, mined):
        space, ev, hs, _ = mined
        for s in hs:
            sm = 0
            for e in s:
                sm |= 1 << e
            unc = [i for i, m in enumerate(ev.masks) if (m & sm) == 0]
            assert F1().passes(ev, unc, 0.01)

    def test_outputs_unique(self, mined):
        _, _, hs, _ = mined
        assert len(hs) == len(set(hs))

    def test_redundant_operator_groups_never_mixed(self, mined):
        """RemoveRedundantPreds: no DC contains two predicates over the same
        attribute pair (would be trivial or non-minimal)."""
        _, _, _, dcs = mined
        for dc in dcs:
            keys = [p.group_key for p in dc.predicates]
            assert len(set(keys)) == len(keys), str(dc)
