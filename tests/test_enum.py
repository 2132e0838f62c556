"""ADCEnum correctness (Theorem 6.1): only / all / once, vs brute force."""
import hashlib
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
from repro.core.functions import ApproximationFunction, UncoveredView, _uncovered_weight
from repro.core.predicates import pair_grid
from repro.datasets import DATASETS, PHI1, running_example
from repro.sampling.threshold import F1Prime


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
        return 1.0 - _uncovered_weight(ev, uncovered) / tot


class CappedFracF1(FracF1):
    """FracF1 with an exact cap, so ADCEnum checks it by one integer compare
    and its per-node bound can fire (FracF1's cap is the whole bag): the
    largest weight of the bag that its own ``passes`` lets through."""

    def max_passing_weight(self, ev, eps):
        bag = int(ev.counts.sum())
        return max([-1] + [w for w in range(bag + 1) if self.passes(ev, UncoveredView((), w), eps)])


def end_reasons(stats) -> int:
    return stats.outputs + stats.non_minimal + stats.infeasible + stats.no_pivot + stats.expanded


def order_digest(results) -> str:
    """A digest of an ordered output list, each output as a sorted tuple."""
    return hashlib.sha256(repr([tuple(sorted(s)) for s in results]).encode()).hexdigest()[:16]


def food40() -> EvidenceSet:
    """The canonical evidence of food n=40 (seed 0), with vios."""
    pdf = DATASETS["food"](40, seed=0).pdf
    return build_evidence_local(pdf, build_predicate_space(pdf), with_vios=True)


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

    @settings(max_examples=120, deadline=None)
    @given(inst=instances())
    @pytest.mark.parametrize("choose", ["max", "min"])
    def test_capped_matches_brute_force(self, inst, choose):
        masks, counts, n_el, eps = inst
        ev = make_instance(masks, counts, n_el)
        got, stats = adc_enum(ev, CappedFracF1(), eps, choose=choose)
        assert len(got) == len(set(got)), "duplicate outputs"
        assert set(got) == brute_force(masks, counts, n_el, eps)
        assert stats.nodes == end_reasons(stats)

    @settings(max_examples=80, deadline=None)
    @given(inst=instances(), data=st.data())
    @pytest.mark.parametrize("choose", ["max", "min"])
    def test_max_results_is_first_k(self, inst, data, choose):
        """``max_results=k`` returns the first k outputs of the complete run,
        and sets ``truncated`` iff the complete run has at least k."""
        masks, counts, n_el, eps = inst
        ev = make_instance(masks, counts, n_el)
        complete, _ = adc_enum(ev, CappedFracF1(), eps, choose=choose)
        assert set(complete) == brute_force(masks, counts, n_el, eps)
        k = data.draw(st.integers(1, len(complete) + 1), label="k")
        got, stats = adc_enum(ev, CappedFracF1(), eps, choose=choose, max_results=k)
        assert got == complete[:k]
        assert stats.truncated == (len(complete) >= k)
        assert stats.nodes == end_reasons(stats)

    def test_bound_prunes_a_node(self):
        # cap 0: the pivot {0,1}'s skip branch fails WillCover; hitting it
        # with 0 leaves {1} uncovered while cand is empty, so node {0} is cut
        # by the bound (uncapped, it ends for want of a pivot instead)
        masks, counts = [0b11, 0b10], [1, 1]
        ev = make_instance(masks, counts, 2)
        got, stats = adc_enum(ev, CappedFracF1(), 0.1)
        assert set(got) == brute_force(masks, counts, 2, 0.1) == {frozenset({1})}
        assert (stats.nodes, stats.infeasible, stats.no_pivot) == (3, 1, 0)
        _, stats = adc_enum(ev, FracF1(), 0.1)
        assert (stats.nodes, stats.infeasible, stats.no_pivot) == (3, 0, 1)

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
    the pivot, a prune or the order of the recursion fails here. The tree
    also depends on the order of the evidence masks: ``PINNED`` holds for
    the first-seen, row-major order the builders used to return, and
    ``PINNED_CANONICAL`` for the canonical order they return now.
    """

    PINNED = {
        # (function, choose): (nodes, f_evals)
        ("f1", "max"): (42848, 100719),
        ("f1", "min"): (14310, 56015),
        ("f2", "max"): (45127, 71827),
        ("f2", "min"): (5914, 11794),
        ("f3", "max"): (45127, 71827),
        ("f3", "min"): (5914, 11794),
    }
    PINNED_CANONICAL = {
        ("f1", "max"): (42801, 100055),
        ("f1", "min"): (12695, 53821),
        ("f2", "max"): (45638, 72512),
        ("f2", "min"): (4920, 9197),
        ("f3", "max"): (45638, 72512),
        ("f3", "min"): (4920, 9197),
    }
    #: how each node of the canonical max-pivot trees ends, and the children
    #: their expanded nodes skip: (outputs, non_minimal, infeasible,
    #: no_pivot, expanded, willcover_skips, crit_cuts)
    PINNED_ENDS = {
        "f1": (5382, 3102, 12232, 0, 22085, 21382, 27375),
        "f2": (512, 0, 8839, 11238, 25049, 25049, 31143),
    }
    #: the depth of the deepest node of each canonical tree (the root is at 0)
    PINNED_MAX_DEPTH = {
        ("f1", "max"): 8,
        ("f1", "min"): 9,
        ("f2", "max"): 7,
        ("f2", "min"): 7,
        ("f3", "max"): 7,
        ("f3", "min"): 7,
    }

    #: a digest (``order_digest``) of the ordered output list of each
    #: canonical tree, so a change to the DFS output order fails here
    PINNED_ORDER = {
        ("f1", "max"): "49ef3b3598da494c",
        ("f1", "min"): "99a4f18dba0c0934",
        ("f2", "max"): "41db84e03039d371",
        ("f2", "min"): "aae3926757a84b15",
        ("f3", "max"): "41db84e03039d371",
        ("f3", "min"): "aae3926757a84b15",
    }

    @pytest.fixture(scope="class")
    def pdf(self):
        return DATASETS["food"](40, seed=0).pdf

    @pytest.fixture(scope="class")
    def canonical(self):
        return food40()

    @pytest.fixture(scope="class")
    def ev(self, pdf, canonical):
        """``canonical`` with its masks in the order their first pair
        ``(i, j)``, ``i ≠ j``, appears in row-major order."""
        n = len(pdf)
        t, s = pair_grid(pdf)
        sat = [np.broadcast_to(p.eval(t, s), (n, n)) for p in canonical.space.predicates]
        seen: dict[int, int] = {}
        for i, j in itertools.permutations(range(n), 2):
            seen.setdefault(sum(1 << k for k, b in enumerate(sat) if b[i, j]), len(seen))
        order = sorted(range(canonical.n_distinct), key=lambda x: seen[canonical.masks[x]])
        return EvidenceSet(
            canonical.space,
            [canonical.masks[x] for x in order],
            canonical.counts[order],
            n,
            {k: canonical.vios[x] for k, x in enumerate(order)},
        )

    @pytest.mark.parametrize("choose", ["max", "min"])
    @pytest.mark.parametrize("f", [F1(), F2(), F3Greedy()], ids=["f1", "f2", "f3"])
    def test_nodes_and_f_evals(self, ev, f, choose):
        _, stats = adc_enum(ev, f, 0.005, choose=choose)
        assert not stats.truncated
        assert (stats.nodes, stats.f_evals) == self.PINNED[(f.name, choose)]

    @pytest.mark.parametrize("choose", ["max", "min"])
    @pytest.mark.parametrize("f", [F1(), F2(), F3Greedy()], ids=["f1", "f2", "f3"])
    def test_canonical_nodes_and_f_evals(self, canonical, f, choose):
        got, stats = adc_enum(canonical, f, 0.005, choose=choose)
        assert not stats.truncated
        assert (stats.nodes, stats.f_evals) == self.PINNED_CANONICAL[(f.name, choose)]
        assert order_digest(got) == self.PINNED_ORDER[(f.name, choose)]
        assert stats.max_depth == self.PINNED_MAX_DEPTH[(f.name, choose)]

    @pytest.mark.parametrize("f", [F1(), F2()], ids=["f1", "f2"])
    def test_canonical_end_reasons(self, canonical, f):
        _, st = adc_enum(canonical, f, 0.005)
        ends = (st.outputs, st.non_minimal, st.infeasible, st.no_pivot, st.expanded)
        assert st.nodes == end_reasons(st)
        assert ends + (st.willcover_skips, st.crit_cuts) == self.PINNED_ENDS[f.name]

    #: f1' (§7.2) on the same evidence, read as a sample: (alpha, choose) ->
    #: (nodes, f_evals), canonical order
    PINNED_F1PRIME = {
        (0.05, "max"): (42473, 90102),
        (0.05, "min"): (9423, 38820),
        (0.01, "max"): (42020, 84907),
        (0.01, "min"): (7836, 32459),
    }
    PINNED_F1PRIME_ORDER = {
        (0.05, "max"): "aa08604963791a0c",
        (0.05, "min"): "a3b16713886b4273",
        (0.01, "max"): "c6b69f9971069af0",
        (0.01, "min"): "8496c60fccedb667",
    }

    @pytest.mark.parametrize("alpha, choose", sorted(PINNED_F1PRIME))
    def test_f1prime_nodes_and_f_evals(self, canonical, alpha, choose):
        got, stats = adc_enum(canonical, F1Prime(alpha), 0.005, choose=choose)
        assert not stats.truncated
        assert (stats.nodes, stats.f_evals) == self.PINNED_F1PRIME[(alpha, choose)]
        assert order_digest(got) == self.PINNED_F1PRIME_ORDER[(alpha, choose)]


class TestLimits:
    @pytest.fixture(scope="class")
    def canonical(self):
        return food40()

    @pytest.mark.parametrize("f, choose", [(F1(), "max"), (F2(), "min")], ids=["f1-max", "f2-min"])
    def test_first_k_of_the_complete_run(self, canonical, f, choose):
        """``max_results=k`` returns the first k outputs of the complete run
        in its order, and ``truncated`` is set iff the complete run has at
        least k outputs."""
        complete, stats = adc_enum(canonical, f, 0.005, choose=choose)
        assert not stats.truncated
        for k in (1, 10, 100, 1000):
            got, st = adc_enum(canonical, f, 0.005, choose=choose, max_results=k)
            assert got == complete[:k], k
            assert st.truncated == (len(complete) >= k), k
            assert st.nodes == end_reasons(st)

    def test_max_results_truncates(self):
        masks = [1 << i for i in range(8)]
        ev = make_instance(masks, [1] * 8, 8)
        got, stats = adc_enum(ev, FracF1(), 0.0, max_results=1)
        assert len(got) == 1 and stats.truncated
        assert stats.nodes == end_reasons(stats)

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
