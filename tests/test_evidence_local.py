"""Local (numpy) evidence builder — the evidence kernel."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.core import build_evidence_local, build_predicate_space, evidence
from repro.core.predicates import REPRESENTATIVE, Op, Predicate, PredicateSpace
from repro.datasets import DATASETS, PHI1, PHI2, running_example


@pytest.fixture(scope="module")
def re_setup():
    pdf = running_example()
    space = build_predicate_space(pdf, include_pairs=[("Income", "Tax")])
    ev = build_evidence_local(pdf, space, with_vios=True)
    return pdf, space, ev


def _uncovered_for(ev, space, dc):
    bits = [space.id_of(p) for p in dc.predicates]
    return [i for i, m in enumerate(ev.masks) if all(m >> b & 1 for b in bits)]


class TestStructure:
    def test_bag_size_is_ordered_pairs(self, re_setup):
        _, _, ev = re_setup
        assert int(ev.counts.sum()) == 15 * 14 == ev.total_pairs

    def test_invariants(self, re_setup):
        _, _, ev = re_setup
        ev.check()

    def test_masks_distinct(self, re_setup):
        _, _, ev = re_setup
        assert len(set(ev.masks)) == len(ev.masks)

    def test_distinct_sets_far_fewer_than_pairs(self, re_setup):
        # the paper's §5/§8 observation that drives the vios data structure
        _, _, ev = re_setup
        assert ev.n_distinct < ev.total_pairs / 5

    def test_vios_total_is_twice_count(self, re_setup):
        # every pair contributes its mask to both of its tuples
        _, _, ev = re_setup
        for i in range(ev.n_distinct):
            assert sum(ev.vios[i].values()) == 2 * int(ev.counts[i])

    def test_vios_absent_without_flag(self):
        pdf = running_example()
        space = build_predicate_space(pdf)
        ev = build_evidence_local(pdf, space)
        assert ev.vios is None

    def test_rid_column_ignored(self, re_setup):
        pdf, space, ev = re_setup
        pdf2 = pdf.copy()
        pdf2["__rid"] = range(len(pdf2))
        ev2 = build_evidence_local(pdf2, space)
        assert sorted(ev2.masks) == sorted(ev.masks)


class TestAgainstDirectCounts:
    @pytest.mark.parametrize("dc,expected", [(PHI1, 2), (PHI2, 16)])
    def test_example_12_counts(self, re_setup, dc, expected):
        pdf, space, ev = re_setup
        unc = _uncovered_for(ev, space, dc)
        assert sum(int(ev.counts[i]) for i in unc) == expected

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_golden_dcs_have_zero_uncovered(self, name):
        spec = DATASETS[name](60, seed=7)
        space = build_predicate_space(spec.pdf)
        ev = build_evidence_local(spec.pdf, space)
        for dc in spec.golden:
            unc = _uncovered_for(ev, space, dc)
            assert not unc, f"{name}: {dc} has violations"

    @pytest.mark.parametrize("name", ["tax", "stock", "voter"])
    def test_evidence_counts_match_pairwise_recount(self, name):
        """Every arbitrary DC's violation count from the evidence bag must
        equal the O(n²) direct recount."""
        spec = DATASETS[name](40, seed=3)
        space = build_predicate_space(spec.pdf)
        ev = build_evidence_local(spec.pdf, space)
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            ids = rng.choice(len(space), size=k, replace=False)
            dc_preds = frozenset(space.predicates[int(i)] for i in ids)
            from repro.core.dc import DenialConstraint

            dc = DenialConstraint(dc_preds)
            if dc.is_trivial():
                continue
            unc = _uncovered_for(ev, space, dc)
            assert (
                sum(int(ev.counts[i]) for i in unc)
                == dc.violating_pairs_pandas(spec.pdf)
            )

    def test_two_row_frame(self):
        pdf = pd.DataFrame({"a": [1, 2]})
        space = build_predicate_space(pdf)
        ev = build_evidence_local(pdf, space, with_vios=True)
        assert ev.total_pairs == 2 and ev.n_distinct == 2
        lt = space.id_of(Predicate("a", Op.LT, "a"))
        masks_with_lt = [m for m in ev.masks if m >> lt & 1]
        assert len(masks_with_lt) == 1


def _pair_loop(pdf, space, firsts=None):
    """Reference evidence: every ordered pair, predicate by predicate, with
    the null rule of DESIGN.md §5 (a representative reading a null or NaN
    is false; its complement is its NOT). ``firsts`` limits the pairs to
    those whose first tuple is in it."""
    rows = pdf.to_dict("records")
    bag: dict[int, int] = {}
    vios: dict[int, dict[int, int]] = {}
    for i, j in itertools.permutations(range(len(rows)), 2):
        if firsts is not None and i not in firsts:
            continue
        t, s = rows[i], rows[j]
        m = 0
        for k, p in enumerate(space.predicates):
            rep = p if p.op in REPRESENTATIVE else p.complement
            read = (t[rep.lhs], (t if rep.single_tuple else s)[rep.rhs])
            holds = not any(pd.isna(v) for v in read) and bool(rep.eval(t, s))
            m |= int(holds != (rep is not p)) << k
        bag[m] = bag.get(m, 0) + 1
        per = vios.setdefault(m, {})
        for x in (i, j):
            per[x] = per.get(x, 0) + 1
    return bag, vios


class TestAgainstPairLoop:
    """The kernel vs a per-pair loop on small seeded relations with ints,
    floats with None/NaN, strings with None, cross-column predicates and,
    in the wide case, a space of several words."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_relations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 12))
        pools = {"i": [0, 1, 2], "f": [0.5, 1.5, np.nan, None], "s": ["a", "b", None]}
        pdf = pd.DataFrame({
            f"{kind}{c}": pd.Series([pools[kind][x] for x in rng.integers(0, len(pools[kind]), n)],
                                    dtype=object if kind == "s" else None)
            for c, kind in enumerate(rng.choice(list(pools), size=int(rng.integers(1, 6))))
        })
        self._check(pdf, build_predicate_space(pdf, min_overlap=0.0))

    def test_wide_space(self):
        rng = np.random.default_rng(7)
        pdf = pd.DataFrame({f"x{c}": rng.choice([0.5, 1.5, np.nan], size=8) for c in range(6)})
        pdf["s"] = pd.Series(["a", None, "b", "a", None, "c", "b", "a"], dtype=object)
        pdf["t"] = pd.Series(["a", "c", None, "c", "a", "b", None, "a"], dtype=object)
        space = build_predicate_space(pdf, min_overlap=0.0)
        assert space.n_words >= 3
        self._check(pdf, space)

    def test_values_a_narrower_type_cannot_hold(self):
        """Columns are compared in a narrower type only where it holds every
        value exactly: floats that differ below float32 precision and ints
        beyond 32 bits keep their width, also across columns and in a
        nullable column with no NA."""
        pdf = pd.DataFrame({
            "a": [1.0, 1.0 + 1e-12, 1.0, np.nan, 2.0**40],
            "b": [2**62, 2**62 + 1, -3, 1, 1],
            "c": [0.5, 0.25, 1.0, 0.5, np.nan],
            "d": pd.array([2**62 + 1, 2**62, 5, 5, 7], dtype="Int64"),
        })
        self._check(pdf, build_predicate_space(pdf, min_overlap=0.0))

    def test_int_against_float_above_2_53(self):
        """An int64 column against a float64 column is compared exactly:
        2**62 + 1 is greater than 2.0**62, though float64 reads them equal."""
        pdf = pd.DataFrame({"a": [2.0**62, 2.0**62, 1.5], "b": [2**62 + 1, 2**62, 1]})
        space = build_predicate_space(pdf, min_overlap=0.0)
        assert any({p.lhs, p.rhs} == {"a", "b"} for p in space.predicates)
        self._check(pdf, space)

    @pytest.mark.parametrize("dtype", ["boolean", "Int64", "Float64"])
    def test_nullable_columns(self, dtype):
        """pandas' nullable columns: NA follows the null rule."""
        values = [True, False, None] if dtype == "boolean" else [0, 1, None]
        cells = [values[x % 3] for x in (0, 1, 2, 0, 0, 1, 2, 1, 0)]
        pdf = pd.DataFrame({"a": pd.array(cells, dtype=dtype), "b": pd.array(cells[::-1], dtype=dtype)})
        self._check(pdf, build_predicate_space(pdf, min_overlap=0.0))

    @staticmethod
    def _check(pdf, space):
        ev = build_evidence_local(pdf, space, with_vios=True)
        ev.check()
        bag, vios = _pair_loop(pdf, space)
        assert dict(zip(ev.masks, ev.counts.tolist())) == bag
        assert {m: ev.vios[i] for i, m in enumerate(ev.masks)} == vios


def _mixed(n: int, seed: int = 11) -> pd.DataFrame:
    """``n`` rows of ints, floats with NaN and strings with None."""
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "i": rng.integers(0, 3, n),
        "f": rng.choice([0.5, 1.5, np.nan], n),
        "g": rng.choice([0.5, 1.5, 2.5], n),
        "s": pd.Series(rng.choice(["a", "b", None], n), dtype=object),
    })


def _wide() -> pd.DataFrame:
    """A relation whose space is wider than 64 predicates (void keys)."""
    rng = np.random.default_rng(3)
    return pd.DataFrame({f"x{c}": rng.choice([0.5, 1.5, np.nan], size=11) for c in range(8)})


class TestTiling:
    """The kernel's bag and ``vios`` do not depend on how the pair grid is
    cut into tiles or how many threads run them."""

    @pytest.fixture
    def tiling(self, monkeypatch):
        """Sets the tile budget and thread count; returns, one entry per
        call to ``_tile``, the first tuples of its pairs and the bag it
        counted."""
        calls = []
        tile = evidence._tile

        def spy(cols, codes, n, lo, hi, grid):
            keys, counts = tile(cols, codes, n, lo, hi, grid)
            bag = {m: c for m, c in zip(codes.masks(keys), counts.tolist()) if c}
            calls.append((range(lo, hi), bag))
            return keys, counts

        monkeypatch.setattr(evidence, "_tile", spy)

        def set_(tile_pairs, workers):
            monkeypatch.setattr(evidence, "_TILE_PAIRS", tile_pairs)
            monkeypatch.setattr(evidence.os, "cpu_count", lambda: workers)
            return calls

        return set_

    @pytest.mark.parametrize("rel", ["mixed", "wide"])
    @pytest.mark.parametrize(
        "tile_pairs,workers,n_tiles",
        [(1, 1, 11), (30, 1, 6), (1 << 16, 4, 4), (1, 4, 11)],
        ids=["row-tiles-1-thread", "2-row-tiles-1-thread", "few-tiles-4-threads",
             "row-tiles-4-threads"],
    )
    def test_matches_pair_loop(self, tiling, rel, tile_pairs, workers, n_tiles):
        pdf = _mixed(11) if rel == "mixed" else _wide()
        space = build_predicate_space(pdf, min_overlap=0.0)
        if rel == "wide":
            assert len(space) > 64
        calls = tiling(tile_pairs, workers)
        TestAgainstPairLoop._check(pdf, space)
        assert len(calls) == n_tiles

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("with_vios", [False, True])
    def test_tiny_relations(self, n, with_vios):
        pdf = _mixed(n)
        space = build_predicate_space(_mixed(8), min_overlap=0.0)
        ev = build_evidence_local(pdf, space, with_vios=with_vios)
        ev.check()
        bag, vios = _pair_loop(pdf, space)
        assert ev.n_tuples == n and ev.total_pairs == n * (n - 1)
        assert dict(zip(ev.masks, ev.counts.tolist())) == bag
        if with_vios:
            assert {m: ev.vios[i] for i, m in enumerate(ev.masks)} == vios
        else:
            assert ev.vios is None

    @pytest.mark.parametrize("tile_pairs,workers", [(1, 1), (30, 4), (1 << 16, 4)])
    @pytest.mark.parametrize("with_vios", [False, True])
    def test_each_pair_evaluated_once(self, tiling, tile_pairs, workers, with_vios):
        """``_tile`` counts exactly the n(n−1) off-diagonal pairs per build,
        each once, whether or not ``vios`` is built: the tiles split the
        first tuples, and each tile's bag is the pair loop's over its first
        tuples, so no ``t = t'`` cell is counted."""
        calls = tiling(tile_pairs, workers)
        pdf = _mixed(9)
        space = build_predicate_space(pdf, min_overlap=0.0)
        build_evidence_local(pdf, space, with_vios=with_vios)
        assert sorted(i for firsts, _ in calls for i in firsts) == list(range(9))
        for firsts, bag in calls:
            assert bag == _pair_loop(pdf, space, firsts)[0]


def _partial_space() -> PredicateSpace:
    """Groups with some operators only: ``<`` alone, ``≥`` without its
    complement, ``≠`` alone, ``<`` with ``≤`` (no ``=``), and single-tuple
    groups, one of them complete."""
    P = Predicate
    return PredicateSpace([
        P("i", Op.LT, "i"),
        P("f", Op.GE, "g"),
        P("s", Op.NE, "s"),
        P("g", Op.LT, "g"), P("g", Op.LE, "g"),
        P("i", Op.GT, "f", single_tuple=True),
        *(P("f", op, "g", single_tuple=True) for op in Op),
    ])


class TestStateCodes:
    """The kernel's code paths: ``np.bincount`` over a small code space,
    ``np.unique`` over a large one, codes of several words, and groups
    holding only some of their operators."""

    @pytest.fixture(params=["bincount", "unique"])
    def count_path(self, request, monkeypatch):
        if request.param == "unique":
            monkeypatch.setattr(evidence, "_DENSE_CODES", 0)
        return request.param == "bincount"

    @pytest.mark.parametrize("tile_pairs", [30, 1 << 16])
    @pytest.mark.parametrize("rel", ["mixed", "partial"])
    def test_count_paths(self, count_path, monkeypatch, tile_pairs, rel):
        monkeypatch.setattr(evidence, "_TILE_PAIRS", tile_pairs)
        pdf = _mixed(13)
        space = _partial_space() if rel == "partial" else build_predicate_space(pdf, cross_column=False)
        assert evidence._Codes.of(space).dense == count_path
        TestAgainstPairLoop._check(pdf, space)

    def test_partial_groups(self):
        codes = evidence._Codes.of(_partial_space())
        # states per group: none or its one representative, ..., 1 + |{=, <, >}|
        assert [g[2] for g in codes.groups] == [2, 2, 2, 3, 2, 4]
        assert codes.sizes == [2 * 2 * 2 * 3 * 2 * 4]

    def test_complete_groups_without_nulls_skip_equality(self):
        """``=`` is not evaluated in a full group whose columns hold no null
        or NaN; ``f`` has NaN, so its group still is."""
        pdf = _mixed(13)
        space = build_predicate_space(pdf, cross_column=False)
        known = frozenset(c for c in pdf if not pdf[c].isna().any())
        assert known == {"i", "g"}
        evaluated = {str(r) for r, _, _ in evidence._Codes.of(space, known).steps}
        assert "t.i=t'.i" not in evaluated and "t.g=t'.g" not in evaluated
        assert {"t.i<t'.i", "t.i>t'.i", "t.f=t'.f", "t.f<t'.f", "t.s=t'.s"} <= evaluated
        TestAgainstPairLoop._check(pdf, space)

    def test_code_of_several_words(self, count_path):
        pdf = _wide()
        space = build_predicate_space(pdf, min_overlap=0.0)
        codes = evidence._Codes.of(space)
        assert len(codes.groups) == 64 and len(codes.sizes) >= 2 and not codes.dense
        assert all(size < 1 << 64 for size in codes.sizes)
        TestAgainstPairLoop._check(pdf, space)

    @pytest.mark.parametrize("with_vios", [False, True])
    def test_single_tuple_groups_only(self, count_path, with_vios):
        """A space of single-tuple groups: a pair's code is its first tuple's."""
        pdf = _mixed(10)
        space = PredicateSpace([p for p in _partial_space() if p.single_tuple])
        ev = build_evidence_local(pdf, space, with_vios=with_vios)
        bag, vios = _pair_loop(pdf, space)
        assert dict(zip(ev.masks, ev.counts.tolist())) == bag
        if with_vios:
            assert {m: ev.vios[i] for i, m in enumerate(ev.masks)} == vios
