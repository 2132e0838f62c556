"""Predicate space generation and semantics (paper §3, Table 3, Ex. 3.1)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.predicates import (
    COMPLEMENT,
    EQUALITY_OPS,
    ORDER_OPS,
    Op,
    Predicate,
    PredicateSpace,
    build_predicate_space,
    value_overlap,
)
from repro.datasets import running_example


@pytest.fixture(scope="module")
def re_pdf():
    return running_example()


@pytest.fixture(scope="module")
def re_space(re_pdf):
    return build_predicate_space(re_pdf, include_pairs=[("Income", "Tax")])


class TestOperators:
    @pytest.mark.parametrize("op", list(Op))
    def test_complement_is_involution(self, op):
        assert COMPLEMENT[COMPLEMENT[op]] == op

    @pytest.mark.parametrize("op,comp", [(Op.EQ, Op.NE), (Op.LT, Op.GE), (Op.GT, Op.LE)])
    def test_complement_pairs(self, op, comp):
        assert COMPLEMENT[op] == comp and COMPLEMENT[comp] == op

    @pytest.mark.parametrize("op", list(Op))
    def test_exactly_one_of_pred_and_complement_holds(self, op):
        p = Predicate("a", op, "a")
        q = p.complement
        for x, y in [(1, 1), (1, 2), (2, 1)]:
            t, s = {"a": x}, {"a": y}
            assert p.eval(t, s) != q.eval(t, s)


class TestPredicate:
    def test_str_two_tuple(self):
        assert str(Predicate("A", Op.LT, "B")) == "t.A<t'.B"

    def test_str_single_tuple(self):
        assert str(Predicate("A", Op.GE, "B", single_tuple=True)) == "t.A>=t.B"

    def test_group_key_ignores_operator(self):
        a = Predicate("A", Op.LT, "B")
        b = Predicate("A", Op.GE, "B")
        assert a.group_key == b.group_key

    def test_group_key_distinguishes_single_tuple(self):
        a = Predicate("A", Op.LT, "B")
        b = Predicate("A", Op.LT, "B", single_tuple=True)
        assert a.group_key != b.group_key

    def test_single_tuple_eval_ignores_second_tuple(self):
        p = Predicate("A", Op.LT, "B", single_tuple=True)
        assert p.eval({"A": 1, "B": 2}, {"A": 9, "B": 0})
        assert not p.eval({"A": 3, "B": 2}, {"A": 0, "B": 9})

    def test_eval_broadcasts_over_arrays(self):
        p = Predicate("A", Op.GT, "B")
        t = {"A": np.array([1, 5])[:, None], "B": np.array([2, 2])[:, None]}
        s = {"A": np.array([0, 0])[None, :], "B": np.array([0, 4])[None, :]}
        out = p.eval(t, s)
        assert out.shape == (2, 2)
        assert out[1, 0] and not out[0, 1]


class TestValueOverlap:
    def test_identical_columns(self):
        s = pd.Series([1, 2, 3])
        assert value_overlap(s, s) == 1.0

    def test_disjoint_columns(self):
        assert value_overlap(pd.Series([1, 2]), pd.Series([3, 4])) == 0.0

    def test_partial_overlap_uses_smaller_domain(self):
        a = pd.Series([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        b = pd.Series([1, 2])
        assert value_overlap(a, b) == 1.0

    def test_empty(self):
        assert value_overlap(pd.Series([], dtype=float), pd.Series([1.0])) == 0.0


class TestSpaceGeneration:
    def test_same_attribute_string_gets_equality_only(self, re_space):
        name_ops = {p.op for p in re_space if p.lhs == "Name" and p.rhs == "Name"}
        assert name_ops == set(EQUALITY_OPS)

    def test_same_attribute_numeric_gets_all_six(self, re_space):
        inc_ops = {p.op for p in re_space if p.lhs == "Income" and p.rhs == "Income"}
        assert inc_ops == set(EQUALITY_OPS) | set(ORDER_OPS)

    def test_forced_cross_pair_present(self, re_space):
        assert Predicate("Income", Op.GT, "Tax") in re_space.index

    def test_no_mixed_type_predicates(self, re_pdf):
        space = build_predicate_space(re_pdf)
        for p in space:
            lhs_num = re_pdf[p.lhs].dtype != object
            rhs_num = re_pdf[p.rhs].dtype != object
            assert lhs_num == rhs_num, str(p)

    def test_overlap_rule_excludes_income_tax_by_default(self, re_pdf):
        # Income and Tax share no common values in Table 1 → no cross preds
        space = build_predicate_space(re_pdf)
        assert Predicate("Income", Op.GT, "Tax") not in space.index

    def test_overlap_rule_includes_comparable_pair(self):
        pdf = pd.DataFrame({"a": [1, 2, 3, 4], "b": [2, 3, 4, 5]})
        space = build_predicate_space(pdf)
        assert Predicate("a", Op.LT, "b") in space.index

    def test_cross_column_off(self):
        pdf = pd.DataFrame({"a": [1, 2, 3], "b": [1, 2, 3]})
        space = build_predicate_space(pdf, cross_column=False)
        assert all(p.lhs == p.rhs for p in space)

    def test_dunder_columns_excluded(self):
        pdf = pd.DataFrame({"a": [1, 2], "__rid": [0, 1]})
        space = build_predicate_space(pdf)
        assert all("__rid" not in (p.lhs, p.rhs) for p in space)

    def test_complement_closed(self, re_space):
        # every predicate's complement is in the space
        assert all(ci is not None for ci in re_space.complement_idx)

    def test_complement_index_is_involution(self, re_space):
        for i, ci in enumerate(re_space.complement_idx):
            assert re_space.complement_idx[ci] == i

    def test_group_others_symmetric(self, re_space):
        for i, others in enumerate(re_space.group_others):
            for j in others:
                assert i in re_space.group_others[j]

    def test_duplicate_predicates_rejected(self):
        p = Predicate("a", Op.EQ, "a")
        with pytest.raises(ValueError):
            PredicateSpace([p, p])

    def test_n_words(self):
        pdf = pd.DataFrame({f"c{i}": [f"x{j}" for j in range(3)] for i in range(20)})
        space = build_predicate_space(pdf, cross_column=False)
        assert len(space) == 40 and space.n_words == 1


def sat(space, t, s) -> list[bool]:
    """``Sat(t, s)`` as one truth value per predicate of ``space``."""
    return [bool(p.eval(t, s)) for p in space]


def described(space, t, s) -> set[str]:
    return {str(p) for p, ok in zip(space, sat(space, t, s)) if ok}


class TestExample31:
    """Example 3.1 of the paper: Sat(t2,t5) and Sat(t5,t2)."""

    def test_sat_t2_t5(self, re_pdf, re_space):
        t2 = re_pdf.iloc[1].to_dict()
        t5 = re_pdf.iloc[4].to_dict()
        got = described(re_space, t2, t5)
        assert {"t.Name!=t'.Name", "t.Income>t'.Income", "t.Income>=t'.Income",
                "t.Income>t'.Tax", "t.Income>=t'.Tax"} <= got
        assert "t.Income<t'.Income" not in got

    def test_sat_t5_t2(self, re_pdf, re_space):
        t2 = re_pdf.iloc[1].to_dict()
        t5 = re_pdf.iloc[4].to_dict()
        got = described(re_space, t5, t2)
        assert {"t.Name!=t'.Name", "t.Income<t'.Income", "t.Income<=t'.Income"} <= got
        assert "t.Income>t'.Income" not in got

    def test_mask_has_exactly_one_per_complement_pair(self, re_pdf, re_space):
        t1 = re_pdf.iloc[0].to_dict()
        t3 = re_pdf.iloc[2].to_dict()
        bits = sat(re_space, t1, t3)
        for i, ci in enumerate(re_space.complement_idx):
            assert bits[i] != bits[ci]
