"""DenialConstraint semantics, formatting and SQL generation."""
import pytest

from repro.core.dc import DenialConstraint
from repro.core.predicates import Op, Predicate
from repro.datasets import PHI1, PHI2, running_example

P = Predicate


class TestBasics:
    def test_identity_is_predicate_set(self):
        a = DenialConstraint.of(P("A", Op.EQ, "A"), P("B", Op.NE, "B"))
        b = DenialConstraint.of(P("B", Op.NE, "B"), P("A", Op.EQ, "A"))
        assert a == b and hash(a) == hash(b)

    def test_len(self):
        assert len(PHI1) == 3 and len(PHI2) == 2

    def test_str_is_sorted_and_stable(self):
        s = str(PHI1)
        assert s == "¬(t.Income>t'.Income ∧ t.State=t'.State ∧ t.Tax<=t'.Tax)"

    def test_implies_subset(self):
        general = DenialConstraint.of(P("Zip", Op.EQ, "Zip"))
        assert general.implies(PHI2)
        assert not PHI2.implies(general)

    def test_trivial_detection(self):
        triv = DenialConstraint.of(P("A", Op.LT, "A"), P("A", Op.GE, "A"))
        assert triv.is_trivial()
        assert not PHI1.is_trivial()


class TestViolationCounting:
    def test_phi1_running_example(self):
        # Example 1.2: exactly 2 of 210 ordered pairs violate φ1
        assert PHI1.violating_pairs_pandas(running_example()) == 2

    def test_phi2_running_example(self):
        # Example 1.2: exactly 16 ordered pairs violate φ2
        assert PHI2.violating_pairs_pandas(running_example()) == 16

    def test_valid_dc_zero_violations(self):
        dc = DenialConstraint.of(P("Name", Op.EQ, "Name"), P("Name", Op.NE, "Name"))
        assert dc.violating_pairs_pandas(running_example()) == 0

    def test_single_tuple_violations(self):
        import pandas as pd

        pdf = pd.DataFrame({"hi": [5.0, 1.0], "lo": [4.0, 2.0]})
        dc = DenialConstraint.of(P("hi", Op.LT, "lo", single_tuple=True))
        # row 1 has hi < lo → it is the left tuple of 1 ordered pair (n-1=1)
        assert dc.violating_pairs_pandas(pdf) == 1


class TestSqlGeneration:
    def test_violation_sql_phi2(self):
        sql = PHI2.violation_sql("a", "b")
        assert sql == 'NOT COALESCE(a."State" = b."State", FALSE) AND a."Zip" = b."Zip"'

    def test_violation_sql_single_tuple(self):
        dc = DenialConstraint.of(P("hi", Op.LT, "lo", single_tuple=True))
        assert dc.violation_sql("x", "y") == 'x."hi" < x."lo"'

    @pytest.mark.parametrize(
        "op,sql",
        [
            pytest.param(Op.EQ, 't1."A" = t2."B"', id="=-="),
            pytest.param(Op.NE, 'NOT COALESCE(t1."A" = t2."B", FALSE)', id="!=-<>"),
            pytest.param(Op.LT, 't1."A" < t2."B"', id="<-<"),
            pytest.param(Op.LE, 'NOT COALESCE(t1."A" > t2."B", FALSE)', id="<=-<="),
            pytest.param(Op.GT, 't1."A" > t2."B"', id=">->"),
            pytest.param(Op.GE, 'NOT COALESCE(t1."A" < t2."B", FALSE)', id=">=->="),
        ],
    )
    def test_operator_rendering(self, op, sql):
        """``≠``, ``≤``, ``≥`` are the NOT of their representative, with a
        NULL side reading as false (DESIGN.md §5)."""
        dc = DenialConstraint.of(P("A", op, "B"))
        assert dc.violation_sql() == sql
