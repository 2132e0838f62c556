"""Denial constraints (paper §3).

A DC ``∀t,t' ¬(P_1 ∧ … ∧ P_m)`` is identified with the frozen set of its
predicates. An ordered tuple pair *violates* the DC iff it satisfies every
predicate; equivalently the DC is satisfied by the pair iff the complement
of some predicate is in ``Sat(t,t')``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from .evidence import _pairs, _Side
from .predicates import Op, Predicate, pair_grid

_SQL_OP = {Op.EQ: "=", Op.NE: "<>", Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">="}


@dataclass(frozen=True)
class DenialConstraint:
    """A DC as a frozenset of :class:`Predicate`."""

    predicates: frozenset[Predicate]

    @staticmethod
    def of(*preds: Predicate) -> "DenialConstraint":
        return DenialConstraint(frozenset(preds))

    def __len__(self) -> int:
        return len(self.predicates)

    def implies(self, other: "DenialConstraint") -> bool:
        """Syntactic implication: a subset DC is more general (every
        database satisfying it satisfies the superset DC)."""
        return self.predicates <= other.predicates

    def is_trivial(self) -> bool:
        """True when two predicates differ only by operator — the conjunction
        is then unsatisfiable or redundant (e.g. ``t.A<t'.A ∧ t.A≥t'.A``)."""
        keys = [p.group_key for p in self.predicates]
        return len(set(keys)) < len(keys)

    def sorted_predicates(self) -> list[Predicate]:
        return sorted(self.predicates, key=lambda p: (p.lhs, p.rhs, p.single_tuple, p.op.value))

    def __str__(self) -> str:
        body = " ∧ ".join(str(p) for p in self.sorted_predicates())
        return f"¬({body})"

    # -- evaluation back-ends -------------------------------------------------

    def violation_condition(self, left: str = "l", right: str = "r") -> Column:
        """Spark Column: the pair (aliased ``left``/``right``) violates the DC
        (satisfies every predicate)."""
        t, s = _Side(left), _Side(right)
        return reduce(Column.__and__, [p.eval(t, s) for p in self.sorted_predicates()])

    def violation_sql(self, left: str = "t1", right: str = "t2") -> str:
        """SQL conjunction for the DuckDB oracle (same pair semantics).

        Written independently of :meth:`Predicate.eval` on purpose: the
        oracle must not share the evaluator it checks."""
        terms = []
        for p in self.sorted_predicates():
            rhs_alias = left if p.single_tuple else right
            terms.append(f"{left}.{p.lhs} {_SQL_OP[p.op]} {rhs_alias}.{p.rhs}")
        return " AND ".join(terms)

    def violating_pairs_pandas(self, pdf: pd.DataFrame) -> int:
        """Reference count of violating ordered pairs (O(n²), tests only)."""
        n = len(pdf)
        t, s = pair_grid(pdf)
        viol = np.ones((n, n), dtype=bool)
        for p in self.predicates:
            viol &= p.eval(t, s)
        np.fill_diagonal(viol, False)
        return int(viol.sum())


def violating_pairs_df(df: DataFrame, dc: DenialConstraint) -> DataFrame:
    """One-row DataFrame ``[n_violations]`` — violating ordered pairs of
    ``dc`` in ``df``, computed as a Catalyst cross-join scan over the
    ``__rid`` column.

    This is the direct (evidence-free) violation counter; tests cross-check
    it against both the evidence-set route and the DuckDB oracle.
    """
    return (
        _pairs(df).where(dc.violation_condition("l", "r"))
        .agg(F.count(F.lit(1)).alias("n_violations"))
    )
