"""Denial constraints (paper §3).

A DC ``∀t,t' ¬(P_1 ∧ … ∧ P_m)`` is identified with the frozen set of its
predicates. An ordered tuple pair *violates* the DC iff it satisfies every
predicate; equivalently the DC is satisfied by the pair iff the complement
of some predicate is in ``Sat(t,t')``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .predicates import COMPLEMENT, Op, Predicate, pair_grid

#: SQL operator of each representative (``=``, ``<``, ``>``)
_SQL_OP = {Op.EQ: "=", Op.LT: "<", Op.GT: ">"}


def _ident(name: str) -> str:
    """``name`` as a DuckDB identifier: double-quoted, inner quotes doubled,
    so spaces, dots and backticks stay part of the name."""
    return '"' + name.replace('"', '""') + '"'


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

    # -- violation counters ---------------------------------------------------

    def violation_sql(self, left: str = "t1", right: str = "t2") -> str:
        """SQL conjunction for the DuckDB oracle, column names quoted, under
        the rule of :meth:`Predicate.eval`: ``=``, ``<``, ``>`` bare (a NULL
        conjunct already drops the pair) and ``≠``, ``≥``, ``≤`` as
        ``NOT COALESCE(<representative>, FALSE)``. DuckDB reads a pandas NaN
        as NULL.

        Written independently of :meth:`Predicate.eval` on purpose: the
        oracle must not share the evaluator it checks."""
        terms = []
        for p in self.sorted_predicates():
            op = p.op if p.op in _SQL_OP else COMPLEMENT[p.op]
            rhs = f"{left if p.single_tuple else right}.{_ident(p.rhs)}"
            term = f"{left}.{_ident(p.lhs)} {_SQL_OP[op]} {rhs}"
            terms.append(term if op is p.op else f"NOT COALESCE({term}, FALSE)")
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
