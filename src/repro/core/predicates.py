"""Predicate space for denial constraints (paper §3, §4.2 component 1).

A predicate compares an attribute of the first tuple ``t`` with an
attribute of either the second tuple ``t'`` (*two-tuple* predicate) or of
``t`` itself (*single-tuple* predicate, e.g. ``t.High < t.Low``). The six
operators are ``=, ≠, <, ≤, >, ≥``; order operators are generated only for
numeric attributes. Cross-attribute predicates are generated only for
attribute pairs of the same type sharing at least ``min_overlap`` (default
30%) common values, following Chu et al. [11] / Pena et al. [37].
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd


class Op(enum.Enum):
    """Comparison operator of a predicate."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Complement operator (paper §3): the predicate and its complement
#: partition the pair space — exactly one of them holds for every pair.
COMPLEMENT: dict[Op, Op] = {
    Op.EQ: Op.NE,
    Op.NE: Op.EQ,
    Op.LT: Op.GE,
    Op.GE: Op.LT,
    Op.GT: Op.LE,
    Op.LE: Op.GT,
}

#: Evaluator per operator; Python's comparison operators work on scalars,
#: numpy arrays and Spark ``Column``s alike (see :meth:`Predicate.eval`).
PY_OP: dict[Op, Callable] = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}

ORDER_OPS = (Op.LT, Op.LE, Op.GT, Op.GE)
EQUALITY_OPS = (Op.EQ, Op.NE)


@dataclass(frozen=True)
class Predicate:
    """One predicate of the space.

    ``lhs`` is always an attribute of the first tuple ``t``. For a
    two-tuple predicate (``single_tuple=False``) ``rhs`` is an attribute of
    ``t'``; for a single-tuple predicate both sides refer to ``t``.
    """

    lhs: str
    op: Op
    rhs: str
    single_tuple: bool = False

    @property
    def group_key(self) -> tuple[str, str, bool]:
        """Predicates sharing this key differ only by the operator.

        Used by ``RemoveRedundantPreds`` (paper §6.2) to avoid trivial DCs
        such as ``¬(t.A < t'.A ∧ t.A ≥ t'.A)``.
        """
        return (self.lhs, self.rhs, self.single_tuple)

    @property
    def complement(self) -> "Predicate":
        return Predicate(self.lhs, COMPLEMENT[self.op], self.rhs, self.single_tuple)

    def eval(self, t, s):
        """``Sat`` of this predicate on the ordered pair ``(t, s)``.

        ``t`` and ``s`` are indexed by attribute name and give scalars, numpy
        arrays shaped to broadcast over a pair grid (:func:`pair_grid`), or
        Spark ``Column``s; the result is of the same kind. A single-tuple
        predicate reads both sides from ``t``. This is the one place that
        knows the operator table; every builder and violation counter
        evaluates through it.
        """
        right = t if self.single_tuple else s
        return PY_OP[self.op](t[self.lhs], right[self.rhs])

    def __str__(self) -> str:
        rside = "t" if self.single_tuple else "t'"
        return f"t.{self.lhs}{self.op.value}{rside}.{self.rhs}"


class PredicateSpace:
    """An ordered predicate space with complement/group indexes.

    Predicate identity inside the enumeration algorithms is the index into
    ``self.predicates`` (a bit position in evidence-set bitmasks).
    """

    def __init__(self, predicates: Sequence[Predicate]):
        self.predicates: list[Predicate] = list(predicates)
        self.index: dict[Predicate, int] = {p: i for i, p in enumerate(self.predicates)}
        if len(self.index) != len(self.predicates):
            raise ValueError("duplicate predicates in space")
        self.complement_idx: list[int | None] = [
            self.index.get(p.complement) for p in self.predicates
        ]
        groups: dict[tuple, list[int]] = {}
        for i, p in enumerate(self.predicates):
            groups.setdefault(p.group_key, []).append(i)
        #: for each predicate id, ids of *other* predicates in its group
        self.group_others: list[tuple[int, ...]] = [
            tuple(j for j in groups[p.group_key] if j != i)
            for i, p in enumerate(self.predicates)
        ]

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self):
        return iter(self.predicates)

    def __getitem__(self, i: int) -> Predicate:
        return self.predicates[i]

    def id_of(self, p: Predicate) -> int:
        return self.index[p]

    @property
    def n_words(self) -> int:
        """Number of 64-bit words needed for an evidence bitmask."""
        return max(1, (len(self.predicates) + 63) // 64)


def pair_grid(pdf: pd.DataFrame) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The ``(t, s)`` arguments of :meth:`Predicate.eval` over all ordered
    pairs of ``pdf``: column arrays shaped ``(n, 1)`` for the first tuple
    and ``(1, n)`` for the second, so every result broadcasts to ``(n, n)``
    with cell ``[i, j]`` holding the pair ``(row i, row j)``."""
    cols = {c: pdf[c].to_numpy() for c in pdf.columns}
    return {c: v[:, None] for c, v in cols.items()}, {c: v[None, :] for c, v in cols.items()}


def is_numeric_dtype(s: pd.Series) -> bool:
    return pd.api.types.is_numeric_dtype(s) or pd.api.types.is_datetime64_any_dtype(s)


def value_overlap(a: pd.Series, b: pd.Series) -> float:
    """Fraction of common distinct values relative to the smaller domain."""
    va, vb = set(a.dropna().unique()), set(b.dropna().unique())
    if not va or not vb:
        return 0.0
    return len(va & vb) / min(len(va), len(vb))


def build_predicate_space(
    pdf: pd.DataFrame,
    *,
    min_overlap: float = 0.3,
    include_pairs: Sequence[tuple[str, str]] | None = None,
    exclude: Sequence[str] = (),
    single_tuple_pairs: bool = True,
    cross_column: bool = True,
) -> PredicateSpace:
    """Build ``P_R`` from a pandas sample of the relation (paper §4.2).

    - same-attribute two-tuple predicates ``t.A ρ t'.A`` for every attribute;
    - cross-attribute predicates ``t.A ρ t'.B`` and single-tuple
      ``t.A ρ t.B`` for same-type pairs with ≥ ``min_overlap`` common values
      (one direction per unordered pair, see DESIGN.md §2);
    - ``include_pairs`` forces specific cross pairs regardless of overlap.

    ``exclude`` drops attributes (e.g. the ``__rid`` bookkeeping column).
    """
    attrs = [c for c in pdf.columns if c not in exclude and not c.startswith("__")]
    numeric = {c for c in attrs if is_numeric_dtype(pdf[c])}
    preds: list[Predicate] = []

    def ops_for(a: str, b: str) -> tuple[Op, ...]:
        return EQUALITY_OPS + ORDER_OPS if a in numeric and b in numeric else EQUALITY_OPS

    for a in attrs:
        for op in ops_for(a, a):
            preds.append(Predicate(a, op, a))

    forced = {tuple(p) for p in (include_pairs or ())}
    if cross_column or forced:
        for i, a in enumerate(attrs):
            for b in attrs[i + 1 :]:
                if (a in numeric) != (b in numeric):
                    continue
                pair_ok = (a, b) in forced or (b, a) in forced
                if not pair_ok and cross_column:
                    pair_ok = value_overlap(pdf[a], pdf[b]) >= min_overlap
                if not pair_ok:
                    continue
                for op in ops_for(a, b):
                    preds.append(Predicate(a, op, b, single_tuple=False))
                    if single_tuple_pairs:
                        preds.append(Predicate(a, op, b, single_tuple=True))
    return PredicateSpace(preds)
