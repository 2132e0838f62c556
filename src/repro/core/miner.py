"""ADCMiner — the end-to-end pipeline of Figure 1.

``ADCMiner(R, D, f, ε)``:

1. ``GeneratePSpace``  — :func:`repro.core.predicates.build_predicate_space`
2. ``Sample``          — uniform tuple sample (``DataFrame.sample``)
3. ``ConstructEvidence`` — :func:`repro.core.evidence.build_evidence_spark`
4. ``ADCEnum``         — :func:`repro.core.enumerate.adc_enum`

Per-stage wall-clock timings are recorded — the paper's runtime figures
(6, 7, 8, 12) all decompose along these stages.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..sampling.threshold import F1Prime
from .dc import DenialConstraint
from .enumerate import EnumStats, adc_enum, hitting_sets_to_dcs
from .evidence import (
    EvidenceSet,
    _cached,
    build_evidence_local,
    build_evidence_naive,
    build_evidence_spark,
    build_vios_spark,
    with_rid,
)
from .functions import ApproximationFunction
from .predicates import PredicateSpace, build_predicate_space
from .searchmc import search_mc

#: Rows read to build the predicate space when none is given (the 30%
#: overlap rule of :func:`build_predicate_space` needs only a sample).
_SPACE_SAMPLE_ROWS = 2000


@dataclass
class MinerResult:
    dcs: list[DenialConstraint]
    hitting_sets: list[frozenset[int]]
    space: PredicateSpace
    evidence: EvidenceSet
    enum_stats: EnumStats
    timings: dict[str, float] = field(default_factory=dict)
    n_sampled: int = 0

    @property
    def dc_set(self) -> set[frozenset]:
        return {dc.predicates for dc in self.dcs}


def adc_miner(
    spark: SparkSession,
    df: DataFrame,
    f: ApproximationFunction,
    eps: float,
    *,
    sample_fraction: float | None = None,
    seed: int = 0,
    space: PredicateSpace | None = None,
    builder: str = "fast",
    enumerator: str = "adcenum",
    alpha: float | None = None,
    max_results: int | None = None,
    timeout_s: float | None = None,
) -> MinerResult:
    """Run the full ADCMiner pipeline on a Spark DataFrame.

    ``alpha`` (with the f1 family) switches acceptance on the sample to the
    corrected function f1' of §7.2 so that mined DCs hold on the full
    database w.r.t. ``eps`` with probability ≥ 1−alpha.
    ``builder``: ``fast`` (Catalyst bit-packed) or ``naive`` (AFASTDC-style
    UDF). ``enumerator``: ``adcenum`` or ``searchmc`` (baseline).
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    if space is None:
        head = df.limit(_SPACE_SAMPLE_ROWS).toPandas()
        space = build_predicate_space(head)
    timings["predicate_space"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sampled = df if sample_fraction is None else df.sample(
        withReplacement=False, fraction=sample_fraction, seed=seed
    )
    with _cached(with_rid(sampled)) as sampled:
        n_sampled = sampled.count()
        timings["sampling"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        if builder == "fast":
            build = build_vios_spark if f.needs_vios else build_evidence_spark
            ev = build(spark, sampled, space)
        else:
            ev = build_evidence_naive(spark, sampled, space, with_vios=f.needs_vios)
        timings["evidence"] = time.perf_counter() - t0

    eff_f = f
    if alpha is not None and sample_fraction is not None and f.name == "f1":
        eff_f = F1Prime(alpha)

    t0 = time.perf_counter()
    enum = adc_enum if enumerator == "adcenum" else search_mc
    hitting_sets, stats = enum(ev, eff_f, eps, max_results=max_results, timeout_s=timeout_s)
    dcs = hitting_sets_to_dcs(ev, hitting_sets)
    timings["enumeration"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())

    return MinerResult(
        dcs=dcs,
        hitting_sets=hitting_sets,
        space=space,
        evidence=ev,
        enum_stats=stats,
        timings=timings,
        n_sampled=n_sampled,
    )


def adc_miner_local(pdf: pd.DataFrame, f: ApproximationFunction, eps: float) -> MinerResult:
    """Driver-only run over pandas, without Spark.

    Kept only because the benchmark's own tests (``adcbench/``) mine their
    smoke inputs with it; the pipeline is :func:`adc_miner`.
    """
    space = build_predicate_space(pdf)
    ev = build_evidence_local(pdf, space, with_vios=f.needs_vios)
    hitting_sets, stats = adc_enum(ev, f, eps)
    return MinerResult(
        dcs=hitting_sets_to_dcs(ev, hitting_sets),
        hitting_sets=hitting_sets,
        space=space,
        evidence=ev,
        enum_stats=stats,
        n_sampled=len(pdf),
    )
