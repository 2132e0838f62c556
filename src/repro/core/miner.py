"""ADCMiner — the end-to-end pipeline of Figure 1.

``ADCMiner(R, D, f, ε)``:

1. ``Sample``          — uniform tuple sample (``DataFrame.sample``)
2. ``GeneratePSpace``  — :func:`repro.core.predicates.build_predicate_space`
3. ``ConstructEvidence`` — :func:`repro.core.evidence.build_evidence_spark`
4. ``ADCEnum``         — :func:`repro.core.enumerate.adc_enum`

The fast path runs one Spark action: the evidence pass collects the
(sampled) frame once and, when no space is given, builds ``P_R`` from
every collected row before the kernel runs — in sample mode, from the
sample (DESIGN.md §5).

Per-stage wall-clock timings are recorded — the paper's runtime figures
(6, 7, 8, 12) all decompose along these stages. ``evidence`` excludes the
time spent building ``P_R`` inside the pass, which is ``predicate_space``.
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
    build_evidence_local,
    build_evidence_naive,
    build_evidence_spark,
    build_vios_spark,
)
from .functions import ApproximationFunction
from .predicates import PredicateSpace, build_predicate_space
from .searchmc import search_mc

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
    ``space=None`` builds ``P_R`` from every row of the (sampled) frame.
    ``builder``: ``fast`` (the numpy tile kernel over one collect of the
    sample) or ``naive`` (AFASTDC-style UDF; without a space it collects
    the sample once more for ``P_R``). ``enumerator``: ``adcenum`` or
    ``searchmc`` (baseline).
    """
    timings = {"predicate_space": 0.0}

    def make_space(pdf: pd.DataFrame) -> PredicateSpace:
        # resolved in this module at call time, so adcbench's tracer sees it
        t0 = time.perf_counter()
        out = build_predicate_space(pdf)
        timings["predicate_space"] = time.perf_counter() - t0
        return out

    t0 = time.perf_counter()
    sampled = df if sample_fraction is None else df.sample(
        withReplacement=False, fraction=sample_fraction, seed=seed
    )
    timings["sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if builder == "fast":
        build = build_vios_spark if f.needs_vios else build_evidence_spark
        ev = build(spark, sampled, space if space is not None else make_space)
    else:
        if space is None:
            space = make_space(sampled.toPandas())
        ev = build_evidence_naive(spark, sampled, space, with_vios=f.needs_vios)
    timings["evidence"] = time.perf_counter() - t0 - timings["predicate_space"]

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
        space=ev.space,
        evidence=ev,
        enum_stats=stats,
        timings=timings,
        n_sampled=ev.n_tuples,
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
