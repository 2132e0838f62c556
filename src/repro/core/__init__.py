"""The paper's primary contribution: ADC mining (predicates, evidence sets,
approximation functions, ADCEnum, the SearchMC baseline, ADCMiner)."""
from .dc import DenialConstraint, violating_pairs_df
from .enumerate import ADCEnum, adc_enum, hitting_sets_to_dcs
from .evidence import (
    EvidenceSet,
    build_evidence_local,
    build_evidence_naive,
    build_evidence_spark,
    with_rid,
)
from .functions import F1, F2, ApproximationFunction, F3Greedy, one_minus_f1
from .miner import MinerResult, adc_miner, adc_miner_local
from .predicates import Op, Predicate, PredicateSpace, build_predicate_space
from .searchmc import search_mc

__all__ = [
    "ADCEnum", "ApproximationFunction", "DenialConstraint", "EvidenceSet",
    "F1", "F2", "F3Greedy", "MinerResult", "Op", "Predicate",
    "PredicateSpace", "adc_enum", "adc_miner", "adc_miner_local",
    "build_evidence_local", "build_evidence_naive", "build_evidence_spark",
    "build_predicate_space", "hitting_sets_to_dcs",
    "one_minus_f1", "search_mc", "violating_pairs_df", "with_rid",
]
