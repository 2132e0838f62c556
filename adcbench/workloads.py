"""The benchmark's workloads: one ``adc_miner`` configuration each.

Every workload mines a column projection of one synthetic dataset with
complete enumeration, so the work per call is fixed by the input and a
deadline hit is a failure, never a short run. The projection keeps each
call at a few seconds on a 4-core machine; README.md records the sizing.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    n: int
    smoke_n: int
    columns: tuple[str, ...]
    #: leading columns kept in smoke mode (small n has more minimal ADCs)
    smoke_cols: int
    function: str  # "f1" or "f2"
    eps: float
    sample_fraction: float | None = None
    alpha: float | None = None
    #: compare each call against a local evidence set built by the benchmark
    local_evidence: bool = True

    def make_input(self, seed: int, smoke: bool = False) -> pd.DataFrame:
        """The relation this workload mines, generated from ``seed``."""
        from repro.datasets import DATASETS

        n, cols = (self.smoke_n, self.columns[: self.smoke_cols]) if smoke else (self.n, self.columns)
        return DATASETS[self.dataset](n, seed=seed).pdf[list(cols)]

    def make_function(self):
        from repro.core import F1, F2

        return {"f1": F1, "f2": F2}[self.function]()

    def miner_kwargs(self, seed: int) -> dict:
        return dict(sample_fraction=self.sample_fraction, alpha=self.alpha, seed=seed)

    @property
    def judged_as(self) -> str:
        """The function the miner applies: f1 on a sample with α becomes f1'."""
        if self.function == "f1" and self.alpha is not None and self.sample_fraction:
            return "f1'"
        return self.function


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enum-f1",
            why="food n=150, full, f1, complete: ADCEnum is ~60% of a call, "
            "the Spark scan is small and vios is never built",
            dataset="food",
            n=150,
            smoke_n=40,
            smoke_cols=10,
            columns=(
                "inspection_id", "dba_name", "license_no", "facility_type",
                "risk", "address", "city", "state", "zip", "inspection_date",
                "violation_no", "ward", "results", "aka_name",
            ),
            function="f1",
            eps=0.001,
        ),
        Workload(
            name="spark-sample-f1",
            why="tax n=2000, 40% sample, f1' (alpha=0.05), complete: row id, "
            "sample and pair scan are ~50% of a call, enumeration ~45%",
            dataset="tax",
            n=2000,
            smoke_n=200,
            smoke_cols=10,
            columns=(
                "phone", "zip", "city", "state", "area_code", "marital_status",
                "has_child", "salary", "rate", "single_exemp",
            ),
            function="f1",
            eps=0.001,
            sample_fraction=0.4,
            alpha=0.05,
            # the sampled rows are not visible to the benchmark
            local_evidence=False,
        ),
        Workload(
            name="spark-full-f2",
            why="airport n=800, full, f2, complete: the evidence scan plus the "
            "second O(n^2) vios scan and collect are ~85% of a call",
            dataset="airport",
            n=800,
            smoke_n=120,
            smoke_cols=8,
            columns=(
                "iata", "city", "state", "country", "tz_offset", "dst",
                "facility_type", "owner",
            ),
            function="f2",
            eps=0.001,
        ),
    )
}
