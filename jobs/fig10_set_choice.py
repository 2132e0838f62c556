"""Figure 10 — pivot choice in ADCEnum: maximal vs minimal |F ∩ cand|.

The paper deviates from Murakami & Uno by picking the uncovered set with
the *maximal* candidate intersection; this job times both policies for the
three approximation functions on the paper's three Figure-10 datasets.
``truncated`` marks rows where either policy hit ``max_results`` or the
deadline, so their times and node counts are not comparable.
"""
import sys
import time

import pandas as pd

sys.path.insert(0, ".")
from jobs.common import dataset_df, job_main  # noqa: E402


def run(spark, n: int = 150, seed: int = 0, eps: float = 0.01,
        datasets=("tax", "hospital", "food"), max_results: int = 2000) -> pd.DataFrame:
    from repro.core import F1, F2, F3Greedy, adc_enum, build_evidence_spark, build_predicate_space

    rows = []
    for name in datasets:
        spec, df = dataset_df(spark, name, n, seed)
        space = build_predicate_space(spec.pdf)
        ev = build_evidence_spark(spark, df, space, with_vios=True)
        for f in (F1(), F2(), F3Greedy()):
            row = {"dataset": name, "function": f.name, "truncated": False}
            for choose in ("max", "min"):
                t0 = time.perf_counter()
                res, stats = adc_enum(ev, f, eps, choose=choose, timeout_s=90,
                                      max_results=max_results)
                row[f"{choose}_s"] = round(time.perf_counter() - t0, 3)
                row[f"{choose}_nodes"] = stats.nodes
                row["truncated"] |= stats.truncated
            row["n_adcs"] = len(res)
            rows.append(row)
        df.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    sys.exit(job_main(run, "Figure 10: max vs min pivot intersection", n=300))
