"""Figure 8 — ADCMiner runtime per approximation function (f1, f2, f3).

Reports total / enumeration / evidence times for each function, with the
enumeration's search-tree nodes and f-evaluations next to its seconds; the
paper's finding is that enumeration times are close across functions and
evidence construction dominates the total.
"""
import sys

import pandas as pd

sys.path.insert(0, ".")
from jobs.common import CORE_DATASETS, dataset_df, job_main  # noqa: E402


def run(spark, n: int = 150, seed: int = 0, eps: float = 0.01, datasets=None,
        max_results: int = 1000) -> pd.DataFrame:
    from repro.core import F1, F2, F3Greedy, adc_miner, build_predicate_space

    rows = []
    for name in datasets or CORE_DATASETS:
        spec, df = dataset_df(spark, name, n, seed)
        space = build_predicate_space(spec.pdf)
        row = {"dataset": name}
        for f in (F1(), F2(), F3Greedy()):
            res = adc_miner(spark, df, f, eps, space=space, timeout_s=120,
                            max_results=max_results)
            row[f"{f.name}_total_s"] = round(res.timings["total"], 2)
            row[f"{f.name}_enum_s"] = round(res.timings["enumeration"], 2)
            row[f"{f.name}_nodes"] = res.enum_stats.nodes
            row[f"{f.name}_f_evals"] = res.enum_stats.f_evals
            row[f"{f.name}_evidence_s"] = round(res.timings["evidence"], 2)
            row[f"{f.name}_n_adcs"] = len(res.dcs)
        rows.append(row)
        df.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    sys.exit(job_main(run, "Figure 8: runtime by approximation function", n=300))
