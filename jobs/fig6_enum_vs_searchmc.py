"""Figure 6 (and 9) — ADCEnum vs SearchMC enumeration runtimes.

Builds the evidence set once per dataset (f1, ε=``eps``, default 0.005) and
times both enumeration algorithms on identical input, with the nodes each
builds and the f checks each makes. ``--samples`` mode repeats across
sample fractions (the paper's Figure 9).
"""
import sys
import time

import pandas as pd

sys.path.insert(0, ".")
from jobs.common import CORE_DATASETS, dataset_df, job_main  # noqa: E402


def run(spark, n: int = 40, seed: int = 0, eps: float = 0.005,
        sample_fractions=(1.0,), datasets=None, timeout_s: float = 120.0,
        max_results: int = 30000) -> pd.DataFrame:
    from repro.core import F1, adc_enum, build_evidence_spark, build_predicate_space, search_mc

    rows = []
    for name in datasets or CORE_DATASETS:
        spec, df = dataset_df(spark, name, n, seed)
        space = build_predicate_space(spec.pdf)
        for frac in sample_fractions:
            sub = df if frac >= 1.0 else df.sample(False, frac, seed=seed)
            ev = build_evidence_spark(spark, sub, space)
            t0 = time.perf_counter()
            res_a, st_a = adc_enum(ev, F1(), eps, timeout_s=timeout_s, max_results=max_results)
            t_a = time.perf_counter() - t0
            t0 = time.perf_counter()
            res_m, st_m = search_mc(ev, F1(), eps, timeout_s=timeout_s, max_results=max_results)
            t_m = time.perf_counter() - t0
            rows.append(
                {
                    "dataset": name,
                    "sample": frac,
                    "distinct_evidence": ev.n_distinct,
                    "adcenum_s": round(t_a, 3),
                    "searchmc_s": round(t_m, 3),
                    "adcenum_nodes": st_a.nodes,
                    "searchmc_nodes": st_m.nodes,
                    "adcenum_f_evals": st_a.f_evals,
                    "searchmc_f_evals": st_m.f_evals,
                    "speedup": round(t_m / t_a, 2) if t_a > 0 else float("inf"),
                    "n_adcs": len(res_a),
                    "truncated": st_a.truncated or st_m.truncated,
                    "agree": (set(res_a) == set(res_m))
                    if not (st_a.truncated or st_m.truncated)
                    else None,
                }
            )
        df.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    sys.exit(job_main(run, "Figure 6: ADCEnum vs SearchMC"))
