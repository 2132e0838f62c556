"""Evidence-kernel scaling — the quadratic mechanism behind Figure 12.

A sample of the relation is one Bernoulli ``df.sample`` and one collect,
then :func:`~repro.core.build_evidence_local` over every ordered pair of
the collected rows, so the kernel's work grows with the square of the
sample. This job times the kernel alone on tax at three sizes and two
sample fractions, without and with ``vios`` (the f2/GreedyF3 input), and
reports its pair rate.
"""
import statistics
import sys
import time

import pandas as pd

sys.path.insert(0, ".")
from jobs.common import dataset_df, job_main  # noqa: E402


def _kernel_s(pdf, space, with_vios: bool, repeats: int) -> float:
    """Median seconds of ``repeats`` kernel builds, after one untimed build."""
    from repro.core import build_evidence_local

    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        build_evidence_local(pdf, space, with_vios=with_vios)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def run(spark, n: int = 3000, seed: int = 0, sample_fractions=(0.4, 1.0),
        repeats: int = 5) -> pd.DataFrame:
    """Tax at n/10, 2n/5 and n tuples (300, 1200, 3000 by default)."""
    from repro.core import build_predicate_space

    rows = []
    for size in (n // 10, 2 * n // 5, n):
        spec, df = dataset_df(spark, "tax", size, seed)
        space = build_predicate_space(spec.pdf)
        for frac in sample_fractions:
            sub = df if frac >= 1.0 else df.sample(False, frac, seed=seed + 1)
            pdf = sub.toPandas()
            pairs = len(pdf) * (len(pdf) - 1)
            kernel_s = _kernel_s(pdf, space, False, repeats)
            vios_s = _kernel_s(pdf, space, True, repeats)
            rows.append({
                "n": size,
                "sample": frac,
                "rows": len(pdf),
                "pairs": pairs,
                "kernel_s": round(kernel_s, 4),
                "mpairs_per_s": round(pairs / kernel_s / 1e6, 1),
                "vios_s": round(vios_s, 4),
                "vios_mpairs_per_s": round(pairs / vios_s / 1e6, 1),
            })
        df.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    sys.exit(job_main(run, "Evidence kernel scaling (tax)", n=3000))
