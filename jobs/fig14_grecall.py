"""Figure 14 — G-recall vs threshold for f1/f2/f3, spread vs skewed noise.

The §8.4 protocol: dirty each dataset two ways (cell-spread errors vs
errors concentrated in ~0.1% of the tuples), then report the fraction of
golden DCs recovered at thresholds 0 (valid DCs, the paper's parenthesized
baseline) through 1e-1.

G-recall is computed *exactly*, without enumeration: under implication
matching, a golden DC g is recovered by the complete minimal-ADC
enumeration iff ``1 − f(D, S_g) ≤ ε`` — monotonicity gives both directions
(any mined φ ⊆ g implies 1−f(g) ≤ 1−f(φ) ≤ ε; conversely a passing g
shrinks to some minimal ADC ⊆ g, which ADCEnum returns). So we evaluate
each golden's violation structure straight from the Spark-built evidence
set. A golden whose predicates fall out of the dirty data's predicate
space (the 30%-overlap profile can change under noise) counts as missed.
"""
import sys

import pandas as pd

sys.path.insert(0, ".")
from jobs.common import ALL_DATASETS, job_main  # noqa: E402

THRESHOLDS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def golden_uncovered(ev, space, dc):
    """Indices of evidence sets violating ``dc`` (all predicates present),
    or None if some predicate is absent from the space."""
    try:
        bits = [space.id_of(p) for p in dc.predicates]
    except KeyError:
        return None
    return [i for i, m in enumerate(ev.masks) if all(m >> b & 1 for b in bits)]


def run(spark, n: int = 300, seed: int = 0, noise_rate: float = 0.002,
        thresholds=THRESHOLDS,
        functions=("f1", "f2", "f3"),
        datasets=None) -> pd.DataFrame:
    from repro.core import (
        F1,
        F2,
        F3Greedy,
        build_evidence_spark,
        build_predicate_space,
    )
    from repro.datasets import DATASETS, add_noise

    fmap = {"f1": F1(), "f2": F2(), "f3": F3Greedy()}
    rows = []
    for name in datasets or ALL_DATASETS:
        spec = DATASETS[name](n, seed=seed)
        for mode in ("spread", "skewed"):
            dirty = add_noise(spec.pdf, rate=noise_rate, mode=mode, seed=seed + 11)
            space = build_predicate_space(dirty)
            ev = build_evidence_spark(spark, spark.createDataFrame(dirty), space, with_vios=True)
            unc = {g: golden_uncovered(ev, space, g) for g in spec.golden}
            for fname in functions:
                f = fmap[fname]
                for eps in thresholds:
                    hits = sum(
                        1
                        for g, u in unc.items()
                        if u is not None and f.passes(ev, u, eps)
                    )
                    rows.append(
                        {
                            "dataset": name,
                            "noise": mode,
                            "function": fname,
                            "eps": eps,
                            "g_recall": round(hits / len(spec.golden), 3),
                        }
                    )
    return pd.DataFrame(rows)


if __name__ == "__main__":
    sys.exit(job_main(run, "Figure 14: G-recall vs threshold", n=300))
