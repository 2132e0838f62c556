"""Shared runner utilities for the experiment jobs.

Each job exposes ``run(spark, **params) -> pandas.DataFrame`` and a
``main()`` wrapper so it can be launched via ``spark-submit jobs/<name>.py``
or imported by the tests/benchmarks. Jobs print paper-style tables; the
measured numbers are recorded against the paper's in EXPERIMENTS.md.
"""
from __future__ import annotations

import argparse
import os
import sys

import pandas as pd
from pyspark.sql import SparkSession

#: datasets whose enumeration completes (or truncates gracefully) at job
#: scale — used by the sweep jobs; the table jobs use all eight. Mirrors the
#: paper's own practice of dropping datasets a component cannot process
#: (DCFinder could not handle Tax/Voter there).
CORE_DATASETS = ["tax", "hospital", "food", "airport"]
ALL_DATASETS = ["tax", "stock", "hospital", "food", "airport", "adult", "flight", "voter"]


def get_spark(app: str) -> SparkSession:
    """The one SparkSession factory, for the jobs and the test suite.

    Master and driver memory are read when the JVM launches, so they go into
    ``PYSPARK_SUBMIT_ARGS`` (unless already set) before the first session:
    ``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM`` (default
    8g). ``SPARK_SHUFFLE_PARTITIONS`` defaults to 16. Arrow is on, and
    broadcast joins are off so the pair scan always runs as a shuffle join.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def print_table(title: str, pdf: pd.DataFrame) -> None:
    print(f"\n== {title} ==", flush=True)
    print(pdf.to_string(index=False), flush=True)


def job_main(run_fn, title: str, **defaults):
    parser = argparse.ArgumentParser(description=title)
    parser.add_argument("--n", type=int, default=defaults.pop("n", 400),
                        help="tuples per dataset")
    parser.add_argument("--seed", type=int, default=defaults.pop("seed", 0))
    args = parser.parse_args()
    spark = get_spark(title)
    try:
        out = run_fn(spark, n=args.n, seed=args.seed, **defaults)
        print_table(title, out)
    finally:
        spark.stop()
    return 0


def dataset_df(spark: SparkSession, name: str, n: int, seed: int):
    """Materialize one synthetic dataset as a cached Spark DataFrame."""
    from repro.datasets import DATASETS

    spec = DATASETS[name](n, seed=seed)
    df = spark.createDataFrame(spec.pdf).cache()
    df.count()
    return spec, df


if __name__ == "__main__":  # pragma: no cover
    sys.exit(0)
