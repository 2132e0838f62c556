"""ADCMiner benchmark: mine one workload repeatedly and print its metrics.

    python3 adcbench/run.py --workload enum-f1 --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else. One process serves one workload:

1. set-up, three rounds: start a local Spark session (rounds 2 and 3
   restart it in the same JVM), generate the input from ``--seed``,
   ``createDataFrame`` + cache + count, and one untimed warm-up
   ``adc_miner`` call. ``setup_s`` is the median round;
2. call ``repro.core.adc_miner`` until ``--seconds`` have passed, checking
   every result (see verify.py);
3. print the run settings, then as the last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics (medians over
the traced calls) and the tracing overhead; the spans go to
``.bench_work/trace-<workload>-<seed>.jsonl``. ``--smoke`` shrinks the
inputs for the benchmark's own tests.

Everything the run writes stays under ``.bench_work/`` in the checkout, and
the Spark JVM is stopped and waited for before the process exits.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import verify
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 3
CALL_TIMEOUT_S = 60.0
#: no new call starts after this many seconds, so the run ends well within 180 s
LAST_CALL_START_S = 110.0

NODES_NOTE = (
    "enumerate.nodes depends on the order in which distinct evidence masks "
    "arrive from the evidence layer, so it can move when only that layer "
    "changes (food n=150: build_evidence_local gave 126,612 nodes and Spark "
    "127,952, with the same 3,641 ADCs)"
)


def spark_settings() -> dict:
    threads = min(4, os.cpu_count() or 1)
    return {
        "master": f"local[{threads}]",
        "driver_memory": "2g",
        "shuffle_partitions": 16,
        "broadcast_threshold": -1,
        "arrow": True,
        "jvm_options": "-XX:+UseParallelGC",
    }


def import_program():
    """Import ``repro`` from this checkout's ``src/``; exit if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "core" / "miner.py").is_file():
        raise SystemExit(f"adcbench: no program under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    import repro.core.miner as miner

    if Path(miner.__file__).resolve().parents[2] != src.resolve():
        raise SystemExit(f"adcbench: repro was imported from {miner.__file__}, not {src}")
    return miner


def configure_spark_env(settings: dict, tmp: Path) -> None:
    """JVM launch options; they must be set before pyspark starts the JVM."""
    java_opts = f"{settings['jvm_options']} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {settings['master']}",
            f"--driver-memory {settings['driver_memory']}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)


def start_spark(settings: dict, tmp: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("adcbench")
        .config("spark.sql.shuffle.partitions", settings["shuffle_partitions"])
        .config("spark.sql.autoBroadcastJoinThreshold", settings["broadcast_threshold"])
        .config("spark.sql.execution.arrow.pyspark.enabled", str(settings["arrow"]).lower())
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm(spark) -> None:
    """Stop Spark, then end the gateway JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait()


def result_facts(res) -> dict:
    """The numbers a traced call's metrics need, without keeping the result."""
    ev = res.evidence
    facts = {
        "predicates": len(res.space),
        "rows": res.n_sampled,
        "pairs": ev.total_pairs,
        "distinct": len(ev.masks),
        "vios_rows": sum(len(v) for v in ev.vios.values()) if ev.vios else 0,
    }
    if "sampling" in res.timings:
        facts["rid_s"] = res.timings["sampling"]
    for key in ("nodes", "f_evals", "outputs"):
        if hasattr(res.enum_stats, key):
            facts[key] = getattr(res.enum_stats, key)
    return facts


class Runner:
    """One workload in one process: set-up, calls, checks, metrics."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.references: dict[str, set | None] = {}
        self.local = None  # (bag, vios) of the local evidence rebuild

    def reference_function(self):
        if self.wl.judged_as == "f1'":
            from repro.sampling.threshold import F1Prime

            return F1Prime(self.wl.alpha)
        return self.wl.make_function()

    def call(self, miner, spark, df):
        """One ``adc_miner`` call: (wall seconds, result or None)."""
        f = self.wl.make_function()
        t0 = time.perf_counter()
        try:
            res = miner.adc_miner(
                spark, df, f, self.wl.eps, timeout_s=CALL_TIMEOUT_S,
                **self.wl.miner_kwargs(self.seed),
            )
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.record(["adc_miner raised"])
            return dt, None
        return time.perf_counter() - t0, res

    def check(self, res, pdf) -> None:
        ev = res.evidence
        if self.wl.local_evidence and self.local is None:
            self.local = verify.local_evidence(pdf, res.space, self.wl.function == "f2")
        key = verify.fingerprint(ev)
        if key not in self.references:
            self.references[key] = verify.reference_sets(
                ev, self.reference_function(), self.wl.eps, CALL_TIMEOUT_S
            )
        bag, vios = self.local if self.local else (None, None)
        self.record(
            verify.check_call(
                res, self.wl.judged_as, self.wl.eps, self.wl.alpha,
                self.references[key], bag, vios,
            )
        )

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"# check failed: {p}", flush=True)


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    miner = import_program()
    settings = spark_settings()
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    configure_spark_env(settings, tmp)
    t_proc = time.perf_counter()
    runner = Runner(wl, args.seed)

    rounds = []
    spark = df = pdf = None
    try:
        for _ in range(SETUP_ROUNDS):
            if spark is not None:
                df.unpersist()
                spark.stop()
            t0 = time.perf_counter()
            spark = start_spark(settings, tmp)
            pdf = wl.make_input(args.seed, args.smoke)
            df = spark.createDataFrame(pdf).cache()
            df.count()
            _, res = runner.call(miner, spark, df)
            rounds.append(time.perf_counter() - t0)
            if res is not None:
                runner.check(res, pdf)
            del res
        setup_s = statistics.median(rounds)

        tracer = Tracer(spark.sparkContext) if args.trace else None
        plain: list[float] = []
        traced: list[float] = []
        traced_calls: list[tuple[int, int, dict]] = []
        t_start = time.perf_counter()
        while True:
            use_trace = tracer is not None and len(traced) < len(plain)
            if use_trace:
                first = len(tracer.spans)
                with tracer.installed(miner), tracer.span("adc_miner"):
                    dt, res = runner.call(miner, spark, df)
                traced.append(dt)
            else:
                dt, res = runner.call(miner, spark, df)
                plain.append(dt)
            if res is not None:
                if use_trace:
                    traced_calls.append((first, len(tracer.spans), result_facts(res)))
                runner.check(res, pdf)
            del res
            now = time.perf_counter()
            enough = now - t_start >= args.seconds and (tracer is None or traced)
            if enough or now - t_proc > LAST_CALL_START_S:
                break

        header = {
            "workload": wl.name,
            "seed": args.seed,
            "smoke": args.smoke,
            "settings": dict(
                settings,
                spark_version=spark.version,
                java_version=spark.sparkContext._jvm.System.getProperty("java.version"),
            ),
            "versions": versions(),
            "note": NODES_NOTE,
        }
        if tracer is not None:
            per_call = [tracer.call_metrics(a, b, facts) for a, b, facts in traced_calls]
            metrics = {}
            for name in per_call[0] if per_call else ():
                metrics[name] = statistics.median(c[name] for c in per_call)
            if traced and plain:
                metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            header["missing_layers"] = tracer.missing
            tracer.dump(WORK / f"trace-{wl.name}-{args.seed}.jsonl", header)
            out = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items() if k in metrics}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out = {
                "mine_s": {"value": statistics.median(plain), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        print("# run " + json.dumps(header), flush=True)
        if tracer is not None and tracer.missing:
            print(f"# missing layers (not reported): {tracer.missing}", flush=True)
        print(
            f"# setup rounds {[round(r, 3) for r in rounds]}; "
            f"calls {[round(t, 3) for t in plain]}"
            + (f", traced {[round(t, 3) for t in traced]}" if tracer else ""),
            flush=True,
        )
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": out,
        }
    finally:
        if spark is not None:
            stop_jvm(spark)
        shutil.rmtree(tmp, ignore_errors=True)


def versions() -> dict:
    import numpy
    import pandas
    import pyspark

    return {
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = ap.parse_args(argv)
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
