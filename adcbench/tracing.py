"""Per-layer spans for the traced run.

:class:`Tracer` wraps, in ``repro.core.miner``'s namespace, the layer
functions the miner resolves at call time, plus ``passes`` of the
approximation function the miner hands to ``adc_enum``. Each wrapper
records a span ``(id, parent, name, start, end, outcome)`` in memory;
:meth:`Tracer.dump` writes them out at the end of the run. Spark job and
task counts per span come from ``sparkContext.statusTracker()`` through a
job group set for the span's duration.

A layer function that the miner no longer has is reported in
:attr:`Tracer.missing`, and its metrics are left out rather than set to 0.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: miner attribute -> span name
LAYERS = {
    "build_predicate_space": "predicates",
    "build_evidence_spark": "evidence.scan",
    "build_vios_spark": "evidence.vios",
    "adc_enum": "enumerate",
    "hitting_sets_to_dcs": "enumerate.to_dcs",
}
SPARK_SPANS = ("evidence.scan", "evidence.vios")
PASSES = "functions.passes"

#: per-layer metric -> unit
PER_LAYER = {
    "predicates.s": "s",
    "predicates.count": "count",
    "evidence.rid_s": "s",
    "evidence.rows": "count",
    "evidence.scan_s": "s",
    "evidence.pairs": "count",
    "evidence.distinct": "count",
    "evidence.mpairs_per_s": "Mpairs/s",
    "evidence.scan_jobs": "count",
    "evidence.scan_tasks": "count",
    "evidence.vios_s": "s",
    "evidence.vios_rows": "count",
    "evidence.vios_jobs": "count",
    "evidence.vios_tasks": "count",
    "enumerate.s": "s",
    "enumerate.self_s": "s",
    "enumerate.nodes": "count",
    "enumerate.f_evals": "count",
    "enumerate.outputs": "count",
    "enumerate.us_per_node": "us",
    "enumerate.yield": "ratio",
    "enumerate.to_dcs_s": "s",
    "functions.s": "s",
    "functions.calls": "count",
    "functions.us_per_call": "us",
    "functions.pass_ratio": "ratio",
    "miner.rest_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.spans: list[tuple] = []  # (id, parent, name, start, end, outcome)
        self.groups: dict[int, str] = {}  # span id -> Spark job group
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(sid)
        group = None
        if name in SPARK_SPANS:
            group = f"adcbench-{sid}"
            self.groups[sid] = group
            self.sc.setJobGroup(group, name)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            if group is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1, None)

    def _wrap(self, name, fn):
        def traced(*args, **kw):
            with self.span(name):
                return fn(*args, **kw)

        return traced

    def _wrap_enum(self, fn):
        tracer = self

        def traced(ev, f, eps, **kw):
            had_own = "passes" in vars(f)
            inner = f.passes

            def passes(*args, **kwargs):
                sid = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                t0 = time.perf_counter()
                ok = inner(*args, **kwargs)
                tracer.spans.append((sid, parent, PASSES, t0, time.perf_counter(), bool(ok)))
                return ok

            f.passes = passes
            try:
                with tracer.span("enumerate"):
                    return fn(ev, f, eps, **kw)
            finally:
                if had_own:
                    f.passes = inner
                else:
                    del f.passes

        return traced

    @contextmanager
    def installed(self, miner):
        """Wrap the layer functions in ``miner``'s namespace for one call."""
        saved = {}
        for attr, name in LAYERS.items():
            fn = getattr(miner, attr, None)
            if fn is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            saved[attr] = fn
            setattr(miner, attr, self._wrap_enum(fn) if attr == "adc_enum" else self._wrap(name, fn))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(miner, attr, fn)

    def spark_counts(self, sid: int) -> tuple[int, int]:
        """(jobs, completed tasks) run under span ``sid``'s job group."""
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(self.groups[sid])
        tasks = 0
        for j in jobs:
            info = tracker.getJobInfo(j)
            for s in info.stageIds if info else ():
                stage = tracker.getStageInfo(s)
                tasks += stage.numCompletedTasks if stage else 0
        return len(jobs), tasks

    def call_metrics(self, first: int, last: int, facts: dict) -> dict[str, float]:
        """Per-layer metrics of the traced call whose spans are ``[first, last)``."""
        spans = self.spans[first:last]
        root = spans[0]
        dur: dict[str, float] = {}
        count: dict[str, int] = {}
        child_time: dict[int, float] = {}
        for sid, parent, name, t0, t1, _ in spans:
            dur[name] = dur.get(name, 0.0) + (t1 - t0)
            count[name] = count.get(name, 0) + 1
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        ran = set(LAYERS.values()) - set(self.missing)

        def jobs_tasks(name):
            totals = [0, 0]
            for sid, _, nm, *_ in spans:
                if nm == name:
                    j, t = self.spark_counts(sid)
                    totals[0] += j
                    totals[1] += t
            return totals

        m: dict[str, float] = {}
        if "predicates" in ran:
            m["predicates.s"] = dur.get("predicates", 0.0)
            m["predicates.count"] = facts["predicates"]
        if "rid_s" in facts:
            m["evidence.rid_s"] = facts["rid_s"]
        m["evidence.rows"] = facts["rows"]
        if "evidence.scan" in ran:
            scan = dur.get("evidence.scan", 0.0)
            m["evidence.scan_s"] = scan
            m["evidence.pairs"] = facts["pairs"]
            m["evidence.distinct"] = facts["distinct"]
            m["evidence.mpairs_per_s"] = facts["pairs"] / scan / 1e6 if scan else 0.0
            m["evidence.scan_jobs"], m["evidence.scan_tasks"] = jobs_tasks("evidence.scan")
        if "evidence.vios" in ran:
            m["evidence.vios_s"] = dur.get("evidence.vios", 0.0)
            m["evidence.vios_rows"] = facts["vios_rows"]
            m["evidence.vios_jobs"], m["evidence.vios_tasks"] = jobs_tasks("evidence.vios")
        if "enumerate" in ran:
            enum_s = dur.get("enumerate", 0.0)
            enum_ids = [s[0] for s in spans if s[2] == "enumerate"]
            f_s = dur.get(PASSES, 0.0)
            calls = count.get(PASSES, 0)
            m["enumerate.s"] = enum_s
            m["enumerate.self_s"] = enum_s - sum(child_time.get(i, 0.0) for i in enum_ids)
            for key in ("nodes", "f_evals", "outputs"):
                if key in facts:
                    m[f"enumerate.{key}"] = facts[key]
            if "nodes" in facts:
                nodes = facts["nodes"]
                m["enumerate.us_per_node"] = enum_s / nodes * 1e6 if nodes else 0.0
                if "outputs" in facts:
                    m["enumerate.yield"] = facts["outputs"] / nodes if nodes else 0.0
            m["functions.s"] = f_s
            m["functions.calls"] = calls
            m["functions.us_per_call"] = f_s / calls * 1e6 if calls else 0.0
            passed = sum(1 for s in spans if s[2] == PASSES and s[5])
            m["functions.pass_ratio"] = passed / calls if calls else 0.0
        if "enumerate.to_dcs" in ran:
            m["enumerate.to_dcs_s"] = dur.get("enumerate.to_dcs", 0.0)
        if "rid_s" in facts:
            layers = sum(dur.get(name, 0.0) for name in LAYERS.values())
            m["miner.rest_s"] = (root[4] - root[3]) - layers - facts["rid_s"]
        return m

    def dump(self, path, header: dict) -> None:
        """Write the header and every span, one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "outcome"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
