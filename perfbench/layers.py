"""Per-layer spans for the benchmark's traced run.

The traced run wraps public functions of each ``src/repro`` layer from
outside the program: every wrapper records a span (name, start, end,
parent span, operation id) into per-thread arrays kept in memory, and the
spans are written out when the run ends.  Nothing here is imported by the
untraced run, so end-to-end numbers never pay for it.

A wrapper is installed where the caller looks the name up: a class
attribute for methods, the importing module's global for functions
imported by name (``repro.engine.database`` imports ``tokenize`` and
``parse_tokens`` that way).  Generator functions (the access methods'
``*_batches``) get one span per ``next()`` call, so a span covers only
the work done on the consumer's behalf.

A span's *self time* is its duration minus the durations of its direct
child spans; per-layer metrics divide call counts and self time by the
number of operations the run completed.
"""

from __future__ import annotations

import array
import collections
import inspect
import itertools
import json
import os
import threading
import time

import numpy as np

# (metric function name, "module:attribute" targets sharing that name).
# The layer is the metric name's first component.
SPAN_TARGETS = [
    ("tquel.tokenize", ["repro.engine.database:tokenize"]),
    ("tquel.parse_tokens", ["repro.engine.database:parse_tokens"]),
    ("tquel.analyze_retrieve",
     ["repro.tquel.semantics:Analyzer.analyze_retrieve"]),
    ("tquel.analyze_update", ["repro.tquel.semantics:Analyzer.analyze_update"]),
    ("tquel.executor_build", ["repro.tquel.interpreter:Executor.__init__"]),
    ("tquel.run_retrieve", ["repro.tquel.interpreter:Executor.run_retrieve"]),
    ("tquel.run_replace", ["repro.tquel.interpreter:Executor.run_replace"]),
    ("tquel.run_append", ["repro.tquel.interpreter:Executor.run_append"]),
    ("engine.statement", [
        "repro.engine.database:TemporalDatabase.execute",
        "repro.engine.session:PreparedStatement.execute",
    ]),
    ("engine.planner.choose", ["repro.engine.planner:Planner.choose"]),
    ("engine.latch.wait", [
        "repro.engine.concurrency:RWLatch.acquire_shared",
        "repro.engine.concurrency:RWLatch.acquire_exclusive",
    ]),
    ("engine.persist.save", ["repro.engine.persist:save"]),
    ("engine.persist.commit", ["repro.engine.session:Session.commit"]),
    ("access.hash.lookup_batches",
     ["repro.access.hashfile:HashFile.lookup_batches"]),
    ("access.hash.scan_batches",
     ["repro.access.hashfile:HashFile.scan_batches"]),
    ("access.isam.lookup_batches",
     ["repro.access.isam:IsamFile.lookup_batches"]),
    ("access.isam.scan_batches", ["repro.access.isam:IsamFile.scan_batches"]),
    ("access.heap.lookup_batches",
     ["repro.access.heap:HeapFile.lookup_batches"]),
    ("access.heap.scan_batches", ["repro.access.heap:HeapFile.scan_batches"]),
    ("storage.buffer.read", ["repro.storage.buffer:BufferedFile.read"]),
    ("storage.decode_page", ["repro.storage.record:RecordCodec.decode_page"]),
    ("storage.iostats.checkpoint",
     ["repro.storage.iostats:IOStats.checkpoint"]),
    ("storage.iostats.delta", ["repro.storage.iostats:IOStats.delta"]),
    ("storage.flush_statement",
     ["repro.storage.buffer:BufferPool.flush_statement"]),
    ("observe.query_stats.record",
     ["repro.observe.stats:QueryStatsStore.record"]),
    ("observe.metrics.inc", ["repro.observe.metrics:MetricsRegistry.inc"]),
    ("observe.metrics.observe",
     ["repro.observe.metrics:MetricsRegistry.observe"]),
    ("observe.recorder.record", [
        "repro.observe.events:FlightRecorder.record",
        "repro.observe.events:_NullRecorder.record",
    ]),
    ("server.encode_frame", ["repro.server.protocol:encode_frame"]),
    ("server.decode_payload", ["repro.server.protocol:decode_payload"]),
    ("server.round_trip", ["repro.server.client:RemoteSession._exchange"]),
    # server.statement wraps the callable the server hands to its worker
    # thread (see install); it is listed here for its metric names.
    ("server.statement", []),
]

ACCESS_METHODS = ("hash", "isam", "heap")


class _Lane:
    """One thread's open-span stack and closed-span arrays."""

    __slots__ = ("stack", "ids", "names", "starts", "ends", "parents",
                 "ops", "counts")

    def __init__(self):
        self.stack = [0]  # span ids; 0 is the root
        self.ids = array.array("q")
        self.names = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.ops = array.array("q")
        self.counts = collections.Counter()


class SpanLog:
    """Spans and counters of one process, recorded while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.op = -1  # operation id stamped on every span
        self._names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lanes: "list[_Lane]" = []
        self._patched: "list[tuple[object, str, object]]" = []
        self._generators: "set[str]" = set()

    # -- recording ------------------------------------------------------------

    def _lane(self) -> _Lane:
        lane = getattr(self._tls, "lane", None)
        if lane is None:
            lane = self._tls.lane = _Lane()
            self._lanes.append(lane)
        return lane

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self._lane().counts[name] += amount

    def span_call(self, fn, name: str, measure=None):
        """*fn* wrapped in a span named *name*; *measure(result)* adds to
        the counter *name* when given."""
        nid = self._name_id(name)
        log = self
        clock = time.perf_counter
        ids = self._ids

        def wrapper(*args, **kwargs):
            if not log.enabled:
                return fn(*args, **kwargs)
            lane = log._lane()
            stack = lane.stack
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                lane.ids.append(sid)
                lane.names.append(nid)
                lane.starts.append(start)
                lane.ends.append(end)
                lane.parents.append(parent)
                lane.ops.append(log.op)
            if measure is not None:
                lane.counts[name] += measure(result)
            return result

        return wrapper

    def span_generator(self, fn, name: str):
        """Generator function *fn* with one span per ``next()``."""
        nid = self._name_id(name)
        log = self
        clock = time.perf_counter
        ids = self._ids

        def timed(gen):
            try:
                while True:
                    lane = log._lane()
                    stack = lane.stack
                    sid = next(ids)
                    parent = stack[-1]
                    stack.append(sid)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        lane.ids.append(sid)
                        lane.names.append(nid)
                        lane.starts.append(start)
                        lane.ends.append(end)
                        lane.parents.append(parent)
                        lane.ops.append(log.op)
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not log.enabled:
                return gen
            log._lane().counts[name] += 1  # calls: one per invocation
            return timed(gen)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        # None marks an inherited attribute: restoring deletes the shadow.
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target in SPAN_TARGETS plus the counting hooks."""
        import importlib

        for name, targets in SPAN_TARGETS:
            for target in targets:
                module_name, path = target.split(":")
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                # Inherited methods (HeapFile.lookup_batches) are wrapped
                # on the subclass only.
                original = getattr(owner, attr)
                if inspect.isgeneratorfunction(original):
                    self._generators.add(name)
                    wrapped = self.span_generator(original, name)
                elif name in ("server.encode_frame", "storage.decode_page"):
                    # Counted too: frame bytes and tuples decoded.
                    wrapped = self.span_call(original, name, measure=len)
                else:
                    wrapped = self.span_call(original, name)
                self._patch(owner, attr, wrapped)

        from repro.server.server import ReproServer
        from repro.storage.iostats import IOStats

        log = self
        to_worker = ReproServer.__dict__["_to_worker"]

        async def traced_to_worker(server, fn, *args):
            return await to_worker(
                server, log.span_call(fn, "server.statement"), *args
            )

        self._patch(ReproServer, "_to_worker", traced_to_worker)
        # Buffer misses: BufferedFile.read meters a disk read exactly when
        # the page is not resident.
        self._patch(IOStats, "record_read", self._counting(
            IOStats.__dict__["record_read"], "storage.buffer.misses"))
        self._patch(os, "fsync", self._counting(os.fsync, "fsyncs"))

    def _counting(self, fn, name: str):
        log = self

        def wrapper(*args, **kwargs):
            log.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def _arrays(self) -> dict:
        def joined(field, dtype):
            parts = [np.frombuffer(getattr(lane, field), dtype=dtype)
                     for lane in self._lanes]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {
            "id": joined("ids", np.int64),
            "name": joined("names", np.int64),
            "start": joined("starts", np.float64),
            "end": joined("ends", np.float64),
            "parent": joined("parents", np.int64),
            "op": joined("ops", np.int64),
        }

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, counters, and page
        reads made under each access method's lookups (JSON-safe)."""
        spans = self._arrays()
        counts = collections.Counter()
        for lane in self._lanes:
            counts.update(lane.counts)
        size = int(spans["id"].max()) + 1 if len(spans["id"]) else 1
        names = self._names
        duration = spans["end"] - spans["start"]
        child = np.zeros(size)
        np.add.at(child, spans["parent"], duration)
        own = duration - child[spans["id"]]

        per_name = {}
        for nid, name in enumerate(names):
            mask = spans["name"] == nid
            per_name[name] = {
                # A generator's spans are its next() calls; its calls are
                # its invocations.
                "calls": (counts[name] if name in self._generators
                          else int(mask.sum())),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }

        # Nearest access-method lookup ancestor of every span, resolved one
        # tree level per step until nothing changes.
        name_of = np.full(size, -1, dtype=np.int64)
        parent_of = np.zeros(size, dtype=np.int64)
        name_of[spans["id"]] = spans["name"]
        parent_of[spans["id"]] = spans["parent"]
        method_of_name = np.full(len(names) + 1, -1, dtype=np.int64)
        for index, method in enumerate(ACCESS_METHODS):
            nid = self._name_ids[f"access.{method}.lookup_batches"]
            method_of_name[nid] = index
        parent_method = method_of_name[name_of[parent_of]]
        lookup_of = np.full(size, -1, dtype=np.int64)
        while True:
            updated = np.where(
                parent_method >= 0, parent_method, lookup_of[parent_of]
            )
            updated[0] = -1
            if np.array_equal(updated, lookup_of):
                break
            lookup_of = updated
        reads = spans["id"][
            spans["name"] == self._name_ids["storage.buffer.read"]
        ]
        pages_under = {
            method: int((lookup_of[reads] == index).sum())
            for index, method in enumerate(ACCESS_METHODS)
        }
        return {
            "spans": per_name,
            "counts": dict(counts),
            "pages_under_lookup": pages_under,
        }

    def write(self, path) -> None:
        """Write every recorded span (and the name table) to *path*."""
        arrays = self._arrays()
        np.savez_compressed(path, names=np.array(self._names), **arrays)


def merge_summaries(summaries) -> dict:
    """Add up per-process summaries (client plus server)."""
    merged = {"spans": {}, "counts": collections.Counter(),
              "pages_under_lookup": collections.Counter()}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = merged["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key in into:
                into[key] += entry[key]
        merged["counts"].update(summary["counts"])
        merged["pages_under_lookup"].update(summary["pages_under_lookup"])
    return merged


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(merged: dict, ops: int, extra: dict) -> dict:
    """The per-layer metrics from merged summaries of *ops* operations.

    *extra* supplies what the benchmark measured itself: ``rows`` returned
    by retrieves, ``commits``, ``commit_wchar`` bytes, and the
    ``trace.overhead_frac`` / ``fit.*`` values.
    """
    spans = merged["spans"]
    counts = merged["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def seconds(name, key):
        return spans.get(name, {}).get(key, 0.0)

    metrics = {}
    for name, _targets in SPAN_TARGETS:
        metrics[f"{name}.calls_per_op"] = (calls(name) / ops, "count")
        metrics[f"{name}.self_us_per_op"] = (
            seconds(name, "self_s") * 1e6 / ops, "us"
        )
    metrics["tquel.rows_per_tuple_decoded"] = (
        _ratio(extra["rows"], counts.get("storage.decode_page", 0)), "ratio"
    )
    statements = calls("engine.statement")
    metrics["engine.plancache.hit_ratio"] = (
        _ratio(statements - calls("tquel.tokenize"), statements), "ratio"
    )
    metrics["engine.persist.bytes_per_commit"] = (
        _ratio(extra["commit_wchar"], extra["commits"]), "B"
    )
    metrics["engine.persist.fsyncs_per_commit"] = (
        _ratio(counts.get("fsyncs", 0), extra["commits"]), "count"
    )
    for method in ACCESS_METHODS:
        metrics[f"access.{method}.pages_per_lookup"] = (
            _ratio(merged["pages_under_lookup"].get(method, 0),
                   calls(f"access.{method}.lookup_batches")),
            "count",
        )
    reads = calls("storage.buffer.read")
    metrics["storage.buffer.hit_ratio"] = (
        _ratio(reads - counts.get("storage.buffer.misses", 0), reads),
        "ratio",
    )
    metrics["server.frame_bytes_per_op"] = (
        counts.get("server.encode_frame", 0) / ops, "B"
    )
    wire = seconds("server.round_trip", "total_s") - seconds(
        "server.statement", "total_s"
    )
    metrics["server.wire_us_per_op"] = (
        wire * 1e6 / ops if calls("server.round_trip") else 0.0, "us"
    )
    for name in ("trace.overhead_frac", "fit.fixed_us", "fit.us_per_page"):
        metrics[name] = extra[name]
    return metrics


def dump_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
