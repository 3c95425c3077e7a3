"""The benchmark's four workloads (README.md says why each was chosen).

Each workload is a closed loop with one client.  Its operation list is a
pure function of the seed and a fixed operation count -- the nominal rate
times the requested seconds -- so the history its writes leave behind is
the same on every run and every commit, however fast the engine is.

A workload object builds its database in ``setup`` (timed by the caller),
runs one operation per ``run`` call and checks the result against its own
oracle, and reports end-of-run problems from ``problems``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import repro
from repro.bench.evolve import evolve_uniform
from repro.bench.paper_data import FIGURE6
from repro.bench.queries import benchmark_queries
from repro.bench.validate import JOIN_QUERIES, JOIN_TOLERANCE
from repro.bench.workload import WorkloadConfig, build_database
from repro.catalog.schema import DatabaseType

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# Figure 3's database at temporal/100 %, the paper's seed and scale.
PAPER_CONFIG = WorkloadConfig(db_type=DatabaseType.TEMPORAL, loading=100)
RELATIONS = {"h": "temporal_h", "i": "temporal_i"}

perf = time.perf_counter


@dataclass
class Sample:
    """One operation's outcome."""

    kind: str
    seconds: float  # whole operation, commit included
    ok: bool
    rows: tuple = ()  # retrieved rows
    count: "int | None" = None  # tuples changed by an update
    pages: int = 0  # metered input + output pages of the statement
    commit_seconds: float = 0.0
    commit_wchar: int = 0  # bytes passed to write() during the commit
    scale: float = 1.0  # host-speed factor of its round (hostspeed.scale)

    @property
    def scaled(self) -> float:
        """``seconds`` at the reference host speed."""
        return self.seconds * self.scale


def python_env() -> dict:
    """Environment for child Python processes running the repo's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Workload:
    """Base class: subclasses define the loop's operations and oracle."""

    name = ""
    ops_per_second = 1.0  # nominal rate at which the op count is fixed
    unit = 1  # operations per natural cycle (the op count is a multiple)
    round_size = 100  # operations per host-speed calibration

    def __init__(self, scratch: pathlib.Path, traced: bool = False):
        self.scratch = scratch
        self.traced = traced
        self.server_summaries: "list[dict]" = []

    def op_count(self, seconds: float) -> int:
        cycles = max(1, round(self.ops_per_second * seconds / self.unit))
        return cycles * self.unit

    def operations(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def start_trace(self) -> None:
        """Begin recording spans in processes the workload started."""

    def stop_trace(self) -> None:
        """Stop recording spans in processes the workload started."""

    def run(self, op) -> Sample:
        raise NotImplementedError

    def problems(self) -> "list[str]":
        return []

    def close(self) -> None:
        raise NotImplementedError

    def report(self, samples: "list[Sample]") -> dict:
        """Workload-specific figures: name -> (value, unit)."""
        return {}

    def latency_ms(self, done: "list[Sample]", percent: int) -> float:
        """The *percent*-th percentile of the scaled latencies, in ms."""
        return quantile([s.scaled for s in done], percent) * 1e3


def quantile(values, percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _p50_ms(samples, kinds) -> float:
    values = [s.scaled for s in samples if s.ok and s.kind in kinds]
    return statistics.median(values) * 1e3 if values else 0.0


# -- oltp_local / oltp_tcp ----------------------------------------------------

READ = 'retrieve ({v}.id, {v}.seq) where {v}.id = $id when {v} overlap "now"'
WRITE = "replace {v} (seq = {v}.seq + 1) where {v}.id = $id"


class _Oltp(Workload):
    """Point reads and replaces on the evolved Figure 3 database.

    The mix: 45 % prepared current-version reads on h, 15 % the same on
    i, 20 % ad-hoc reads with the key as a literal (1024 distinct texts
    per relation overflow the 64-entry plan cache), 20 % prepared point
    replaces on h or i.  The oracle tracks every key's ``seq``.
    """

    def operations(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(count):
            draw = rng.random()
            key = rng.randint(1, PAPER_CONFIG.tuples)
            if draw < 0.45:
                ops.append(("read", "h", key))
            elif draw < 0.60:
                ops.append(("read", "i", key))
            elif draw < 0.80:
                ops.append(("adhoc", rng.choice("hi"), key))
            else:
                ops.append(("write", rng.choice("hi"), key))
        return ops

    def _build(self):
        bench = build_database(PAPER_CONFIG)
        evolve_uniform(bench, 1)
        return bench

    def _open(self, session) -> None:
        self.session = session
        for var, relation in RELATIONS.items():
            session.execute(f"range of {var} is {relation}")
        self.reads = {v: session.prepare(READ.format(v=v)) for v in "hi"}
        self.writes = {v: session.prepare(WRITE.format(v=v)) for v in "hi"}
        # evolve_uniform(1) left every key at seq 1.
        self.seq = {
            (v, key): 1 for v in "hi"
            for key in range(1, PAPER_CONFIG.tuples + 1)
        }

    def run(self, op) -> Sample:
        kind, var, key = op
        start = perf()
        if kind == "read":
            result = self.reads[var].execute({"id": key})
        elif kind == "adhoc":
            text = READ.format(v=var).replace("$id", str(key))
            result = self.session.execute(text)
        else:
            result = self.writes[var].execute({"id": key})
        seconds = perf() - start
        pages = result.io.input_pages + result.io.output_pages
        if kind == "write":
            self.seq[var, key] += 1
            return Sample(kind, seconds, result.count == 1,
                          count=result.count, pages=pages)
        rows = tuple(tuple(row) for row in result.rows)
        ok = (
            len(rows) == 1
            and rows[0][0] == key
            and rows[0][1] == self.seq[var, key]
        )
        return Sample(kind, seconds, ok, rows=rows, pages=pages)

    def report(self, samples) -> dict:
        return {
            "read_p50_ms": (_p50_ms(samples, ("read",)), "ms"),
            "adhoc_p50_ms": (_p50_ms(samples, ("adhoc",)), "ms"),
            "write_p50_ms": (_p50_ms(samples, ("write",)), "ms"),
        }


class OltpLocal(_Oltp):
    """In-process ``repro.connect(database=...)`` Session."""

    name = "oltp_local"
    ops_per_second = 2500

    def setup(self) -> None:
        self._open(repro.connect(database=self._build().db))

    def close(self) -> None:
        self.session.close()


class OltpTcp(_Oltp):
    """The same mix over ``tcp://`` against ``python -m repro.server``
    serving a checkpoint of the same database, one connection."""

    name = "oltp_tcp"
    ops_per_second = 1200

    def setup(self) -> None:
        directory = self.scratch / "served"
        shutil.rmtree(directory, ignore_errors=True)
        self._build().db.save(directory)
        server_args = ["--database", f"file:{directory}", "--port", "0"]
        if self.traced:
            self.summary_path = self.scratch / "server-summary.json"
            self.summary_path.unlink(missing_ok=True)
            command = [
                sys.executable, str(HERE / "serve.py"),
                "--summary", str(self.summary_path),
                "--spans", str(self.scratch / "server-spans.npz"),
                "--", *server_args,
            ]
        else:
            command = [sys.executable, "-m", "repro.server", *server_args]
        self.server = subprocess.Popen(
            command, cwd=ROOT, env=python_env(),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.server.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self._open(repro.connect(line.split()[-1], timeout=60))
        except BaseException:
            self._stop_server()
            raise

    def start_trace(self) -> None:
        self.server.send_signal(signal.SIGUSR1)
        time.sleep(0.2)  # let the handler run before the first request

    def stop_trace(self) -> None:
        self.server.send_signal(signal.SIGUSR2)
        time.sleep(0.2)

    def _stop_server(self) -> None:
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    def close(self) -> None:
        self.session.close()
        self._stop_server()
        if self.traced:
            with open(self.summary_path, encoding="utf-8") as handle:
                self.server_summaries.append(json.load(handle))


# -- paper_suite -----------------------------------------------------------------

# Scan and join queries: their time per input page is the paper's
# variable cost in time.
SCAN_QUERIES = ("Q03", "Q04", "Q07", "Q08", "Q09", "Q10", "Q11")
PAPER_UPDATE_COUNT = 8


class PaperSuite(Workload):
    """Figure 4's twelve queries on temporal/100 % evolved to n = 8.

    One buffer page per relation and ``pool.flush_all()`` before each
    query, as ``repro.bench.runner.measure_query`` does.  The seed
    shuffles the query order within each pass; with the buffers flushed
    before every query, order changes neither rows nor pages.
    """

    name = "paper_suite"
    ops_per_second = 18  # a pass and a half a second
    unit = 12
    round_size = 12  # a pass

    def __init__(self, scratch, traced=False):
        super().__init__(scratch, traced)
        self.texts = benchmark_queries(PAPER_CONFIG)

    def operations(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(count // self.unit):
            ids = sorted(self.texts)
            rng.shuffle(ids)
            ops.extend(("query", query_id) for query_id in ids)
        return ops

    def setup(self) -> None:
        bench = build_database(PAPER_CONFIG)
        evolve_uniform(bench, PAPER_UPDATE_COUNT)
        self.db = bench.db
        self.session = repro.connect(database=bench.db)
        self.first: "dict[str, tuple]" = {}

    def run(self, op) -> Sample:
        query_id = op[1]
        self.db.pool.flush_all()
        start = perf()
        result = self.session.execute(self.texts[query_id])
        seconds = perf() - start
        rows = tuple(tuple(row) for row in result.rows)
        pages = result.io.input_pages
        published = FIGURE6[query_id][PAPER_UPDATE_COUNT]
        tolerance = JOIN_TOLERANCE if query_id in JOIN_QUERIES else 0.0
        ok = abs(pages - published) <= tolerance * published
        reference = self.first.setdefault(query_id, (rows, pages))
        ok = ok and reference == (rows, pages)
        return Sample(query_id, seconds, ok, rows=rows, pages=pages)

    def close(self) -> None:
        self.session.close()

    def latency_ms(self, done, percent: int) -> float:
        """The percentile over the twelve queries of each query's median
        scaled latency, in ms.  Twelve very different queries make a
        percentile pooled over all executions, or over a pass, fall in
        the gap between two of them and jump with the tail of one; each
        query's median over the passes does not."""
        by_query: "dict[str, list[float]]" = {}
        for s in done:
            by_query.setdefault(s.kind, []).append(s.scaled)
        medians = [statistics.median(times) for times in by_query.values()]
        return quantile(medians, percent) * 1e3

    def report(self, samples) -> dict:
        passes = [
            sum(s.scaled for s in samples[start:start + self.unit])
            for start in range(0, len(samples), self.unit)
        ]
        scans = [s for s in samples if s.ok and s.kind in SCAN_QUERIES]
        scan_pages = sum(s.pages for s in scans)
        return {
            "suite_pass_s": (statistics.median(passes), "s"),
            "scan_us_per_page": (
                sum(s.scaled for s in scans) * 1e6 / scan_pages
                if scan_pages else 0.0,
                "us",
            ),
        }


# -- durable_commit ----------------------------------------------------------------

DURABLE_ROWS = 50_000


def _wchar() -> int:
    """Bytes this process has passed to write() (Linux /proc/self/io)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class DurableCommit(Workload):
    """One-row appends and replaces, each followed by ``commit()``, on a
    ``file:`` database holding one hashed persistent interval relation
    of 5*10^4 rows."""

    name = "durable_commit"
    ops_per_second = 30
    unit = 2  # an append then a replace
    round_size = 10

    def operations(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        ops = []
        for index in range(count // 2):
            ops.append(("append", DURABLE_ROWS + 1 + index,
                        rng.randint(10_000, 99_999)))
            ops.append(("replace", rng.randint(1, DURABLE_ROWS)))
        return ops

    def setup(self) -> None:
        self.directory = self.scratch / "durable"
        shutil.rmtree(self.directory, ignore_errors=True)
        session = repro.connect(f"file:{self.directory}")
        session.execute(
            "create persistent interval r (id = i4, seq = i4, amount = i4)"
        )
        rng = random.Random(DURABLE_ROWS)
        session.db.copy_in("r", [
            (key, 0, rng.randint(10_000, 99_999))
            for key in range(1, DURABLE_ROWS + 1)
        ])
        session.execute("modify r to hash on id")
        session.execute("range of r is r")
        session.commit()
        self.session = session
        self.append = session.prepare(
            "append to r (id = $id, seq = 0, amount = $amount)"
        )
        self.replace = session.prepare(
            "replace r (seq = r.seq + 1) where r.id = $id"
        )
        self.record_bytes = session.db.relation("r").schema.codec.record_size
        self.expected = {key: 0 for key in range(1, DURABLE_ROWS + 1)}

    def run(self, op) -> Sample:
        kind, key = op[0], op[1]
        start = perf()
        if kind == "append":
            result = self.append.execute({"id": key, "amount": op[2]})
        else:
            result = self.replace.execute({"id": key})
        statement = perf() - start
        written = _wchar()
        start = perf()
        self.session.commit()
        commit = perf() - start
        commit_wchar = _wchar() - written
        if kind == "append":
            self.expected[key] = 0
        else:
            self.expected[key] += 1
        return Sample(
            kind, statement + commit, result.count == 1, count=result.count,
            pages=result.io.input_pages + result.io.output_pages,
            commit_seconds=commit, commit_wchar=commit_wchar,
        )

    def problems(self) -> "list[str]":
        """A fresh process reopens the checkpoint: every acknowledged
        write must be there, and nothing else."""
        reopened = subprocess.run(
            [sys.executable, str(HERE / "reopen.py"), str(self.directory)],
            cwd=ROOT, env=python_env(), capture_output=True, text=True,
            timeout=120,
        )
        if reopened.returncode != 0:
            return [f"reopen failed: {reopened.stderr.strip()[-500:]}"]
        current = {key: seq for key, seq in json.loads(reopened.stdout)}
        if current == self.expected:
            return []
        missing = sorted(set(self.expected) - set(current))
        wrong = sorted(
            key for key in self.expected
            if key in current and current[key] != self.expected[key]
        )
        extra = sorted(set(current) - set(self.expected))
        return [
            f"reopened checkpoint differs: {len(missing)} keys missing, "
            f"{len(wrong)} with a wrong seq, {len(extra)} unexpected"
        ]

    def close(self) -> None:
        self.session.close()

    def report(self, samples) -> dict:
        done = [s for s in samples if s.ok]
        commit_bytes = sum(s.commit_wchar for s in done)
        return {
            "commit_p50_ms": (
                statistics.median(s.commit_seconds * s.scale for s in done)
                * 1e3
                if done else 0.0,
                "ms",
            ),
            "commit_write_amp": (
                commit_bytes / (len(done) * self.record_bytes)
                if done else 0.0,
                "ratio",
            ),
        }


WORKLOADS = {
    cls.name: cls for cls in (OltpLocal, OltpTcp, PaperSuite, DurableCommit)
}
