"""Wall-time benchmark of the TQuel engine, end to end and layer by layer.

    python3 perfbench/run.py --workload oltp_local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  One run sets its workload up several
times (``setup_s`` is the median), then runs the workload's fixed
operation list once, checking every result, and prints each metric by
name with its unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed; their times are scaled to a reference host speed
(``hostspeed.py``).  ``--trace 1`` runs an eighth of the operations twice from
identical databases, first plain and then with every layer's public
functions wrapped in spans (``layers.py``), checks that rows and page
counts agree between the two, and reports the per-layer metrics.

``--smoke`` runs every workload briefly in both modes and checks that
each metric named in BENCHMARK.json is printed with its unit.

The run refuses to start when a ``REPRO_*`` variable is set: those
switch engine paths (optimizer, batch execution, trace sampling,
failpoints, ...) and the numbers are defined at the shipped defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-ups per run; setup_s is their median
TRACE_SHARE = 0.125  # share of the operation list a traced run replays
# oltp_local and durable_commit are not in BENCHMARK.json (README.md says
# why); they run by hand.
WORKLOAD_NAMES = ["oltp_local", "oltp_tcp", "paper_suite", "durable_commit"]


def refuse_environment() -> "str | None":
    """Why this environment cannot give comparable numbers, or None."""
    overrides = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if overrides:
        return (
            "refusing to run with engine overrides set: "
            + ", ".join(overrides)
        )
    if not (ROOT / "src" / "repro").is_dir():
        return f"no engine source under {ROOT / 'src' / 'repro'}"
    return None


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU; returns it.

    One client in a closed loop keeps one CPU busy at a time, the server
    process included (it works only while the client waits).  Sharing
    one CPU turns each ``tcp://`` round trip's cross-CPU wakeups into
    plain context switches, which on a small shared host moved oltp_tcp's
    latency by less than a tenth of what unpinned runs did.  The last
    allowed CPU is chosen because the first one usually takes more
    interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children
    (the server and the reopening process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def execute(workload, ops, log=None) -> "tuple[list, list[str]]":
    """Run *ops* in a closed loop; (samples, errors).

    The host's speed is calibrated before every ``round_size``
    operations, outside the operations' own timings; each sample
    carries its round's factor."""
    from hostspeed import scale
    from workloads import Sample

    samples, errors = [], []
    for index, op in enumerate(ops):
        if index % workload.round_size == 0:
            factor = scale()
        if log is not None:
            log.op = index
        try:
            sample = workload.run(op)
        except Exception as error:  # counted as a failed operation
            sample = Sample(op[0], 0.0, False)
            if len(errors) < 5:
                errors.append(f"{op}: {type(error).__name__}: {error}")
        sample.scale = factor
        samples.append(sample)
    return samples, errors


def timed_run(name: str, seed: int, seconds: float, scratch) -> dict:
    from hostspeed import scale
    from workloads import WORKLOADS, quantile

    workload = WORKLOADS[name](scratch)
    setup_times = []
    for index in range(SETUPS):
        if index:
            workload.close()
        before = scale()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        # A set-up runs for seconds: scale by the host's speed on both
        # sides of it.
        setup_times.append(elapsed * (before + scale()) / 2)
    try:
        ops = workload.operations(seed, workload.op_count(seconds))
        samples, errors = execute(workload, ops)
    finally:
        workload.close()
    problems = errors + workload.problems()
    done = [s for s in samples if s.ok]
    # Times are scaled to the reference host speed (hostspeed.py).
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # Closed loop: operations over the sum of their latencies, which
        # leaves out the benchmark's own bookkeeping between operations.
        "ops_per_s": (len(done) / sum(s.scaled for s in done), "1/s"),
        "latency_p50_ms": (workload.latency_ms(done, 50), "ms"),
        "latency_p90_ms": (workload.latency_ms(done, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ordered = sorted(s.scaled for s in done)
    report = {
        "raw_ops_per_s": (len(done) / sum(s.seconds for s in done), "1/s"),
        "host_speed": (statistics.median(s.scale for s in samples), "ratio"),
        "latency_p99_ms": (quantile(ordered, 99) * 1e3, "ms"),
        "latency_p99_beyond": (len(ordered) // 100, "count"),
        "failed_frac": ((len(samples) - len(done)) / len(samples), "ratio"),
        **workload.report(samples),
    }
    return {
        "samples": samples, "metrics": metrics, "report": report,
        "problems": problems,
    }


def fit(samples) -> "tuple[float, float]":
    """``time = fixed + per_page * pages`` over statements (commit time
    excluded), in microseconds.

    Statements are grouped by page count and each group reduced to its
    median time; the line through the groups is the Theil-Sen estimate
    (median pairwise slope, then median intercept), so neither timing
    outliers nor one query that does more work per page (Q11) pulls the
    line off the cheap statements, as a least-squares line does.
    """
    groups: "dict[int, list[float]]" = {}
    for s in samples:
        if s.ok:
            groups.setdefault(s.pages, []).append(
                s.seconds - s.commit_seconds
            )
    points = sorted(
        (pages, statistics.median(times)) for pages, times in groups.items()
    )
    if not points:
        return 0.0, 0.0
    slopes = [
        (y2 - y1) / (x2 - x1)
        for index, (x1, y1) in enumerate(points)
        for x2, y2 in points[index + 1:]
    ]
    slope = statistics.median(slopes) if slopes else 0.0
    fixed = statistics.median(y - slope * x for x, y in points)
    return fixed * 1e6, slope * 1e6


def traced_run(name: str, seed: int, seconds: float, scratch) -> dict:
    import layers
    from workloads import WORKLOADS

    plain = WORKLOADS[name](scratch)
    count = plain.op_count(seconds * TRACE_SHARE)
    ops = plain.operations(seed, count)
    plain.setup()
    try:
        untraced, errors = execute(plain, ops)
    finally:
        plain.close()
    problems = errors + plain.problems()

    log = layers.SpanLog()
    log.install()
    traced_workload = WORKLOADS[name](scratch, traced=True)
    try:
        traced_workload.setup()
        try:
            traced_workload.start_trace()
            log.enabled = True
            traced, errors = execute(traced_workload, ops, log)
            log.enabled = False
            traced_workload.stop_trace()
        finally:
            traced_workload.close()
    finally:
        log.uninstall()
    problems += errors + traced_workload.problems()

    def observed(samples):
        return [(s.ok, s.rows, s.count, s.pages) for s in samples]

    if observed(traced) != observed(untraced):
        problems.append("traced run's rows or page counts differ from the "
                        "untraced run's")
    spans_dir = ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    log.write(spans_dir / f"{name}-seed{seed}-client.npz")
    server_spans = scratch / "server-spans.npz"
    if server_spans.exists():
        shutil.copy(server_spans, spans_dir / f"{name}-seed{seed}-server.npz")

    fixed_us, us_per_page = fit(untraced)
    commits = [s for s in traced if s.ok and s.commit_seconds]
    extra = {
        "rows": sum(len(s.rows) for s in traced if s.ok),
        "commits": len(commits),
        "commit_wchar": sum(s.commit_wchar for s in commits),
        "trace.overhead_frac": (
            sum(s.scaled for s in traced) / sum(s.scaled for s in untraced)
            - 1.0,
            "ratio",
        ),
        "fit.fixed_us": (fixed_us, "us"),
        "fit.us_per_page": (us_per_page, "us"),
    }
    merged = layers.merge_summaries(
        [log.summary(), *traced_workload.server_summaries]
    )
    metrics = layers.per_layer_metrics(merged, len(ops), extra)
    return {
        "samples": untraced + traced, "metrics": metrics, "report": {},
        "problems": problems,
    }


def run(args) -> int:
    # SIGTERM unwinds like an error, so workloads stop their server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    reason = refuse_environment()
    if reason is not None:
        print(f"perfbench: {reason}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpu = pin_to_one_cpu()
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu,
    }
    print("# run " + json.dumps(context), flush=True)
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    scratch = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        runner = traced_run if args.trace else timed_run
        outcome = runner(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in {
        **outcome["metrics"], **outcome["report"]
    }.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    for problem in outcome["problems"]:
        print(f"# problem: {problem}")
    samples = outcome["samples"]
    failed = sum(1 for s in samples if not s.ok)
    print(json.dumps({
        "correct": failed == 0 and not outcome["problems"],
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


def smoke() -> int:
    """Run every workload for one second in both modes; check that each
    metric of BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
            except (IndexError, ValueError, KeyError, TypeError):
                result, printed = {}, {}
            ok = (
                done.returncode == 0
                and result.get("correct") is True
                and printed == expected[trace]
            )
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} --trace {trace}")
            if not ok:
                missing = sorted(set(expected[trace]) - set(printed))
                print(f"     exit {done.returncode}; missing {missing}; "
                      f"{done.stderr.strip()[-800:]}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload and metric briefly")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
