"""hoplog benchmark: seeded CLI query lists, one forked child per query.

Usage, from the root of a checkout:

    python3 bench/run.py --workload game-wfs --seed 1 --seconds 30 --trace 0

Each query runs ``hoplog.cli.main`` in a fresh child forked from a parent
that has imported hoplog but never called it, one query at a time (a
closed loop with one client: a CLI user waits for each verdict).  A shared
process would hand each query the previous queries' ``canonical_print``
cache and garbage-collector state, which no CLI run sees.  The child times
the call into ``cli.main`` up to its return, output flushed.  The parent
checks every answer against the expected value from ``workloads``, and
scales each time to a reference host speed (see REFERENCE_KERNEL_S).

Queries run in whole passes over the workload's pool, each pass in a fresh
seeded order, until the time is used up; every pass has the same mix, so
the quantiles do not depend on where a run stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on traced passes (spans around each layer entry point, see
``tracing``) and half on as many untraced passes of the same pool, and
prints the per-layer metrics, tracing overhead included.  The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPEATS = 11
# The reference kernel's time on the host the baselines were taken on (a
# 2-core VM).  Every reported time is scaled by this over the kernel's time
# measured just before and after the timed work: the host's speed drifts by
# 20-30% over tens of seconds, and CPU time drifts with it.
REFERENCE_KERNEL_S = 0.00175
# A p90 with at least ten samples beyond it.
MIN_SAMPLES = 100
# No run may take longer than this, whatever the program does.
HARD_LIMIT_S = 150.0
QUERY_TIMEOUT_S = 60.0

END_TO_END = (
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def use_checkout_sources() -> None:
    """Import hoplog from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hoplog" / "cli.py").is_file():
        raise BenchError(f"no hoplog sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _timed_import() -> None:
    """Import hoplog in a throwaway child, as a CLI process would."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import hoplog.cli  # noqa: F401

            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("importing hoplog failed")


def _reference_kernel() -> int:
    table = {}
    for i in range(4000):
        key = ("k", i % 211, i)
        table[key] = str(i)
    values = frozenset(table.values())
    return len(values) + sum(len(v) for v in table.values())


def reference_seconds() -> float:
    """Shortest of three timings of a fixed pure-Python kernel: how fast
    the host runs Python right now."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        _reference_kernel()
        best = min(best, perf_counter() - started)
    return best


def _scale(ref_before: float, ref_after: float) -> float:
    return REFERENCE_KERNEL_S / ((ref_before + ref_after) / 2)


def write_inputs(pool: list, workdir: Path) -> list[Path]:
    paths = []
    for i, query in enumerate(pool):
        path = workdir / f"q{i}.hop"
        path.write_text(query.source, encoding="utf-8")
        paths.append(path)
    return paths


def setup(workload: str, seed: int, workdir: Path):
    """Generate the pool and its expected answers, write the inputs and
    import hoplog; repeated, and timed as the median repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        ref_before = reference_seconds()
        started = perf_counter()
        pool = workloads.POOLS[workload](seed)
        paths = write_inputs(pool, workdir)
        _timed_import()
        elapsed = perf_counter() - started
        times.append(elapsed * _scale(ref_before, reference_seconds()))
    import hoplog.cli  # noqa: F401  (the children inherit it)

    gc.collect()
    return pool, paths, statistics.median(times)


# ---------------------------------------------------------------------------
# One query
# ---------------------------------------------------------------------------


def _child(query, path: Path, qid: int, traced: bool, workdir: Path) -> None:
    from hoplog import cli

    argv = [str(path) if a == "{input}" else a for a in query.args]
    result = {"code": None, "elapsed": None, "raised": None, "spans": None}
    with open(workdir / f"q{qid}.out", "w", encoding="utf-8") as out, open(
        workdir / f"q{qid}.err", "w", encoding="utf-8"
    ) as err:
        sys.stdout, sys.stderr = out, err
        recorder = None
        if traced:
            recorder = tracing.Recorder(qid)
            tracing.install(recorder)
        started = perf_counter()
        try:
            if recorder is None:
                result["code"] = cli.main(argv)
            else:
                result["code"] = recorder.call("cli", cli.main, argv)
            out.flush()
            result["elapsed"] = perf_counter() - started
        except BaseException as exc:  # the query failed; the parent records why
            result["raised"] = "".join(traceback.format_exception_only(exc)).strip()
        if recorder is not None:
            result["spans"] = recorder.finish()
    with open(workdir / f"q{qid}.res", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run_query(query, path: Path, qid: int, traced: bool, workdir: Path, deadline: float) -> dict:
    """Run one query in a forked child; return its timing, peak RSS and
    the checker's verdict."""
    ref_before = reference_seconds()
    gc.freeze()  # the child's collector then ignores the parent's objects
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # Ends the child even if the parent is gone and cannot kill it.
            signal.alarm(int(QUERY_TIMEOUT_S) + 5)
            _child(query, path, qid, traced, workdir)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    stop = min(deadline, time.monotonic() + QUERY_TIMEOUT_S)
    timed_out = False
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > stop:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                timed_out = True
                break
            time.sleep(0.001)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    ref_after = reference_seconds()
    record = {
        "label": query.label,
        "rss_kb": usage.ru_maxrss,
        "elapsed": None,
        "scale": _scale(ref_before, ref_after),
    }
    res_path = workdir / f"q{qid}.res"
    if timed_out:
        record["failure"] = "timed out"
    elif os.waitstatus_to_exitcode(status) != 0 or not res_path.is_file():
        record["failure"] = "child died"
    else:
        res = json.loads(res_path.read_text(encoding="utf-8"))
        stdout = (workdir / f"q{qid}.out").read_text(encoding="utf-8")
        if res["raised"] is not None:
            record["failure"] = f"raised {res['raised']}"
        else:
            record["failure"] = workloads.check(query, res["code"], stdout)
            record["elapsed"] = res["elapsed"]
        record["spans"] = res["spans"]
        record["output_bytes"] = len(stdout.encode("utf-8"))
    for suffix in ("out", "err", "res"):
        (workdir / f"q{qid}.{suffix}").unlink(missing_ok=True)
    return record


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_passes(
    pool, paths, rng, traced, workdir, deadline, budget_s=None, passes=None, min_samples=0
):
    """Run whole passes over the pool.  With ``passes`` set, run exactly
    that many; otherwise run until ``min_samples`` queries are done and
    another pass would overrun ``budget_s``."""
    records = []
    pass_times = []
    started = perf_counter()
    while time.monotonic() < deadline:
        order = list(range(len(pool)))
        rng.shuffle(order)
        pass_started = perf_counter()
        for i in order:
            if time.monotonic() >= deadline:
                break
            records.append(run_query(pool[i], paths[i], len(records), traced, workdir, deadline))
        pass_times.append(perf_counter() - pass_started)
        if passes is not None:
            if len(pass_times) >= passes:
                break
            continue
        elapsed = perf_counter() - started
        if len(records) >= min_samples and elapsed + statistics.mean(pass_times) > budget_s:
            break
    return records, len(pass_times)


def scaled_times(records: list[dict]) -> list[float]:
    """Wall times of the correctly answered queries, at reference speed."""
    return [r["elapsed"] * r["scale"] for r in records if r["failure"] is None]


def end_to_end(records: list[dict], setup_s: float) -> dict:
    times = sorted(scaled_times(records))
    if len(times) < 2:
        raise BenchError("fewer than two queries answered correctly")
    return {
        "query_p50_s": statistics.median(times),
        "query_p90_s": statistics.quantiles(times, n=10)[8],
        "queries_per_s": len(times) / sum(times),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "setup_s": setup_s,
    }


def trace_overhead(traced: list[dict], plain: list[dict]) -> float:
    """Median over pool queries of traced time over untraced time, minus 1.

    Pairing each query with itself keeps the slow queries from deciding
    the result."""
    def mean_by_label(records):
        groups: dict[str, list[float]] = {}
        for r in records:
            if r["failure"] is None:
                groups.setdefault(r["label"], []).append(r["elapsed"] * r["scale"])
        return {label: statistics.mean(ts) for label, ts in groups.items()}

    on, off = mean_by_label(traced), mean_by_label(plain)
    ratios = [on[label] / off[label] for label in on if label in off]
    if not ratios:
        raise BenchError("no query answered correctly both traced and untraced")
    return statistics.median(ratios) - 1


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    use_checkout_sources()
    deadline = time.monotonic() + HARD_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    workdir.mkdir()
    try:
        pool, paths, setup_s = setup(workload, seed, workdir)
        if trace:
            try:
                tracing.check_entry_points()
            except RuntimeError as exc:
                raise BenchError(str(exc)) from None
        rng = random.Random(f"order-{seed}")
        if not trace:
            records, _ = run_passes(
                pool, paths, rng, False, workdir, deadline, budget_s=seconds,
                min_samples=MIN_SAMPLES,
            )
            metrics = end_to_end(records, setup_s)
            units = dict(END_TO_END)
        else:
            traced, n_passes = run_passes(
                pool, paths, rng, True, workdir, deadline, budget_s=seconds / 2
            )
            plain, _ = run_passes(pool, paths, rng, False, workdir, deadline, passes=n_passes)
            records = traced + plain
            ok_traced = [r for r in traced if r["failure"] is None]
            if not ok_traced:
                raise BenchError("no traced query answered correctly")
            overhead = trace_overhead(traced, plain)
            metrics = tracing.per_layer(workload, ok_traced, overhead)
            units = dict(tracing.PER_LAYER_METRICS)
            _write_spans(workload, seed, traced)
        failed = [r for r in records if r["failure"] is not None]
        return {
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "failures": [f"{r['label']}: {r['failure']}" for r in failed[:5]],
            "samples": len(records) - len(failed),
            "host_scale": statistics.median(r["scale"] for r in records),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_spans(workload: str, seed: int, records: list[dict]) -> None:
    spans = [s for r in records if r.get("spans") for s in r["spans"]]
    path = WORK / f"spans-{workload}-s{seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")


def _print(result: dict, workload: str) -> None:
    failed_share = result["failed"] / result["attempted"]
    print(f"workload {workload}: {result['attempted']} queries, "
          f"{result['samples']} answered correctly (the sample count); times are "
          f"at reference speed, host speed x{result['host_scale']:.3f} of it")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':32s} {failed_share:.6g} ratio")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # query's child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _print(result, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
