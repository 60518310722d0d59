"""The repo benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload W --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --seed N [--workload W]... [--trace 0|1] [--out PATH]

With one workload it runs in this process; with several (or none, meaning
all) each runs in its own subprocess, one after another.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, with latencies and
set-up times divided by a reference timed next to them (see
reference.py).  ``--trace 1`` reports the per-layer ones: it measures
half the time untraced and half with the layer hooks of ``tracing.HOOKS``
installed, and writes the spans to ``bench/out/trace-<workload>.json``.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  Exit codes: 1 when any output was
wrong, 2 when there is no ``src/repro`` to measure, 3 when the hooks do
not cover the layers (see tracing.py) in any workload run.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import workloads
from tracing import HookError, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Set-ups a run times, and reference timings on each side of each one.
#: Over ten seeds, the median of 5 set-ups each divided by one reference
#: on each side still spread by up to 11%; this spreads by 7% or less.
SETUP_REPS = 9
SETUP_REFERENCES = 3
#: Longest one workload's process may run when several are run.
CHILD_TIMEOUT_S = 900


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload, seconds: float, tracer):
    """Closed loop until *seconds* pass (and at least ``min_ops`` ran).
    Each operation is preceded by one timing of the workload's reference.
    Returns ``(samples, problems)``: a sample is ``(latency, reference)``
    in seconds, for each operation whose output was correct."""
    samples: List[Tuple[float, float]] = []
    problems: List[str] = []
    index = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or index < workload.min_ops:
        if tracer is not None:
            tracer.op = index
        unit = workload.reference()
        try:
            elapsed, output = workload.run(index, tracer)
            problem = workload.check(index, output)
        except Exception as err:  # noqa: BLE001 - a failed op is counted
            problem = f"{type(err).__name__}: {err}"
        if problem:
            problems.append(f"op {index}: {problem}")
        else:
            samples.append((elapsed, unit))
        index += 1
    return samples, problems


def timed_setup(workload) -> float:
    """One set-up in seconds of the nominal host: its time divided by the
    median of the references timed just before and just after it, times
    the reference's time there (see reference.py).  Each set-up starts
    with CPython's collector emptied, so the collections it triggers do
    not depend on what ran before it."""
    gc.collect()
    before = [workload.setup_reference() for _ in range(SETUP_REFERENCES)]
    elapsed = workload.setup()
    after = [workload.setup_reference() for _ in range(SETUP_REFERENCES)]
    return (elapsed / statistics.median(before + after)
            * workload.setup_nominal_s)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> Dict[str, Any]:
    workload = workloads.make(name, seed)
    traced_samples: List[Tuple[float, float]] = []
    try:
        setups = [timed_setup(workload) for _ in range(SETUP_REPS)]
        window = seconds / 2 if traced else seconds
        samples, problems = measure(workload, window, None)
        if traced:
            tracer = Tracer()
            tracer.install(workload.layers)
            try:
                # The same inputs again, so the ratio compares like with like.
                traced_samples, more = measure(workload, window, tracer)
            finally:
                tracer.uninstall()
            problems += more
            tracer.check_fired(workload.layers)
            if samples and traced_samples:
                layer = workload.layer_metrics(
                    tracer, [latency for latency, _ in samples],
                    [latency for latency, _ in traced_samples])
            tracer.write_chrome_trace(
                os.path.join(ROOT, "bench", "out", f"trace-{name}.json"))
    finally:
        workload.close()
    latencies = [latency for latency, _ in samples]
    ratios = [latency / unit for latency, unit in samples]
    if not samples or (traced and not traced_samples):
        values = {}  # nothing succeeded: every metric reads 0
    elif traced:
        values = dict(layer, **{
            "latency_ms.p50": workloads.percentile(latencies, 50) * 1e3,
            "ops_per_s": len(latencies) / sum(latencies),
            "reference_ms": statistics.median(u for _, u in samples) * 1e3,
            "trace.overhead_ratio":
                statistics.median(latency for latency, _ in traced_samples)
                / statistics.median(latencies),
        })
    else:
        values = {
            "setup_s": statistics.median(setups),
            "latency_ref.p50": statistics.median(ratios),
            "latency_ref.tail": workloads.percentile(ratios, workload.tail),
            "latency_ref.mean": statistics.fmean(ratios),
            "peak_rss_mb": peak_rss_mb(workload.children),
        }
    return {
        "correct": not problems,
        "attempted": len(samples) + len(traced_samples) + len(problems),
        "failed": len(problems),
        "values": values,
        "problems": problems,
        "samples": len(samples),
        "tail_percentile": workload.tail,
    }


def with_units(values: Dict[str, float], traced: bool) -> Dict[str, Any]:
    """Attach BENCHMARK.json's units, in its order; every listed metric
    is reported (a layer a workload never reaches reads 0)."""
    declared = load_spec()["per_layer" if traced else "end_to_end"]
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {metric["name"]: {"value": values.get(metric["name"], 0),
                             "unit": metric["unit"]}
            for metric in declared}


def provenance(seed: int, argv: List[str]) -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        # Only a repository rooted exactly here counts: never a parent's.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == \
        os.path.realpath(ROOT)
    status = git("status", "--porcelain") if in_repo else None
    return {
        "commit": git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "argv": argv,
    }


def print_result(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} "
          f"failed, {result['samples']} timed samples "
          f"(tail = p{result['tail_percentile']})")
    for problem in result["problems"][:10]:
        print(f"   FAILED {problem}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:34s} {entry['value']:>14.6g} {entry['unit']}")


def run_child(command: List[str]) -> Tuple[Optional[int], str]:
    """``(exit code, standard output)`` of one workload's process; the code
    is None when it overran CHILD_TIMEOUT_S.  A child still running when
    this returns or raises gets SIGTERM first, so it stops the daemon it
    started, and is killed only if that does not end it."""
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()


def run_children(names: List[str], args) -> Tuple[Dict[str, Any], int]:
    """Each workload in its own process, one at a time.  Returns the
    results and 3 when a child's hook checks failed, else 0."""
    results = {}
    status = 0
    for name in names:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        code, out = run_child(command)
        lines = out.splitlines()
        try:
            results[name] = json.loads(lines[-1])
            lines.pop()
        except (IndexError, ValueError):
            results[name] = None
        print("\n".join(lines), flush=True)
        if results[name] is None:
            why = f"exit {code}" if code is not None \
                else f"over {CHILD_TIMEOUT_S} s"
            print(f"== {name}: {why}, no result", flush=True)
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        if code == 3:
            status = 3
    return results, status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench: no src/repro next to bench/; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    all_names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=all_names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the results with provenance here")
    args = parser.parse_args(argv)
    names = args.workload or all_names
    out = os.path.abspath(args.out) if args.out else None

    os.chdir(ROOT)
    # A termination request unwinds like an error, so the workload's
    # close() still stops the daemon it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the benchmark and every process it starts.  Its loops
    # are closed, so two of its processes never need to run at once.  On
    # a virtual machine, waking a process on another CPU takes a time that
    # depends on the host's load, and no reference pays it; the daemon's
    # requests pay it twice.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    record = {"provenance": provenance(args.seed, argv), "trace": args.trace,
              "results": {}}
    print("provenance: " + json.dumps(record["provenance"]), flush=True)
    status = 0
    if len(names) == 1:
        try:
            result = run_workload(names[0], args.seed, args.seconds,
                                  bool(args.trace))
        except HookError as err:
            print(f"bench: traced run failed: {err}", file=sys.stderr)
            return 3
        result["metrics"] = with_units(result.pop("values"), bool(args.trace))
        print_result(names[0], result)
        final = {key: result[key]
                 for key in ("correct", "attempted", "failed", "metrics")}
        record["results"][names[0]] = final
    else:
        record["results"], status = run_children(names, args)
        results = record["results"].values()
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{metric}": entry
                        for name, r in record["results"].items()
                        for metric, entry in r["metrics"].items()},
        }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps(final), flush=True)
    return status or (0 if final["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
