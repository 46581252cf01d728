"""Seeded benchmark for the binnnms `cluster` and `sweep` commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload cluster-noisy5k --seed 1 --seconds 50 --trace 0

One run generates the workload's planted-cluster CSV from the seed, then:

1. runs the command once in a fresh child process, whose peak RSS is
   `peak_rss_mb` and whose artifacts are checked (digests and semantics);
2. times set-up (`import binnnms` plus loading the CSV with its packed view)
   in SETUP_REPEATS fresh processes, reporting the median as `setup_s`;
3. warms up with the same command on a small input, then runs the command
   in this process in a closed loop (one at a time, the next starting when
   the previous ends) for `--seconds`; the median is `run_s`.

With `--trace 1` the loop alternates untraced and traced commands, and the
result holds the per-layer metrics of the traced ones (see tracing.py).
Every command's artifacts are compared with the reference digests. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: median.majority_bits does a
# float matmul, and the benchmark measures one single-threaded process.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 9
MIN_SAMPLES = 3
WARMUP_ROWS = 60  # enough rows for k1 = 30 and k2 = 20
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import binnnms
    from binnnms import cli
except ImportError as exc:
    print(f"perfbench: cannot import binnnms from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(binnnms.__file__).resolve().is_relative_to(SRC):
    print(f"perfbench: binnnms was imported from {binnnms.__file__}, "
          f"not from {SRC}", file=sys.stderr)
    sys.exit(2)

from checks import (  # noqa: E402
    artifact_digests,
    first_difference,
    recorded_reference,
    reported_nmi,
    semantic_errors,
)
from tracing import PER_LAYER, Tracer, medians  # noqa: E402
from workloads import WORKLOADS, planted_bits, write_planted_csv  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "nmi": "ratio", "success_rate": "ratio"}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def run_in_process(argv: list[str]) -> int:
    """One command through binnnms.cli.main, as the `binnnms` script runs it.
    Its stdout and stderr are captured and dropped."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def run_fresh(argv: list[str]) -> tuple[int, str]:
    """One command in a fresh child process: (exit code, stderr)."""
    try:
        proc = subprocess.run([sys.executable, "-m", "binnnms.cli", *argv],
                              env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, proc.stderr


def time_setup(data: Path) -> list[float]:
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(probe), str(data)],
                             env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def tail(samples: list[float]) -> dict | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for q in (99, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return {"percentile": q,
                    "value": statistics.quantiles(samples, n=100)[q - 1]}
    return None


def metadata(args, samples: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    source = hashlib.sha256()
    for path in sorted((SRC / "binnnms").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha or None,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "samples": samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = work / "data.csv"
    write_planted_csv(data, w.shape, args.seed)
    warm = work / "warmup.csv"
    write_planted_csv(warm, dataclasses.replace(w.shape, n=WARMUP_ROWS), args.seed)
    bits, truth = planted_bits(w.shape, args.seed)

    attempted = failed = 0
    problems: list[str] = []

    # 1. one command in a fresh process: peak RSS, semantic check, reference
    fresh_out = work / "fresh"
    rc, err = run_fresh(w.command(data, fresh_out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    attempted += 1
    if rc != 0:
        print(f"perfbench: fresh-process command exited {rc}: {err.strip()}",
              file=sys.stderr)
        return 3
    try:
        errors = semantic_errors(w.argv[0], fresh_out, bits, truth, w.cells)
        nmi = reported_nmi(w.argv[0], fresh_out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors, nmi = [f"fresh process: unreadable artifacts: {exc!r}"], 0.0
    fresh = artifact_digests(fresh_out)
    reference = recorded_reference(w.name, args.seed)
    if reference is None:
        print(f"# seed {args.seed} has no recorded reference digests: checking "
              "byte identity with the fresh-process artifacts")
        reference = fresh
    diff = first_difference(reference, fresh)
    if errors or diff:
        failed += 1
        problems += errors + ([f"fresh process: {diff}"] if diff else [])

    # 2. set-up in fresh processes
    setup = time_setup(data) if not args.trace else []

    # 3. warm-up, then the closed loop
    run_in_process(w.command(warm, work / "warmup"))
    out = work / "out"
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_SAMPLES
           or (args.trace and not traced)):
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if trace_this:
            tracer.begin_command()
            tracer.install()
        t0 = time.perf_counter()
        rc = run_in_process(w.command(data, out))
        elapsed = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        (traced if trace_this else untraced).append(elapsed)
        attempted += 1
        diff = None if rc != 0 else first_difference(reference,
                                                     artifact_digests(out))
        if rc != 0 or diff:
            failed += 1
            problems.append(f"command {attempted}: "
                            + (f"exit code {rc}" if rc != 0 else diff))

    if args.trace:
        metrics = medians(tracer.command_metrics())
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.untraced_run_s"] = statistics.median(untraced)
        # each traced command runs right after an untraced one: the median of
        # those pairs' differences is far less exposed to machine drift than
        # the difference of the two medians
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced, untraced))
        units = PER_LAYER
        samples = {"traced_commands": len(traced),
                   "untraced_commands": len(untraced)}
        tracer.dump(WORK / "trace" / f"{tag}.json")
    else:
        metrics = {"run_s": statistics.median(untraced),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb, "nmi": nmi,
                   "success_rate": (attempted - failed) / attempted}
        units = END_TO_END
        samples = {"run_s": len(untraced), "setup_s": len(setup),
                   "peak_rss_mb": 1, "nmi": 1, "success_rate": attempted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}

    meta = metadata(args, samples)
    meta["run_s_tail"] = tail(untraced)
    meta["problems"] = problems
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems[:1]:
        print(f"# first problem: {problem}")
    for k, u in units.items():
        print(f"# {k} = {metrics[k]:.6g} {u}")
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
