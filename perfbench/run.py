"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-forest-p4 --seed 1 \
        --seconds 28 --trace 0

``--trace 0`` repeats whole rounds of the workload for about
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up time (imports, input generation, any initial model) is measured
in SETUP_REPEATS (3) fresh child processes of this script (``--setup-only``)
and reported as their median.  ``--workload all`` runs every workload in
both modes, one child process each, and prints a table of every metric.

Every run first re-executes itself under fixed memory settings
(``fixed_memory``) and pins itself to one CPU (``pin_to_one_cpu``), so
that host times do not hang on the allocator's history or on how the
host schedules a second core.

The program under test is imported from ``src/`` next to this
directory; without it the command exits with status 2.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "_out"
WORKLOADS = (
    "train-forest-p4", "train-url-p1", "train-forest-p2-faults",
    "serve-refresh",
)
#: set-ups timed per run, each in a fresh process
SETUP_REPEATS = 3
#: memory settings every run is measured under (see fixed_memory)
MEMORY_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_ARENA_MAX": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def fixed_memory(argv) -> None:
    """Re-execute this script under fixed memory settings.

    Each setting takes a decision away from the history of the process
    and the state of the host, so that a run measures the program:

    - glibc moves its mmap and trim thresholds as the process frees
      large blocks, so whether the program's multi-megabyte kernel tiles
      come from reused heap memory or from fresh, page-faulted mappings
      depended on what the process had done before.  On a 2-core
      x86-64 VM the two regimes differed by 2x in url solve time (1.7 s
      against 3.5 s), and a run could switch between them half-way.
      Fixed thresholds keep every large block on the heap and never
      hand it back.
    - glibc gives a thread its own arena when the one it would use is
      locked, so whether the rank threads opened a second arena was up
      to timing: peak RSS of the p=2 faults workload read 99 MB or
      106 MB from run to run.  With one arena it read 87 MB every time.
    - numpy asks for transparent huge pages for large arrays; whether it
      gets them depends on how fragmented the guest's free memory is.
      With them, url serving throughput varied by 16% over five seeds;
      without them, by 7%.

    Other C libraries ignore the malloc variables.
    """
    if any(os.environ.get(k) != v for k, v in MEMORY_ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **MEMORY_ENV})


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU.

    The program's ranks are threads serialised by the GIL.  Spread over
    two cores, every hand-off of the GIL wakes a thread on the other
    core, and on a shared VM that wake-up costs whatever the host
    scheduler makes it cost: a p=2 forest solve ran 1.7x faster when a
    busy loop happened to occupy the second core.  On one core the
    hand-offs stay on that core and the host times measure the
    program.  Called before numpy is imported, so OpenBLAS starts one
    thread.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed: claims are tuned on 1 and checked "
                         "on the held-out seed 2")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used internally)")
    return ap.parse_args(argv)


def child(args, *extra) -> subprocess.CompletedProcess:
    """Run this script again in a fresh process and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


def timed_setups(args):
    """(set-up, generation) seconds of SETUP_REPEATS fresh processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = child(args, "--setup-only")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    rows, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1):
            args.workload = name
            proc = child(args, "--trace", str(trace))
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and not result["failed"]
            print(f"{name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:24s} {metric:28s} {value:16.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing "
              f"({ROOT / 'src' / 'repro'}); run from a repository checkout",
              file=sys.stderr)
        return 2
    fixed_memory(argv)
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.setup_only:
        import_s = time.perf_counter() - _START
        setup_s, generate_s = workloads.timed_setup(args.workload, args.seed)
        print(json.dumps([import_s + setup_s, generate_s]))
        return 0
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), timed_setups(args), OUT_DIR)
    # per kind of operation (solves, requests, refreshes): attempted, failed
    print("operations", json.dumps(result["ops"]))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
