"""Benchmark of spinholonomy: four study workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dm-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Each measurement runs in a fresh process (``worker.py``).  With
``--trace 0`` the benchmark starts ``SETUP_PROBES`` processes that only set
up, half before and half after the one that also measures for
``--seconds``; it prints the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` one process alternates untraced and traced studies and the
per-layer metrics are printed.  Sweeps run at the shipped default (``workers=None``, a thread pool)
and the BLAS thread count comes from the environment; both are recorded.

Output: a readable table, then a ``record:`` line with the provenance and
the details behind each figure, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any failure to run
exits non-zero without that line.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dm-grid", "stepped-noise", "dephasing", "cli-report")
#: Set-up-only processes, half started before the measuring one and half
#: after it; setup_s is the median over all of them and the measuring one.
SETUP_PROBES = 6
#: Wall-clock allowance of one invocation on top of ``--seconds``, for the
#: set-ups and the references; a worker still running then is killed.
ALLOWANCE_S = 150.0
#: A tail percentile needs at least this many calls beyond it.
TAIL_BEYOND = 10
#: Host kernel samples taken before each process start.
HOST_KERNEL_REPEATS = 20


class BenchError(RuntimeError):
    pass


def tail_rank(n: int) -> int:
    """1-based nearest rank of the tail figure among ``n`` sorted calls.

    The highest rank with at least ``TAIL_BEYOND`` calls beyond it, but never
    below the upper median: with 20 calls or fewer the upper median has
    fewer than ten calls beyond it and the tail is reported there.
    """
    if n < 1:
        raise ValueError("need at least one call")
    return max(n - TAIL_BEYOND, n // 2 + 1)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail of ``values``."""
    xs = sorted(values)
    rank = tail_rank(len(xs))
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def host_kernel_ms(repeats: int = HOST_KERNEL_REPEATS) -> list[float]:
    """Times of a fixed pure-Python loop that does not touch spinholonomy.

    Taken in this process before each worker starts, while no worker runs,
    so the program cannot affect them.  They show how fast the machine was
    around the measurement, so a change of the host's speed can be told
    apart from a change of the program.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only=False) -> dict:
    limit = seconds + ALLOWANCE_S
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the measurement started")
    t0 = time.monotonic()
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--t0", repr(t0),
    ]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the {limit:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared() -> dict:
    """BENCHMARK.json: run length and the units of the metrics it declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "run_seconds": spec["run_seconds"],
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure(workload: str, seed: int, seconds: float, trace: int, units: dict) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record).

    ``units`` maps each metric to print to its unit.
    """
    deadline = time.monotonic() + seconds + ALLOWANCE_S
    loadavg = _loadavg()
    probes = 0 if trace else SETUP_PROBES
    host = []

    def spawn(setup_only=False):
        host.extend(host_kernel_ms())
        return _spawn(workload, seed, seconds, trace, deadline, setup_only)

    setups = [spawn(setup_only=True)["setup_s"] for _ in range(probes // 2)]
    main = spawn()
    setups.append(main["setup_s"])
    setups += [spawn(setup_only=True)["setup_s"] for _ in range(probes - probes // 2)]
    host.extend(host_kernel_ms())
    latencies = main["latencies_s"]
    tail_s, tail_pct, n = tail(latencies)
    if trace:
        values = dict(main["layers"])
        values["noise.max_fidelity_err"] = main["max_fidelity_err"]
        values["proc.cpu_s"] = statistics.median(main["cpu_s"])
        values["proc.cpu_per_wall"] = statistics.median(
            c / w for c, w in zip(main["cpu_s"], main["study_s"])
        )
        values["trace.overhead_frac"] = (
            statistics.median(main["traced_study_s"]) / statistics.median(main["study_s"]) - 1.0
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "study_s": statistics.median(main["study_s"]),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_tail_ms": tail_s * 1e3,
            "peak_rss_mb": main["peak_rss_mb"],
        }
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_sha": git_sha(ROOT),
        "loadavg_at_start": loadavg,
        "setup_s_samples": setups,
        "studies": len(main["study_s"]),
        "calls_per_study": main["calls_per_study"],
        "call_tail_percentile": tail_pct,
        "call_samples": n,
        "host_kernel_ms": statistics.quantiles(host, n=4),
        "failed_frac": main["failed"] / main["attempted"],
        "failed_calls": main["failed_calls"],
        "errors": main["errors"],
        "max_fidelity_err": main["max_fidelity_err"],
        **main["environment"],
    }
    if trace:
        record["traced_studies"] = len(main["traced_study_s"])
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, record


def _print_table(result: dict, record: dict) -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"studies={record['studies']} x {record['calls_per_study']} calls  "
        f"cpus={record['cpu_count']}  blas_threads={record['blas_threads']}"
    )
    for name, m in result["metrics"].items():
        note = ""
        if name == "call_tail_ms":
            note = f"  (p{record['call_tail_percentile']:.1f} of n={record['call_samples']})"
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}{note}")
    if not record["trace"]:
        print(f"  {'failed_frac':<42} {record['failed_frac']:>14.6g} 1  ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinholonomy benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinholonomy" / "__init__.py").is_file():
        print(f"error: no spinholonomy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = declared()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, record = measure(name, args.seed, seconds, args.trace, spec[args.trace])
            _print_table(result, record)
            print("record: " + json.dumps(record))
            results[name] = result
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
