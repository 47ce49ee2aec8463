"""One workload in a fresh process: set-up, timed studies, then references.

``run.py`` starts this file once per measurement; by hand it reads

    python3 perfbench/worker.py --workload dm-grid --seed 1 --seconds 5 \\
        --trace 0 --t0 <time.monotonic() of the caller just before the start>

Set-up runs from process start (``--t0``) to the first timed call: the
interpreter, ``import spinholonomy`` with its dependencies, and the
workload's input generation and calibration.  With ``--setup-only`` the
process stops there.  Otherwise it repeats the workload's study (its fixed
list of calls) until the next study would end after ``--seconds``.  After
each study, outside its timed region, it fingerprints every call's output
(for CLI commands, the bytes of the files written).  At the end it checks
the outputs against the references and counts every call whose
fingerprint differs from the first study's as failed.  With ``--trace 1``
studies alternate untraced and traced, so the tracing overhead is measured
in the same process.

The last line of standard output is one JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spinholonomy  # noqa: E402  (import time belongs to set-up)

import tracing  # noqa: E402
import workloads  # noqa: E402


class CallFailed:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call_failed(result) -> bool:
    return isinstance(result, CallFailed) or getattr(result, "code", 0) != 0


def run_studies(calls, seconds: float, trace: bool) -> list[dict]:
    """Repeat the study until the next one would end after ``seconds``.

    One dict per study: wall and CPU time, call latencies, call results,
    their fingerprints and, for traced studies, the per-layer figures.
    Everything after the study's last call is outside its timed region.
    """
    tracer = tracing.Tracer() if trace else None
    studies = []
    start = time.monotonic()
    while True:
        traced = trace and len(studies) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        results, latencies = [], []
        cpu0 = _cpu_s()
        s0 = time.perf_counter()
        for call in calls:
            c0 = time.perf_counter()
            try:
                result = call()
            except (Exception, SystemExit) as exc:
                result = CallFailed(exc)
            latencies.append(time.perf_counter() - c0)
            results.append(result)
        wall = time.perf_counter() - s0
        cpu = _cpu_s() - cpu0
        study = {"traced": traced, "wall": wall, "cpu": cpu, "latencies": latencies}
        if traced:
            tracer.uninstall()
            study["layers"] = tracing.layer_metrics(tracer.take())
        study["results"] = results
        study["prints"] = [workloads.fingerprint(r) for r in results]
        studies.append(study)
        typical = statistics.median(s["wall"] for s in studies)
        enough = len(studies) >= (2 if trace else 1) and not (trace and len(studies) % 2)
        if enough and time.monotonic() - start + typical > seconds:
            return studies


def _median_layers(traced) -> dict:
    names = traced[0]["layers"]
    return {k: statistics.median(s["layers"][k] for s in traced) for k in names}


def environment() -> dict:
    """CPU count, BLAS build and thread setting, and library versions."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        if k in os.environ
    }
    scipy = sys.modules.get("scipy")
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": threads or "unset, library default",
        "sweep_workers": "workers=None (shipped default: thread pool of os.cpu_count() threads)",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy is not None else "not loaded by spinholonomy",
        "python": platform.python_version(),
        "spinholonomy": spinholonomy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(spinholonomy.__file__).resolve().parents:
        print(f"error: spinholonomy imported from {spinholonomy.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        spec = workloads.generate(args.workload, args.seed)
        calls = workloads.build(args.workload, spec, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        studies = run_studies(calls, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = studies[0]["results"]
        errors = []
        try:
            bad, max_fidelity_err = workloads.check(
                args.workload,
                spec,
                [None if isinstance(r, CallFailed) else r for r in first],
                workdir,
            )
        except Exception as exc:  # an output the reference cannot read fails every call
            bad, max_fidelity_err = set(range(len(calls))), float("inf")
            errors.append(f"reference check: {CallFailed(exc).message}")
        prints = studies[0]["prints"]
        failed = 0
        for study in studies:
            for i, result in enumerate(study["results"]):
                if _call_failed(result) or i in bad or study["prints"][i] != prints[i]:
                    failed += 1
                    if isinstance(result, CallFailed) and len(errors) < 5:
                        errors.append(result.message)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [s for s in studies if not s["traced"]]
    traced = [s for s in studies if s["traced"]]
    record = {
        "setup_s": setup_s,
        "study_s": [s["wall"] for s in plain],
        "latencies_s": [x for s in plain for x in s["latencies"]],
        "cpu_s": [s["cpu"] for s in plain],
        "calls_per_study": len(calls),
        "attempted": sum(len(s["results"]) for s in studies),
        "failed": failed,
        "failed_calls": sorted(bad),
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "max_fidelity_err": max_fidelity_err,
        "environment": environment(),
    }
    if traced:
        record["traced_study_s"] = [s["wall"] for s in traced]
        record["layers"] = _median_layers(traced)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
