"""Span tracer that times calls into the public functions of spinholonomy.

The traced run replaces each layer function by a timing wrapper at every
place a spinholonomy module looks it up: the defining module and each module
that imported the function by name (``spinholonomy.noise.build_hamiltonians``,
``spinholonomy.propagation.expm_hermitian``, ``spinholonomy.reports.write_csv``
and so on).  Calls made inside the package are therefore timed without any
change to it, and :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end and the span that caused it.  Spans
opened on a thread that has no open span of its own (the sweep thread pool)
attach to the innermost open span of the thread that created the tracer,
which is the sweep that is waiting for them.  Spans are kept in memory and
reduced to per-layer figures by :func:`layer_metrics` after each study,
outside the timed region.  A layer function that no longer exists is
skipped, so a layer that a later change stops calling reports 0 calls under
the same name.
"""

from __future__ import annotations

import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict


def _leakage(bound, result):
    return result.leakage


def _kraus(bound, result):
    kraus = getattr(bound.arguments.get("actual"), "kraus", None)
    return None if kraus is None else (kraus.shape[0], kraus.nbytes)


def _nbytes(bound, result):
    return result.nbytes


def _file_bytes(bound, result):
    return os.path.getsize(bound.arguments["path"])


def _exit_code(bound, result):
    return result


def _step_grid(bound, result):
    # Only the envelopes are kept: holding the operators would keep every
    # 512-dimensional generator of a study alive until it is reduced.
    args = bound.arguments
    return [env for _, env in args["h_parts"]], args["duration"], args["steps"]


#: (defining module, function, span name, info taken after each call).
LAYERS = (
    ("linalg", "expm_hermitian", "linalg.expm_hermitian", None),
    ("spin_chain", "build_hamiltonians", "spin_chain.build_hamiltonians", None),
    ("spin_chain", "arm_hamiltonians", "spin_chain.arm_hamiltonians", None),
    ("propagation", "propagator_closed_form", "propagation.propagator_closed_form", None),
    ("propagation", "propagator_time_ordered", "propagation.propagator_time_ordered", _step_grid),
    ("propagation", "pulse_area", "propagation.pulse_area", None),
    ("gates", "extract_register_gate", "gates.extract_register_gate", _leakage),
    ("invariants", "gate_metrics", "invariants.gate_metrics", None),
    ("noise", "dm_sweep", "noise.sweep", None),
    ("noise", "amplitude_noise_sweep", "noise.sweep", None),
    ("noise", "dephasing_sweep", "noise.sweep", None),
    ("noise", "build_hyperfine_hamiltonian", "noise.build_hyperfine_hamiltonian", _nbytes),
    ("noise", "process_fidelity", "noise.process_fidelity", _kraus),
    ("reports", "write_csv", "reports.write_csv", _file_bytes),
    ("reports", "write_json", "reports.write_json", _file_bytes),
    ("reports", "line_svg", "reports.svg", _file_bytes),
    ("reports", "heatmap_svg", "reports.svg", _file_bytes),
    ("cli", "main", "cli.main", _exit_code),
)

PACKAGE = "spinholonomy"

#: Dimensions of ``expm_hermitian`` reported as layers of their own.
EXPM_DIMS = (8, 512)

_MIB = float(1 << 20)


class Tracer:
    """Collects spans from wrapped spinholonomy functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._local.stack = self._home_stack
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, info=None):
        """Timing wrapper around ``fn`` recording spans called ``name``."""
        signature = inspect.signature(fn) if info is not None else None
        expm = name == "linalg.expm_hermitian"

        def traced(*args, **kwargs):
            stack = self._stack()
            home = self._home_stack
            parent = stack[-1] if stack else (home[-1] if home else None)
            label = name
            if expm:
                label = f"{name}.d{len(args[0] if args else kwargs['h'])}"
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            finished = False
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if finished and signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = info(bound, result)
                self.spans.append((sid, label, start, end, parent, extra))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a package module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, func_name, span_name, info in LAYERS:
            defining = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(defining, func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span_name, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every original function."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> span duration minus the part its child spans cover.

    Children may overlap one another (pool threads run side by side); the
    covered part is the measure of their union, so overlapping time is
    subtracted once.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _, start, end, _, _ in spans
    }


def distinct_steps(envelopes, duration: float, steps: int) -> int:
    """Distinct step Hamiltonians of a midpoint-rule time-ordered product.

    Computed from the call's inputs: the number of distinct rows of
    envelope values sampled at the step midpoints, which is the number of
    step exponentials an evaluation that shares equal steps needs.
    """
    dt = duration / steps
    return len(
        {tuple(float(env((i + 0.5) * dt)) for env in envelopes) for i in range(steps)}
    )


def layer_names() -> list[str]:
    """Names of the span-based layers, one per reported prefix."""
    names = []
    for _, _, span_name, _ in LAYERS:
        if span_name == "linalg.expm_hermitian":
            names.extend(f"{span_name}.d{d}" for d in EXPM_DIMS)
        elif span_name not in names:
            names.append(span_name)
    return names


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one study: calls, self time and computed counts.

    Every layer named in :data:`LAYERS` is present, with 0 when it was not
    reached.  ``*.bytes`` sum the sizes of the files written; the
    ``noise.kraus.*`` and ``noise.hyperfine.dense_mb`` figures are the
    largest array seen and are computed from array sizes.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    extras = defaultdict(list)
    for sid, name, start, end, _, extra in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        durations[name].append(end - start)
        if extra is not None:
            extras[name].append(extra)

    out: dict[str, float] = {}
    for name in layer_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    d512 = durations["linalg.expm_hermitian.d512"]
    out["linalg.expm_hermitian.d512.p50_ms"] = statistics.median(d512) * 1e3 if d512 else 0.0
    out["propagation.steps_distinct"] = sum(
        distinct_steps(*grid) for grid in extras["propagation.propagator_time_ordered"]
    )
    out["gates.max_leakage"] = max(extras["gates.extract_register_gate"], default=0.0)
    out["noise.hyperfine.dense_mb"] = (
        max(extras["noise.build_hyperfine_hamiltonian"], default=0) / _MIB
    )
    count, nbytes = max(extras["noise.process_fidelity"], default=(0, 0))
    out["noise.kraus.count"] = count
    out["noise.kraus.mb"] = nbytes / _MIB
    for name in ("reports.write_csv", "reports.write_json", "reports.svg"):
        out[f"{name}.bytes"] = sum(extras[name])
    out["cli.exit_nonzero"] = sum(1 for code in extras["cli.main"] if code != 0)
    return out


__all__ = [
    "LAYERS",
    "Tracer",
    "covered",
    "self_times",
    "distinct_steps",
    "layer_names",
    "layer_metrics",
]
