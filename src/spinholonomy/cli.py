"""Command-line surface: gate reports, sweeps, and gate classification.

Configuration is a flat JSON file; command-line flags override file
values.  ``COMMANDS`` maps each command to the keys it reads besides
``command`` and ``out``; a pulse reads ``shape``, ``winding`` and one key
of its shape, and the cyclicity condition fixes the rest.  The read keys
register the ``--format``, ``--grid`` and ``--steps`` flags and the
``classify`` matrix argument only where they act, refuse any other config
key (so a typo or a setting that would change nothing fails loudly), and
fix what the ``<out>.config.json`` sidecar records.  Every sweep writes
its CSV, sidecar and optional JSON or SVG through one emitter.  Exit
codes: 0 success, 2 config/parse error, 3 numerical precondition failure.

:func:`main` may be called repeatedly in one process.  The parser is
built on the first call and reused; parsing leaves no state in it, so a
call that fails (even through argparse's own exit) does not change the
next one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reports
from .errors import ConfigError, ParseError, SpinHolonomyError
from .gates import _entangler_matrices, analytic_entangler, extract_register_gate
from .invariants import _metric_columns, gate_metrics
from .linalg import max_abs
from .noise import DEFAULT_STEPS, HyperfineBath, amplitude_noise_sweep, dephasing_sweep, dm_sweep
from .propagation import (
    PulsePlan,
    _require_cyclic,
    gaussian_pulse,
    propagator_closed_form,
    pulse_area,
    scaled_to_area,
    solve_cyclic,
    tabulated_pulse,
)
from .spin_chain import ExchangeCouplings, build_hamiltonians, couplings_to_polar

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (file values plus flag overrides)."""

    command: str
    j1: float = 1.0
    j2: float = 1.0
    d1: float = 0.0
    d2: float = 0.0
    shape: str = "square"
    amplitude: float = 1.0
    duration: float = 1.0
    winding: int = 0
    samples: tuple[tuple[float, float], ...] | None = None
    d1_ratios: tuple[float, ...] = tuple(float(v) for v in range(1, 16))
    d2_ratios: tuple[float, ...] = tuple(float(v) for v in range(1, 16))
    ratios1: tuple[float, ...] = tuple(float(v) for v in range(10, 101, 10))
    ratios2: tuple[float, ...] = tuple(float(v) for v in range(10, 101, 10))
    lambdas: tuple[float, ...] = tuple(float(v) for v in range(1, 21))
    nuclei_per_electron: int = 2
    matrix: str | None = None
    out: str = "run"
    format: str = "csv"
    grid: int = 101
    steps: int = DEFAULT_STEPS

    def couplings(self) -> ExchangeCouplings:
        return ExchangeCouplings(j1=self.j1, j2=self.j2, d1=self.d1, d2=self.d2)


_COUPLING_KEYS = ("j1", "j2", "d1", "d2")
_PULSE_KEY_SHAPE = {"amplitude": "square", "duration": "gaussian", "samples": "tabulated"}
_PULSE_KEYS = ("shape", "winding", *_PULSE_KEY_SHAPE)
_FLOAT_KEYS = {"j1", "j2", "d1", "d2", "amplitude", "duration"}
_INT_KEYS = {"winding", "nuclei_per_electron", "grid", "steps"}
_LIST_KEYS = {"d1_ratios", "d2_ratios", "ratios1", "ratios2", "lambdas"}
_STR_KEYS = {"command", "shape", "matrix", "out", "format"}


def _coerce(key: str, value):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            if isinstance(value, bool) or value != int(value):
                raise ValueError
            return int(value)
        if key in _LIST_KEYS:
            axis = tuple(float(v) for v in value)
            if not axis:
                raise ConfigError(f"field {key!r}: needs at least one value")
            return axis
        if key == "samples":
            return tuple((float(t), float(v)) for t, v in value)
        if key in _STR_KEYS and isinstance(value, str):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"field {key!r}: cannot interpret {value!r}")


def load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} line {exc.lineno} col {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r}: top level must be an object")
    return raw


def read_keys(command: str, shape: str) -> tuple[str, ...]:
    """The keys ``command`` reads besides ``command`` and ``out`` for ``shape``."""
    keys = COMMANDS[command][1]
    if "shape" in keys and shape not in _PULSE_KEY_SHAPE.values():
        raise ConfigError(f"field 'shape': unknown shape {shape!r}")
    return tuple(k for k in keys if _PULSE_KEY_SHAPE.get(k, shape) == shape)


def make_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    keys = read_keys(args.command, values.get("shape", RunConfig.shape))
    unread = sorted(set(values) - {"command", "out", *keys})
    if unread:
        raise ConfigError(
            f"config {args.config!r}: {args.command} does not read keys {unread}; "
            f"it reads {', '.join(keys)}"
        )
    for key in ("out", *keys):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values["command"] = args.command
    values = {k: _coerce(k, v) for k, v in values.items()}
    if values.get("format") not in (None, "csv", "json", "svg"):
        raise ConfigError("field 'format': must be csv, json or svg")
    cfg = RunConfig(**values)
    for key in keys:
        if key in _COUPLING_KEYS and not math.isfinite(getattr(cfg, key)):
            raise ValueError(f"coupling {key} must be finite, got {getattr(cfg, key)!r}")
    for key, least in (("grid", 2), ("steps", 1), ("winding", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"field {key!r}: must be at least {least}")
    if cfg.shape == "tabulated" and not cfg.samples:
        raise ConfigError("field 'samples': required for tabulated pulses")
    return cfg


def config_payload(cfg: RunConfig) -> dict:
    """The sidecar: ``command``, ``out`` and the keys the command reads
    (tuples serialize as JSON lists)."""
    keys = ("command", "out", *read_keys(cfg.command, cfg.shape))
    return {key: getattr(cfg, key) for key in keys}


def _out_path(cfg: RunConfig, suffix: str) -> Path:
    path = Path(cfg.out + suffix)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_sidecar(cfg: RunConfig) -> None:
    reports.write_json(_out_path(cfg, ".config.json"), config_payload(cfg))


def _build_pulse(cfg: RunConfig, omega: float) -> PulsePlan:
    """The configured pulse with the cyclic area ``(2 * winding + 1) * pi / omega``."""
    if cfg.shape == "square":
        return solve_cyclic(omega, cfg.amplitude, cfg.winding)
    # A unit-amplitude cyclic square pulse lasts exactly the cyclic area.
    area = solve_cyclic(omega, 1.0, cfg.winding).duration
    if cfg.shape == "gaussian":
        return scaled_to_area(gaussian_pulse(1.0, cfg.duration), area)
    return scaled_to_area(tabulated_pulse(cfg.samples), area)


def _complex_grid(matrix: np.ndarray) -> dict:
    return {
        "re": [[reports.format_number(v.real) for v in row] for row in matrix],
        "im": [[reports.format_number(v.imag) for v in row] for row in matrix],
    }


def _metrics_payload(metrics) -> dict:
    return {
        "g1_re": metrics.g1.real,
        "g1_im": metrics.g1.imag,
        "g2": metrics.g2,
        "weyl": list(metrics.weyl),
        "ep": metrics.ep,
        "class": metrics.entangler_class,
    }


def _print_metrics(metrics, weyl_suffix: str = "") -> None:
    print(
        f"G1={metrics.g1.real:.6g}{metrics.g1.imag:+.2g}j G2={metrics.g2:.6g} "
        f"ep={metrics.ep:.6g} class={metrics.entangler_class}"
    )
    w = metrics.weyl
    print(f"weyl=({w[0]:.6f}, {w[1]:.6f}, {w[2]:.6f}){weyl_suffix}")


def cmd_gate(cfg: RunConfig) -> int:
    couplings = cfg.couplings()
    polar = couplings_to_polar(couplings)
    pulse = _build_pulse(cfg, polar.omega)
    _require_cyclic(pulse, polar.omega)
    ham = build_hamiltonians(couplings)
    area = pulse_area(pulse, pulse.duration)
    gate = extract_register_gate(propagator_closed_form(ham, area))
    ideal = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    deviation = max_abs(gate.matrix - ideal.matrix)
    metrics = gate_metrics(gate.matrix)
    payload = {
        "couplings": {"j1": cfg.j1, "j2": cfg.j2, "d1": cfg.d1, "d2": cfg.d2},
        "polar": {
            "omega": polar.omega,
            "theta": polar.theta,
            "phi1": polar.phi1,
            "phi2": polar.phi2,
        },
        "pulse": {
            "shape": pulse.shape,
            "amplitude": pulse.amplitude,
            "duration": pulse.duration,
            "winding": cfg.winding,
            "area": area,
        },
        "gate": _complex_grid(gate.matrix),
        "leakage": gate.leakage,
        "metrics": _metrics_payload(metrics),
        "deviation_from_analytic": deviation,
    }
    reports.write_json(_out_path(cfg, ".json"), payload)
    _write_sidecar(cfg)
    print(f"theta={polar.theta:.6f} phi1={polar.phi1:.6f} phi2={polar.phi2:.6f}")
    _print_metrics(metrics, f" leakage={gate.leakage:.3e} deviation={deviation:.3e}")
    print(f"wrote {_out_path(cfg, '.json')}")
    return 0


def _emit_sweep(cfg: RunConfig, header, rows, axes, values, labels) -> int:
    """Write a sweep's CSV and sidecar, then its JSON records or its SVG
    plot of ``values`` over ``axes``: a line for one axis, a heatmap for
    two.  ``labels`` name the x axis, then the y axis or the curve."""
    rows = list(rows)
    reports.write_csv(_out_path(cfg, ".csv"), header, rows)
    _write_sidecar(cfg)
    if cfg.format == "json":
        reports.write_json(
            _out_path(cfg, ".json"), [dict(zip(header, row)) for row in rows]
        )
    if cfg.format == "svg":
        plot = reports.line_svg if len(axes) == 1 else reports.heatmap_svg
        plot(_out_path(cfg, ".svg"), *axes, values, *labels)
    print(f"wrote {_out_path(cfg, '.csv')} ({len(rows)} rows)")
    return 0


def cmd_sweep_theta(cfg: RunConfig) -> int:
    thetas = np.linspace(0.0, math.pi / 4, cfg.grid).tolist()
    g1, g2, weyl, eps, classes = _metric_columns(_entangler_matrices(thetas))
    rows = [
        (theta, ep, z.real, z.imag, b, *w, cls)
        for theta, ep, z, b, w, cls in zip(thetas, eps, g1, g2, weyl, classes)
    ]
    header = ["theta", "ep", "g1_re", "g1_im", "g2", "c1", "c2", "c3", "class"]
    return _emit_sweep(cfg, header, rows, (thetas,), eps, ("θ", "entangling power"))


def cmd_sweep_dm(cfg: RunConfig) -> int:
    if cfg.j1 != cfg.j2:
        raise ConfigError("sweep-dm requires j1 == j2 (symmetric working point)")
    omega_xy = couplings_to_polar(ExchangeCouplings(j1=cfg.j1, j2=cfg.j2)).omega
    pulse = _build_pulse(cfg, omega_xy)
    t = dm_sweep(cfg.j1, cfg.j2, cfg.d1_ratios, cfg.d2_ratios, pulse)
    header = [*t.axis_names, "fidelity"]
    return _emit_sweep(cfg, header, t.rows(), t.axis_values, t.fidelity, ("d₁", "d₂"))


def cmd_sweep_noise(cfg: RunConfig) -> int:
    couplings = cfg.couplings()
    pulse = _build_pulse(cfg, couplings_to_polar(couplings).omega)
    t = amplitude_noise_sweep(couplings, cfg.ratios1, cfg.ratios2, pulse, steps=cfg.steps)
    header = [*t.axis_names, "fidelity"]
    return _emit_sweep(cfg, header, t.rows(), t.axis_values, t.fidelity, ("Ω/δ₁", "Ω/δ₂"))


def cmd_sweep_dephasing(cfg: RunConfig) -> int:
    # The fidelity depends on N and lambda alone, so the time unit is 1.
    template = HyperfineBath(0.0, 1.0, cfg.nuclei_per_electron)
    t = dephasing_sweep(template, cfg.lambdas, cfg.couplings())
    header = [*t.axis_names, "fidelity"]
    return _emit_sweep(cfg, header, t.rows(), t.axis_values, t.fidelity, ("λ", "fidelity"))


def read_gate_matrix(path: str) -> np.ndarray:
    """Parse a 4x4 complex matrix: 4 lines of 4 whitespace-separated
    ``re+imj`` tokens."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 entries, got {len(tokens)}")
        try:
            rows.append([complex(tok) for tok in tokens])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: invalid complex token") from None
    if len(rows) != 4:
        raise ParseError(f"{path}: expected 4 rows, got {len(rows)}")
    return np.array(rows, dtype=np.complex128)


def cmd_classify(cfg: RunConfig) -> int:
    if not cfg.matrix:
        raise ConfigError("classify needs a matrix file (positional or 'matrix' key)")
    gate = read_gate_matrix(cfg.matrix)
    metrics = gate_metrics(gate)
    payload = {"matrix_file": cfg.matrix, "metrics": _metrics_payload(metrics)}
    reports.write_json(_out_path(cfg, ".json"), payload)
    _write_sidecar(cfg)
    _print_metrics(metrics)
    return 0


# Each command's handler and the config keys it reads besides ``command``
# and ``out``: any other key is refused, and the sidecar records these.
COMMANDS = {
    "gate": (cmd_gate, _COUPLING_KEYS + _PULSE_KEYS),
    "sweep-theta": (cmd_sweep_theta, ("grid", "format")),
    "sweep-dm": (
        cmd_sweep_dm,
        ("j1", "j2", *_PULSE_KEYS, "d1_ratios", "d2_ratios", "format"),
    ),
    "sweep-noise": (
        cmd_sweep_noise,
        (*_COUPLING_KEYS, *_PULSE_KEYS, "ratios1", "ratios2", "steps", "format"),
    ),
    "sweep-dephasing": (
        cmd_sweep_dephasing,
        (*_COUPLING_KEYS, "lambdas", "nuclei_per_electron", "format"),
    ),
    "classify": (cmd_classify, ("matrix",)),
}

# The keys that also have a command-line argument, with its name and options.
_ARGUMENTS = {
    "format": ("--format", {"choices": ("csv", "json", "svg")}),
    "grid": ("--grid", {"type": int, "help": "theta grid size"}),
    "steps": ("--steps", {"type": int, "help": "time-ordered step count"}),
    "matrix": ("matrix", {"nargs": "?", "help": "file with a 4x4 complex matrix"}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="spinholonomy",
        description="Holonomic two-qubit entangler simulation and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat JSON configuration file")
        p.add_argument("--out", help="output path prefix")
        for key in keys:
            if key in _ARGUMENTS:
                flag, options = _ARGUMENTS[key]
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        return COMMANDS[cfg.command][0](cfg)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpinHolonomyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
