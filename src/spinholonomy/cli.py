"""Command-line surface: gate reports, sweeps, and gate classification.

Configuration is a flat JSON file; command-line flags override file
values.  Unknown keys are rejected so typos in physics parameters fail
loudly.  Exit codes: 0 success, 2 configuration/parse error, 3 numerical
precondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import reports
from .errors import ConfigError, ParseError, SpinHolonomyError
from .gates import analytic_entangler, extract_register_gate
from .invariants import gate_metrics
from .linalg import max_abs
from .noise import (
    DEFAULT_DIM_CAP,
    DEFAULT_STEPS,
    HyperfineBath,
    amplitude_noise_sweep,
    dephasing_sweep,
    dm_sweep,
)
from .propagation import (
    PulsePlan,
    _require_cyclic,
    propagator_closed_form,
    pulse_area,
    solve_cyclic,
    square_pulse,
    tabulated_pulse,
)
from .spin_chain import ExchangeCouplings, build_hamiltonians, couplings_to_polar

COMMANDS = (
    "gate",
    "sweep-theta",
    "sweep-dm",
    "sweep-noise",
    "sweep-dephasing",
    "classify",
)


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
    duration: float | None = None
    winding: int = 0
    samples: tuple[tuple[float, float], ...] | None = None
    d1_ratios: tuple[float, ...] = tuple(float(v) for v in range(1, 16))
    d2_ratios: tuple[float, ...] = tuple(float(v) for v in range(1, 16))
    ratios1: tuple[float, ...] = tuple(float(v) for v in range(10, 101, 10))
    ratios2: tuple[float, ...] = tuple(float(v) for v in range(10, 101, 10))
    lambdas: tuple[float, ...] = tuple(float(v) for v in range(1, 21))
    nuclei_per_electron: int = 2
    op_time: float = 1.0
    dim_cap: int = DEFAULT_DIM_CAP
    matrix: str | None = None
    out: str = "run"
    format: str = "csv"
    grid: int = 101
    steps: int = DEFAULT_STEPS

    def couplings(self) -> ExchangeCouplings:
        return ExchangeCouplings(j1=self.j1, j2=self.j2, d1=self.d1, d2=self.d2)


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}
_FLOAT_KEYS = {"j1", "j2", "d1", "d2", "amplitude", "duration", "op_time"}
_INT_KEYS = {"winding", "nuclei_per_electron", "dim_cap", "grid", "steps"}
_LIST_KEYS = {"d1_ratios", "d2_ratios", "ratios1", "ratios2", "lambdas"}
_STR_KEYS = {"command", "shape", "matrix", "out", "format"}


def _coerce(key: str, value):
    try:
        if key in _FLOAT_KEYS:
            return None if value is None else float(value)
        if key in _INT_KEYS:
            if isinstance(value, bool) or value != int(value):
                raise ValueError
            return int(value)
        if key in _LIST_KEYS:
            return tuple(float(v) for v in value)
        if key == "samples":
            if value is None:
                return None
            return tuple((float(t), float(v)) for t, v in value)
        if key in _STR_KEYS:
            return None if value is None else str(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r}: cannot interpret {value!r}") from None
    raise ConfigError(f"field {key!r}: unhandled")


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
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"config {path!r}: unknown keys {unknown}")
    return raw


def make_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in ("out", "format", "grid", "steps"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "matrix", None):
        values["matrix"] = args.matrix
    values["command"] = args.command
    values = {k: _coerce(k, v) for k, v in values.items()}
    if values.get("format") not in (None, "csv", "json", "svg"):
        raise ConfigError("field 'format': must be csv, json or svg")
    cfg = RunConfig(**values)
    for key in ("j1", "j2", "d1", "d2"):
        value = getattr(cfg, key)
        if not math.isfinite(value):
            raise ValueError(f"coupling {key} must be finite, got {value!r}")
    if cfg.grid < 2:
        raise ConfigError("field 'grid': need at least 2 points")
    if cfg.steps < 1:
        raise ConfigError("field 'steps': need at least 1 step")
    return cfg


def config_payload(cfg: RunConfig) -> dict:
    payload = asdict(cfg)
    if payload["samples"] is not None:
        payload["samples"] = [list(p) for p in payload["samples"]]
    for key in _LIST_KEYS:
        payload[key] = list(payload[key])
    return payload


def config_from_payload(payload: dict) -> RunConfig:
    unknown = sorted(set(payload) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    return RunConfig(**{k: _coerce(k, v) for k, v in payload.items()})


def _out_path(cfg: RunConfig, suffix: str) -> Path:
    path = Path(cfg.out + suffix)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_sidecar(cfg: RunConfig) -> None:
    reports.write_json(_out_path(cfg, ".config.json"), config_payload(cfg))


def _build_pulse(cfg: RunConfig, omega: float) -> PulsePlan:
    if cfg.shape == "square" and cfg.duration is None:
        return solve_cyclic(omega, cfg.amplitude, cfg.winding)
    if cfg.shape == "square":
        return square_pulse(cfg.amplitude, cfg.duration, cfg.winding)
    if cfg.shape == "gaussian":
        if cfg.duration is None:
            raise ConfigError("field 'duration': required for gaussian pulses")
        return PulsePlan("gaussian", cfg.amplitude, cfg.duration, cfg.winding)
    if cfg.shape == "tabulated":
        if not cfg.samples:
            raise ConfigError("field 'samples': required for tabulated pulses")
        return tabulated_pulse(cfg.samples, cfg.winding)
    raise ConfigError(f"field 'shape': unknown shape {cfg.shape!r}")


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
            "winding": pulse.winding,
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
    print(
        f"G1={metrics.g1.real:.6g}{metrics.g1.imag:+.2g}j G2={metrics.g2:.6g} "
        f"ep={metrics.ep:.6g} class={metrics.entangler_class}"
    )
    print(
        f"weyl=({metrics.weyl[0]:.6f}, {metrics.weyl[1]:.6f}, {metrics.weyl[2]:.6f}) "
        f"leakage={gate.leakage:.3e} deviation={deviation:.3e}"
    )
    print(f"wrote {_out_path(cfg, '.json')}")
    return 0


def cmd_sweep_theta(cfg: RunConfig) -> int:
    thetas = np.linspace(0.0, math.pi / 4, cfg.grid).tolist()
    gates = np.array([analytic_entangler(theta).matrix for theta in thetas])
    rows = [
        (theta, m.ep, m.g1.real, m.g1.imag, m.g2, *m.weyl, m.entangler_class)
        for theta, m in zip(thetas, gate_metrics(gates))
    ]
    header = ["theta", "ep", "g1_re", "g1_im", "g2", "c1", "c2", "c3", "class"]
    reports.write_csv(_out_path(cfg, ".csv"), header, rows)
    _write_sidecar(cfg)
    if cfg.format == "json":
        reports.write_json(
            _out_path(cfg, ".json"),
            [dict(zip(header, row)) for row in rows],
        )
    if cfg.format == "svg":
        reports.line_svg(
            _out_path(cfg, ".svg"),
            [r[0] for r in rows],
            [r[1] for r in rows],
            xlabel="θ",
            ylabel="entangling power",
        )
    print(f"wrote {_out_path(cfg, '.csv')} ({len(rows)} rows)")
    return 0


def _emit_sweep(cfg: RunConfig, table, header, svg_kind: str, svg_labels) -> None:
    rows = list(table.rows())
    reports.write_csv(_out_path(cfg, ".csv"), header, rows)
    _write_sidecar(cfg)
    if cfg.format == "json":
        reports.write_json(
            _out_path(cfg, ".json"), [dict(zip(header, row)) for row in rows]
        )
    if cfg.format == "svg":
        if svg_kind == "line":
            reports.line_svg(
                _out_path(cfg, ".svg"),
                table.axis_values[0],
                table.fidelity,
                xlabel=svg_labels[0],
                ylabel="fidelity",
            )
        else:
            reports.heatmap_svg(
                _out_path(cfg, ".svg"),
                table.axis_values[0],
                table.axis_values[1],
                table.fidelity,
                xlabel=svg_labels[0],
                ylabel=svg_labels[1],
            )
    print(f"wrote {_out_path(cfg, '.csv')} ({len(rows)} rows)")


def cmd_sweep_dm(cfg: RunConfig) -> int:
    if cfg.j1 != cfg.j2:
        raise ConfigError("sweep-dm requires j1 == j2 (symmetric working point)")
    omega_xy = couplings_to_polar(ExchangeCouplings(j1=cfg.j1, j2=cfg.j2)).omega
    pulse = _build_pulse(cfg, omega_xy)
    table = dm_sweep(cfg.j1, cfg.j2, cfg.d1_ratios, cfg.d2_ratios, pulse)
    _emit_sweep(
        cfg,
        table,
        ["d1", "d2", "fidelity"],
        "heatmap",
        ("d₁", "d₂"),
    )
    return 0


def cmd_sweep_noise(cfg: RunConfig) -> int:
    couplings = cfg.couplings()
    pulse = _build_pulse(cfg, couplings_to_polar(couplings).omega)
    table = amplitude_noise_sweep(
        couplings, cfg.ratios1, cfg.ratios2, pulse, steps=cfg.steps
    )
    _emit_sweep(
        cfg,
        table,
        ["ratio1", "ratio2", "fidelity"],
        "heatmap",
        ("Ω/δ₁", "Ω/δ₂"),
    )
    return 0


def cmd_sweep_dephasing(cfg: RunConfig) -> int:
    template = HyperfineBath(
        total_coupling=0.0,
        op_time=cfg.op_time,
        nuclei_per_electron=cfg.nuclei_per_electron,
    )
    table = dephasing_sweep(
        template,
        cfg.lambdas,
        cfg.couplings(),
        dim_cap=cfg.dim_cap,
    )
    _emit_sweep(cfg, table, ["lambda", "fidelity"], "line", ("λ",))
    return 0


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
    print(
        f"G1={metrics.g1.real:.6g}{metrics.g1.imag:+.2g}j G2={metrics.g2:.6g} "
        f"ep={metrics.ep:.6g} class={metrics.entangler_class}"
    )
    print(
        f"weyl=({metrics.weyl[0]:.6f}, {metrics.weyl[1]:.6f}, {metrics.weyl[2]:.6f})"
    )
    return 0


_DISPATCH = {
    "gate": cmd_gate,
    "sweep-theta": cmd_sweep_theta,
    "sweep-dm": cmd_sweep_dm,
    "sweep-noise": cmd_sweep_noise,
    "sweep-dephasing": cmd_sweep_dephasing,
    "classify": cmd_classify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinholonomy",
        description="Holonomic two-qubit entangler simulation and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat JSON configuration file")
        p.add_argument("--out", help="output path prefix")
        p.add_argument("--format", choices=("csv", "json", "svg"))
        if name == "sweep-theta":
            p.add_argument("--grid", type=int, help="theta grid size")
        if name == "sweep-noise":
            p.add_argument("--steps", type=int, help="time-ordered step count")
        if name == "classify":
            p.add_argument("matrix", nargs="?", help="file with a 4x4 complex matrix")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        return _DISPATCH[cfg.command](cfg)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpinHolonomyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
