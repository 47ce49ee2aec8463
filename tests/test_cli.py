import json
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spinholonomy.cli import (
    COMMANDS,
    RunConfig,
    build_parser,
    config_payload,
    main,
    make_config,
    read_gate_matrix,
    read_keys,
)
from spinholonomy.errors import ParseError


def run(tmp_path, command, config=None, extra=()):
    argv = [command]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    argv += ["--out", str(tmp_path / "out")]
    argv += list(extra)
    return main(argv)


def read_csv(tmp_path):
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --- gate ---------------------------------------------------------------

def test_gate_symmetric_point(tmp_path, capsys):
    assert run(tmp_path, "gate", {"j1": 1.0, "j2": 1.0}) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["metrics"]["class"] == "special_perfect"
    assert abs(report["metrics"]["ep"] - 2 / 9) <= 1e-12
    assert np.allclose(report["metrics"]["weyl"], [math.pi / 2, math.pi / 2, 0], atol=1e-9)
    assert report["leakage"] <= 1e-10
    assert "special_perfect" in capsys.readouterr().out


def test_gate_single_arm_is_local(tmp_path):
    assert run(tmp_path, "gate", {"j1": 1.0, "j2": 0.0}) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["metrics"]["class"] == "local"
    assert abs(report["metrics"]["ep"]) <= 1e-12


def test_gate_eighth_pi_boundary(tmp_path):
    cfg = {"j1": math.cos(math.pi / 8), "j2": math.sin(math.pi / 8)}
    assert run(tmp_path, "gate", cfg) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert abs(report["metrics"]["ep"] - 1 / 6) <= 1e-10
    assert report["metrics"]["class"] == "perfect"


@pytest.mark.parametrize(
    "config, cause",
    [
        ({"shape": "tabulated", "samples": [[0.0, 1.0], [math.nan, 1.0]]}, "samples"),
        ({"amplitude": math.nan}, "amplitude"),
        ({"shape": "gaussian", "duration": math.nan}, "duration"),
    ],
)
def test_gate_non_finite_pulse_exits_3(tmp_path, capsys, config, cause):
    assert run(tmp_path, "gate", config) == 3
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["gate", "sweep-dm", "sweep-noise"])
@pytest.mark.parametrize(
    "config, named",
    [
        ({"winding": 1e308}, "winding=1000000000000000010979"),
        ({"j1": 1e-320, "j2": 1e-320}, "omega=7.07e-321"),
    ],
)
def test_overflowing_cyclic_duration_exits_3(tmp_path, capsys, command, config, named):
    assert run(tmp_path, command, config) == 3
    err = capsys.readouterr().err
    assert "cyclic pulse duration (2n+1)*pi/(amplitude*omega) is not a finite positive" in err
    assert "omega=" in err and "amplitude=" in err and "winding=" in err and named in err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("command", ["gate", "sweep-dm", "sweep-noise"])
def test_vanishing_gaussian_width_exits_3(tmp_path, capsys, command):
    # duration / 8 rounds to 0: the pulse is refused where it is built.
    assert run(tmp_path, command, {"shape": "gaussian", "duration": 5e-324}) == 3
    assert "gaussian width duration / 8 rounds to 0 at duration 5e-324" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


def test_gate_square_duration_exits_2(tmp_path, capsys):
    # The cyclicity condition fixes a square pulse's duration: it is not a setting.
    assert run(tmp_path, "gate", {"duration": 2.0}) == 2
    assert "gate does not read keys ['duration']" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


def test_gate_gaussian_is_calibrated(tmp_path):
    # A duration that is not cyclic at peak 1 is scaled to the cyclic area.
    assert run(tmp_path, "gate", {"shape": "gaussian", "duration": 3.0}) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    omega = report["polar"]["omega"]
    assert abs(report["pulse"]["area"] * omega - math.pi) <= 1e-12
    assert report["pulse"]["duration"] == 3.0
    assert report["deviation_from_analytic"] <= 1e-9
    assert report["leakage"] <= 1e-10


# --- sweep-theta ----------------------------------------------------------

def test_sweep_theta_rows(tmp_path):
    assert run(tmp_path, "sweep-theta", extra=["--grid", "21"]) == 0
    header, rows = read_csv(tmp_path)
    assert header == ["theta", "ep", "g1_re", "g1_im", "g2", "c1", "c2", "c3", "class"]
    assert len(rows) == 21
    eps = [float(r[1]) for r in rows]
    assert abs(eps[0]) <= 1e-12
    assert abs(eps[-1] - 2 / 9) <= 1e-12
    assert all(b - a >= -1e-12 for a, b in zip(eps, eps[1:]))  # monotone


def test_sweep_theta_deterministic(tmp_path):
    run(tmp_path, "sweep-theta", extra=["--grid", "11"])
    first = (tmp_path / "out.csv").read_bytes()
    run(tmp_path, "sweep-theta", extra=["--grid", "11"])
    assert (tmp_path / "out.csv").read_bytes() == first


def test_sweep_theta_svg(tmp_path):
    assert run(tmp_path, "sweep-theta", extra=["--grid", "5", "--format", "svg"]) == 0
    svg = (tmp_path / "out.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# --- sweep-dm -------------------------------------------------------------

def test_sweep_dm_symmetric_csv(tmp_path):
    cfg = {"d1_ratios": [1.0, 4.0, 16.0], "d2_ratios": [1.0, 4.0, 16.0]}
    assert run(tmp_path, "sweep-dm", cfg) == 0
    header, rows = read_csv(tmp_path)
    assert header == ["d1", "d2", "fidelity"]
    table = {(r[0], r[1]): float(r[2]) for r in rows}
    for (a, b), f in table.items():
        assert abs(table[(b, a)] - f) <= 1e-12
    assert len(rows) == 9


def test_sweep_dm_rejects_asymmetric(tmp_path):
    assert run(tmp_path, "sweep-dm", {"j1": 1.0, "j2": 2.0}) == 2


# --- sweep-noise ------------------------------------------------------------

def test_sweep_noise_zero_offset_row(tmp_path):
    cfg = {"ratios1": [float("inf"), 50.0], "ratios2": [float("inf"), 50.0]}
    assert run(tmp_path, "sweep-noise", cfg) == 0
    header, rows = read_csv(tmp_path)
    assert header == ["ratio1", "ratio2", "fidelity"]
    exact = [r for r in rows if r[0] == "inf" and r[1] == "inf"]
    assert len(exact) == 1
    assert abs(float(exact[0][2]) - 1.0) <= 1e-9


# --- sweep-dephasing --------------------------------------------------------

def test_sweep_dephasing_ascending(tmp_path):
    cfg = {"lambdas": [2.0, 5.0, 10.0]}
    assert run(tmp_path, "sweep-dephasing", cfg, extra=["--format", "svg"]) == 0
    header, rows = read_csv(tmp_path)
    assert header == ["lambda", "fidelity"]
    fids = [float(r[1]) for r in rows]
    assert len(fids) == 3
    assert all(b - a >= -1e-6 for a, b in zip(fids, fids[1:]))
    assert (tmp_path / "out.svg").exists()


# --- classify ---------------------------------------------------------------

def write_matrix(tmp_path, rows):
    path = tmp_path / "gate.txt"
    path.write_text("\n".join(" ".join(row) for row in rows) + "\n")
    return str(path)


CNOT_ROWS = [
    ["1", "0", "0", "0"],
    ["0", "1", "0", "0"],
    ["0", "0", "0", "1"],
    ["0", "0", "1", "0"],
]
DCNOT_ROWS = [
    ["1", "0", "0", "0"],
    ["0", "0", "1", "0"],
    ["0", "0", "0", "1"],
    ["0", "1", "0", "0"],
]


def test_classify_cnot(tmp_path):
    path = write_matrix(tmp_path, CNOT_ROWS)
    assert run(tmp_path, "classify", extra=[path]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["metrics"]["class"] == "perfect"
    assert abs(report["metrics"]["ep"] - 2 / 9) <= 1e-12
    assert np.allclose(report["metrics"]["weyl"], [math.pi / 2, 0, 0], atol=1e-9)


def test_classify_identity_and_dcnot(tmp_path):
    path = write_matrix(tmp_path, [["1" if i == j else "0" for j in range(4)] for i in range(4)])
    run(tmp_path, "classify", extra=[path])
    assert json.loads((tmp_path / "out.json").read_text())["metrics"]["class"] == "local"
    path = write_matrix(tmp_path, DCNOT_ROWS)
    run(tmp_path, "classify", extra=[path])
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["metrics"]["class"] == "special_perfect"
    assert np.allclose(report["metrics"]["weyl"], [math.pi / 2, math.pi / 2, 0], atol=1e-9)


def test_classify_complex_tokens(tmp_path):
    rows = [
        ["0.5+0.5j", "0.5-0.5j", "0", "0"],
        ["0.5-0.5j", "0.5+0.5j", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    path = write_matrix(tmp_path, rows)
    assert run(tmp_path, "classify", extra=[path]) == 0


def test_classify_rejects_non_unitary(tmp_path):
    rows = [[str(1.1 if i == j else 0) for j in range(4)] for i in range(4)]
    path = write_matrix(tmp_path, rows)
    assert run(tmp_path, "classify", extra=[path]) == 3


def test_classify_nan_entry_exits_3(tmp_path, capsys):
    rows = [row[:] for row in CNOT_ROWS]
    rows[2][3] = "nan+0j"
    path = write_matrix(tmp_path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "classify", extra=[path]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_classify_rejects_malformed(tmp_path):
    path = write_matrix(tmp_path, CNOT_ROWS[:3])
    assert run(tmp_path, "classify", extra=[path]) == 2
    with pytest.raises(ParseError):
        read_gate_matrix(path)


# --- configuration ------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    assert run(tmp_path, "gate", {"j1_typo": 1.0}) == 2
    # Nothing in the package is stochastic, so there is no seed to set.
    assert run(tmp_path, "gate", {"seed": 0}) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_malformed_json_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert main(["gate", "--config", str(cfg_path)]) == 2


def test_bad_field_type_rejected(tmp_path):
    assert run(tmp_path, "gate", {"j1": "abc"}) == 2
    assert run(tmp_path, "gate", {"j1": None}) == 2
    assert run(tmp_path, "sweep-theta", extra=["--grid", "1"]) == 2


def test_zero_couplings_exit_code(tmp_path):
    assert run(tmp_path, "gate", {"j1": 0.0, "j2": 0.0, "d1": 0.0, "d2": 0.0}) == 3


def test_sidecar_round_trips(tmp_path):
    # Fed back as the config, each sidecar reproduces itself and the report.
    cases = [
        ("gate", {"j1": 1.5, "j2": 1.5, "amplitude": 0.7, "winding": 2}, "out.json"),
        ("gate", {"shape": "gaussian", "duration": 2.0, "winding": 1}, "out.json"),
        ("sweep-theta", {"grid": 9, "format": "svg"}, "out.svg"),
        ("sweep-dm", {"d1_ratios": [2.0], "d2_ratios": [1.0, 3.0]}, "out.csv"),
        ("sweep-noise", {"ratios1": [20.0], "ratios2": [30.0], "steps": 5}, "out.csv"),
        ("sweep-noise", {"shape": "tabulated", "samples": [[0, 1], [2, 3]], "steps": 5,
                         "ratios1": [20.0], "ratios2": [30.0]}, "out.csv"),
        ("sweep-dephasing", {"lambdas": [3.0], "format": "json"}, "out.json"),
        ("classify", {"matrix": write_matrix(tmp_path, CNOT_ROWS)}, "out.json"),
    ]
    for index, (command, config, report) in enumerate(cases):
        work = tmp_path / f"{index}-{command}"
        work.mkdir()
        assert run(work, command, config) == 0
        sidecar = (work / "out.config.json").read_bytes()
        first = (work / report).read_bytes()
        payload = json.loads(sidecar)
        assert payload["command"] == command and payload["out"] == str(work / "out")
        keys = read_keys(command, config.get("shape", "square"))
        assert set(payload) == {"command", "out", *keys}
        (work / "sidecar.json").write_bytes(sidecar)
        assert main([command, "--config", str(work / "sidecar.json")]) == 0
        assert (work / "out.config.json").read_bytes() == sidecar
        assert (work / report).read_bytes() == first


def test_flags_override_config(tmp_path):
    cfg = {"grid": 50}
    assert run(tmp_path, "sweep-theta", cfg, extra=["--grid", "7"]) == 0
    _, rows = read_csv(tmp_path)
    assert len(rows) == 7


def test_run_config_defaults():
    cfg = RunConfig(command="sweep-dephasing")
    assert cfg.lambdas == tuple(float(v) for v in range(1, 21))
    assert cfg.nuclei_per_electron == 2
    assert cfg.steps == 200


def test_sweep_dephasing_nan_lambda_exits_3(tmp_path, capsys):
    assert run(tmp_path, "sweep-dephasing", {"lambdas": [math.nan]}) == 3
    assert "lambda" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("config", [{"lambdas": [5e-324]}, {"lambdas": [1e-320]}])
def test_sweep_dephasing_coupling_overflow_exits_3(tmp_path, capsys, config):
    # The phase N / lambda is checked before A = N / (lambda * op_time), so
    # at the CLI's op_time = 1 the message names lambda and no setting the
    # CLI does not have.
    assert run(tmp_path, "sweep-dephasing", config) == 3
    err = capsys.readouterr().err
    assert f"N / lambda overflows at lambda = {config['lambdas'][0]!r}" in err
    assert "op_time" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", [10**9, 10**18])
@pytest.mark.parametrize(
    "command, key, allocator",
    [
        ("sweep-theta", "grid", "spinholonomy.cli._entangler_matrices"),
        ("sweep-theta", "grid", "numpy.linspace"),
        ("sweep-noise", "steps", "spinholonomy.cli.amplitude_noise_sweep"),
    ],
)
def test_over_budget_grid_or_steps_exits_3(
    tmp_path, capsys, monkeypatch, command, key, allocator, value
):
    # The byte estimate refuses the value before the routine that would
    # allocate for it runs.
    def refuse(*args, **kwargs):
        raise AssertionError(f"{key} = {value} reached {allocator}")

    monkeypatch.setattr(allocator, refuse)
    assert run(tmp_path, command, {key: value}) == 3
    err = capsys.readouterr().err
    assert f"field {key!r}: {value} needs an estimated" in err and "memory budget" in err
    assert list(tmp_path.glob("out*")) == []


def test_sweep_dephasing_runs_n4_by_default(tmp_path):
    # N = 4 fits the memory budget; F(lambda = 10) as computed before the
    # budget replaced the dimension cap.
    assert run(tmp_path, "sweep-dephasing", {"nuclei_per_electron": 4, "lambdas": [10.0]}) == 0
    _, rows = read_csv(tmp_path)
    assert abs(float(rows[0][1]) - 0.98697468034999059) <= 1e-12


def test_sweep_dephasing_over_budget_n_exits_3(tmp_path, capsys):
    assert run(tmp_path, "sweep-dephasing", {"nuclei_per_electron": 7}) == 3
    err = capsys.readouterr().err
    assert "N = 7 needs an estimated " in err and "-byte memory budget" in err
    assert list(tmp_path.glob("out*")) == []


def test_sweep_noise_nan_ratio_exits_3(tmp_path, capsys):
    assert run(tmp_path, "sweep-noise", {"ratios2": [10.0, math.nan]}) == 3
    assert "ratio2" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_noise_overflowing_offset_exits_3(tmp_path, capsys):
    # amplitude / 1e-310 overflows; the ratio is refused by name, before
    # any stepping and without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "sweep-noise", {"ratios1": [1e-310]}) == 3
    err = capsys.readouterr().err
    assert "ratio1 1e-310" in err and "overflow" in err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_noise_offset_phase_overflow_exits_3(tmp_path, capsys):
    # The offset amplitude / 1e-160 is finite, but its phase over a pulse of
    # duration 1e200 is not; it is refused by name, without a numpy warning.
    config = {"shape": "gaussian", "winding": 1e150, "duration": 1e200, "ratios2": [1e-160]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "sweep-noise", config) == 3
    err = capsys.readouterr().err
    assert "ratio2 1e-160 makes the offset's phase over the pulse" in err and "overflow" in err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_dm_nan_ratio_exits_3(tmp_path, capsys):
    assert run(tmp_path, "sweep-dm", {"d1_ratios": [math.nan]}) == 3
    assert "d1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


NON_FINITE_COUPLINGS = [
    (key, value, command)
    for command in ["gate", "sweep-dm", "sweep-noise", "sweep-dephasing"]
    for key, value in [("j1", math.nan), ("d1", math.inf)]
    if key in COMMANDS[command][1]
]


@pytest.mark.parametrize(
    "key, value, command",
    NON_FINITE_COUPLINGS,
    ids=[f"{k}-{v}-{c}" for k, v, c in NON_FINITE_COUPLINGS],
)
def test_non_finite_coupling_exits_3(tmp_path, capsys, key, value, command):
    assert run(tmp_path, command, {key: value}) == 3
    assert f"coupling {key} must be finite" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "command, flag",
    [
        ("gate", "--grid"),
        ("gate", "--steps"),
        ("gate", "--format"),
        ("sweep-theta", "--steps"),
        ("sweep-dm", "--grid"),
        ("sweep-noise", "--grid"),
        ("sweep-dephasing", "--steps"),
        ("classify", "--grid"),
        ("classify", "--format"),
    ],
)
def test_flag_only_where_it_acts(tmp_path, command, flag):
    value = "json" if flag == "--format" else "3"  # valid where the flag exists
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, extra=[flag, value])
    assert exc.value.code == 2
    assert list(tmp_path.glob("out*")) == []


def test_steps_flag_sets_sweep_noise_steps(tmp_path):
    cfg = {"ratios1": [20.0], "ratios2": [30.0]}
    assert run(tmp_path, "sweep-noise", cfg, extra=["--steps", "3"]) == 0
    assert json.loads((tmp_path / "out.config.json").read_text())["steps"] == 3


# The keys sweep-dephasing read before a memory check replaced its dimension
# cap and its time unit was fixed; every command now refuses them as unread.
REMOVED = ("op_time", "dim_cap")
# A valid value other than the default for every config key, and a value
# for each removed key.
NON_DEFAULT = {
    "j1": 1.5,
    "j2": 1.5,
    "d1": 0.5,
    "d2": 0.5,
    "shape": "gaussian",
    "amplitude": 0.7,
    "duration": 2.5,
    "winding": 1,
    "samples": [[0.0, 1.0], [1.0, 1.0]],
    "d1_ratios": [2.0],
    "d2_ratios": [3.0],
    "ratios1": [20.0],
    "ratios2": [30.0],
    "lambdas": [4.0],
    "nuclei_per_electron": 1,
    "op_time": 2.0,
    "dim_cap": 512,
    "matrix": "gate.txt",
    "format": "json",
    "grid": 11,
    "steps": 7,
}
# Besides ``shape`` and ``winding``, a pulse reads the one key of its shape.
OWN_KEY = {"square": "amplitude", "gaussian": "duration", "tabulated": "samples"}
SHAPE_OF = {key: shape for shape, key in OWN_KEY.items()}
PULSE_COMMANDS = ["gate", "sweep-dm", "sweep-noise"]
# (command, key) pairs read for some shape, and those read for no shape;
# sweep-dephasing's removed keys come last, so that the other pairs keep
# their places (and their test ids).
READ = [(c, k) for c, (_, keys) in COMMANDS.items() for k in keys]
DEPHASING_REMOVED = [("sweep-dephasing", k) for k in REMOVED]
UNREAD = [
    (c, k) for c in COMMANDS for k in NON_DEFAULT if (c, k) not in READ + DEPHASING_REMOVED
] + DEPHASING_REMOVED
# Per shape: the keys of the two other shapes are refused.
OTHER_SHAPE_KEYS = [
    (shape, command, key)
    for shape in OWN_KEY
    for command in PULSE_COMMANDS
    for key in OWN_KEY.values()
    if key != OWN_KEY[shape]
]


def test_key_table_covers_every_setting():
    settable = {f.name for f in fields(RunConfig)} - {"command", "out"}
    assert set(NON_DEFAULT) == settable | set(REMOVED) and not settable & set(REMOVED)
    assert all(k in settable for _, k in READ)
    assert (len(READ), len(UNREAD)) == (42, 84)
    for shape, own in OWN_KEY.items():
        read = [(c, k) for c in COMMANDS for k in read_keys(c, shape)]
        unread = [(c, k) for c in COMMANDS for k in NON_DEFAULT if (c, k) not in read]
        assert (len(read), len(unread)) == (36, 90)
        for command in PULSE_COMMANDS:
            pulse = set(read_keys(command, shape)) & {"shape", "winding", *OWN_KEY.values()}
            assert pulse == {"shape", "winding", own}


@pytest.mark.parametrize(
    "command, key, value",
    # sweep-dm reads only j1 and j2, so even a non-finite d1 is refused as unread.
    [(c, k, NON_DEFAULT[k]) for c, k in UNREAD] + [("sweep-dm", "d1", math.inf)],
)
def test_unread_config_key_exits_2(tmp_path, capsys, command, key, value):
    assert run(tmp_path, command, {key: value}) == 2
    err = capsys.readouterr().err
    assert f"{command} does not read keys [{key!r}]" in err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("command, key", READ)
def test_read_config_key_accepted_and_recorded(tmp_path, command, key):
    config = {key: NON_DEFAULT[key]}
    if key in SHAPE_OF:
        config["shape"] = SHAPE_OF[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    cfg = make_config(build_parser().parse_args([command, "--config", str(cfg_path)]))
    assert cfg != RunConfig(command=command)
    assert json.loads(json.dumps(config_payload(cfg)))[key] == NON_DEFAULT[key]


@pytest.mark.parametrize(
    "command, key",
    [
        ("sweep-dm", "d1_ratios"),
        ("sweep-dm", "d2_ratios"),
        ("sweep-noise", "ratios1"),
        ("sweep-noise", "ratios2"),
        ("sweep-dephasing", "lambdas"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_empty_sweep_axis_exits_2(tmp_path, capsys, command, key, fmt):
    assert run(tmp_path, command, {key: []}, extra=["--format", fmt]) == 2
    assert f"field {key!r}: needs at least one value" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "shape, command, key",
    OTHER_SHAPE_KEYS,
    ids=[f"{s}-{c}-{k}" for s, c, k in OTHER_SHAPE_KEYS],
)
def test_other_shape_pulse_key_exits_2(tmp_path, capsys, shape, command, key):
    config = {"shape": shape, OWN_KEY[shape]: NON_DEFAULT[OWN_KEY[shape]], key: NON_DEFAULT[key]}
    assert run(tmp_path, command, config) == 2
    assert f"{command} does not read keys [{key!r}]" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


SMALL_AXES = {
    "gate": {},
    "sweep-dm": {"d1_ratios": [2.0], "d2_ratios": [3.0]},
    "sweep-noise": {"ratios1": [20.0], "ratios2": [30.0], "steps": 7},
}


@pytest.mark.parametrize("command", PULSE_COMMANDS)
@pytest.mark.parametrize("shape", list(OWN_KEY))
def test_own_pulse_keys_run_and_are_recorded(tmp_path, shape, command):
    # Every shape runs every pulse command to exit 0, calibrated.
    own = OWN_KEY[shape]
    config = {"shape": shape, "winding": 1, own: NON_DEFAULT[own], **SMALL_AXES[command]}
    assert run(tmp_path, command, config) == 0
    sidecar = json.loads((tmp_path / "out.config.json").read_text())
    assert {k: sidecar[k] for k in ("shape", "winding", own)} == {
        "shape": shape, "winding": 1, own: NON_DEFAULT[own]
    }
    assert not (set(OWN_KEY.values()) - {own}) & set(sidecar)


@pytest.mark.parametrize("command", PULSE_COMMANDS)
@pytest.mark.parametrize(
    "config, field",
    [
        ({"shape": "triangle"}, "shape"),
        ({"winding": -1}, "winding"),
        ({"shape": "tabulated"}, "samples"),
        ({"shape": "tabulated", "samples": []}, "samples"),
        ({"amplitude": None}, "amplitude"),
    ],
)
def test_bad_pulse_config_exits_2(tmp_path, capsys, command, config, field):
    assert run(tmp_path, command, config) == 2
    assert f"field {field!r}" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "command, key",
    [
        ("sweep-theta", "grid"),
        ("sweep-noise", "steps"),
        ("gate", "winding"),
        ("sweep-dephasing", "nuclei_per_electron"),
    ],
)
@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "1e400"])
def test_infinite_integer_exits_2(tmp_path, capsys, command, key, token):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"{key}": {token}}}')
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"field {key!r}: cannot interpret" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


def _refuse_constant(token):
    raise AssertionError(f"bare non-JSON token {token}")


def test_non_finite_values_written_as_strict_json(tmp_path):
    cfg = {"ratios1": [math.inf, 50.0], "ratios2": [-math.inf, 20.0], "steps": 5}
    assert run(tmp_path, "sweep-noise", cfg, extra=["--format", "json"]) == 0
    records = json.loads((tmp_path / "out.json").read_text(), parse_constant=_refuse_constant)
    sidecar = (tmp_path / "out.config.json").read_bytes()
    payload = json.loads(sidecar, parse_constant=_refuse_constant)
    assert payload["ratios1"] == ["Infinity", 50.0]
    assert payload["ratios2"] == ["-Infinity", 20.0]
    assert records[0]["ratio1"] == "Infinity" and records[0]["ratio2"] == "-Infinity"
    assert abs(records[0]["fidelity"] - 1.0) <= 1e-9  # no offset on either arm
    first = (tmp_path / "out.csv").read_bytes()
    (tmp_path / "sidecar.json").write_bytes(sidecar)
    assert main(["sweep-noise", "--config", str(tmp_path / "sidecar.json")]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first
    assert (tmp_path / "out.config.json").read_bytes() == sidecar


# --- calibration ------------------------------------------------------------

coupling = st.floats(-2.0, 2.0)


@st.composite
def sample_lists(draw):
    """Tabulated samples from t = 0 at increasing times, with positive values."""
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=8))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values) - 1, max_size=len(values) - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return [[float(t), v] for t, v in zip(times, values)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    j1=coupling, j2=coupling, d1=coupling, d2=coupling,
    shape=st.sampled_from(sorted(OWN_KEY)),
    winding=st.integers(0, 3),
    amplitude=st.floats(0.1, 5.0),
    duration=st.floats(0.1, 10.0),
    samples=sample_lists(),
)
def test_calibrated_gate_matches_analytic(
    j1, j2, d1, d2, shape, winding, amplitude, duration, samples
):
    # Criterion 2's tolerances, for every shape at its own key's value.
    couplings = {"j1": j1, "j2": j2, "d1": d1, "d2": d2}
    assume(math.hypot(j1, j2, d1, d2) / 2 >= 0.1)  # omega = |(alpha1, alpha2)|
    own = {"square": amplitude, "gaussian": duration, "tabulated": samples}[shape]
    config = {**couplings, "shape": shape, "winding": winding, OWN_KEY[shape]: own}
    with tempfile.TemporaryDirectory() as work:
        cfg_path = Path(work) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = str(Path(work) / "out")
        assert main(["gate", "--config", str(cfg_path), "--out", out]) == 0
        report = json.loads(Path(out + ".json").read_text())
    assert report["deviation_from_analytic"] <= 1e-9
    assert report["leakage"] <= 1e-10
    assert report["pulse"]["winding"] == winding
    cyclic = (2 * winding + 1) * math.pi
    assert abs(report["pulse"]["area"] * report["polar"]["omega"] - cyclic) <= 1e-9


# --- repeated in-process calls ------------------------------------------------

# Every command at a small configuration, with its flag arguments.
EVERY_COMMAND = [
    ("gate", {"j1": 0.8, "d2": 0.3, "winding": 1}, []),
    ("sweep-theta", None, ["--grid", "9"]),
    ("sweep-dm", {"d1_ratios": [2.0], "d2_ratios": [1.0, 3.0]}, ["--format", "svg"]),
    ("sweep-noise", {"ratios1": [20.0], "ratios2": [30.0], "steps": 5}, []),
    ("sweep-dephasing", {"lambdas": [3.0]}, ["--format", "json"]),
    ("classify", None, []),
]


def _run_every_command(work):
    files = {}
    for command, config, extra in EVERY_COMMAND:
        target = work / command
        target.mkdir(parents=True, exist_ok=True)
        if command == "classify":
            extra = [write_matrix(target, CNOT_ROWS)]
        assert run(target, command, config, extra) == 0
        files[command] = {p.name: p.read_bytes() for p in sorted(target.glob("out*"))}
    return files


def test_cached_parser_stays_clean_across_calls(tmp_path, capsys):
    build_parser.cache_clear()  # the first run below builds a fresh parser
    clean = _run_every_command(tmp_path)
    assert build_parser() is build_parser()
    # A parse that fails part-way, after --format json was consumed, exits
    # through argparse; then a config error exits through main.
    with pytest.raises(SystemExit) as exc:
        main(["sweep-theta", "--format", "json", "--grid", "nine"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--no-such-flag"])
    assert exc.value.code == 2
    assert run(tmp_path, "gate", {"grid": 9}) == 2
    capsys.readouterr()
    for command, _, _ in EVERY_COMMAND:
        for path in (tmp_path / command).glob("out*"):
            path.unlink()
    assert _run_every_command(tmp_path) == clean
    # The sweep-theta run above has no --format flag: only its CSV and sidecar.
    assert sorted(clean["sweep-theta"]) == ["out.config.json", "out.csv"]


# --- every config ends in exit 0, 2 or 3 -------------------------------------

EDGE = [0, -0.0, 5e-324, 1e-320, 1e308, -1e308, 1e200, "Infinity", "NaN"]
AXES = ("d1_ratios", "d2_ratios", "ratios1", "ratios2", "lambdas")
# The metric columns that must be finite after exit 0 (axis columns echo inputs).
METRIC_COLUMNS = {"fidelity", "ep", "g1_re", "g1_im", "g2", "c1", "c2", "c3"}


def _edge_value(key):
    edge = st.sampled_from(EDGE)
    if key == "nuclei_per_electron":  # 7 and 10**6 are refused by the memory estimate
        return st.sampled_from([1, 2, 3, 7, 10**6])
    if key in ("grid", "steps"):  # no more than 50 unless refused, so every run stays small
        huge = [10**9, 10**18]  # refused by the memory estimate before any allocation
        edges = [-0.0, 5e-324, -1e308, "Infinity", "NaN", *huge]
        return st.integers(-1, 50) | st.sampled_from(edges)
    if key in AXES:
        return st.lists(edge, max_size=3)
    if key == "samples":
        return st.lists(st.tuples(edge, edge), max_size=3)
    if key == "matrix":  # 16 entries for a matrix file, or a value that is no path
        return st.lists(edge, min_size=16, max_size=16) | edge
    if key in ("shape", "format"):
        return st.sampled_from([*OWN_KEY, "csv", "json", "svg", *EDGE])
    return edge


@st.composite
def edge_configs(draw):
    """A command, and edge values for a subset of its keys and the removed ones."""
    command = draw(st.sampled_from(list(COMMANDS)))
    pool = [*COMMANDS[command][1], *REMOVED]
    keys = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return command, {key: draw(_edge_value(key)) for key in keys}


def _finite_metrics(payload) -> bool:
    numbers = [payload.get("leakage", 0.0), payload.get("deviation_from_analytic", 0.0)]
    metrics = payload["metrics"]
    numbers += [metrics[k] for k in ("g1_re", "g1_im", "g2", "ep")] + metrics["weyl"]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=edge_configs())
@example(case=("gate", {"shape": "gaussian", "duration": 5e-324}))
@example(case=("sweep-dm", {"shape": "gaussian", "duration": 5e-324}))
@example(case=("sweep-noise", {"shape": "gaussian", "duration": 5e-324}))
@example(case=("sweep-dephasing", {"lambdas": [5e-324], "op_time": 1e200}))
@example(case=("sweep-dephasing", {"nuclei_per_electron": 3, "lambdas": [1e308]}))
@example(case=("sweep-dephasing", {"nuclei_per_electron": 7}))  # the memory check
@example(
    case=(
        "sweep-noise",
        {"shape": "gaussian", "winding": 1e150, "duration": 1e200, "ratios2": [1e-160]},
    )
)
# Found by this test: an overflowing DM strength, an amplitude * omega that
# underflows to 0, and a matrix entry that overflows u^dag u.
@example(case=("sweep-dm", {"d1_ratios": [5e-324]}))
@example(case=("gate", {"amplitude": 5e-324, "j1": 0}))
@example(case=("classify", {"matrix": [0] * 15 + [1e308]}))
def test_every_config_exits_0_2_or_3(case):
    # Warnings are errors: a number that overflows inside the numerics
    # fails here even if the run would end well.
    command, config = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        work = Path(tmp)
        if isinstance(config.get("matrix"), list):
            rows = [" ".join(str(v) for v in config["matrix"][i : i + 4]) for i in (0, 4, 8, 12)]
            (work / "gate.txt").write_text("\n".join(rows) + "\n")
            config = {**config, "matrix": str(work / "gate.txt")}
        small = {k: [3.0] for k in AXES if k in COMMANDS[command][1] and k not in config}
        (work / "cfg.json").write_text(json.dumps({**small, **config}))
        code = main([command, "--config", str(work / "cfg.json"), "--out", str(work / "out")])
        assert code in (0, 2, 3)
        if code == 0 and command in ("gate", "classify"):
            assert _finite_metrics(json.loads((work / "out.json").read_text()))
        elif code == 0:
            lines = (work / "out.csv").read_text().splitlines()
            header = lines[0].split(",")
            for line in lines[1:]:
                for name, value in zip(header, line.split(",")):
                    assert name not in METRIC_COLUMNS or math.isfinite(float(value)), line
