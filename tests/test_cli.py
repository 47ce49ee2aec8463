import json
import math
import warnings

import numpy as np
import pytest

from spinholonomy.cli import (
    RunConfig,
    config_from_payload,
    config_payload,
    main,
    read_gate_matrix,
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
        ({"duration": math.nan}, "duration"),
    ],
)
def test_gate_non_finite_pulse_exits_3(tmp_path, capsys, config, cause):
    assert run(tmp_path, "gate", config) == 3
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "config",
    [{"duration": 2.0}, {"shape": "gaussian", "duration": 3.0}],
)
def test_gate_non_cyclic_pulse_exits_3(tmp_path, capsys, config):
    assert run(tmp_path, "gate", config) == 3
    assert "misses an odd multiple of pi" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


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
    assert run(tmp_path, "sweep-theta", extra=["--grid", "1"]) == 2


def test_zero_couplings_exit_code(tmp_path):
    assert run(tmp_path, "gate", {"j1": 0.0, "j2": 0.0, "d1": 0.0, "d2": 0.0}) == 3


def test_sidecar_round_trips(tmp_path):
    cfg = {"j1": 1.5, "j2": 1.5, "amplitude": 0.7, "winding": 2, "grid": 9}
    assert run(tmp_path, "gate", cfg) == 0
    payload = json.loads((tmp_path / "out.config.json").read_text())
    loaded = config_from_payload(payload)
    assert loaded == config_from_payload(config_payload(loaded))
    assert loaded.j1 == 1.5 and loaded.winding == 2 and loaded.grid == 9
    assert loaded.command == "gate"
    assert loaded.out == str(tmp_path / "out")


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


def test_sweep_noise_nan_ratio_exits_3(tmp_path, capsys):
    assert run(tmp_path, "sweep-noise", {"ratios2": [10.0, math.nan]}) == 3
    assert "ratio2" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_dm_nan_ratio_exits_3(tmp_path, capsys):
    assert run(tmp_path, "sweep-dm", {"d1_ratios": [math.nan]}) == 3
    assert "d1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["gate", "sweep-dm", "sweep-noise", "sweep-dephasing"])
@pytest.mark.parametrize("key, value", [("j1", math.nan), ("d1", math.inf)])
def test_non_finite_coupling_exits_3(tmp_path, capsys, command, key, value):
    assert run(tmp_path, command, {key: value}) == 3
    assert f"coupling {key} must be finite" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "command, flag",
    [
        ("gate", "--grid"),
        ("gate", "--steps"),
        ("sweep-theta", "--steps"),
        ("sweep-dm", "--grid"),
        ("sweep-noise", "--grid"),
        ("sweep-dephasing", "--steps"),
        ("classify", "--grid"),
    ],
)
def test_flag_only_where_it_acts(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, extra=[flag, "3"])
    assert exc.value.code == 2
    assert list(tmp_path.glob("out*")) == []


def test_steps_flag_sets_sweep_noise_steps(tmp_path):
    cfg = {"ratios1": [20.0], "ratios2": [30.0]}
    assert run(tmp_path, "sweep-noise", cfg, extra=["--steps", "3"]) == 0
    assert json.loads((tmp_path / "out.config.json").read_text())["steps"] == 3
