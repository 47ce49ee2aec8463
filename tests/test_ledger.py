"""The CLI's default outputs against the 30-digit references of
``ledger.json`` (written by ``make_ledger.py``).

Each bound pins the current worst error of one output.  A change may lower
an error; raising one is a documented change of accuracy, made together
with the bound.
"""

import csv
import json
from pathlib import Path

import pytest

from spinholonomy.cli import RunConfig, main

LEDGER = json.loads((Path(__file__).resolve().parent / "ledger.json").read_text())

#: Worst absolute error per output: the measured 4.4e-16 (gate), 7.2e-16
#: (sweep-dm), 4.7e-16 (sweep-noise), 7.1e-16 (sweep-dephasing at N = 1,
#: both cases) and 1.6e-16 (at N = 2, both cases) plus one ulp of 1.0,
#: since numpy's vectorized sin and cos and another CPU's LAPACK may round
#: differently.
PINNED = {
    "gate": 4.4e-16 + 2.3e-16,
    "sweep_dm": 7.2e-16 + 2.3e-16,
    "sweep_noise": 4.7e-16 + 2.3e-16,
    "sweep_dephasing": 7.1e-16 + 2.3e-16,
    "sweep_dephasing_n2": 1.6e-16 + 2.3e-16,
}

#: Worst absolute error per ``sweep-theta`` column, measured, with the same
#: one-ulp allowance for another CPU's LAPACK.  The references of ``g1_im``
#: and ``c3`` are 0, and ``c1`` and ``c2`` share the reference 2 theta.
THETA_PINNED = {
    "ep": 2.4e-16 + 2.3e-16,
    "g1_re": 1.1e-15 + 2.3e-16,
    "g1_im": 0.0 + 2.3e-16,
    "g2": 3.0e-15 + 2.3e-16,
    "c1": 2.7e-16 + 2.3e-16,
    "c2": 4.8e-16 + 2.3e-16,
    "c3": 2.3e-16 + 2.3e-16,
}


def _worst(mpmath, got, want) -> float:
    return max(float(abs(mpmath.mpf(g) - mpmath.mpf(w))) for g, w in zip(got, want))


def test_default_gate_against_ledger(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    assert main(["gate", "--out", str(tmp_path / "gate")]) == 0
    payload = json.loads((tmp_path / "gate.json").read_text())
    ref = LEDGER["gate"]
    couplings = payload["couplings"]
    assert [couplings[k] for k in ("j1", "j2", "d1", "d2")] == ref["couplings"]
    assert payload["pulse"]["area"] == ref["area"]
    with mpmath.workdps(LEDGER["digits"]):
        err = max(
            _worst(mpmath, sum(payload["gate"][part], []), sum(ref[part], []))
            for part in ("re", "im")
        )
    print(f"default gate: worst error {err:.2e} against the 30-digit reference")
    assert err <= PINNED["gate"]


def test_default_sweep_dm_against_ledger(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    assert main(["sweep-dm", "--out", str(tmp_path / "dm")]) == 0
    rows = list(csv.reader((tmp_path / "dm.csv").read_text().splitlines()))[1:]
    ref = LEDGER["sweep_dm"]
    cfg = RunConfig(command="sweep-dm")
    assert ref["j"] == [cfg.j1, cfg.j2]
    want_axes = [(d1, d2) for d1 in ref["d1"] for d2 in ref["d2"]]
    assert [(float(d1), float(d2)) for d1, d2, _ in rows] == want_axes
    with mpmath.workdps(LEDGER["digits"]):
        err = _worst(mpmath, [f for _, _, f in rows], sum(ref["fidelity"], []))
    print(f"default sweep-dm: worst error {err:.2e} against the 30-digit reference")
    assert err <= PINNED["sweep_dm"]


def test_default_sweep_theta_against_ledger(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    assert main(["sweep-theta", "--out", str(tmp_path / "theta")]) == 0
    lines = (tmp_path / "theta.csv").read_text().splitlines()
    header, *rows = list(csv.reader(lines))
    ref = LEDGER["sweep_theta"]
    assert [float(row[0]) for row in rows] == ref["theta"]
    zero = ["0"] * len(rows)
    want = {
        "ep": ref["ep"], "g1_re": ref["g1"], "g1_im": zero, "g2": ref["g2"],
        "c1": ref["c"], "c2": ref["c"], "c3": zero,
    }
    with mpmath.workdps(LEDGER["digits"]):
        err = {
            name: _worst(mpmath, [row[header.index(name)] for row in rows], values)
            for name, values in want.items()
        }
    print("default sweep-theta: worst errors " + ", ".join(f"{k} {v:.2e}" for k, v in err.items()))
    for name, bound in THETA_PINNED.items():
        assert err[name] <= bound, name


def test_default_sweep_noise_against_ledger(tmp_path):
    # The default grid is one square step of the whole pulse per point; the
    # reference exponentiates the block-form generator of each point.
    mpmath = pytest.importorskip("mpmath")
    assert main(["sweep-noise", "--out", str(tmp_path / "noise")]) == 0
    rows = list(csv.reader((tmp_path / "noise.csv").read_text().splitlines()))[1:]
    ref = LEDGER["sweep_noise"]
    cfg = RunConfig(command="sweep-noise")
    c = cfg.couplings()
    assert ref["couplings"] == [c.j1, c.j2, c.d1, c.d2]
    want_axes = [(r1, r2) for r1 in ref["ratios1"] for r2 in ref["ratios2"]]
    assert [(float(r1), float(r2)) for r1, r2, _ in rows] == want_axes
    with mpmath.workdps(LEDGER["digits"]):
        err = _worst(mpmath, [f for _, _, f in rows], sum(ref["fidelity"], []))
    print(f"default sweep-noise: worst error {err:.2e} against the 30-digit reference")
    assert err <= PINNED["sweep_noise"]


def _sweep_dephasing_error(mpmath, tmp_path, key: str, case: int) -> float:
    """Worst error of the ``sweep-dephasing`` run of ledger slice ``key``
    against coupling case ``case``.  The command reads no couplings: F
    depends on N and lambda alone, so one run answers every case."""
    ref = LEDGER[key]
    config = {"nuclei_per_electron": ref["nuclei_per_electron"], "lambdas": ref["lambdas"]}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "dep"
    assert main(["sweep-dephasing", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    rows = list(csv.reader((tmp_path / "dep.csv").read_text().splitlines()))[1:]
    assert [float(lam) for lam, _ in rows] == ref["lambdas"]
    with mpmath.workdps(LEDGER["digits"]):
        err = _worst(mpmath, [f for _, f in rows], ref["cases"][case]["fidelity"])
    couplings = ref["cases"][case]["couplings"]
    print(f"sweep-dephasing {config}: worst error {err:.2e} against the reference at {couplings}")
    return err


@pytest.mark.parametrize("case", range(len(LEDGER["sweep_dephasing"]["cases"])))
def test_sweep_dephasing_against_ledger(tmp_path, case):
    mpmath = pytest.importorskip("mpmath")
    assert LEDGER["sweep_dephasing"]["lambdas"] == list(RunConfig.lambdas)
    assert _sweep_dephasing_error(mpmath, tmp_path, "sweep_dephasing", case) <= PINNED["sweep_dephasing"]


@pytest.mark.parametrize("case", range(len(LEDGER["sweep_dephasing_n2"]["cases"])))
def test_sweep_dephasing_n2_against_ledger(tmp_path, case):
    # N = 2 at lambda 1 and 10: the first N with triples of unequal j.
    mpmath = pytest.importorskip("mpmath")
    err = _sweep_dephasing_error(mpmath, tmp_path, "sweep_dephasing_n2", case)
    assert err <= PINNED["sweep_dephasing_n2"]
