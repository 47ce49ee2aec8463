"""Seeded inputs, timed calls and correctness references of the workloads.

Each workload has three parts:

* ``generate(seed)`` draws the inputs as plain data (numbers, lists,
  strings), so the same seed gives equal inputs and the program sees only
  the generated values;
* ``build(spec, workdir)`` turns them into zero-argument calls, one per
  top-level call of a study.  This is set-up: pulses are calibrated and the
  CLI's config and matrix files are written here;
* ``check(spec, results, workdir)`` recomputes sampled outputs by an
  independent route, outside the timed region, and returns the indices of
  the calls that failed together with the largest fidelity error seen.

Timed calls look their spinholonomy function up on the module object when
they run (``noise.dm_sweep``), so the traced run's wrappers are used.  The
references run after the tracer has put the originals back.

The amount of work per study does not depend on the seed: grid sizes, call
counts and the multiset of dephasing sweep sizes are fixed, and only the
values and their order are drawn.  That keeps the spread across seeds down
to the machine's own run-to-run noise.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from functools import partial, reduce
from pathlib import Path

import numpy as np

from spinholonomy import cli, noise, propagation
from spinholonomy.gates import analytic_entangler, extract_register_gate
from spinholonomy.invariants import gate_metrics
from spinholonomy.linalg import expm_hermitian
from spinholonomy.propagation import pulse_area, solve_cyclic
from spinholonomy.spin_chain import (
    ExchangeCouplings,
    build_hamiltonians,
    couplings_to_polar,
)

#: Agreement required between a program fidelity and its reference.
FIDELITY_TOL = 1e-9
#: Largest Kraus completeness defect accepted from ``hyperfine_channel``.
COMPLETENESS_TOL = 1e-9
#: The shipped default step count of the time-ordered sweeps.
STEPS = 200

DM_CALLS = 6
DM_GRID = 15
NOISE_SHAPES = ("square", "gaussian", "tabulated")
NOISE_GRID = 10
# Half the calls have two points, so the median and tail calls fall inside
# that group whatever the seeded order.
DEPHASING_SIZES = (1, 2, 2, 3)
#: Stratum edges of lambda, one stratum per point of a dephasing study.
DEPHASING_STRATA = tuple(float(x) for x in np.geomspace(1.0, 20.0, sum(DEPHASING_SIZES) + 1))
NUCLEI = 2
# Unequal counts keep the median call inside the gate group, not on the
# boundary between gate and classify latencies.
CLI_GATES = 24
CLI_MATRICES = 8
THETA_GRID = 1001
THETA_HEADER = ["theta", "ep", "g1_re", "g1_im", "g2", "c1", "c2", "c3", "class"]
GRID_HEADERS = {
    "dm": ["d1", "d2", "fidelity"],
    "noise": ["ratio1", "ratio2", "fidelity"],
}


def _uniform(rng, lo, hi, size=None):
    if size is None:
        return float(rng.uniform(lo, hi))
    return [float(x) for x in rng.uniform(lo, hi, size)]


def _couplings(rng, min_omega: float = 0.3) -> dict:
    while True:
        c = dict(zip(("j1", "j2", "d1", "d2"), _uniform(rng, -2.0, 2.0, 4)))
        if couplings_to_polar(ExchangeCouplings(**c)).omega >= min_omega:
            return c


def _fidelity(target: np.ndarray, block: np.ndarray) -> float:
    return float(abs(np.vdot(target, block)) ** 2 / 16.0)


def _target(c: ExchangeCouplings) -> np.ndarray:
    polar = couplings_to_polar(c)
    return analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix


def _cyclic_area(c: ExchangeCouplings, winding: int) -> float:
    return (2 * winding + 1) * math.pi / couplings_to_polar(c).omega


# --------------------------------------------------------------------- dm-grid


def _dm_generate(rng) -> dict:
    calls = []
    for _ in range(DM_CALLS):
        calls.append(
            {
                "j": _uniform(rng, 0.5, 2.0),
                "amplitude": _uniform(rng, 0.5, 2.0),
                "winding": int(rng.integers(0, 3)),
                "d1_ratios": sorted(_uniform(rng, 0.5, 20.0, DM_GRID)),
                "d2_ratios": sorted(_uniform(rng, 0.5, 20.0, DM_GRID)),
                "probes": rng.integers(0, DM_GRID, (3, 2)).tolist(),
            }
        )
    return {"calls": calls}


def _dm_sweep(j, d1_ratios, d2_ratios, pulse):
    return noise.dm_sweep(j, j, d1_ratios, d2_ratios, pulse)


def _dm_build(spec, workdir):
    calls = []
    for c in spec["calls"]:
        omega = couplings_to_polar(ExchangeCouplings(c["j"], c["j"])).omega
        pulse = propagation.solve_cyclic(omega, c["amplitude"], c["winding"])
        calls.append(partial(_dm_sweep, c["j"], c["d1_ratios"], c["d2_ratios"], pulse))
    return calls


def _dm_check(spec, results, workdir):
    """Sampled points recomputed as ``expm_hermitian(h_eff, area)``."""
    bad, worst = set(), 0.0
    for index, (c, table) in enumerate(zip(spec["calls"], results)):
        if table is None:
            bad.add(index)
            continue
        j = c["j"]
        xy = ExchangeCouplings(j, j)
        area = _cyclic_area(xy, c["winding"])
        target = _target(xy)
        scale = math.hypot(j, j)
        for p, q in c["probes"]:
            dm = ExchangeCouplings(
                j, j, scale / c["d1_ratios"][p], scale / c["d2_ratios"][q]
            )
            u = expm_hermitian(build_hamiltonians(dm).h_eff, area)
            err = abs(_fidelity(target, u[:4, :4]) - float(table.fidelity[p, q]))
            worst = max(worst, err)
            if not err <= FIDELITY_TOL:
                bad.add(index)
    return bad, worst


# --------------------------------------------------------------- stepped-noise


def _noise_ratios(rng) -> list:
    signs = rng.choice((-1.0, 1.0), NOISE_GRID - 1)
    return [math.inf] + [float(s * m) for s, m in zip(signs, rng.uniform(5.0, 100.0, NOISE_GRID - 1))]


def _noise_generate(rng) -> dict:
    calls = []
    for shape in NOISE_SHAPES:
        duration = _uniform(rng, 1.0, 3.0)
        calls.append(
            {
                "shape": shape,
                "couplings": _couplings(rng),
                "duration": duration,
                "winding": int(rng.integers(0, 2)),
                "samples": [
                    [float(t), v]
                    for t, v in zip(np.linspace(0.0, duration, 7), _uniform(rng, 0.2, 1.0, 7))
                ],
                "ratios1": _noise_ratios(rng),
                "ratios2": _noise_ratios(rng),
                "probes": [[0, 0]] + rng.integers(0, NOISE_GRID, (2, 2)).tolist(),
            }
        )
    return {"calls": calls}


def _noise_pulse(c):
    """The call's envelope, scaled to the cyclic area of its couplings."""
    couplings = ExchangeCouplings(**c["couplings"])
    if c["shape"] == "square":
        base = propagation.square_pulse(1.0, c["duration"])
    elif c["shape"] == "gaussian":
        base = propagation.gaussian_pulse(1.0, c["duration"])
    else:
        base = propagation.tabulated_pulse(c["samples"])
    return propagation.scaled_to_area(base, _cyclic_area(couplings, c["winding"]))


def _amplitude_sweep(couplings, ratios1, ratios2, pulse):
    return noise.amplitude_noise_sweep(couplings, ratios1, ratios2, pulse)


def _noise_build(spec, workdir):
    return [
        partial(
            _amplitude_sweep,
            ExchangeCouplings(**c["couplings"]),
            c["ratios1"],
            c["ratios2"],
            _noise_pulse(c),
        )
        for c in spec["calls"]
    ]


def _stepped_reference(c, pulse, r1: float, r2: float) -> float:
    """Fidelity from a plain step-by-step product, one exponential a step."""
    k = c["couplings"]
    h1 = build_hamiltonians(ExchangeCouplings(k["j1"], 0.0, k["d1"], 0.0)).h_eff
    h2 = build_hamiltonians(ExchangeCouplings(0.0, k["j2"], 0.0, k["d2"])).h_eff
    delta1 = 0.0 if math.isinf(r1) else pulse.amplitude / r1
    delta2 = 0.0 if math.isinf(r2) else pulse.amplitude / r2
    dt = pulse.duration / STEPS
    u = np.eye(8, dtype=np.complex128)
    for i in range(STEPS):
        e = pulse.envelope((i + 0.5) * dt)
        u = expm_hermitian((e + delta1) * h1 + (e + delta2) * h2, dt) @ u
    return _fidelity(_target(ExchangeCouplings(**k)), u[:4, :4])


def _noise_check(spec, results, workdir):
    """Sampled points against a step-by-step product; the square pulse's
    no-offset corner must give fidelity 1."""
    bad, worst = set(), 0.0
    for index, (c, table) in enumerate(zip(spec["calls"], results)):
        if table is None:
            bad.add(index)
            continue
        pulse = _noise_pulse(c)
        for p, q in c["probes"]:
            ref = _stepped_reference(c, pulse, c["ratios1"][p], c["ratios2"][q])
            err = abs(ref - float(table.fidelity[p, q]))
            worst = max(worst, err)
            if not err <= FIDELITY_TOL:
                bad.add(index)
        if c["shape"] == "square" and not abs(float(table.fidelity[0, 0]) - 1.0) <= FIDELITY_TOL:
            bad.add(index)
    return bad, worst


# ------------------------------------------------------------------- dephasing


def _dephasing_generate(rng) -> dict:
    # The cost of the 512-dimensional eigh depends on lambda (a weak bath
    # leaves near-degenerate clusters that deflate), so every seed draws one
    # lambda from each of the same log-spaced strata over [1, 20].
    strata = len(DEPHASING_STRATA) - 1
    lambdas = [
        math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        for lo, hi, u in zip(DEPHASING_STRATA, DEPHASING_STRATA[1:], rng.uniform(0, 1, strata))
    ]
    lambdas = [lambdas[i] for i in rng.permutation(strata)]
    calls = []
    for size in rng.permutation(DEPHASING_SIZES):
        scale = _uniform(rng, 0.5, 2.0)
        phi1, phi2 = _uniform(rng, -0.5, 0.5, 2)
        calls.append(
            {
                "couplings": {
                    "j1": scale * math.cos(phi1),
                    "j2": scale * math.cos(phi2),
                    "d1": scale * math.sin(phi1),
                    "d2": scale * math.sin(phi2),
                },
                "op_time": _uniform(rng, 0.5, 2.0),
                "lambdas": sorted(lambdas[:size]),
                "probe": int(rng.integers(0, size)),
            }
        )
        lambdas = lambdas[size:]
    return {"calls": calls}


def _dephasing_sweep(bath, lambdas, couplings):
    return noise.dephasing_sweep(bath, lambdas, couplings)


def _dephasing_build(spec, workdir):
    return [
        partial(
            _dephasing_sweep,
            noise.HyperfineBath(
                total_coupling=0.0, op_time=c["op_time"], nuclei_per_electron=NUCLEI
            ),
            c["lambdas"],
            ExchangeCouplings(**c["couplings"]),
        )
        for c in spec["calls"]
    ]


def hyperfine_unit(n: int) -> np.ndarray:
    """Contact term ``sum_{l,k} (1/n) S^(l) . I^(l,k)`` at total coupling 1.

    Built here from 2x2 factors, independently of the program's own code.
    Sites 0..2 are the chain (ancilla first), site ``3 + l*n + k`` is
    nucleus ``k`` of electron ``l``.
    """
    eye = np.eye(2, dtype=np.complex128)
    spin = (
        np.array([[0, 1], [1, 0]], dtype=np.complex128) / 2,
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128) / 2,
        np.array([[1, 0], [0, -1]], dtype=np.complex128) / 2,
    )
    sites = 3 + 3 * n
    total = np.zeros((2**sites, 2**sites), dtype=np.complex128)
    for l in range(3):
        for k in range(n):
            for op in spin:
                factors = [eye] * sites
                factors[l] = factors[3 + l * n + k] = op
                total += reduce(np.kron, factors) / n
    return total


def _dephasing_reference(c, lam: float, h_unit: np.ndarray) -> float:
    """Fidelity from one exponential of the full chain-plus-bath generator.

    The calibrated square pulse and the static bath make the generator
    constant over the gate, ``amp * H0 (x) 1 + A * H_hf`` for ``op_time``.
    """
    couplings = ExchangeCouplings(**c["couplings"])
    tau = c["op_time"]
    dim_b = 2 ** (3 * NUCLEI)
    amplitude = math.pi / (tau * couplings_to_polar(couplings).omega)
    a_total = NUCLEI / (lam * tau)
    h0 = build_hamiltonians(couplings).h_eff
    generator = amplitude * np.kron(h0, np.eye(dim_b)) + a_total * h_unit
    u4 = expm_hermitian(generator, tau).reshape(8, dim_b, 8, dim_b)[:4, :, :4, :]
    overlaps = np.einsum("sp,sjpi->ji", _target(couplings).conj(), u4)
    return float(np.sum(np.abs(overlaps) ** 2) / (16.0 * dim_b))


def _dephasing_check(spec, results, workdir):
    """Sampled lambdas against one exponential of the 512 generator, plus
    the Kraus completeness of ``hyperfine_channel`` at the first of them."""
    bad, worst = set(), 0.0
    h_unit = hyperfine_unit(NUCLEI)
    for index, (c, table) in enumerate(zip(spec["calls"], results)):
        if table is None:
            bad.add(index)
            continue
        lam = c["lambdas"][c["probe"]]
        err = abs(_dephasing_reference(c, lam, h_unit) - float(table.fidelity[c["probe"]]))
        worst = max(worst, err)
        if not err <= FIDELITY_TOL:
            bad.add(index)
    c = spec["calls"][0]
    bath = noise.HyperfineBath.from_ratio(c["lambdas"][c["probe"]], c["op_time"], NUCLEI)
    channel = noise.hyperfine_channel(bath, ExchangeCouplings(**c["couplings"]))
    if not channel.completeness_defect() <= COMPLETENESS_TOL:
        bad.add(0)
    return bad, worst


# ------------------------------------------------------------------ cli-report


def _haar_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cli_generate(rng) -> dict:
    gates = [
        dict(_couplings(rng), amplitude=_uniform(rng, 0.5, 2.0), winding=int(rng.integers(0, 3)))
        for _ in range(CLI_GATES)
    ]
    matrices = [
        [[[float(z.real), float(z.imag)] for z in row] for row in _haar_unitary(rng)]
        for _ in range(CLI_MATRICES)
    ]
    j = _uniform(rng, 0.5, 2.0)
    dm = {
        "j1": j,
        "j2": j,
        "amplitude": _uniform(rng, 0.5, 2.0),
        "winding": 0,
        "d1_ratios": sorted(_uniform(rng, 0.5, 20.0, DM_GRID)),
        "d2_ratios": sorted(_uniform(rng, 0.5, 20.0, DM_GRID)),
    }
    sweep_noise = dict(
        _couplings(rng),
        amplitude=_uniform(rng, 0.5, 2.0),
        winding=0,
        ratios1=_uniform(rng, 5.0, 100.0, NOISE_GRID),
        ratios2=_uniform(rng, 5.0, 100.0, NOISE_GRID),
    )
    commands = (
        [f"gate{i}" for i in range(CLI_GATES)]
        + [f"classify{i}" for i in range(CLI_MATRICES)]
        + ["theta-csv", "theta-json", "theta-svg", "dm-svg", "noise-json"]
    )
    return {
        "gates": gates,
        "matrices": matrices,
        "dm": dm,
        "noise": sweep_noise,
        "commands": [commands[i] for i in rng.permutation(len(commands))],
        "theta_rows": sorted(rng.choice(THETA_GRID, 5, replace=False).tolist()),
    }


def _cli_matrix(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _cli_argv(command: str, workdir: Path) -> list[str]:
    inputs, out = workdir / "in", str(workdir / "out" / command)
    if command.startswith("gate"):
        return ["gate", "--config", str(inputs / f"{command}.json"), "--out", out]
    if command.startswith("classify"):
        return ["classify", str(inputs / f"{command}.txt"), "--out", out]
    kind, fmt = command.split("-")
    if kind == "theta":
        return ["sweep-theta", "--grid", str(THETA_GRID), "--format", fmt, "--out", out]
    sub = {"dm": "sweep-dm", "noise": "sweep-noise"}[kind]
    return [sub, "--config", str(inputs / f"{kind}.json"), "--format", fmt, "--out", out]


class CliRun:
    """Exit code of one CLI command and the stem of the files it writes."""

    def __init__(self, code: int, out: Path):
        self.code = code
        self.out = out

    def outputs(self) -> dict:
        """Bytes of every file the command wrote (``<stem>.*``), by name."""
        return {p.name: p.read_bytes() for p in sorted(self.out.parent.glob(self.out.name + ".*"))}


def run_cli(argv: list[str]) -> CliRun:
    """``spinholonomy.cli.main(argv)`` with its report lines captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return CliRun(code, Path(argv[argv.index("--out") + 1]))


def _cli_build(spec, workdir):
    inputs = workdir / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for i, g in enumerate(spec["gates"]):
        (inputs / f"gate{i}.json").write_text(json.dumps(g), encoding="utf-8")
    for i, m in enumerate(spec["matrices"]):
        lines = [
            " ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row)
            for row in _cli_matrix(m)
        ]
        (inputs / f"classify{i}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (inputs / "dm.json").write_text(json.dumps(spec["dm"]), encoding="utf-8")
    (inputs / "noise.json").write_text(json.dumps(spec["noise"]), encoding="utf-8")
    return [partial(run_cli, _cli_argv(command, workdir)) for command in spec["commands"]]


def _metrics_match(payload: dict, u: np.ndarray) -> bool:
    m = gate_metrics(u)
    return payload == {
        "g1_re": m.g1.real,
        "g1_im": m.g1.imag,
        "g2": m.g2,
        "weyl": list(m.weyl),
        "ep": m.ep,
        "class": m.entangler_class,
    }


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    return rows[0], rows[1:]


def _gate_ok(g: dict, out: Path) -> bool:
    payload = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    couplings = ExchangeCouplings(g["j1"], g["j2"], g["d1"], g["d2"])
    pulse = solve_cyclic(couplings_to_polar(couplings).omega, g["amplitude"], g["winding"])
    area = pulse_area(pulse, pulse.duration)
    gate = extract_register_gate(
        propagation.propagator_closed_form(build_hamiltonians(couplings), area)
    )
    grid = payload["gate"]
    matrix = np.array(
        [[complex(float(re), float(im)) for re, im in zip(*rows)] for rows in zip(grid["re"], grid["im"])]
    )
    return (
        np.array_equal(matrix, gate.matrix)
        and payload["leakage"] == gate.leakage
        and _metrics_match(payload["metrics"], gate.matrix)
    )


def _theta_ok(spec, command: str, out: Path) -> bool:
    header, rows = _read_csv(out.with_suffix(".csv"))
    if header != THETA_HEADER or len(rows) != THETA_GRID:
        return False
    thetas = np.linspace(0.0, math.pi / 4, THETA_GRID)
    for k in spec["theta_rows"]:
        m = gate_metrics(analytic_entangler(float(thetas[k])).matrix)
        expected = [float(thetas[k]), m.ep, m.g1.real, m.g1.imag, m.g2, *m.weyl]
        if [float(v) for v in rows[k][:-1]] != expected or rows[k][-1] != m.entangler_class:
            return False
    if command.endswith("json"):
        records = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        return len(records) == THETA_GRID and all(
            [float(v) for v in rows[k][:-1]] == [records[k][h] for h in THETA_HEADER[:-1]]
            for k in spec["theta_rows"]
        )
    if command.endswith("svg"):
        return out.with_suffix(".svg").read_text(encoding="utf-8").startswith("<svg")
    return True


def _grid_error(kind: str, out: Path, table) -> float:
    """Largest difference between a CLI grid report and the library table;
    ``inf`` when the header or the shape is wrong."""
    header, rows = _read_csv(out.with_suffix(".csv"))
    expected = list(table.rows())
    if header != GRID_HEADERS[kind] or len(rows) != len(expected):
        return math.inf
    return max(
        abs(float(row[2]) - want[2])
        if [float(row[0]), float(row[1])] == list(want[:2])
        else math.inf
        for row, want in zip(rows, expected)
    )


def _cli_check(spec, results, workdir):
    """Exit codes, fixed CSV headers, values equal to the library's, and a
    byte-identical config sidecar when a command is rerun."""
    bad, worst = set(), 0.0
    dm, sn = spec["dm"], spec["noise"]
    for index, (command, run) in enumerate(zip(spec["commands"], results)):
        out = workdir / "out" / command
        if run is None or run.code != 0:
            bad.add(index)
        elif command.startswith("gate"):
            if not _gate_ok(spec["gates"][int(command[4:])], out):
                bad.add(index)
        elif command.startswith("classify"):
            payload = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            if not _metrics_match(payload["metrics"], _cli_matrix(spec["matrices"][int(command[8:])])):
                bad.add(index)
        elif command.startswith("theta"):
            if not _theta_ok(spec, command, out):
                bad.add(index)
        elif command == "dm-svg":
            omega = couplings_to_polar(ExchangeCouplings(dm["j1"], dm["j2"])).omega
            table = noise.dm_sweep(
                dm["j1"], dm["j2"], dm["d1_ratios"], dm["d2_ratios"],
                solve_cyclic(omega, dm["amplitude"], dm["winding"]),
            )
            err = _grid_error("dm", out, table)
            worst = max(worst, err)
            if err != 0.0 or not out.with_suffix(".svg").is_file():
                bad.add(index)
        else:
            couplings = ExchangeCouplings(sn["j1"], sn["j2"], sn["d1"], sn["d2"])
            pulse = solve_cyclic(couplings_to_polar(couplings).omega, sn["amplitude"], sn["winding"])
            table = noise.amplitude_noise_sweep(couplings, sn["ratios1"], sn["ratios2"], pulse)
            err = _grid_error("noise", out, table)
            records = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            if [r["fidelity"] for r in records] != [row[2] for row in table.rows()]:
                err = math.inf
            worst = max(worst, err)
            if err != 0.0:
                bad.add(index)
    for command in ("gate0", "theta-csv"):
        index = spec["commands"].index(command)
        sidecar = workdir / "out" / f"{command}.config.json"
        before = sidecar.read_bytes()
        if run_cli(_cli_argv(command, workdir)).code != 0 or sidecar.read_bytes() != before:
            bad.add(index)
    return bad, worst


WORKLOADS = {
    "dm-grid": (_dm_generate, _dm_build, _dm_check),
    "stepped-noise": (_noise_generate, _noise_build, _noise_check),
    "dephasing": (_dephasing_generate, _dephasing_build, _dephasing_check),
    "cli-report": (_cli_generate, _cli_build, _cli_check),
}


def generate(name: str, seed: int) -> dict:
    """The workload's inputs for ``seed``, as plain data."""
    return WORKLOADS[name][0](np.random.default_rng(seed))


def build(name: str, spec: dict, workdir: Path) -> list:
    """Zero-argument calls of one study; writes input files under ``workdir``."""
    return WORKLOADS[name][1](spec, Path(workdir))


def check(name: str, spec: dict, results: list, workdir: Path) -> tuple[set, float]:
    """Indices of calls whose sampled outputs disagree with the reference
    (``None`` in ``results`` marks a call that raised) and the largest
    fidelity error seen."""
    return WORKLOADS[name][2](spec, results, Path(workdir))


def fingerprint(result) -> bytes:
    """Bytes that must repeat when a call is repeated on the same inputs:
    a sweep's fidelity grid, or a CLI command's exit code and a digest of
    every file it wrote.  Taken right after each study, before the next
    study overwrites the files."""
    if isinstance(result, CliRun):
        digest = hashlib.sha256()
        for name, data in result.outputs().items():
            digest.update(f"{name}:{len(data)}:".encode() + data)
        return f"{result.code}:".encode() + digest.digest()
    fidelity = getattr(result, "fidelity", None)
    if fidelity is not None:
        return np.asarray(fidelity).tobytes()
    return repr(result).encode()
