"""Tests of the benchmark itself (not part of the package's Tier-1 suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spinholonomy import noise, propagation  # noqa: E402

# One cheap call per workload for the output-bytes test.
CHEAP_CALL = {
    "dm-grid": lambda spec: 0,
    "stepped-noise": lambda spec: next(
        i for i, c in enumerate(spec["calls"]) if c["shape"] == "square"
    ),
    "dephasing": lambda spec: next(
        i for i, c in enumerate(spec["calls"]) if len(c["lambdas"]) == 1
    ),
    "cli-report": lambda spec: spec["commands"].index("gate0"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.generate(name, 11), workloads.generate(name, 11)
    assert a == b
    assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    assert workloads.generate(name, 11) != workloads.generate(name, 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_output_bytes(name, tmp_path):
    outputs = []
    for _ in range(2):
        spec = workloads.generate(name, 5)
        index = CHEAP_CALL[name](spec)
        result = workloads.build(name, spec, tmp_path)[index]()
        if name == "cli-report":
            assert result.code == 0
            assert set(result.outputs()) == {"gate0.json", "gate0.config.json"}
        outputs.append(workloads.fingerprint(result))
    assert outputs[0] == outputs[1]


def test_cli_fingerprint_covers_the_files_written(tmp_path):
    spec = workloads.generate("cli-report", 5)
    calls = workloads.build("cli-report", spec, tmp_path)
    result = calls[spec["commands"].index("gate1")]()
    before = workloads.fingerprint(result)
    calls[spec["commands"].index("gate10")]()  # a file name that extends gate1's
    assert workloads.fingerprint(result) == before
    (tmp_path / "out" / "gate1.json").write_text("{}", encoding="utf-8")
    assert workloads.fingerprint(result) != before


def test_self_time_subtracts_overlapping_children_once():
    # parent [0, 10]; children from two pool threads overlap on [2, 4];
    # the second child has a grandchild [3, 5].
    spans = [
        (0, "parent", 0.0, 10.0, None, None),
        (1, "child", 1.0, 4.0, 0, None),
        (2, "child", 2.0, 6.0, 0, None),
        (3, "grandchild", 3.0, 5.0, 2, None),
        (4, "child", 8.0, 9.0, 0, None),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)


def test_pool_thread_spans_attach_to_the_waiting_span():
    tracer = tracing.Tracer()
    child = tracer.wrap(time.sleep, "child")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(child, [0.05, 0.05]))

    tracer.wrap(fan_out, "parent")()
    spans = tracer.take()
    (parent,) = [s for s in spans if s[1] == "parent"]
    children = [s for s in spans if s[1] == "child"]
    assert len(children) == 2 and all(s[4] == parent[0] for s in children)
    union = tracing.covered(parent[2], parent[3], [(s[2], s[3]) for s in children])
    assert union < sum(s[3] - s[2] for s in children)
    assert tracing.self_times(spans)[parent[0]] == pytest.approx(parent[3] - parent[2] - union)


def test_installed_tracer_times_package_calls_and_restores_them():
    originals = (noise.build_hamiltonians, noise.process_fidelity, propagation.pulse_area)
    pulse = propagation.solve_cyclic(2**-0.5, 1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        noise.dm_sweep(1.0, 1.0, [1.0, 2.0], [1.0, 3.0], pulse)
    finally:
        tracer.uninstall()
    assert (noise.build_hamiltonians, noise.process_fidelity, propagation.pulse_area) == originals
    spans = tracer.take()
    (sweep,) = [s for s in spans if s[1] == "noise.sweep"]
    per_point = [s for s in spans if s[1] == "spin_chain.build_hamiltonians"]
    assert len(per_point) == 4 and all(s[4] == sweep[0] for s in per_point)
    figures = tracing.layer_metrics(spans)
    assert figures["noise.process_fidelity.calls"] == 4
    assert figures["propagation.pulse_area.calls"] >= 1


def test_every_per_layer_metric_is_reported_and_zero_when_unreached():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    added_by_run = {"noise.max_fidelity_err", "proc.cpu_s", "proc.cpu_per_wall", "trace.overhead_frac"}
    figures = tracing.layer_metrics([])
    assert set(figures) == declared - added_by_run
    assert all(v == 0 for v in figures.values())


@pytest.mark.parametrize(
    "n, rank",
    [(1, 1), (2, 2), (3, 2), (5, 3), (10, 6), (20, 11), (21, 11), (22, 12), (100, 90), (1000, 990)],
)
def test_tail_rank_rule(n, rank):
    assert run.tail_rank(n) == rank


def test_tail_has_ten_calls_beyond_it_or_sits_at_the_upper_median():
    for n in range(1, 60):
        values = list(range(n, 0, -1))
        value, percentile, count = run.tail(values)
        beyond = sum(v > value for v in values)
        assert count == n
        assert percentile == pytest.approx(100.0 * run.tail_rank(n) / n)
        if n >= 21:
            assert beyond == 10
        else:
            assert beyond == n - (n // 2 + 1)
    with pytest.raises(ValueError):
        run.tail([])
