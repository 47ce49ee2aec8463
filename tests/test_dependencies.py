"""The package imports and runs on numpy and the standard library alone,
no path, import included, builds a Kronecker product, and only the
dephasing engine exponentiates."""

import ast
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import spinholonomy as sh
from spinholonomy.cli import main

# Runs in a fresh interpreter, where every scipy import and every
# numpy.kron call are refused before spinholonomy is imported; exits
# non-zero on any failure.
NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import math
    import sys

    import numpy

    def refuse_kron(*args, **kwargs):
        raise AssertionError("numpy.kron called")

    numpy.kron = refuse_kron

    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.startswith("scipy"):
                raise ImportError(f"import of {name} refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import spinholonomy as sh
    from spinholonomy.cli import main
    from spinholonomy.invariants import in_perfect_polyhedron
    from spinholonomy.propagation import cyclicity_defect

    assert main(["gate", "--out", "gate_run"]) == 0

    for pulse in (
        sh.gaussian_pulse(1.0, 3.0),
        sh.tabulated_pulse([(0.0, 0.2), (1.0, 1.0), (1.0, 0.6), (2.5, 0.4)]),
    ):
        cyclic = sh.scaled_to_area(pulse, 3 * math.pi)
        assert cyclicity_defect(cyclic, 1.0) <= 1e-12

    vertices = sh.WEYL_VERTICES
    # M lies off the canonical region (c1 > pi/2 on the base plane), so
    # its base-plane mirror Q is classified and M itself is tested for
    # polyhedron membership.
    assert sh.classify_entangler(vertices["L"]) == "perfect"
    assert sh.classify_entangler(vertices["Q"]) == "perfect"
    assert sh.classify_entangler(vertices["A2"]) == "special_perfect"
    assert in_perfect_polyhedron(vertices["M"])

    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert "scipy" not in sys.modules and not loaded, loaded
    """
)


def test_runs_without_scipy(tmp_path):
    src = str(Path(sh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "gate_run.json").exists()


def test_no_runtime_path_builds_a_kronecker_product(tmp_path, monkeypatch):
    # The import builds no Kronecker product either (NO_SCIPY_SCRIPT): the
    # chain operators are written on their stars, every chain propagator is
    # a star step and the bath works on multiplet blocks.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.kron called on a runtime path")

    monkeypatch.setattr(np, "kron", refuse)
    assert main(["gate", "--out", str(tmp_path / "gate")]) == 0
    pulse = sh.solve_cyclic(sh.couplings_to_polar(sh.ExchangeCouplings(1.0, 1.0)).omega, 1.0)
    assert sh.dm_sweep(1.0, 1.0, [2.0, 5.0], [3.0, 7.0], pulse).fidelity.shape == (2, 2)
    noise = sh.amplitude_noise_sweep(
        sh.ExchangeCouplings(1.0, 1.0), [10.0, 50.0], [20.0, math.inf], pulse, steps=20
    )
    assert noise.fidelity.shape == (2, 2)
    bath = sh.HyperfineBath(total_coupling=0.0, op_time=1.0, nuclei_per_electron=1)
    dephasing = sh.dephasing_sweep(bath, [5.0], sh.ExchangeCouplings(1.0, 1.0))
    assert dephasing.fidelity.shape == (1,)


def test_only_the_dephasing_engine_exponentiates():
    # Every chain propagator is a star step, so within src/ only noise
    # imports or names expm_hermitian (the package's __init__ re-exports
    # it), and the time-ordered product and the Weyl-to-invariant map live
    # in tests/helpers.py as oracles.
    users, defined = set(), set()
    for path in sorted(Path(sh.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            named = node.name if isinstance(node, ast.alias) else getattr(
                node, "id", getattr(node, "attr", None)
            )
            if named == "expm_hermitian" and path.stem != "__init__":
                users.add(path.stem)
    assert users == {"noise"}
    assert defined.isdisjoint({"propagator_time_ordered", "invariants_from_weyl"})
