"""The package imports and runs on numpy and the standard library alone."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import spinholonomy

# Runs in a fresh interpreter, where every scipy import is refused before
# spinholonomy is imported; exits non-zero on any failure.
NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import math
    import sys

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
    src = str(Path(spinholonomy.__file__).resolve().parents[1])
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
