"""Every published demo runs end to end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: The figure each plotting demo writes under ``demo_output/``.
FIGURES = {
    "amplitude_noise": "amplitude_noise.svg",
    "dm_robustness": "dm_robustness.svg",
    "entangling_power_curve": "entangling_power.svg",
    "hyperfine_dephasing": "hyperfine_dephasing.svg",
}


@pytest.mark.parametrize("name", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    if name in FIGURES:
        assert (tmp_path / "demo_output" / FIGURES[name]).is_file()
