"""Every example script must run end-to-end and produce its headline
output — examples are documentation, and documentation must not rot."""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "every read exact",
    "mysql_lock_study.py": "observer effect",
    "firefox_function_profile.py": "limit profiling overhead",
    "bottleneck_hunt.py": "top-down classification",
    "pipeline_scaling.py": "pipeline scaling",
    "observer_effect.py": "verdict:",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_MARKERS))
def test_example_runs(name, capsys):
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example {name} missing"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert EXPECTED_MARKERS[name] in out


def test_every_example_has_a_marker():
    """New examples must be registered here (and thereby smoke-tested)."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED_MARKERS)
