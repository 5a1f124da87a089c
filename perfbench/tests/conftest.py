"""Put the benchmark's modules and the program's sources on the path; a
small simulation run the tests share."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))


@pytest.fixture(scope="session")
def small_run():
    """A small distributed run: schedulers, estimators and kernel all exercised."""
    from repro.experiments.cases import CASES
    from repro.experiments.config import PROFILES
    from repro.experiments.runner import run_simulation

    config = CASES[1].config_for("LOWEST", 1, PROFILES["ci"], seed=11)
    return config, run_simulation(config)
