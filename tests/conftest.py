import os
from pathlib import Path

import pytest
from hypothesis import settings

from tclgrid.grid_model import default_grid, one_norm
from tclgrid.scenario import load_scenario_file

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_SCENARIO = REPO_ROOT / "scenarios" / "paper-vi-desk.yaml"

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# failure in CI reproduces locally under the same profile
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def shipped_file():
    return load_scenario_file(SHIPPED_SCENARIO)


@pytest.fixture(scope="session")
def default_l_hat():
    return one_norm(default_grid()).value
