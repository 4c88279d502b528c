import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

# Under CI (GitHub Actions sets it) every run draws the same examples, and a
# failure prints the blob that replays it; example counts stay as each test
# sets them. Recent hypothesis versions ship a similar profile; this one holds
# whatever the installed version.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

from voxgen import gen_tutorial_house, rasterize, semantic_map_from_world


@pytest.fixture(scope="session")
def tutorial_world():
    return gen_tutorial_house()


@pytest.fixture(scope="session")
def tutorial_map(tutorial_world):
    return semantic_map_from_world(tutorial_world)


@pytest.fixture(scope="session")
def tutorial_grid(tutorial_world):
    return rasterize(tutorial_world)
