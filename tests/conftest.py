import pathlib

import pytest

from bigengine.bigraph import Control, Signature

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

try:
    from hypothesis import settings
except ImportError:              # the property tests skip themselves
    pass
else:
    # every run draws the same examples, so a property failure seen in CI
    # reproduces locally; no deadline, so a slow machine fails no test
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")


@pytest.fixture
def models_dir():
    return MODELS


@pytest.fixture
def building_sig():
    return Signature([
        Control("Building", 0),
        Control("Floor", 0),
        Control("Room", 0),
        Control("Camera", 0),
        Control("Adult", 0, atomic=True),
        Control("Child", 0, atomic=True),
        Control("Device", 1, atomic=True),
    ])


def model_source(name: str) -> str:
    return (MODELS / name).read_text(encoding="utf-8")
