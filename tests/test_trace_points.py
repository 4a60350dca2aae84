"""The traced benchmark run patches program functions by name; every
name it patches must still exist and be callable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_POINTS


@pytest.mark.parametrize("module_name, attr, layer", _patch_points())
def test_patch_point_resolves_to_a_callable(module_name, attr, layer):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), layer
