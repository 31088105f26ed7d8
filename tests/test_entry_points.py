"""Every name the benchmark looks up, and every name the package exports,
must resolve. The benchmark's own list of hooks is read from
``perfbench/api.py``, loaded by path and left unchanged."""

import importlib
import importlib.util
import os

import pytest

import pfadft

API_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "api.py")


def _benchmark_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_api", API_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("name,module", sorted(_benchmark_hooks().items()))
def test_benchmark_hook_resolves(name, module):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("name", pfadft.__all__)
def test_public_name_resolves(name):
    assert getattr(pfadft, name, None) is not None
