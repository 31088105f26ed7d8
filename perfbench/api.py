"""pfadft's public entry points, looked up by name.

The benchmark reaches the package only through these names: those in
``pfadft.__all__`` plus two public functions of ``pfadft.analysis`` that
build the paper's tables. Private helpers are never imported, so internal
refactors cannot break the benchmark; a public name that disappears shows
up as ``MissingHook``, which the traced run reports as an unmeasured layer.
"""

from __future__ import annotations

import importlib
import os
import sys

HOOKS = {
    **{name: "pfadft" for name in (
        "ExecutionPlan", "apply_kernel_fast", "assemble_scale", "complexity_report",
        "cosine_probe", "count_plan", "csd_encode", "dense_matrix", "dft_matrix",
        "error_energy", "execute", "factorization", "fast_exact", "instrumented_count",
        "kernel", "mape", "orth_deviation", "plan", "plan_to_json", "sweep_alpha")},
    "composed_error_table": "pfadft.analysis",
    "response_error_max_db": "pfadft.analysis",
}


class MissingHook(LookupError):
    """A public entry point the benchmark times is not there."""


class Api:
    """Attribute access to the hooks of the pfadft found under ``root/src``."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        init = os.path.join(src, "pfadft", "__init__.py")
        if not os.path.isfile(init):
            raise FileNotFoundError(f"no pfadft sources at {src}")
        sys.path.insert(0, src)
        import pfadft
        if os.path.realpath(pfadft.__file__) != os.path.realpath(init):
            raise ImportError(f"imported pfadft from {pfadft.__file__}, not from {src}")
        self.version = getattr(pfadft, "__version__", "unknown")

    def __getattr__(self, name):
        module = HOOKS.get(name)
        fn = getattr(importlib.import_module(module), name, None) if module else None
        if fn is None:
            raise MissingHook(f"{module or 'pfadft'}.{name} is not available")
        setattr(self, name, fn)
        return fn

    def maybe(self, name):
        """The hook, or None when it is missing."""
        try:
            return getattr(self, name)
        except MissingHook:
            return None
