"""The benchmark's view of the program: the layers it traces and the commands it runs.

``bench/`` is read, never edited: every attribute its tracer wraps must
exist and be callable, and every workload must pass its own check at seed 1.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from contextkey import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module,attr,span", spans.TRACED, ids=[span for _, _, span in spans.TRACED])
def test_traced_attribute_is_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(f"contextkey.{module}"), attr, None)), span


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    assert cli.main(workload.argv(1, tmp_path)) in workload.exit_codes
    assert workload.check(tmp_path, cli) == []
