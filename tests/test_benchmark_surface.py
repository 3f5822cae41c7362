"""What benchmarks/ imports of the package still resolves.

benchmarks/run.py stops before it measures anything when a name it uses
has gone from the package. These tests load the benchmark's tracer, inputs
and checks modules by path and resolve what they use. run.py itself is not
loaded: importing it sets thread variables and the allocator's options.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@functools.cache
def load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while it is being defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = load("tracer").TARGETS
    for layer, functions in targets.items():
        module = importlib.import_module(f"crystalpretrain.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"crystalpretrain.{layer}.{name}"


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_every_workload_builds_its_train_config(phase):
    inputs = load("inputs")
    for workload in inputs.WORKLOADS.values():
        cfg = workload.train_config(phase, seed=1)
        assert cfg.phase == phase and cfg.seed == 1


def test_checks_imports():
    assert load("checks").reference is importlib.import_module("crystalpretrain.reference")
