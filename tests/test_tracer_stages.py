"""The benchmark tracer wraps qcw callables by name; every name must resolve.

A renamed method otherwise only shows when ``bench/run.py --trace 1``
installs the tracer and fails with a KeyError.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import qcw.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qcw_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_stage_resolves_to_a_qcw_callable():
    stages = load_tracer().STAGES
    assert stages
    for stage in stages:
        assert stage.module == "qcw" or stage.module.startswith("qcw."), stage
        owner = importlib.import_module(stage.module)
        *path, attr = stage.attr.split(".")
        for name in path:
            owner = getattr(owner, name)
        assert attr in vars(owner), f"{stage.name}: {stage.module}.{stage.attr} is gone"
        assert callable(vars(owner)[attr]), stage
