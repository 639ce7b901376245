"""The benchmark tracer patches package functions by name; every name it
relies on must still exist, or a traced run reports a silent zero.

``perfbench/tracer.py`` is read as a module without calling
``Tracer.install()``, which would patch the package for the whole process.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _module(short: str):
    return importlib.import_module(f"waveshape.{short}")


def _method_exists(short: str, cls_name: str, meth: str) -> bool:
    cls = getattr(_module(short), cls_name, None)
    return cls is not None and callable(getattr(cls, meth, None))


def _hook_exists(short: str, name: str) -> bool:
    obj = getattr(_module(short), name, None)
    return inspect.isfunction(obj)


def _key_exists(key: str) -> bool:
    """Whether a traced key still names something the tracer wraps."""
    key = key.split("[")[0]  # tsdf.sample_tsdf[mesh] -> tsdf.sample_tsdf
    for target, metric in tracer.METHODS.items():
        if metric == key:
            return _method_exists(*target)
    for target, metric in tracer.HOOKS.items():
        if metric == key:
            return _hook_exists(*target)
    short, _, name = key.partition(".")
    if short not in tracer.MODULES:
        return False
    mod = _module(short)
    obj = getattr(mod, name, None)
    return (inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_"))


# Metric -> the traced keys whose calls it counts or times; a ratio's
# denominator is a call count.
CALL_KEYED = {name: keys if how in ("self", "calls") else keys[1:]
              for name, _unit, (how, *keys) in tracer.LAYER_METRICS
              if how in ("self", "calls", "ratio")}


@pytest.mark.parametrize("target", sorted(tracer.METHODS), ids=".".join)
def test_traced_methods_exist(target):
    assert _method_exists(*target)


@pytest.mark.parametrize("target", sorted(tracer.HOOKS), ids=".".join)
def test_traced_hooks_exist(target):
    assert _hook_exists(*target)


@pytest.mark.parametrize("metric", sorted(CALL_KEYED))
def test_layer_metric_names_a_live_function(metric):
    assert any(_key_exists(k) for k in CALL_KEYED[metric]), CALL_KEYED[metric]


def test_import_waveshape_loads_every_traced_module():
    # Tracer.install() runs ``import waveshape`` and then reads each traced
    # module from sys.modules, so the package import must load them all.
    code = ("import sys, waveshape; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('waveshape.'))))")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert {f"waveshape.{m}" for m in tracer.MODULES} <= set(loaded)
