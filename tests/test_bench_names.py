"""The benchmark's name contract: every function that ``bench/tracer.py``
wraps is still found under the module and name it looks up."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


TRACED = _traced()


@pytest.mark.parametrize("entry", TRACED, ids=[f"{home}.{attr}" for _, home, attr in TRACED])
def test_traced_name_resolves(entry):
    _, home, attr = entry
    assert callable(getattr(importlib.import_module(home), attr, None))
