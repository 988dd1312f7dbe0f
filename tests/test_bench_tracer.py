"""The benchmark's tracer (bench/tracer.py) wraps library functions by
module attribute, from outside src/.  A renamed or removed attribute
breaks only traced benchmark runs, so this checks every name it reads."""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    for module_name, attr, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            module_name, attr,
        )
    # Wrapped apart from TRACED, to count integrand evaluations.
    exactdist = importlib.import_module("corrconc.exactdist")
    assert callable(getattr(exactdist, "quad", None))

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.TRACED}
    with tracer.Tracer():
        pass
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is original
