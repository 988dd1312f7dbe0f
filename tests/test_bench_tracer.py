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


def test_commands_call_through_traced_attributes(monkeypatch, capsys):
    # cli loads exactdist and mcsim lazily; its commands must still call
    # them as module attributes, or traced runs lose these spans.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer_module = importlib.import_module("tracer")
    cli = importlib.import_module("corrconc.cli")
    with tracer_module.Tracer() as tracer:
        for argv in (
            ["density", "--rho", "0.3", "--n", "10", "--r", "0.1"],
            ["moments", "--rho", "0.3", "--n", "10", "--m-max", "1"],
            ["coverage", "--n", "10", "--reps", "50", "--rho-list", "0.3"],
        ):
            assert cli.main(argv) == 0
    capsys.readouterr()
    for span in ("exactdist.density_at", "exactdist.moment_quadrature", "mcsim.run_experiment"):
        assert tracer.calls[span] >= 1, span
