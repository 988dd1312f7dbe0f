"""The package and the CLI load numpy only for the commands that use it,
and no command loads scipy.  Each command runs in a fresh interpreter; the
checks are on ``sys.modules``, not on wall time."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import corrconc
from corrconc import cli, exactdist, mcsim

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# json is imported only after main returns, so that the modules read are
# the command's own.
_CHILD = """
import sys
from corrconc.cli import main
code = main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""

_SIM = ("--n", "10", "--reps", "100", "--rho-list", "0.3", "--workers", "1")
_DENSITY_10 = ("density", "--rho", "0.3", "--n", "10", "--r", "0.1")
_MOMENTS_10 = ("moments", "--rho", "0.3", "--n", "10", "--m-max", "2")
_DENSITY_100 = ("density", "--rho", "0.3", "--n", "100", "--r", "0.1")
_MOMENTS_100 = ("moments", "--rho", "0.3", "--n", "100", "--m-max", "2")


def _modules_after(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["modules"])


def _loaded(modules, package):
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


class TestFreshProcessImports:
    def test_bounds_loads_neither_numpy_nor_scipy(self):
        for argv in (("--n", "10", "--t", "0.25"), ("--n", "10", "--alpha", "0.05")):
            modules = _modules_after("bounds", *argv)
            assert _loaded(modules, "numpy") == []
            assert _loaded(modules, "scipy") == []

    def test_bounds_loads_only_the_closed_form_modules(self):
        # A fresh bounds command is what the benchmark's setup time
        # measures: no simulation module and no process pool belong in it.
        modules = _modules_after("bounds", "--n", "10", "--alpha", "0.05")
        assert set(_loaded(modules, "corrconc")) == {
            "corrconc", "corrconc.approx", "corrconc.cli", "corrconc.conc",
            "corrconc.errors", "corrconc.params",
        }
        assert _loaded(modules, "concurrent.futures") == []
        assert _loaded(modules, "multiprocessing") == []

    @pytest.mark.parametrize("argv", [
        _DENSITY_10,
        # Both of 2F1's ranges at n = 10: the series in x and, for
        # (1 - rho r)/2 < 0.106, the recurrence in c.
        ("density", "--rho", "0.95", "--n", "10", "--grid", "21"),
        _MOMENTS_10,
        _DENSITY_100,
        _MOMENTS_100,
        ("table1", *_SIM),
        ("coverage", *_SIM),
        ("bounds", "--n", "10", "--alpha", "0.05"),
    ], ids=["density-n10", "density-grid-n10", "moments-n10", "density-n100",
            "moments-n100", "table1", "coverage", "bounds"])
    def test_no_command_loads_scipy(self, argv):
        # Hotelling's 2F1 is the library's own at every n.
        assert _loaded(_modules_after(*argv), "scipy") == []

    @pytest.mark.parametrize("command", ["table1", "coverage"])
    def test_simulation_commands_leave_out_scipy(self, command):
        modules = _modules_after(command, *_SIM)
        assert "numpy" in modules
        assert _loaded(modules, "scipy") == []

    @pytest.mark.parametrize("command", ["table1", "coverage"])
    def test_serial_simulation_loads_no_process_pool(self, command):
        # The pool's modules are imported only where a pool forks.
        modules = _modules_after(command, *_SIM)
        assert "corrconc.mcsim" in modules
        assert _loaded(modules, "concurrent.futures") == []
        assert _loaded(modules, "multiprocessing") == []

    def test_only_jsonl_output_loads_json(self):
        argv = ("bounds", "--n", "10", "--t", "0.25", "--format")
        assert _loaded(_modules_after(*argv, "csv"), "json") == []
        assert "json" in _modules_after(*argv, "jsonl")

    @pytest.mark.parametrize("argv", [
        ("bounds", "--n", "10", "--t", "0.25", "--format", "csv"),
        ("table1", *_SIM, "--format", "csv"),
        ("coverage", *_SIM, "--format", "csv"),
        (*_DENSITY_100, "--format", "csv"),
        (*_MOMENTS_100, "--format", "csv"),
        (*_DENSITY_10, "--format", "csv"),
        (*_MOMENTS_10, "--format", "csv"),
    ])
    def test_csv_output_leaves_out_the_csv_module(self, argv):
        # Tables are joined by hand.
        assert "csv" not in _modules_after(*argv)


class TestLazyNamespace:
    @pytest.mark.parametrize("name", corrconc.__all__)
    def test_public_name_is_the_submodule_object(self, name):
        value = getattr(corrconc, name)
        assert value.__module__.startswith("corrconc.")
        assert getattr(sys.modules[value.__module__], name) is value

    def test_public_names_are_the_submodules_names(self):
        # Catches a name deleted from its submodule but left in the table.
        from corrconc import approx, conc, errors, gammakit

        names = set().union(*(m.__all__ for m in (approx, conc, exactdist, gammakit, mcsim)))
        names |= {
            name for name, value in vars(errors).items()
            if isinstance(value, type) and value.__module__ == errors.__name__
        }
        assert corrconc.__all__ == sorted(names | {"ModelParams"})

    def test_dir_lists_every_public_name(self):
        assert set(corrconc.__all__) <= set(dir(corrconc))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            corrconc.no_such_name
        assert not hasattr(corrconc, "quad")

    def test_star_import(self):
        namespace = {}
        exec("from corrconc import *", namespace)
        assert set(corrconc.__all__) <= set(namespace)

    @pytest.mark.parametrize("name, module", [
        ("moment", exactdist), ("moment_quadrature", exactdist), ("density_at", exactdist),
        ("run_experiment", mcsim), ("SimConfig", mcsim),
    ])
    def test_cli_lazy_names(self, name, module):
        assert getattr(cli, name) is getattr(module, name)

    def test_cli_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            cli.no_such_name
