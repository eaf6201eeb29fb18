"""Export lists: ``__all__`` names every public definition, and only real names.

Each public name has one import route, through the module that defines it.
The package declares no ``__all__``, so what it exports is its public
namespace: ``__version__``, plus each submodule once it is imported.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import keyedmod
from keyedmod.constellations import STANDARD_SCHEME_NAMES

MODULES = ["keyedmod"] + [
    f"keyedmod.{info.name}" for info in pkgutil.iter_modules(keyedmod.__path__)
]

#: The package and every module that declares ``__all__``.
EXPORTING = [
    n for n in MODULES if n == "keyedmod" or hasattr(importlib.import_module(n), "__all__")
]


def exported_names(module):
    default = [n for n in vars(module) if not n.startswith("_")]
    return getattr(module, "__all__", default)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", EXPORTING)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(name)
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in exported_names(module)] == []


@pytest.mark.parametrize("name", EXPORTING)
def test_no_module_exports_another_modules_definitions(name):
    module = importlib.import_module(name)
    objects = [(n, getattr(module, n)) for n in exported_names(module)]
    foreign = [
        f"{n} ({obj.__module__})"
        for n, obj in objects
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.split(".")[0] == "keyedmod"
        and obj.__module__ != name
    ]
    assert foreign == []


def run_probe(probe):
    """Run ``probe`` in a fresh interpreter on this source tree; return its output lines."""
    src = str(Path(keyedmod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_import_loads_no_module_and_no_numpy():
    probe = (
        "import sys, keyedmod\n"
        "print(keyedmod.__version__)\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('keyedmod.') or m.split('.')[0] == 'numpy'))\n"
    )
    assert run_probe(probe) == [keyedmod.__version__, "[]"]


def test_modem_import_loads_no_channel():
    # The planes format a decoder reads is modem's own; the channel adds
    # noise to complex symbols only.
    probe = (
        "import sys, keyedmod.modem\n"
        "print(sorted(m for m in sys.modules if m.startswith('keyedmod.')))\n"
    )
    assert run_probe(probe) == ["['keyedmod.constellations', 'keyedmod.modem']"]


def test_first_decode_imports_no_masked_arrays():
    # Building a cell table takes its levels and cuts by sorted sets, so
    # the first decode of a process leaves numpy.ma unloaded.
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from keyedmod import constellations, modem\n"
        "for name in constellations.STANDARD_SCHEME_NAMES:\n"
        "    scheme = constellations.make_standard_scheme(name)\n"
        "    received = np.array([0.1 + 0.2j, -0.7 + 0.3j, 0.4 - 0.9j, -2.5 - 2.5j])\n"
        "    print(name, modem.nearest_point_values(received, scheme).size)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    expected = [f"{name} 4" for name in STANDARD_SCHEME_NAMES] + ["False"]
    assert run_probe(probe) == expected


def test_multi_block_sweep_imports_no_thread_pool():
    # Two points of two blocks each, the last one ragged: the sweep runs
    # on the caller alone, so it starts no thread and loads no pool.
    probe = (
        "import sys, threading\n"
        "from keyedmod.channel import PathLossModel\n"
        "from keyedmod.experiment import ExperimentConfig, ReceiverSpec, run_experiment\n"
        "cfg = ExperimentConfig('qam16_circ', None, (ReceiverSpec('eve', 'qpsk'),),"
        " PathLossModel(2.0), (0.0, 10.0), 'receive', 2**16 + 1, 1)\n"
        "threading.Thread.start = None\n"
        "print(len(run_experiment(cfg)))\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    assert run_probe(probe) == ["2", "False"]
