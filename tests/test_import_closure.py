"""Each entry point loads only the layers it runs.

Every package ``__init__`` is a lazy facade (``repro._facade``): it
imports a name's module on first access.  The checks here run each
import in a fresh interpreter and compare the ``repro`` modules (and the
heavy standard-library ones) it left in ``sys.modules`` against the
layering of DESIGN.md "Layers and imports".  A module-level import that
reaches across a layer fails one of them.  ``python -X importtime -c
"import repro.api"`` shows which import pulled a module in.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(script: str):
    """Run ``script`` in a new interpreter; the JSON it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> set[str]:
    """Modules in ``sys.modules`` after ``statement``, minus the ones a
    bare interpreter had already."""
    return set(
        _fresh(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
    )


def _under(modules: set[str], *packages: str) -> list[str]:
    return sorted(
        name
        for name in modules
        if any(name == top or name.startswith(top + ".") for top in packages)
    )


def test_bare_package_loads_only_the_facade_helper():
    loaded = _loaded_after("import repro")
    assert _under(loaded, "repro") == ["repro", "repro._facade"]


def test_analyses_load_no_protocol_or_simulator():
    bare = _loaded_after("import repro.core.analysis")
    assert _under(bare, "repro.sim", "repro.core.protocols") == []
    every = _loaded_after(
        "from repro.core.analysis import *\nimport repro.core.analysis.skew"
    )
    assert "repro.core.analysis.sa_ds" in every
    assert _under(
        every, "repro.sim", "repro.service", "repro.experiments"
    ) == []
    # The overhead-aware analysis reads the Section 3.3 cost table and
    # nothing of the protocols' run time.
    assert _under(every, "repro.core.protocols") == [
        "repro.core.protocols",
        "repro.core.protocols.costs",
    ]


def test_service_loads_no_simulation_layer():
    loaded = _loaded_after("import repro.service.frontend")
    assert "repro.service.engine" in loaded
    assert _under(
        loaded,
        "repro.sim",
        "repro.core.protocols",
        "repro.experiments",
        "repro.faults",
        "repro.fuzz",
        "repro.viz",
    ) == []


def test_sweep_entry_loads_no_service_layer():
    loaded = _loaded_after("import repro.api")
    assert "repro.sim.simulator" in loaded
    assert _under(
        loaded,
        "repro.service",
        "repro.regions",
        "repro.experiments",
        "repro.fuzz",
        "asyncio",
        "sqlite3",
    ) == []


def test_cli_imports_its_subcommands_on_demand():
    loaded = _loaded_after("import repro.cli")
    assert _under(
        loaded, "repro.sim", "repro.service", "repro.experiments"
    ) == []


def _packages() -> list[str]:
    found = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(info.name)
    return sorted(found)


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    """``from package import *``, ``getattr`` and ``dir()`` agree with
    ``__all__``, and the facade serves no name outside it.  Each package
    starts in a fresh interpreter, so every name goes through the
    facade's ``__getattr__``."""
    problems = _fresh(
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "names = list(package.__all__)\n"
        "listed = set(dir(package))\n"
        "problems = [n for n in names if n not in star]\n"
        "problems += ['dir:' + n for n in names if n not in listed]\n"
        "problems += ['unexported:' + n for n in listed\n"
        "             if n not in names and n not in vars(package)]\n"
        "for n in names:\n"
        "    value = getattr(package, n)\n"
        "    if value is not vars(package).get(n):\n"
        "        problems.append('cached:' + n)\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


def test_unknown_name_is_an_attribute_error():
    import repro.service

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.service.nonexistent  # noqa: B018
    assert not hasattr(repro, "nonexistent")
