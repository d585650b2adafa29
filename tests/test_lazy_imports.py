"""Lazy package exports: ``import repro`` loads no subpackage, each verb only what it runs.

Every lazy ``__init__`` of ``repro`` maps its exported names to their
defining modules through :func:`repro._lazy_exports`.  The drift tests keep
those tables and ``__all__`` in step: a missing or misspelt entry fails
here.  The structural guard runs a fresh interpreter and checks
``sys.modules`` after each verb, so it cannot flake on a loaded host the
way an import timing would.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.algorithms",
    "repro.campaign",
    "repro.core",
    "repro.execution",
    "repro.experiments",
    "repro.graphs",
    "repro.logic",
    "repro.machines",
    "repro.modal",
)

REPO = Path(__file__).resolve().parent.parent


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        if name == "__version__":
            continue
        value = getattr(module, name)
        assert vars(module)[name] is value, f"{package}.{name} is not cached"
        if isinstance(value, (type, types.FunctionType)):
            defining = sys.modules[value.__module__]
            assert value.__module__.startswith("repro."), (name, value.__module__)
            assert getattr(defining, value.__name__) is value, (package, name)
        else:
            holders = [
                loaded
                for loaded_name, loaded in list(sys.modules.items())
                if loaded_name.startswith(f"{package}.") and vars(loaded).get(name) is value
            ]
            assert holders, f"no module under {package} holds {name}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attributes_raise_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")


def test_subpackages_stay_reachable_as_attributes():
    import repro

    assert repro.campaign is importlib.import_module("repro.campaign")
    assert repro.logic.check_many is importlib.import_module("repro.logic.engine").check_many


def test_dir_and_star_imports_in_a_fresh_interpreter():
    """``dir`` lists every export before any is resolved, and star-imports work."""
    proc = _fresh_python(
        f"""
        import importlib

        packages = [importlib.import_module(name) for name in {LAZY_PACKAGES!r}]
        for package in packages:
            unlisted = set(package.__all__) - set(dir(package))
            assert not unlisted, (package.__name__, unlisted)
        for package in packages:
            namespace = {{}}
            exec(f"from {{package.__name__}} import *", namespace)
            assert set(package.__all__) <= set(namespace), package.__name__
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_each_verb_imports_only_what_it_runs(tmp_path):
    """``import repro``, ``python -m repro.obs report`` and an execution campaign
    in one fresh interpreter, with ``sys.modules`` checked after each."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"name": "campaign.run", "dur_s": 0.5, "attrs": {}}) + "\n")
    store = tmp_path / "store"
    proc = _fresh_python(
        f"""
        import contextlib, io, json, sys

        def loaded(prefix):
            return sorted(name for name in sys.modules if name.startswith(prefix))

        import repro

        after_import = loaded("repro.")

        from repro.obs.__main__ import main as obs_main

        with contextlib.redirect_stdout(io.StringIO()):
            obs_main(["report", {str(trace)!r}])
        after_obs = [name for name in loaded("repro.") if not name.startswith("repro.obs")]

        from repro.campaign.__main__ import main as campaign_main

        with contextlib.redirect_stdout(io.StringIO()):
            code = campaign_main(["--store", {str(store)!r}, "run", "smoke", "--json"])
        unused = ("repro.modal", "repro.campaign.service", "repro.execution.vector",
                  "socketserver", "multiprocessing", "numpy")
        print(json.dumps({{
            "after_import": after_import,
            "after_obs": after_obs,
            "campaign_code": code,
            "after_campaign": [name for name in unused if name in sys.modules],
        }}))
        """
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["after_obs"] == []
    assert report["campaign_code"] == 0
    assert report["after_campaign"] == []
