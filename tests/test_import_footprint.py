"""Import footprint: what importing one module loads.

Every subpackage re-exports its names lazily (:func:`repro.lazy_exports`),
so a process loads only the modules it uses.  Each check runs in a fresh
interpreter, since this one has imported most of the package already.
The deny-lists name what each entry point must not load; the
timed-work checks hold the benchmark's rule that the work timed after
a process reports ready imports nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``perfbench/child.py`` imports before the eval and des children
#: report ready.
EVAL_IMPORTS = """
from repro.core.expcache import EXPERIMENT_CACHE
from repro.core.experiment import full_evaluation
from repro.core.report import energy_report, figure14_report, figure15_report
from repro.workloads.apps import php_applications
from repro.workloads.loadgen import TRACE_CACHE
"""
DES_IMPORTS = """
from repro.calibrate.twin import ground_truth_params, simulate_twin
from repro.common.rng import DeterministicRng
from repro.fleet import (
    CacheTierConfig, FleetConfig, homogeneous_fleet, run_fleet,
)
from repro.fleet.overload import (
    headline_scenarios, overload_topology, run_overload,
)
from repro.resilience import (
    ResilientServerConfig, run_matrix, standard_policies, standard_scenarios,
)
from repro.workloads.server import ServerConfig, latency_curve
"""


def _run(code: str):
    """JSON printed by ``code`` as its last line, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_after(imports: str) -> set[str]:
    return set(_run(imports + "\nimport json, sys\n"
                    "print(json.dumps(sorted(sys.modules)))\n"))


def _added_by(imports: str, work: str) -> list[str]:
    """Modules ``work`` loads after ``imports`` have run."""
    return _run(imports + "\nimport json, sys\nbefore = set(sys.modules)\n"
                + textwrap.dedent(work)
                + "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n")


def _hits(loaded: set[str], denied: tuple[str, ...]) -> list[str]:
    return sorted(name for name in loaded
                  if any(name == d or name.startswith(d + ".")
                         for d in denied))


def test_httpd_loads_no_harness_simulator_or_pool():
    loaded = _loaded_after("import repro.serve.httpd")
    assert _hits(loaded, (
        "repro.core.experiment", "repro.fleet.overload",
        "repro.fleet.simulator", "repro.calibrate", "repro.conformance",
        "repro.analysis", "repro.uarch", "multiprocessing",
    )) == []


def test_twin_loads_no_asyncio_or_serving_path():
    loaded = _loaded_after("import repro.calibrate.twin")
    assert _hits(loaded, (
        "asyncio", "repro.serve.loadclient", "repro.serve.httpd",
    )) == []


def test_cold_evaluation_imports_nothing():
    assert _added_by(EVAL_IMPORTS,
                     "full_evaluation(requests=2, jobs=1)") == []


def test_discrete_event_engines_import_nothing():
    work = """
    import dataclasses
    accel, soft = [0.8, 1.0, 1.3], [1.6, 2.0, 2.6]
    run_fleet(homogeneous_fleet(
        "accel-2", accel, nodes=2,
        cache=CacheTierConfig(shards=2, shard_capacity=16),
    ), FleetConfig(requests=200, warmup_requests=10), 1)
    for name, cfg in headline_scenarios():
        run_overload(overload_topology(), dataclasses.replace(
            cfg, horizon_services=40.0, flash_start_services=10.0,
            flash_duration_services=5.0,
        ), 1, name)
    run_matrix(accel, soft, standard_scenarios()[:2],
               standard_policies()[:2],
               ResilientServerConfig(workers=2, requests=100,
                                     warmup_requests=5), 1)
    simulate_twin(ground_truth_params(smoke=True, seed=1),
                  DeterministicRng(1))
    latency_curve(accel, (0.5,), ServerConfig(requests=200), 1)
    """
    assert _added_by(DES_IMPORTS, work) == []


def test_a_render_imports_nothing_past_httpd():
    work = """
    from repro.workloads.templates import APP_TEMPLATES, render_http_page
    for app in sorted(APP_TEMPLATES):
        render_http_page(app, 1)
        render_http_page(app, 1, accelerated=False)
    """
    assert _added_by("import repro.serve.httpd", work) == []


def test_every_module_imports_first():
    """No import cycle hides behind an import order that happens to work."""
    code = """
    import importlib, json, pkgutil, sys
    import repro
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    failed = []
    for name in names:
        for key in [k for k in sys.modules if k.startswith("repro.")]:
            del sys.modules[key]
        try:
            importlib.import_module(name)
        except Exception as exc:
            failed.append(f"{name}: {exc!r}")
    print(json.dumps(failed))
    """
    assert _run(code) == []


PACKAGES = sorted(
    m.name for m in pkgutil.iter_modules(repro.__path__, "repro.")
    if m.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    """A typo in an export table, or a name a submodule shadows, fails."""
    pkg = importlib.import_module(package)
    assert len(pkg.__all__) == len(set(pkg.__all__))
    for name in pkg.__all__:
        assert not isinstance(getattr(pkg, name), types.ModuleType), name
        assert name in dir(pkg)


def test_an_unknown_name_is_an_attribute_error():
    import repro.fleet

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.fleet.nope  # noqa: B018
    assert not hasattr(repro.fleet, "nope")
