"""Every exported name of the package and of its modules resolves, and a run
imports only the scipy it uses."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import polyvem

MODULES = sorted(m.name for m in pkgutil.iter_modules(polyvem.__path__))


@pytest.mark.parametrize("name", ["polyvem"] + [f"polyvem.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


_IMPORT_PROBE = """
import sys
import polyvem
assert "scipy" not in sys.modules, "import polyvem loaded scipy"
from polyvem.study import ProblemSpec, run_study
for spec in (ProblemSpec(problem="quarter-disk", k=1, mesh="squares", correction=True),
             ProblemSpec(problem="disk", k=1, mesh="disk", correction=True),
             ProblemSpec(problem="test1-2d", k=1)):
    assert all(lv.error is None for lv in run_study(spec, 1).levels), spec.mesh
    assert "scipy.spatial" not in sys.modules, f"a {spec.mesh} study loaded scipy.spatial"
polyvem.build_voronoi_mesh(None, 16)
assert "scipy.spatial" in sys.modules, "a Voronoi build ran without scipy.spatial"
"""


def test_scipy_spatial_loads_on_first_voronoi_build():
    # a fresh interpreter: this session has imported scipy.spatial already
    env = dict(os.environ, PYTHONPATH=str(Path(polyvem.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
