import logging

import numpy as np
import pytest

from voltacell import geometry as geo
from voltacell import materials as mat
from voltacell import physics
from voltacell.config import preset
from voltacell.mesh import MeshSpec, generate_layered_mesh
from voltacell.physics import CellProblem

logging.getLogger("voltacell").setLevel(logging.WARNING)

DESK_KW = dict(mesh=MeshSpec.coarse(), dt=6.0, t_end=600.0,
               snapshot_every=300.0)


@pytest.fixture(scope="session")
def mats():
    return mat.default_materials()


@pytest.fixture(scope="session")
def geom():
    return geo.build_interdigitated_domain(geo.CellDimensions())


@pytest.fixture(scope="session")
def coarse_mesh(geom):
    return generate_layered_mesh(geom, MeshSpec.coarse())


def switch_off_kappa_d(monkeypatch):
    """Give the cell problem a zero diffusional conductivity kappa_D (its
    kappa_D load and its kappa_D heat term vanish); the material law in
    ``materials`` is untouched."""
    monkeypatch.setattr(physics, "diffusional_conductivity",
                        lambda theta, mats: np.zeros_like(theta))


def make_problem(coarse_mesh, mats, **kw):
    return CellProblem(coarse_mesh, mats, **kw)


@pytest.fixture()
def coarse_problem(coarse_mesh, mats):
    return make_problem(coarse_mesh, mats)


@pytest.fixture(scope="session")
def desk_runs():
    """Desk-scale runs of every preset in both model modes, shared across
    the acceptance tests (10 simulated minutes, coarse mesh)."""
    from voltacell.driver import run_scenario
    out = {}
    for name in ("low_discharge", "high_discharge", "low_charge",
                 "high_charge"):
        for mode in ("full", "electrochemical"):
            cfg = preset(name).replace(model=mode, **DESK_KW)
            out[(name, mode)] = run_scenario(cfg)
    return out
