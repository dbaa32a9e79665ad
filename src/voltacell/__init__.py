"""voltacell: transient 2D multiphysics simulation of a lithium-ion cell microstructure.

Couples heat conduction, lithium transport in the solid electrodes and the
electrolyte, electric potentials with Butler-Volmer interface kinetics, and
quasi-static thermo-chemo-elasticity on an interdigitated representative cell,
discretized with variable-degree quadrilateral finite elements and integrated
in time with a staggered semi-implicit midpoint scheme.
"""

__version__ = "0.1.0"

from .materials import MaterialSet, StressState
from .geometry import CellDimensions, build_interdigitated_domain
from .mesh import MeshSpec, Mesh, generate_layered_mesh, validate_mesh

__all__ = [
    "MaterialSet",
    "StressState",
    "CellDimensions",
    "build_interdigitated_domain",
    "MeshSpec",
    "Mesh",
    "generate_layered_mesh",
    "validate_mesh",
    "__version__",
]
