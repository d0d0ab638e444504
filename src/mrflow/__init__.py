"""Multirate finite-difference solver for reactive compressible flow on
block-decomposed grids."""

from .ark import (ButcherTable, FastSolve, IntegrationStats, SolverError,
                  bogacki_shampine_32, classic_rk4, knoth_wolke_3, sdirk4)
from .chemistry import SurrogateNetwork, UnitSystem
from .euler import EulerPipeline, GasConstants
from .harness import RunConfig, load_config, main, scaling_plan
from .mesh import Decomposition, UniformGrid
from .mri import MRICoupling, evolve_two_phase, mri_step
from .newton import NewtonEngine
from .profiling import Profile, Region
from .transport import Communicator, run_spmd, run_spmd_sockets
from .vectors import ManyVector

__version__ = "0.1.0"

__all__ = [
    "ButcherTable", "Communicator", "Decomposition", "EulerPipeline",
    "FastSolve", "GasConstants", "IntegrationStats", "MRICoupling",
    "ManyVector", "NewtonEngine", "Profile", "Region", "RunConfig",
    "SolverError", "SurrogateNetwork", "UniformGrid", "UnitSystem",
    "bogacki_shampine_32", "classic_rk4", "evolve_two_phase", "knoth_wolke_3",
    "load_config", "main", "mri_step", "run_spmd", "run_spmd_sockets",
    "scaling_plan", "sdirk4", "__version__",
]
