"""Stochastic Lotka-Volterra reaction-diffusion on [0, 1] with Neumann walls.

Simulation (finite-difference and spectral schemes under a common noise
construction) plus the estimator suite that checks positivity, moment
bounds, path regularity, extinction rates, and long-time statistics of the
two-species competition system.
"""

__version__ = "0.1.0"

import os
# One BLAS thread: more would spin against the worker processes and the noise
# thread.  Must run before numpy loads BLAS (see README).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .config import ConfigError, ExperimentConfig, load_config
from .model import CoefficientSet, Field
from .noise import NoisePlan
from .solver import EnsembleStats, SimulationBlowup, SolverConfig, run_ensemble, simulate_path

__all__ = [
    "__version__",
    "CoefficientSet", "ConfigError", "EnsembleStats", "ExperimentConfig",
    "Field", "NoisePlan", "SimulationBlowup", "SolverConfig",
    "load_config", "run_ensemble", "simulate_path",
]
