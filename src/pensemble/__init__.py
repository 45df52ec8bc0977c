"""Determinantal point process on complex projective space.

Sampling of the weighted-monomial projection-kernel process on CP^d, lifts
to odd-dimensional spheres, discrete Riesz/log/Green energies, their exact
expected values, and a seeded Monte Carlo validation harness.
"""

from .closed_forms import (
    BoundConstants,
    ExpectedEnergy,
    beta,
    bound_constants,
    continuous_sphere_energy,
    expected_green_energy,
    expected_projective_log,
    expected_projective_riesz,
    expected_sphere_2energy_exact,
    log_gamma,
)
from .energy import (
    green_energy,
    log_energy,
    projective_log_energy,
    projective_riesz_energy,
    riesz_energy,
    sphere_2energy,
)
from .lift import SphereConfiguration, lift_to_sphere, realify
from .montecarlo import (
    EnergySpec,
    ExperimentConfig,
    ExperimentReport,
    default_energy_specs,
    run_experiment,
)
from .pointset import PointSetFile, read_pointset
from .sampler import (
    KernelParams,
    ProjectiveSample,
    RejectionBudgetExceededError,
    SamplerConfig,
    derive_trial_rng,
    sample_projective_ensemble,
)

__version__ = "0.1.0"
