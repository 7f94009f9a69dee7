"""Spectral simulator and stability toolkit for mean-field random-field
dynamics on a periodic torus."""

__version__ = "0.1.0"

from .grid import TorusGrid
from . import field  # scipy.fft ahead of equilibrium's scipy imports: about 20 ms less import time
from .lpaley import LittlewoodPaley, critical_exponents, eta, eta_j
from .equilibrium import (Bullet, CovarianceProfile, DistributionFunction,
                          InteractionPotential, bose, custom_radial, delta_potential,
                          equilibrium_mass, eval_h, fermi, gaussian_f2, gaussian_potential,
                          hypothesis_check, sphere_area, zero_distribution, zero_potential,
                          zero_temp_fermi)
from .ensemble import (BumpSpec, Chunk, ModeEnsemble, Trajectory, conserved_energy, evolve,
                       init_equilibrium, observations, scattering_probe, step)
from .picard import PicardOperator, PicardResult, picard_solve, reference_trajectory
from .response import (DecayReport, EpsilonGReport, MarginReport, MultiplierTable,
                       compute_mf_batch, decay_bound_check, decay_slope, default_tau_grid,
                       default_xi_grid, epsilon_g, stability_margin)
from .twowave import (BandReport, GrowthFit, TwoWaveParams, build_symbol, closed_form_spectrum,
                      eigensolver_spectrum, most_unstable_ray_frequency, multiset_distance,
                      simulate_linearized, unstable_band)
from .config import EXPERIMENT_KINDS, ConfigError, RunConfig, parse_config
from .runner import ResultEnvelope, run_experiment
from .svgplot import emit_plot
