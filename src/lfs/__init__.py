"""Likelihood-free sampling suite: rejection, MCMC and SMC over S >= 1 simulated datasets."""

__version__ = "0.1.0"

from .errors import (BudgetExhaustedError, CapabilityError, ConfigurationError,
                     DomainError, ParticleCollapseError)
from .kernels import SmoothingKernel, SummaryDistance
from .models import (AnalyticOracle, BernoulliCountModel, CountingModel, Model,
                     NormalMeanModel, make_model, oracle_density)
from .target import (AugmentedState, joint_logdensity_unnorm, marginal_logestimate,
                     mh_step, simulate_checked)
from .rejection import RejectionOutput, run_rejection
from .mcmc import CARRIED_BUNDLE, FRESH_DENOMINATOR, McmcOutput, ProposalSpec, run_mcmc
from .smc import (BACKWARD_KERNEL, JOINT_MCMC_MOVE, BandwidthSchedule, ParticleSystem,
                  SmcOutput, SmcVariantSpec, ess, incremental_weight_backward,
                  incremental_weight_joint, incremental_weight_joint_general,
                  resample_systematic, run_smc)
from .diagnostics import ks_statistic, weighted_moments
from .config import RunConfig
from .rng import substream

__all__ = [
    "AnalyticOracle", "AugmentedState", "BACKWARD_KERNEL", "BandwidthSchedule",
    "BernoulliCountModel", "BudgetExhaustedError", "CapabilityError", "CARRIED_BUNDLE",
    "ConfigurationError", "CountingModel", "DomainError", "FRESH_DENOMINATOR",
    "JOINT_MCMC_MOVE", "McmcOutput", "Model", "NormalMeanModel", "ParticleCollapseError",
    "ParticleSystem", "ProposalSpec", "RejectionOutput", "RunConfig", "SmcOutput",
    "SmcVariantSpec", "SmoothingKernel", "SummaryDistance", "ess",
    "incremental_weight_backward", "incremental_weight_joint",
    "incremental_weight_joint_general", "joint_logdensity_unnorm", "ks_statistic",
    "make_model", "marginal_logestimate", "mh_step", "oracle_density",
    "resample_systematic", "run_mcmc", "run_rejection", "run_smc", "simulate_checked",
    "substream", "weighted_moments",
]
