"""Likelihood-free sampling suite: rejection, MCMC and SMC over S >= 1 simulated datasets."""

__version__ = "0.1.0"

from .errors import (BudgetExhaustedError, CapabilityError, ConfigurationError,
                     DomainError, ParticleCollapseError)
from .kernels import SmoothingKernel, SummaryDistance
from .models import (AnalyticOracle, BernoulliCountModel, Model, NormalMeanModel,
                     make_model)
from .target import simulate_checked
from .rejection import RejectionOutput, run_rejection
from .mcmc import (CARRIED_BUNDLE, FRESH_DENOMINATOR, McmcOutput, ProposalSpec, run_chains,
                   run_mcmc)
from .smc import BACKWARD_KERNEL, JOINT_MCMC_MOVE, BandwidthSchedule, SmcOutput, run_smc
from .diagnostics import ks_statistic, weighted_moments
from .config import RunConfig
from .rng import substream

__all__ = [
    "AnalyticOracle", "BACKWARD_KERNEL", "BandwidthSchedule", "BernoulliCountModel",
    "BudgetExhaustedError", "CapabilityError", "CARRIED_BUNDLE", "ConfigurationError",
    "DomainError", "FRESH_DENOMINATOR", "JOINT_MCMC_MOVE", "McmcOutput", "Model",
    "NormalMeanModel", "ParticleCollapseError", "ProposalSpec", "RejectionOutput",
    "RunConfig", "SmcOutput", "SmoothingKernel", "SummaryDistance", "ks_statistic",
    "make_model", "run_chains", "run_mcmc", "run_rejection", "run_smc", "simulate_checked",
    "substream", "weighted_moments",
]
