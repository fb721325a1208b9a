"""Run configuration: a flat key=value text format with one section per module.

Configs are diffable and archivable: the canonical serialization writes every
key of every section in a fixed order, so two configs differ exactly where
their text differs.  CLI flags override file keys; every field has a default.
Parsing is strict — unknown sections or keys are configuration errors.
"""

import configparser
import math
import typing
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from .errors import ConfigurationError
from .kernels import KERNEL_KINDS, SmoothingKernel, SummaryDistance
from .mcmc import MCMC_VARIANTS, PROPOSAL_KINDS, ProposalSpec
from .models import MODEL_NAMES, make_model
from .rejection import DEFAULT_BLOCK_SIZE, DEFAULT_BUDGET
from .rng import MAX_SEED
from .smc import SMC_VARIANTS, BandwidthSchedule, SmcVariantSpec


@dataclass
class RunSection:
    """seed: run-level seed; s: simulated datasets per proposal/particle;
    out: output path ("" means the subcommand's default name)."""

    seed: int = 0
    s: int = 1
    t_y: float = 0.0
    out: str = ""


@dataclass
class ModelSection:
    name: str = "normal-mean"
    prior_mean: float = 0.0
    prior_sd: float = 1.0
    tau: float = 1.0
    trials: int = 20


@dataclass
class KernelSection:
    kind: str = "gaussian"
    h: float = 1.0
    distance: str = "euclidean"
    distance_weights: Tuple[float, ...] = ()


@dataclass
class RejectionSection:
    """Worker count is deliberately not a config key: it cannot affect output."""

    n_accept: int = 10_000
    budget: int = DEFAULT_BUDGET
    block_size: int = DEFAULT_BLOCK_SIZE
    emit_bundles: bool = False


@dataclass
class McmcSection:
    variant: str = "carried"
    n_iter: int = 20_000
    burn_in: int = -1          # -1 means the default 10% of n_iter
    thin: int = 1
    proposal: str = "random-walk"
    step_sd: Optional[float] = None   # None means prior sd / 2
    init: Optional[float] = None
    chain_id: int = 0

    def resolved_burn_in(self):
        return self.n_iter // 10 if self.burn_in < 0 else self.burn_in


@dataclass
class SmcSection:
    variant: str = "joint-move"
    h_start: float = 2.0
    h_end: float = 0.25
    steps: int = 15
    particles: int = 2000
    ess_threshold: float = 0.5
    reject_threshold: Optional[float] = None
    mutation: str = "random-walk"
    step_sd: Optional[float] = None


@dataclass
class ExperimentSection:
    """Knobs for the three headline experiments; sized for desk-scale runs."""

    level: float = 0.01
    permutations: int = 499
    bootstrap: int = 10_000
    equivalence_iters: int = 10_000
    equivalence_particles: int = 500
    equivalence_steps: int = 21
    cross_replicates: int = 8
    cross_s_grid: Tuple[int, ...] = (1, 5)
    cross_samples: int = 4000
    cross_mcmc_iters: int = 24_000
    cross_smc_particles: int = 800
    cross_smc_steps: int = 10
    bias_s_grid: Tuple[int, ...] = (1, 10, 100)
    bias_chains: int = 10
    bias_iters: int = 40_000
    bias_thin: int = 10
    bias_step_sd: float = 1.0
    sinv_s_grid: Tuple[int, ...] = (1, 5, 25)
    sinv_samples: int = 20_000
    sinv_mcmc_thin: int = 15
    sinv_step_sd: float = 1.0


_SECTION_ORDER = (
    ("run", RunSection),
    ("model", ModelSection),
    ("kernel", KernelSection),
    ("rejection", RejectionSection),
    ("mcmc", McmcSection),
    ("smc", SmcSection),
    ("experiment", ExperimentSection),
)


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    model: ModelSection = field(default_factory=ModelSection)
    kernel: KernelSection = field(default_factory=KernelSection)
    rejection: RejectionSection = field(default_factory=RejectionSection)
    mcmc: McmcSection = field(default_factory=McmcSection)
    smc: SmcSection = field(default_factory=SmcSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)

    # -- serialization ------------------------------------------------------

    def to_text(self):
        """Canonical serialization: every key, fixed order, round-trip exact."""
        lines = []
        for section_name, _ in _SECTION_ORDER:
            section = getattr(self, section_name)
            lines.append(f"[{section_name}]")
            for f in fields(section):
                lines.append(f"{f.name} = {_format_value(getattr(section, f.name))}")
            lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"cannot parse config: {exc}") from exc
        cfg = cls()
        known = dict(_SECTION_ORDER)
        for section_name in parser.sections():
            if section_name not in known:
                raise ConfigurationError(f"unknown config section [{section_name}]")
            section = getattr(cfg, section_name)
            valid = {f.name: f for f in fields(section)}
            for key, raw in parser.items(section_name):
                if key not in valid:
                    raise ConfigurationError(
                        f"unknown key {key!r} in section [{section_name}]")
                setattr(section, key, _parse_value(raw, valid[key].type, key))
        return cfg

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def apply_overrides(self, overrides):
        """Apply {(section, key): raw-or-typed value} on top of this config."""
        for (section_name, key), value in overrides.items():
            section = getattr(self, section_name)
            matches = [f for f in fields(section) if f.name == key]
            if not matches:
                raise ConfigurationError(f"unknown key {key!r} in section [{section_name}]")
            if isinstance(value, str):
                value = _parse_value(value, matches[0].type, key)
            setattr(section, key, value)
        return self

    # -- validation ---------------------------------------------------------

    def validate(self):
        problems = []
        if not 0 <= self.run.seed <= MAX_SEED:
            problems.append("run.seed must be a 64-bit unsigned integer")
        if self.run.s < 1:
            problems.append("run.s must be >= 1")
        if not math.isfinite(self.run.t_y):
            problems.append("run.t_y must be finite")
        if self.model.name not in MODEL_NAMES:
            problems.append(f"model.name must be one of {MODEL_NAMES}")
        if self.model.prior_sd <= 0 or self.model.tau <= 0:
            problems.append("model.prior_sd and model.tau must be positive")
        if self.model.trials < 1:
            problems.append("model.trials must be >= 1")
        if self.kernel.kind not in KERNEL_KINDS:
            problems.append(f"kernel.kind must be one of {KERNEL_KINDS}")
        if self.kernel.h <= 0:
            problems.append("kernel.h must be positive")
        if self.kernel.distance not in ("euclidean", "weighted-euclidean"):
            problems.append("kernel.distance must be euclidean or weighted-euclidean")
        if self.rejection.n_accept < 1:
            problems.append("rejection.n_accept must be >= 1")
        if min(self.rejection.budget, self.rejection.block_size) < 1:
            problems.append("rejection budget/block_size must be positive")
        if self.mcmc.variant not in MCMC_VARIANTS:
            problems.append(f"mcmc.variant must be one of {MCMC_VARIANTS}")
        if self.mcmc.proposal not in PROPOSAL_KINDS:
            problems.append(f"mcmc.proposal must be one of {PROPOSAL_KINDS}")
        if self.mcmc.n_iter <= self.mcmc.resolved_burn_in():
            problems.append("mcmc.n_iter must exceed the burn-in")
        if self.mcmc.thin < 1:
            problems.append("mcmc.thin must be >= 1")
        if self.mcmc.step_sd is not None and not 0 < self.mcmc.step_sd < math.inf:
            problems.append("mcmc.step_sd must be positive and finite when set")
        if self.smc.variant not in SMC_VARIANTS:
            problems.append(f"smc.variant must be one of {SMC_VARIANTS}")
        if self.smc.steps < 1:
            problems.append("smc.steps must be >= 1")
        if self.smc.steps > 1 and not self.smc.h_start > self.smc.h_end > 0:
            problems.append("smc needs h_start > h_end > 0")
        if self.smc.particles < 2:
            problems.append("smc.particles must be >= 2")
        if not 0 < self.smc.ess_threshold <= 1:
            problems.append("smc.ess_threshold must lie in (0, 1]")
        if self.smc.reject_threshold is not None:
            if self.smc.variant != "backward":
                problems.append("smc.reject_threshold needs smc.variant = backward")
            elif not 0 < self.smc.reject_threshold < 1:
                problems.append("smc.reject_threshold must lie in (0, 1)")
        if not 0 < self.experiment.level < 1:
            problems.append("experiment.level must lie in (0, 1)")
        if problems:
            raise ConfigurationError("; ".join(problems))
        return self

    # -- builders -----------------------------------------------------------

    def build_model(self):
        return make_model(
            self.model.name, prior_mean=self.model.prior_mean,
            prior_sd=self.model.prior_sd, tau=self.model.tau, trials=self.model.trials)

    def build_distance(self):
        weights = self.kernel.distance_weights or None
        return SummaryDistance(self.kernel.distance, weights)

    def build_kernel(self, h=None):
        return SmoothingKernel(self.kernel.kind,
                               self.kernel.h if h is None else h,
                               self.build_distance())

    def build_proposal(self):
        return ProposalSpec(self.mcmc.proposal, self.mcmc.step_sd)

    def build_mutation(self):
        return ProposalSpec(self.smc.mutation, self.smc.step_sd)

    def build_schedule(self):
        return BandwidthSchedule.geometric(self.smc.h_start, self.smc.h_end, self.smc.steps)

    def build_smc_variant(self):
        return SmcVariantSpec(self.smc.variant, self.smc.reject_threshold)


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _parse_value(raw, ftype, key):
    raw = raw.strip()
    origin = typing.get_origin(ftype)
    try:
        if ftype is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        if ftype is str:
            return raw
        if origin is typing.Union:  # Optional[...]: "" means unset
            if raw == "":
                return None
            inner = next(a for a in typing.get_args(ftype) if a is not type(None))
            return _parse_value(raw, inner, key)
        if origin is tuple:
            if raw == "":
                return ()
            inner = typing.get_args(ftype)[0]
            return tuple(_parse_value(part, inner, key) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {exc}") from exc
    raise ConfigurationError(f"unsupported config field type for {key!r}")
