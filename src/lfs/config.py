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

from .errors import ConfigurationError, DomainError
from .experiments import CHECKS as EXPERIMENT_CHECKS
from .kernels import SmoothingKernel, SummaryDistance
from .mcmc import ProposalSpec, check_arguments as check_mcmc, check_init
from .models import MODEL_NAMES, make_model
from .rejection import DEFAULT_BLOCK_SIZE, DEFAULT_BUDGET, check_arguments as check_rejection
from .rng import MAX_SEED
from .smc import BandwidthSchedule, check_arguments as check_smc
from .target import check_bundle_size


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
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            lines.append(f"[{section_field.name}]")
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
        for section_name in parser.sections():
            cfg._section(section_name)  # an empty unknown section is an error too
        return cfg.apply_overrides({(section_name, key): raw
                                    for section_name in parser.sections()
                                    for key, raw in parser.items(section_name)})

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def apply_overrides(self, overrides):
        """Apply {(section, key): raw-or-typed value} on top of this config."""
        for (section_name, key), value in overrides.items():
            section = self._section(section_name)
            matches = [f for f in fields(section) if f.name == key]
            if not matches:
                raise ConfigurationError(f"unknown key {key!r} in section [{section_name}]")
            if isinstance(value, str):
                value = _parse_value(value, matches[0].type, key)
            setattr(section, key, value)
        return self

    def _section(self, name):
        if name not in {f.name for f in fields(self)}:
            raise ConfigurationError(f"unknown config section [{name}]")
        return getattr(self, name)

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check every section by building what it describes.

        The rules live in the constructors, the samplers' checks and each
        experiment's check on its sizes; only the seed range and a finite ``t_y``
        are stated here.  S, which every sampler checks, is reported once, under
        ``[run]``.  Each failing section adds one message, prefixed by the
        section's name.
        """
        run, rej, mcmc, smc = self.run, self.rejection, self.mcmc, self.smc
        problems = {}
        checks = [
            ("run", lambda: _require(0 <= run.seed <= MAX_SEED,
                                     "seed must be a 64-bit unsigned integer")),
            ("run", lambda: _require(math.isfinite(run.t_y), "t_y must be finite")),
            ("run", lambda: check_bundle_size(run.s)),
            # every model, so a bad tau fails under --model bernoulli-count too
            ("model", lambda: [make_model(**dict(vars(self.model), name=name))
                               for name in (self.model.name, *MODEL_NAMES)]),
            ("kernel", self.build_kernel),
            # a model that does not build is reported under [model] only
            ("kernel", lambda: "model" in problems or self.build_kernel().distance.of_difference(
                [0.0] * self.build_model().summary_dim)),
            ("rejection", lambda: check_rejection(rej.n_accept, rej.budget, rej.block_size, 1)),
            ("mcmc", self.build_proposal),
            ("mcmc", lambda: check_mcmc(mcmc.variant, mcmc.n_iter,
                                        mcmc.resolved_burn_in(), mcmc.thin)),
            ("mcmc", lambda: "model" in problems or mcmc.init is None
             or check_init(self.build_model(), mcmc.init)),
            ("smc", self.build_mutation),
            ("smc", self.build_schedule),
            ("smc", lambda: check_smc(smc.variant, smc.particles, smc.ess_threshold,
                                      smc.reject_threshold)),
            ("experiment", lambda: [check(self) for check in EXPERIMENT_CHECKS]),
        ]
        for section, check in checks:
            if section not in problems:
                try:
                    check()
                except (ConfigurationError, DomainError) as exc:
                    problems[section] = f"[{section}] {exc}"
        if problems:
            raise ConfigurationError("; ".join(problems.values()))
        return self

    # -- builders -----------------------------------------------------------

    def build_model(self):
        return make_model(**vars(self.model))

    def build_kernel(self):
        distance = SummaryDistance(self.kernel.distance, self.kernel.distance_weights or None)
        return SmoothingKernel(self.kernel.kind, self.kernel.h, distance)

    def build_proposal(self):
        return ProposalSpec(self.mcmc.proposal, self.mcmc.step_sd)

    def build_mutation(self):
        return ProposalSpec(self.smc.mutation, self.smc.step_sd)

    def build_schedule(self):
        return BandwidthSchedule.geometric(self.smc.h_start, self.smc.h_end, self.smc.steps)


def _require(condition, message):
    if not condition:
        raise ConfigurationError(message)


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
