"""Bayesian inference for the choice model: design building, the
hierarchical logit target, the NUTS sampler, and convergence diagnostics."""

from .design import Design, Standardization, build_design
from .diagnostics import Diagnostics, diagnose, ess_bulk, split_rhat
from .fit import MAX_DIVERGENCE_RATE, PosteriorDraws, sample
from .model import HierarchicalLogitModel, ModelConfig, NormalPrior
from .nuts import DIVERGENCE_THRESHOLD, SampleResult, run_nuts

__all__ = [
    "Design",
    "Standardization",
    "build_design",
    "Diagnostics",
    "diagnose",
    "ess_bulk",
    "split_rhat",
    "MAX_DIVERGENCE_RATE",
    "PosteriorDraws",
    "sample",
    "HierarchicalLogitModel",
    "ModelConfig",
    "NormalPrior",
    "DIVERGENCE_THRESHOLD",
    "SampleResult",
    "run_nuts",
]
