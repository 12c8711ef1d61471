"""Closed-form global minima and posterior-collapse analysis for linear
latent-variable models, verified against an in-package gradient-descent
oracle."""

from .closed_form import GlobalMinimum, Hyperparams, global_minimum, optimal_sigma
from .collapse import CollapseReport, beta_sweep, predict
from .data import Dataset, SyntheticSpec, center, generate, load, save
from .decoder_variance import DecVarSolution, profile_loss, solve_decoder_variance
from .spectrum import DataSpectrum, compute_spectrum
from .trainer import (
    ModelParams,
    Moments,
    TrainConfig,
    TrainResult,
    eval_grad,
    eval_loss,
    init_params,
    train,
    train_to_minimum,
)

__version__ = "0.1.0"

__all__ = [
    "CollapseReport",
    "DataSpectrum",
    "Dataset",
    "DecVarSolution",
    "GlobalMinimum",
    "Hyperparams",
    "ModelParams",
    "Moments",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "beta_sweep",
    "center",
    "compute_spectrum",
    "eval_grad",
    "eval_loss",
    "generate",
    "global_minimum",
    "init_params",
    "load",
    "optimal_sigma",
    "predict",
    "profile_loss",
    "save",
    "solve_decoder_variance",
    "train",
    "train_to_minimum",
]
