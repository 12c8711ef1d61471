"""Closed-form global minima and posterior-collapse analysis for linear
latent-variable models, verified against an in-package gradient-descent
oracle.

Every public name, and every submodule, is imported on first access
(PEP 562): ``import collapse_lab`` loads none of the submodules, so a
command that never trains never loads the oracle (``trainer``, ``verify``).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name under its home module
_HOMES = {
    name: module
    for module, names in {
        "closed_form": "GlobalMinimum Hyperparams global_minimum optimal_sigma",
        "collapse": "CollapseReport beta_sweep predict",
        "data": "Dataset SyntheticSpec center generate load save",
        "decoder_variance": "DecVarSolution profile_loss solve_decoder_variance",
        "spectrum": "DataSpectrum compute_spectrum",
        "trainer": "ModelParams Moments TrainConfig TrainResult eval_grad eval_loss "
                   "init_params train train_to_minimum",
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_HOMES.values(), "cli", "errors", "verify"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        # looked up on every access, so a name rebound in its home module reads the same here
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
