"""Shared helpers for the test suite."""

import numpy as np
import pytest

from collapse_lab import closed_form as cf
from collapse_lab.data import center, generate, random_spec
from collapse_lab.spectrum import DataSpectrum, compute_spectrum
from collapse_lab.trainer import ModelParams


def make_instance(seed, dim_x=4, dim_y=4, n=600, scale=1.5, rank=None):
    """Centered synthetic dataset plus its spectrum."""
    spec = random_spec(dim_x, dim_y, n_samples=n, seed=seed, rank=rank, signal_scale=scale)
    ds, _, _ = center(generate(spec))
    return ds, compute_spectrum(ds)


def params_from_minimum(gm: cf.GlobalMinimum, hp: cf.Hyperparams) -> ModelParams:
    """ModelParams sitting exactly at a closed-form minimum."""
    return ModelParams(
        decoder=np.array(gm.decoder, copy=True),
        encoder=np.array(gm.encoder, copy=True),
        log_sigma=np.log(gm.sigma),
        log_decvar=float(np.log(hp.decvar)) if hp.decvar_mode == "learnable" else None,
    )


def random_case3_spectrum(rng, n_modes=None, d1=None, d2=None):
    """Spectrum + hyperparams guaranteed to have a unique finite optimum
    of the decoder-variance profile (latent strictly smaller than the
    signal rank)."""
    n_modes = n_modes or int(rng.integers(3, 7))
    d1 = d1 or int(rng.integers(1, n_modes))
    d2 = d2 or int(rng.integers(n_modes, n_modes + 4))
    zeta = np.sort(rng.uniform(0.4, 3.0, size=n_modes))[::-1]
    sp = DataSpectrum.from_singular_values(zeta, dim_y=d2)
    beta = float(rng.uniform(0.1, 2.0) * d2 / n_modes)
    hp = cf.Hyperparams(beta=beta, latent_dim=d1)
    return sp, hp


def sink_run(sp, hp, seed, phases=((2e-2, 2000), (4e-3, 2000), (8e-4, 2000))):
    """Train with a stepped-down learning rate (the conditioning of the
    loss diverges as the decoder variance sinks, so a fixed step cannot
    follow it down) and return the concatenated variance trace."""
    from collapse_lab import trainer as tr

    traces = []
    params, m = seed, tr.Moments.from_spectrum(sp)
    for lr, steps in phases:
        result = tr.train(
            params, m, hp,
            tr.TrainConfig("adam", lr, max_steps=steps, grad_tol=0.0),
            trace=True,
        )
        traces.append(result.decvar_trace if not traces else result.decvar_trace[1:])
        params = result.params
    return np.concatenate(traces)


def assert_sinks_below(s_trace, floor=1e-4):
    """The decoder-variance trace sinks below every decade threshold and
    leaves it behind for good well before the step cap, crossing the
    thresholds in order, with a cleanly monotone early descent. Captures
    "keeps decreasing below any fixed threshold" while tolerating the
    short-scale ripple of a first-order optimizer near its noise floor."""
    s_trace = np.asarray(s_trace)
    assert s_trace[-1] < floor
    peak = int(np.argmax(s_trace))
    tail = s_trace[peak:]
    previous_first = -1
    for threshold in (1e-1, 1e-2, 1e-3, floor):
        below = np.nonzero(tail < threshold)[0]
        assert below.size > 0, f"never went below {threshold}"
        assert below[0] >= previous_first, "thresholds crossed out of order"
        previous_first = below[0]
        above = np.nonzero(tail >= threshold)[0]
        settled = above[-1] + 1 if above.size else 0
        assert settled <= 0.9 * tail.size, f"did not settle below {threshold}"
    coarse = tail[::100]
    first = np.nonzero(coarse < 1e-2)[0][0]
    assert np.all(np.diff(coarse[: first + 1]) < 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
