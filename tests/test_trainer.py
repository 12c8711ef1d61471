import ast
from copy import deepcopy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from collapse_lab import closed_form as cf
from collapse_lab import decoder_variance as dv
from collapse_lab import trainer as tr
from collapse_lab.data import Dataset
from collapse_lab.errors import (
    DegenerateVariance,
    DivergenceError,
    ShapeError,
)
from collapse_lab.spectrum import DataSpectrum

import oracles
from conftest import assert_sinks_below, make_instance, params_from_minimum, sink_run
from oracles import ddv_inequality_check, eval_loss_monte_carlo, reference_value_and_grad


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", np.inf), ("learning_rate", np.nan), ("grad_tol", np.inf),
     ("grad_tol", np.nan), ("grad_tol", -1.0)],
)
def test_train_config_rejects_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        tr.TrainConfig(**{field: value})


def pack_grad(params, hp, m):
    names = list(tr._flat(params, hp)[1])
    grad = tr.eval_grad(params, m, hp)
    return names, np.concatenate([np.ravel(getattr(grad, name)) for name in names])


def numeric_grad(params, m, hp, h=1e-6):
    x0 = tr._flat(params, hp)[0]

    def loss_at(x):
        flat, views = tr._flat(params, hp)
        flat[...] = x
        return tr.eval_loss(replace(params, **views), m, hp)

    out = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        out[j] = (loss_at(x0 + e) - loss_at(x0 - e)) / (2 * h)
    return out


def random_params(rng, dim_x, dim_y, d1, scale=0.7, bias=False, ddv=False, log_s=None):
    return tr.ModelParams(
        decoder=rng.normal(size=(dim_y, d1)) * scale,
        encoder=rng.normal(size=(dim_x, d1)) * scale,
        log_sigma=rng.uniform(-1.0, 0.5, size=d1),
        enc_bias=rng.normal(size=d1) * 0.4 if bias else None,
        dec_bias=rng.normal(size=dim_y) * 0.4 if bias else None,
        var_slope=rng.normal(size=(d1, dim_x)) * 0.15 if ddv else None,
        var_offset=rng.uniform(0.8, 1.3, size=d1) if ddv else None,
        log_decvar=log_s,
    )


def kernel_paths(test):
    """Parametrize ``test`` over every path of the kernel: a zero-mean spectrum
    or a shifted dataset, biases, a data-dependent std, and fixed or learnable
    encoder stds and decoder variance."""
    test = pytest.mark.parametrize("source,bias,ddv", [
        ("spectrum", False, False),
        ("dataset", False, False),
        ("dataset", True, False),
        ("dataset", False, True),
        ("dataset", True, True),
    ])(test)
    test = pytest.mark.parametrize("sigma_mode", ["fixed", "learnable"])(test)
    return pytest.mark.parametrize("decvar_mode", ["fixed", "learnable"])(test)


def kernel_case(source, bias, ddv, sigma_mode, decvar_mode):
    """Moments, hyperparameters and three random points for one kernel path;
    the dataset is shifted, so every mean term is live."""
    g = np.random.default_rng(71)
    ds, sp = make_instance(seed=73, dim_x=4, dim_y=3, n=120)
    if source == "spectrum":
        m = tr.Moments.from_spectrum(sp)
    else:
        m = tr.Moments.from_dataset(
            Dataset(x=ds.x + g.normal(size=4), y=ds.y + g.normal(size=3))
        )
    learn_s = decvar_mode == "learnable"
    hp = cf.Hyperparams(
        beta=1.3, latent_dim=3, eta_enc=0.8, eta_dec=1.2,
        sigma_mode=sigma_mode, decvar_mode=decvar_mode,
    )
    draws = [
        random_params(g, 4, 3, 3, bias=bias, ddv=ddv, log_s=0.2 if learn_s else None)
        for _ in range(3)
    ]
    return m, hp, draws


class TestEvalLoss:
    def test_origin_value_is_target_power(self):
        """At the zero model with prior stds, only the reconstruction of
        nothing remains: E||y||^2 / (2 eta_dec^2)."""
        ds, sp = make_instance(seed=2, dim_x=3, dim_y=3)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.3, latent_dim=2, eta_dec=1.4)
        params = tr.ModelParams(
            decoder=np.zeros((3, 2)),
            encoder=np.zeros((3, 2)),
            log_sigma=np.full(2, np.log(hp.eta_enc)),
        )
        expected = sp.target_power / (2 * hp.decvar)
        assert tr.eval_loss(params, m, hp) == pytest.approx(expected, rel=1e-12)

    def test_spectrum_and_dataset_agree(self, rng):
        ds, sp = make_instance(seed=3, dim_x=4, dim_y=3)
        hp = cf.Hyperparams(beta=0.9, latent_dim=3)
        params = random_params(rng, 4, 3, 3)
        a = tr.eval_loss(params, tr.Moments.from_dataset(ds), hp)
        b = tr.eval_loss(params, tr.Moments.from_spectrum(sp), hp)
        assert a == pytest.approx(b, rel=1e-10)

    def test_monte_carlo_validates_noise_reduction(self, rng):
        """Sampled encoder noise reproduces the integrated-out loss within
        three standard errors."""
        ds, _ = make_instance(seed=5, dim_x=3, dim_y=3, n=200)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.1, latent_dim=2)
        params = random_params(rng, 3, 3, 2)
        closed = tr.eval_loss(params, m, hp)
        mc, se = eval_loss_monte_carlo(params, ds, hp, n_draws=3000, seed=11)
        assert abs(mc - closed) <= 3 * se
        mc2, _ = eval_loss_monte_carlo(params, ds, hp, n_draws=3000, seed=11)
        assert mc2 == mc  # deterministic for a fixed seed

    @kernel_paths
    def test_loss_only_paths_share_terms_once(
        self, monkeypatch, source, bias, ddv, sigma_mode, decvar_mode
    ):
        """eval_loss runs the one kernel once, with no gradient buffer, and
        gives to the bit the loss the kernel returns when it writes a gradient."""
        m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
        calls, kernel = [], tr._value_and_grad

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(tr, "_value_and_grad", counted)
        for params in draws:
            calls.clear()
            loss = tr.eval_loss(params, m, hp)
            assert [(len(args), kwargs) for args, kwargs in calls] == [(3, {})]
            _, grad = tr._flat(params)
            assert loss == kernel(params, m, hp, grad)

    def test_oracles_read_no_private_trainer_name(self):
        """The references derive what they check: tests/oracles.py reads no
        underscore-prefixed name of collapse_lab.trainer."""
        tree = ast.parse(Path(oracles.__file__).read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        aliases = {
            alias.asname or alias.name for node in imports if node.module == "collapse_lab"
            for alias in node.names if alias.name == "trainer"
        }
        assert aliases, "oracles.py no longer imports the trainer module"
        private = [
            alias.name for node in imports if node.module == "collapse_lab.trainer"
            for alias in node.names if alias.name.startswith("_")
        ] + [
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        ]
        assert private == []

    def test_solution_loss_matches_closed_form_value(self):
        ds, sp = make_instance(seed=7, dim_x=5, dim_y=4)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.7, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        loss = tr.eval_loss(params_from_minimum(gm, hp), m, hp)
        assert loss == pytest.approx(gm.predicted_loss, abs=1e-8)

    @pytest.mark.parametrize("entry", ["eval_loss", "eval_grad", "train"])
    @pytest.mark.parametrize("part, value", [
        pytest.param("decoder", np.zeros((3, 3)), id="decoder"),
        pytest.param("encoder", np.zeros((5, 2)), id="encoder"),
        pytest.param("log_sigma", np.zeros(3), id="log_sigma"),
        pytest.param("enc_bias", np.zeros(3), id="enc_bias"),
        pytest.param("dec_bias", np.zeros(1), id="dec_bias"),
        pytest.param("var_slope", np.zeros((2, 3)), id="var_slope"),
        pytest.param("var_offset", np.ones(3), id="var_offset"),
        pytest.param("log_decvar", np.zeros(2), id="log_decvar"),
        pytest.param("enc_bias", None, id="enc_bias_missing"),
        pytest.param("dec_bias", None, id="dec_bias_missing"),
        pytest.param("var_slope", None, id="var_slope_missing"),
        pytest.param("var_offset", None, id="var_offset_missing"),
    ])
    def test_shape_mismatch_raises(self, rng, part, value, entry):
        """Every misshaped part and every half pair (one bias without the other, a slope
        without its offset or the reverse) is one ShapeError that names the part, from
        each entry; the unchanged parameters pass."""
        ds, _ = make_instance(seed=9, dim_x=4, dim_y=3)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, sigma_mode="learnable",
                            decvar_mode="learnable")
        params = random_params(rng, 4, 3, 2, bias=True, ddv=True, log_s=0.2)
        run = {
            "eval_loss": tr.eval_loss,
            "eval_grad": tr.eval_grad,
            "train": lambda p, m, hp: tr.train(p, m, hp, tr.TrainConfig(max_steps=1)),
        }[entry]
        run(params, m, hp)
        with pytest.raises(ShapeError, match=rf"^{part} "):
            run(replace(params, **{part: value}), m, hp)

    def test_ddv_needs_samples(self, rng):
        _, sp = make_instance(seed=11, dim_x=3, dim_y=2)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        params = random_params(rng, 3, 2, 2, ddv=True)
        with pytest.raises(ShapeError):
            tr.eval_loss(params, m, hp)

    def test_ddv_zero_std_sample_raises(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = Dataset(x=x, y=x.copy())
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        params = tr.ModelParams(
            decoder=np.zeros((2, 1)),
            encoder=np.zeros((2, 1)),
            log_sigma=np.zeros(1),
            var_slope=np.array([[1.0, 0.0]]),
            var_offset=np.array([1.0]),  # |x0 + 1| = 0 on the second sample
        )
        with pytest.raises(DegenerateVariance):
            tr.eval_loss(params, m, hp)


class TestEvalGrad:
    @pytest.mark.parametrize("bias,ddv,learn_s", [
        (False, False, False),
        (True, False, False),
        (False, True, False),
        (True, True, True),
        (False, False, True),
    ])
    def test_matches_central_finite_differences(self, rng, bias, ddv, learn_s):
        ds, _ = make_instance(seed=13, dim_x=4, dim_y=3, n=150)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(
            beta=1.4,
            latent_dim=3,
            eta_enc=1.1,
            eta_dec=0.9,
            decvar_mode="learnable" if learn_s else "fixed",
        )
        for trial in range(2):
            params = random_params(
                rng, 4, 3, 3, bias=bias, ddv=ddv, log_s=0.3 if learn_s else None
            )
            names, analytic = pack_grad(params, hp, m)
            numeric = numeric_grad(params, m, hp)
            scale = 1.0 + np.max(np.abs(numeric))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    @pytest.mark.parametrize("ddv", [False, True])
    @pytest.mark.parametrize("sigma_mode", ["fixed", "learnable"])
    @pytest.mark.parametrize("decvar_mode", ["fixed", "learnable"])
    def test_no_bias_skip_matches_zero_biases(self, ddv, sigma_mode, decvar_mode):
        """Without biases the kernel skips the mean terms even though the
        shifted data's means are nonzero; zero biases run them in full, and
        give the same loss and, on every shared field, the same gradient bits."""
        m, hp, draws = kernel_case("dataset", False, ddv, sigma_mode, decvar_mode)
        assert m.mean_x.all() and m.mean_y.all()
        for params in draws:
            zero_bias = replace(params, enc_bias=np.zeros(3), dec_bias=np.zeros(3))
            (_, grad), (_, full) = tr._flat(params), tr._flat(zero_bias)
            assert tr._value_and_grad(params, m, hp, grad) == tr._value_and_grad(
                zero_bias, m, hp, full
            )
            for name, got in grad.items():
                assert got.tobytes() == full[name].tobytes(), name

    def test_gradient_vanishes_at_optimal_biases(self, rng):
        """For any encoder/decoder, zeroing the bias gradient requires the
        encoder bias to cancel the input mean and the decoder bias to
        match the target mean."""
        for seed in range(20):
            g = np.random.default_rng(seed)
            n, dim_x, dim_y, d1 = 60, 3, 2, 2
            x = g.normal(size=(n, dim_x)) + g.normal(size=dim_x) * 2.0
            y = g.normal(size=(n, dim_y)) + g.normal(size=dim_y) * 2.0
            ds = Dataset(x=x, y=y)
            m = tr.Moments.from_dataset(ds)
            hp = cf.Hyperparams(beta=1.2, latent_dim=d1)
            params = random_params(g, dim_x, dim_y, d1, bias=True)
            params.enc_bias = -params.encoder.T @ x.mean(axis=0)
            params.dec_bias = y.mean(axis=0)
            grad = tr.eval_grad(params, m, hp)
            assert np.max(np.abs(grad.enc_bias)) <= 1e-8
            assert np.max(np.abs(grad.dec_bias)) <= 1e-8


@pytest.mark.parametrize("source", ["dataset", "spectrum"])
@pytest.mark.parametrize("entry", ["init_params", "eval_loss", "eval_grad", "train", "train_seed"])
def test_entries_take_only_moments(source, entry):
    """Every trainer entry refuses raw data with one TypeError that names the
    two Moments constructors, instead of failing deep inside the kernel."""
    ds, sp = make_instance(seed=3, dim_x=4, dim_y=3)
    data = ds if source == "dataset" else sp
    hp = cf.Hyperparams(beta=0.9, latent_dim=3)
    params = tr.init_params(tr.Moments.from_dataset(ds), hp)
    calls = {
        "init_params": lambda: tr.init_params(data, hp),
        "eval_loss": lambda: tr.eval_loss(params, data, hp),
        "eval_grad": lambda: tr.eval_grad(params, data, hp),
        "train": lambda: tr.train(params, data, hp),
        "train_seed": lambda: tr.train(0, data, hp),
    }
    with pytest.raises(TypeError, match="Moments.from_dataset or Moments.from_spectrum"):
        calls[entry]()


def test_second_moment_exactly_symmetric():
    """The kernel's residual stands in for ``a k^T - cross`` only when
    ``a`` equals its transpose to the bit, for either constructor."""
    for seed in range(20):
        ds, sp = make_instance(seed=seed, dim_x=2 + seed % 7, dim_y=3, n=50)
        for m in (tr.Moments.from_dataset(ds), tr.Moments.from_spectrum(sp)):
            assert np.array_equal(m.a, m.a.T)


@kernel_paths
def test_kernel_matches_term_by_term_reference(source, bias, ddv, sigma_mode, decvar_mode):
    """The fused kernel, on the fields ``train`` updates, gives the loss and
    gradient of the term-by-term reference to 1e-12 relative."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    for params in draws:
        _, grad = tr._flat(params, hp)
        loss = tr._value_and_grad(params, m, hp, grad)
        ref_loss, ref = reference_value_and_grad(params, m, hp)
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        for name, got in grad.items():
            scale = max(1.0, float(np.max(np.abs(ref[name]))))
            assert np.max(np.abs(got - ref[name])) <= 1e-12 * scale, name


class TestTrain:
    def test_converges_at_solution_immediately(self):
        ds, sp = make_instance(seed=17, dim_x=4, dim_y=4)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.2, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        result = tr.train(
            params_from_minimum(gm, hp), m, hp, tr.TrainConfig(grad_tol=1e-7)
        )
        assert result.converged and result.steps == 0

    @pytest.mark.parametrize("optimizer", ["adam", "gd"])
    @pytest.mark.parametrize(
        "sigma_mode, decvar_mode, bias, ddv",
        [("fixed", "fixed", False, False), ("learnable", "fixed", False, False),
         ("learnable", "learnable", True, False), ("learnable", "fixed", False, True)],
    )
    def test_init_is_never_written_or_shared(self, optimizer, sigma_mode, decvar_mode, bias, ddv):
        ds, _ = make_instance(seed=7, dim_x=3, dim_y=3, n=60)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=0.8, latent_dim=2, sigma_mode=sigma_mode, decvar_mode=decvar_mode)
        init = tr.init_params(m, hp, seed=1, bias=bias, ddv=ddv)
        before = {f.name: deepcopy(getattr(init, f.name)) for f in fields(init)}
        result = tr.train(init, m, hp, tr.TrainConfig(optimizer, 1e-2, max_steps=20, grad_tol=0.0))
        assert result.steps > 0
        for name, old in before.items():
            now, trained = getattr(init, name), getattr(result.params, name)
            assert np.array_equal(now, old) if old is not None else now is None, name
            if isinstance(now, np.ndarray):
                assert not np.shares_memory(now, trained), name

    @pytest.mark.parametrize("optimizer, max_steps, grad_tol", [
        ("adam", 300, 0.0), ("gd", 300, 0.0), ("adam", 20000, 1e-3),
    ])
    def test_grad_norm_is_taken_at_returned_params(self, optimizer, max_steps, grad_tol):
        """``grad_norm`` is the gradient max-norm over the trained fields at the
        parameters ``train`` returns, whether it runs out of steps or converges."""
        ds, _ = make_instance(seed=7, dim_x=4, dim_y=3, n=100)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=0.8, latent_dim=3, sigma_mode="learnable")
        init = tr.init_params(m, hp, seed=2, bias=True)
        cfg = tr.TrainConfig(optimizer, 1e-2, max_steps=max_steps, grad_tol=grad_tol)
        result = tr.train(init, m, hp, cfg)
        assert result.converged == (grad_tol > 0)
        assert result.converged or result.steps == cfg.max_steps
        grad = tr.eval_grad(result.params, m, hp)
        assert result.grad_norm == max(
            float(np.max(np.abs(getattr(grad, name))))
            for name in tr._flat(result.params, hp)[1]
        )

    def test_recovers_closed_form_minimum(self):
        ds, sp = make_instance(seed=19, dim_x=5, dim_y=5, scale=1.2)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=1.1, latent_dim=4)
        gm = cf.global_minimum(sp, hp)
        first = tr.train(
            0, m, hp, tr.TrainConfig("adam", 5e-3, max_steps=8000, grad_tol=1e-9)
        )
        result = tr.train(
            first.params, m, hp, tr.TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-9)
        )
        rel = abs(result.final_loss - gm.predicted_loss) / (1 + abs(gm.predicted_loss))
        assert rel < 1e-6

    def test_complete_collapse_training_zeroes_model(self):
        ds, sp = make_instance(seed=23, dim_x=4, dim_y=4)
        m = tr.Moments.from_spectrum(sp)
        top = float(sp.singular_values[0] ** 2)
        hp = cf.Hyperparams(beta=top * 1.3, latent_dim=3)
        first = tr.train(1, m, hp, tr.TrainConfig("adam", 5e-3, max_steps=6000, grad_tol=1e-10))
        result = tr.train(
            first.params, m, hp, tr.TrainConfig("gd", 0.05, max_steps=2000, grad_tol=1e-10)
        )
        assert np.linalg.norm(result.params.decoder) <= 1e-3
        v = (sp.basis * np.sqrt(sp.eigenvalues)).T @ result.params.encoder
        assert np.linalg.norm(v) <= 1e-3
        np.testing.assert_allclose(result.params.sigma, hp.eta_enc, atol=1e-3)

    def test_plain_gd_descends_monotonically(self):
        ds, sp = make_instance(seed=29, dim_x=4, dim_y=3)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=0.8, latent_dim=2)
        result = tr.train(
            3, m, hp, tr.TrainConfig("gd", 0.5, max_steps=400, grad_tol=0.0), trace=True
        )
        diffs = np.diff(result.loss_trace)
        assert np.all(diffs <= 0.0)

    def test_divergence_raises_at_bad_init(self):
        ds, sp = make_instance(seed=31, dim_x=3, dim_y=3)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        bad = tr.init_params(m, hp, seed=0)
        bad.log_sigma = np.full(2, 800.0)  # sigma^2 overflows to inf
        bad.decoder = np.ones((3, 2))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DivergenceError) as err:
                tr.train(bad, m, hp, tr.TrainConfig("adam", 1e-3, max_steps=10))
        assert err.value.step == 0

    def test_divergence_raises_mid_run(self):
        """An absurd step size on the learnable decoder variance drives it
        to exact zero within a few steps; the 1/s term overflows and the
        failing step is reported, with no floating-point warning."""
        sp = DataSpectrum.from_singular_values([1.5, 1.0], dim_y=2)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=0.5, latent_dim=2, decvar_mode="learnable")
        with pytest.raises(DivergenceError) as err:
            tr.train(0, m, hp, tr.TrainConfig("adam", 400.0, max_steps=50, grad_tol=0.0))
        assert err.value.step >= 1

    def test_deterministic_for_fixed_seed(self):
        ds, sp = make_instance(seed=37, dim_x=3, dim_y=3)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        cfg = tr.TrainConfig("adam", 1e-3, max_steps=300, grad_tol=1e-12)
        a = tr.train(5, m, hp, cfg)
        b = tr.train(5, m, hp, cfg)
        assert a.final_loss == b.final_loss
        assert a.params.decoder.tobytes() == b.params.decoder.tobytes()

    def test_rotating_converged_model_keeps_loss(self):
        """With isotropic stds the converged loss is exactly blind to an
        orthogonal remix of the latent columns."""
        ds, sp = make_instance(seed=43, dim_x=4, dim_y=3)
        hp = cf.Hyperparams(beta=0.9, latent_dim=3, sigma_mode="fixed")
        result = tr.train(
            2, tr.Moments.from_spectrum(sp), hp,
            tr.TrainConfig("adam", 5e-3, max_steps=4000, grad_tol=1e-9),
        )
        m = tr.Moments.from_dataset(ds)
        base = tr.eval_loss(result.params, m, hp)
        for seed in range(4):
            rot = cf.random_rotation(3, seed)
            rotated = replace(
                result.params, decoder=result.params.decoder @ rot,
                encoder=result.params.encoder @ rot,
            )
            assert abs(tr.eval_loss(rotated, m, hp) - base) <= 1e-10

    def test_trained_biases_land_on_optimal_values(self):
        g = np.random.default_rng(47)
        x = g.normal(size=(80, 3)) + np.array([2.0, -1.0, 0.5])
        m = g.normal(size=(2, 3))
        y = x @ m.T + np.array([1.5, -0.7])
        moments = tr.Moments.from_dataset(Dataset(x=x, y=y))
        hp = cf.Hyperparams(beta=0.8, latent_dim=2)
        init = tr.init_params(moments, hp, seed=0, bias=True)
        cfg = tr.TrainConfig("adam", 5e-3, max_steps=6000, grad_tol=1e-10)
        first = tr.train(init, moments, hp, cfg)
        result = tr.train(
            first.params, moments, hp, tr.TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-10)
        )
        p = result.params
        np.testing.assert_allclose(
            p.enc_bias, -p.encoder.T @ x.mean(axis=0), atol=1e-3
        )
        np.testing.assert_allclose(p.dec_bias, y.mean(axis=0), atol=1e-3)


class TestDataDependentVariance:
    def test_flat_twin_identical_when_slope_zero(self, rng):
        """With zero slope the flat twin is the point itself. The offset is
        chosen so that its squares and their mean are exact in binary; then
        the twin's offset sqrt(mean(t^2)) is the original to the bit."""
        ds, _ = make_instance(seed=53, dim_x=3, dim_y=2, n=100)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        params = random_params(rng, 3, 2, 2, ddv=True)
        params.var_slope = np.zeros_like(params.var_slope)
        params.var_offset = np.array([0.75, 1.25])
        t = ds.x @ params.var_slope.T + params.var_offset
        assert np.array_equal(np.sqrt(np.mean(t**2, axis=0)), params.var_offset)
        lhs, rhs = ddv_inequality_check(params, ds, hp)
        assert lhs == rhs

    def test_inequality_holds_over_100_draws(self):
        ds, _ = make_instance(seed=59, dim_x=3, dim_y=2, n=120)
        hp = cf.Hyperparams(beta=1.4, latent_dim=2)
        g = np.random.default_rng(61)
        for _ in range(100):
            params = random_params(g, 3, 2, 2, ddv=True)
            lhs, rhs = ddv_inequality_check(params, ds, hp)
            assert lhs >= rhs - 1e-10

    def test_training_flattens_the_slope(self):
        ds, _ = make_instance(seed=67, dim_x=3, dim_y=3, n=200)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.2, latent_dim=2)
        init = tr.init_params(m, hp, seed=4, ddv=True)
        first = tr.train(init, m, hp, tr.TrainConfig("adam", 5e-3, max_steps=8000, grad_tol=1e-10))
        result = tr.train(
            first.params, m, hp, tr.TrainConfig("gd", 0.05, max_steps=3000, grad_tol=1e-10)
        )
        assert np.linalg.norm(result.params.var_slope) <= 1e-3


class TestLearnableDecoderVariance:
    def test_converges_to_profile_optimum(self):
        zeta = np.array([2.2, 1.6, 0.9, 0.5])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=5)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, decvar_mode="learnable")
        sol = dv.solve_decoder_variance(sp, hp)
        first = tr.train(0, m, hp, tr.TrainConfig("adam", 5e-3, max_steps=8000, grad_tol=1e-10))
        result = tr.train(
            first.params, m, hp, tr.TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-10)
        )
        assert abs(result.params.decvar - sol.s_star) / sol.s_star <= 1e-3

    def test_ill_posed_variance_decays_past_any_floor(self):
        """In the ill-posed regime the decoder variance has no minimizer;
        training pushes it below every decade threshold for good."""
        zeta = np.array([1.8, 1.2, 0.7])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=3)
        hp = cf.Hyperparams(beta=0.5, latent_dim=3, decvar_mode="learnable")
        assert dv.solve_decoder_variance(sp, hp).regime == dv.REGIME_ILL_POSED
        assert_sinks_below(sink_run(sp, hp, seed=1), floor=1e-4)
