import ast
import itertools
import re
from copy import deepcopy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import collapse_lab
from collapse_lab import closed_form as cf
from collapse_lab import decoder_variance as dv
from collapse_lab import trainer as tr
from collapse_lab.data import Dataset, center
from collapse_lab.errors import DegenerateVariance, DivergenceError
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
        """eval_loss binds the one kernel once, with no gradient buffer, evaluates it
        once, and gives to the bit the loss the kernel returns when it writes a gradient."""
        m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
        binds, evaluations, kernel = [], [], tr._kernel

        def counted(*args, **kwargs):
            binds.append((args, kwargs))
            evaluate = kernel(*args, **kwargs)

            def counted_evaluate():
                evaluations.append(1)
                return evaluate()

            return counted_evaluate

        monkeypatch.setattr(tr, "_kernel", counted)
        for params in draws:
            binds.clear()
            evaluations.clear()
            loss = tr.eval_loss(params, m, hp)
            assert [(len(args), kwargs) for args, kwargs in binds] == [(3, {})]
            assert len(evaluations) == 1
            assert loss == kernel(params, m, hp, tr._flat(params))()

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
        without its offset or the reverse) is one ValueError that names the part, from
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
        with pytest.raises(ValueError, match=rf"^{part} "):
            run(replace(params, **{part: value}), m, hp)

    def test_decvar_mode_must_match_log_decvar(self):
        """log_decvar is present exactly when hp.decvar_mode is learnable. Each
        mismatch is one ValueError naming log_decvar, from every entry: a learnable
        hp without it once kept s fixed, and a fixed hp with it once learned s."""
        m = tr.Moments.from_spectrum(DataSpectrum.from_singular_values([3.0, 2.0, 1.0], 3))
        entries = (tr.eval_loss, tr.eval_grad,
                   lambda p, m, hp: tr.train(p, m, hp, tr.TrainConfig(max_steps=300)))
        for decvar_mode, log_decvar in (("learnable", None), ("fixed", 0.0)):
            hp = cf.Hyperparams(beta=1.0, latent_dim=2, decvar_mode=decvar_mode)
            params = replace(tr.init_params(m, hp), log_decvar=log_decvar)
            for run in entries:
                with pytest.raises(ValueError, match="^log_decvar "):
                    run(params, m, hp)

    def test_ddv_needs_samples(self, rng):
        _, sp = make_instance(seed=11, dim_x=3, dim_y=2)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        params = random_params(rng, 3, 2, 2, ddv=True)
        with pytest.raises(ValueError):
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
            own, full = tr._flat(params), tr._flat(zero_bias)
            assert tr._kernel(params, m, hp, own)() == tr._kernel(zero_bias, m, hp, full)()
            for name, got in own[1].items():
                assert got.tobytes() == full[1][name].tobytes(), name

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


def test_package_surface_carries_the_advice():
    """Every name ``collapse_lab.__all__`` lists resolves, and the trainer's TypeError
    advice can be followed through ``collapse_lab`` alone: each ``Moments``
    constructor it names builds moments that ``init_params`` and ``train`` take."""
    assert [name for name in collapse_lab.__all__ if not hasattr(collapse_lab, name)] == []
    ds, sp = make_instance(seed=3, dim_x=4, dim_y=3)
    hp = collapse_lab.Hyperparams(beta=0.9, latent_dim=3)
    with pytest.raises(TypeError) as refused:
        collapse_lab.train(0, ds, hp)
    advice = re.findall(r"\b(\w+)\.(from_\w+)", str(refused.value))
    assert advice == [("Moments", "from_dataset"), ("Moments", "from_spectrum")]
    for (cls, ctor), data in zip(advice, (ds, sp)):
        m = getattr(getattr(collapse_lab, cls), ctor)(data)
        init = collapse_lab.init_params(m, hp, seed=1)
        assert collapse_lab.train(init, m, hp, collapse_lab.TrainConfig(max_steps=5)).steps == 5


def test_second_moment_exactly_symmetric():
    """The kernel's residual stands in for ``a k^T - cross`` only when
    ``a`` equals its transpose to the bit, for either constructor."""
    for seed in range(20):
        ds, sp = make_instance(seed=seed, dim_x=2 + seed % 7, dim_y=3, n=50)
        for m in (tr.Moments.from_dataset(ds), tr.Moments.from_spectrum(sp)):
            assert np.array_equal(m.a, m.a.T)


def test_moments_dims_come_from_arrays():
    """Both constructors read the sizes off ``a`` and ``cross``; neither can be passed."""
    ds, sp = make_instance(seed=61, dim_x=6, dim_y=3, rank=3)
    for m in (tr.Moments.from_dataset(ds), tr.Moments.from_spectrum(sp)):
        assert (m.dim_x, m.dim_y) == (m.a.shape[0], m.cross.shape[1]) == (6, 3)
    arrays = {f.name: getattr(m, f.name) for f in fields(m) if f.init}
    assert set(arrays) == {"a", "cross", "mean_x", "mean_y", "target_power", "samples_x"}
    for name in ("dim_x", "dim_y"):
        with pytest.raises(TypeError, match=name):
            tr.Moments(**arrays, **{name: 6})


@pytest.mark.parametrize(
    "part, bad",
    [
        # an a off its transpose leaves the kernel's encoder gradient wrong, not an error
        ("a", lambda a: a + 0.3 * np.eye(3, k=1)),
        ("a", lambda a: a[:, :2]),
        # a cross of the wrong height would fail later as a numpy broadcast error
        ("cross", lambda cross: cross[:2]),
        ("mean_x", lambda mean_x: mean_x[:2]),
        ("mean_y", lambda mean_y: np.zeros(3)),
        ("samples_x", lambda samples_x: samples_x[:, :2]),
    ],
)
def test_moments_refuse_what_the_kernel_assumes(part, bad):
    ds, _ = make_instance(seed=61, dim_x=3, dim_y=2)
    m = tr.Moments.from_dataset(ds)
    arrays = {f.name: getattr(m, f.name) for f in fields(m) if f.init}
    with pytest.raises(ValueError, match=part):
        tr.Moments(**{**arrays, part: bad(arrays[part])})


@pytest.mark.parametrize("decvar_mode", ["fixed", "learnable"])
def test_whitening_is_a_change_of_variables(rng, decvar_mode):
    """Unit eigenvalues are an exact change of variables for the oracle: the
    loss on the raw moments at (U, W) equals the loss on the whitened moments
    at (U, a^(1/2) W), so ``verify`` may train in either coordinates."""
    _, sp = make_instance(seed=83, dim_x=5, dim_y=4)
    white = replace(sp, eigenvalues=np.ones_like(sp.eigenvalues))
    raw_m, white_m = tr.Moments.from_spectrum(sp), tr.Moments.from_spectrum(white)
    root = (sp.basis * np.sqrt(sp.eigenvalues)) @ sp.basis.T
    hp = cf.Hyperparams(beta=1.3, latent_dim=3, sigma_mode="learnable", decvar_mode=decvar_mode)
    for _ in range(5):
        params = random_params(rng, 5, 4, 3, log_s=0.2 if decvar_mode == "learnable" else None)
        raw = tr.eval_loss(params, raw_m, hp)
        whitened = tr.eval_loss(replace(params, encoder=root @ params.encoder), white_m, hp)
        assert abs(whitened - raw) <= 1e-12 * abs(raw)


@kernel_paths
def test_kernel_matches_term_by_term_reference(source, bias, ddv, sigma_mode, decvar_mode):
    """The fused kernel, on the fields ``train`` updates, gives the loss and
    gradient of the term-by-term reference to 1e-12 relative."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    for params in draws:
        flat, grad = tr._flat(params, hp)
        loss = tr._kernel(params, m, hp, (flat, grad))()
        ref_loss, ref = reference_value_and_grad(params, m, hp)
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        for name, got in grad.items():
            scale = max(1.0, float(np.max(np.abs(ref[name]))))
            assert np.max(np.abs(got - ref[name])) <= 1e-12 * scale, name


@kernel_paths
def test_flat_lays_out_every_buffer(source, bias, ddv, sigma_mode, decvar_mode):
    """``_flat`` is the one layout of the flat buffers. By default it copies ``p``'s set fields;
    given a buffer it returns that buffer and views into it, with ``p``'s shapes, in field
    order, the stds only where ``train`` updates them. ``eval_grad``, which lays out its
    result with it, leaves the stds' slot exactly 0 under a data-dependent std."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    params = draws[0]
    names = [f.name for f in fields(params) if getattr(params, f.name) is not None]
    fixed_sigma = sigma_mode == "fixed" or ddv
    trained = [name for name in names if not (name == "log_sigma" and fixed_sigma)]
    for layout_hp, want in ((None, names), (hp, trained)):
        copy, views = tr._flat(params, layout_hp)
        assert list(views) == want and copy.dtype == np.float64
        for name, view in views.items():
            assert np.array_equal(view, getattr(params, name)), name
            assert not np.shares_memory(view, getattr(params, name)), name
        buf = np.empty(copy.size)
        got, views = tr._flat(params, layout_hp, buf)
        assert got is buf and list(views) == want
        buf[...] = np.arange(buf.size)  # each view reads its own slice, in field order
        offset = 0
        for name, view in views.items():
            assert view.shape == np.shape(getattr(params, name)), name
            assert np.array_equal(view.ravel(), np.arange(offset, offset + view.size)), name
            offset += view.size
        assert offset == buf.size
    if ddv:
        assert tr.eval_grad(params, m, hp).log_sigma.tobytes() == np.zeros(3).tobytes()


@kernel_paths
def test_bound_gates_the_gradient(source, bias, ddv, sigma_mode, decvar_mode):
    """With a bound below the loss the evaluator returns the loss and writes no gradient
    view; with a bound at or above it, it writes exactly ``eval_grad``'s values. Either
    way the loss is ``eval_loss``'s to the bit. A NaN loss is below no bound, so it
    writes its gradient as ``eval_grad`` does."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    draws.append(replace(draws[0], encoder=np.full_like(draws[0].encoder, np.nan)))
    sentinel = 1234.5
    for params in draws:
        loss, want = tr.eval_loss(params, m, hp), tr.eval_grad(params, m, hp)
        below, above = np.nextafter(loss, -np.inf), np.nextafter(loss, np.inf)
        for bound in (-np.inf, below, loss, above, np.inf):
            flat, grad = tr._flat(params, hp)
            flat[...] = sentinel
            got = tr._kernel(params, m, hp, (flat, grad))(bound)
            assert np.array_equal(got, loss, equal_nan=True)
            for name, view in grad.items():
                if bound < loss:
                    assert np.all(view == sentinel), name
                else:
                    assert view.tobytes() == np.asarray(getattr(want, name)).tobytes(), name


def test_joint_division_matches_the_separate_ones():
    """The kernel writes the decoder's and the encoder's numerators and, when it trains the
    stds, the decoder's squared column norms ``col_sq`` side by side and divides them by the decoder
    variance at once. For every shape with d0, d2 in 1..10 and d1 in 1..12 (verify's range and
    beyond) that one division equals a division of each, to the bit."""
    rng = np.random.default_rng(27)
    s = np.array(rng.uniform(0.5, 2.0))
    for d0, d2, d1 in itertools.product(range(1, 11), range(1, 11), range(1, 13)):
        num_dec, num_enc = rng.standard_normal((d2, d1)), rng.standard_normal((d0, d1))
        col_sq = np.add.reduce(np.square(rng.standard_normal((d2, d1))), 0)
        parts = (num_dec, num_enc, col_sq)
        joint = np.divide(np.concatenate([part.ravel() for part in parts]), s)
        assert joint.tobytes() == b"".join((part / s).tobytes() for part in parts)


@pytest.mark.parametrize("dims", [(3, 1, 2), (4, 3, 1), (12, 3, 2), (2, 2, 2), (16, 7, 10)])
@pytest.mark.parametrize("bias", [False, True])
def test_kernel_matches_reference_at_edge_shapes(dims, bias):
    """At shapes numpy sends to gemv (a one-row residual, a one-column encoder) or to gemm,
    the kernel's flat-buffer gradient gives the term-by-term reference's loss and gradient
    to 1e-12 relative, and ``eval_loss``'s loss to the bit."""
    d0, d2, d1 = dims
    g = np.random.default_rng(d0 + 10 * d2 + 100 * d1)
    ds, _ = make_instance(seed=5, dim_x=d0, dim_y=d2, n=200)
    m = tr.Moments.from_dataset(Dataset(x=ds.x + g.normal(size=d0), y=ds.y + g.normal(size=d2)))
    hp = cf.Hyperparams(beta=1.3, latent_dim=d1, sigma_mode="learnable")
    params = random_params(g, d0, d2, d1, bias=bias)
    flat, grad = tr._flat(params, hp)
    loss = tr._kernel(params, m, hp, (flat, grad))()
    ref_loss, ref = reference_value_and_grad(params, m, hp)
    assert loss == tr.eval_loss(params, m, hp)
    assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    for name, got in grad.items():
        scale = max(1.0, float(np.max(np.abs(ref[name]))))
        assert np.max(np.abs(got - ref[name])) <= 1e-12 * scale, name


def train_as_reference(init, m, hp, cfg):
    """``train`` from ``init``, traced and untraced, checked against the plain loops of
    ``oracles.reference_train`` over the public ``eval_loss`` and ``eval_grad``: the same loss
    trace, final loss, step count, convergence, gradient max-norm and final parameters, to
    the bit. The untraced run, whose Adam steps take only the gradient, returns what the
    traced run does."""
    result = tr.train(init, m, hp, cfg, trace=True)
    untraced = tr.train(init, m, hp, cfg)
    trace, steps, params = oracles.reference_train(init, m, hp, cfg)
    grad = tr.eval_grad(params, m, hp)
    grad_norm = max(
        float(np.max(np.abs(getattr(grad, name)))) for name in tr._flat(params, hp)[1])
    assert result.loss_trace.tobytes() == trace.tobytes()
    for run in (result, untraced):
        assert (run.final_loss, run.steps, run.grad_norm) == (trace[-1], steps, grad_norm)
        assert run.converged == (steps < cfg.max_steps and grad_norm <= cfg.grad_tol)
        assert run.stop_reason == result.stop_reason
        for f in fields(params):
            got, want = getattr(run.params, f.name), getattr(params, f.name)
            assert (got is None) == (want is None), f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
    return result


@kernel_paths
def test_gradient_only_call_writes_the_full_calls_gradient(
    source, bias, ddv, sigma_mode, decvar_mode
):
    """With ``value`` false the evaluator returns None and writes ``eval_grad``'s values, to
    the bit, also when the bound evaluator last ran at another point."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    x, views = tr._flat(draws[0])
    flat, grad = tr._flat(draws[0], hp)
    evaluate = tr._kernel(replace(draws[0], **views), m, hp, (flat, grad))
    for params in draws:
        want = tr.eval_grad(params, m, hp)
        x[...] = tr._flat(params)[0]  # the bound arrays take the point's values
        assert evaluate(np.inf, False) is None
        for name, view in grad.items():
            assert view.tobytes() == np.asarray(getattr(want, name)).tobytes(), name


@kernel_paths
@pytest.mark.parametrize("optimizer", ["adam", "gd"])
def test_train_matches_reference_loop_to_the_bit(
    optimizer, source, bias, ddv, sigma_mode, decvar_mode
):
    """``train``'s bound kernel, stacked Adam moments and gated GD trials step the
    trajectory of the plain loops, to the bit."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    cfg = tr.TrainConfig(optimizer, 1e-2, max_steps=60, grad_tol=0.0)
    assert train_as_reference(draws[0], m, hp, cfg).steps == cfg.max_steps


@pytest.mark.parametrize("dims", [(3, 1, 2), (4, 3, 1), (2, 2, 2), (16, 7, 10)])
@pytest.mark.parametrize("decvar_mode", ["fixed", "learnable"])
@pytest.mark.parametrize("optimizer", ["adam", "gd"])
def test_train_matches_reference_loop_at_edge_shapes(optimizer, decvar_mode, dims):
    """With learnable stds, whose gradient the kernel divides with the numerators at offsets
    set by d2 d1 and d0 d1, ``train`` steps the plain loops' trajectory to the bit at the
    edge shapes of ``test_kernel_matches_reference_at_edge_shapes``."""
    d0, d2, d1 = dims
    g = np.random.default_rng(d0 + 10 * d2 + 100 * d1)
    ds, _ = make_instance(seed=5, dim_x=d0, dim_y=d2, n=200)
    m = tr.Moments.from_dataset(Dataset(x=ds.x + g.normal(size=d0), y=ds.y + g.normal(size=d2)))
    hp = cf.Hyperparams(beta=1.3, latent_dim=d1, sigma_mode="learnable", decvar_mode=decvar_mode)
    log_s = 0.2 if decvar_mode == "learnable" else None
    params = random_params(g, d0, d2, d1, log_s=log_s)
    cfg = tr.TrainConfig(optimizer, 1e-2, max_steps=40, grad_tol=0.0)
    assert train_as_reference(params, m, hp, cfg).steps == cfg.max_steps


@kernel_paths
@pytest.mark.parametrize("optimizer", ["adam", "gd"])
@pytest.mark.parametrize("tol", ["reached", "below_reached"])
def test_train_matches_reference_loop_at_a_boundary_tolerance(
    tol, optimizer, source, bias, ddv, sigma_mode, decvar_mode
):
    """With ``grad_tol`` the gradient max-norm a 30-step run ends at, or the float just
    below it, the last bit decides the convergence test; ``train``'s squared prescreen
    before its exact test stops where the plain loop's exact test does."""
    m, hp, draws = kernel_case(source, bias, ddv, sigma_mode, decvar_mode)
    cfg = tr.TrainConfig(optimizer, 1e-2, max_steps=60, grad_tol=0.0)
    reached = tr.train(draws[0], m, hp, replace(cfg, max_steps=30)).grad_norm
    cfg = replace(cfg, grad_tol=reached if tol == "reached" else np.nextafter(reached, 0.0))
    result = train_as_reference(draws[0], m, hp, cfg)
    assert result.converged == (result.steps < cfg.max_steps)
    if tol == "reached":
        assert result.converged and result.steps <= 30


_EDGES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.5e-154, 1.4e154, np.inf, -np.inf, np.nan])


@settings(max_examples=500, deadline=None)
@given(
    g=hnp.arrays(np.float64, st.integers(1, 12), elements=st.one_of(_EDGES, st.floats())),
    tol=st.one_of(st.sampled_from([0.0, 5e-324, 1e-160, 1.5e-154, 1.4e154, 1e300]),
                  st.floats(0.0, 1e300)),
)
def test_squared_prescreen_never_rejects_a_converged_gradient(g, tol):
    """``train`` tests ``max(g*g) <= tol*tol`` before the exact ``max|g| <= tol`` and
    runs the exact test only when the first passes. Rounding is monotone, so the first
    passes wherever the second does: with zeros, subnormals, squares that underflow or
    overflow, an infinite ``tol*tol``, infinities and NaNs in ``g``."""
    with np.errstate(over="ignore", under="ignore"):
        g2 = g * g
    if np.maximum.reduce(np.abs(g)) <= tol:
        assert g2[g2.argmax()] <= tol * tol


def record_evaluations(monkeypatch):
    """Patch ``tr._kernel`` so that each evaluation ``train`` makes is recorded, in order,
    as its arguments and whether every gradient view holds finite values after it."""
    kernel, calls = tr._kernel, []

    def recording(p, moments, hparams, grad):
        evaluate = kernel(p, moments, hparams, grad)

        def call(*args):
            loss = evaluate(*args)
            calls.append((args, all(np.all(np.isfinite(view)) for view in grad[1].values())))
            return loss

        return call

    monkeypatch.setattr(tr, "_kernel", recording)
    return calls


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
        assert result.stop_reason == "grad_tol"

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

    def test_gd_stall_returns_the_last_point_that_descended(self, monkeypatch):
        """When no halving of a GD step descends, ``train`` stops at that step's start,
        with the loss and gradient there, though every failed trial wrote a gradient.
        Every evaluation after the first k (k - 1 accepted steps) fails; train binds the
        kernel once."""
        m = tr.Moments.from_spectrum(DataSpectrum.from_singular_values([3, 2, 1], dim_y=3))
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        kernel, binds, calls, k = tr._kernel, [], [], 6

        def stalls_after_k(p, moments, hparams, grad):
            binds.append(1)
            evaluate = kernel(p, moments, hparams, grad)

            def stalling(*bound):
                calls.append(1)
                loss = evaluate(*bound)
                if len(calls) <= k:
                    return loss
                grad[0][...] = np.nan
                return np.inf

            return stalling

        monkeypatch.setattr(tr, "_kernel", stalls_after_k)
        result = tr.train(0, m, hp, tr.TrainConfig("gd", 0.05, max_steps=100, grad_tol=0.0))
        monkeypatch.undo()
        assert not result.converged and result.stop_reason == "line_search_stall"
        assert result.steps == k
        assert len(binds) == 1 and len(calls) == k + 80
        assert result.final_loss == tr.eval_loss(result.params, m, hp)
        grad = tr.eval_grad(result.params, m, hp)
        assert result.grad_norm == max(
            float(np.max(np.abs(getattr(grad, name))))
            for name in tr._flat(result.params, hp)[1]
        )

    @pytest.mark.parametrize("optimizer", ["adam", "gd"])
    @pytest.mark.parametrize("reason", ["grad_tol", "max_steps"])
    def test_stop_reason_tells_convergence_from_the_budget(self, reason, optimizer):
        """``stop_reason`` is "grad_tol" when the gradient max-norm met the tolerance and
        "max_steps" when the budget ran out first; ``converged`` means the first."""
        m = tr.Moments.from_spectrum(DataSpectrum.from_singular_values([3, 2, 1], dim_y=3))
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        cfg = tr.TrainConfig(optimizer, 1e-2, max_steps=1000, grad_tol=1e-2)
        if reason == "max_steps":
            cfg = replace(cfg, max_steps=5)
        result = tr.train(0, m, hp, cfg)
        assert result.stop_reason == reason
        assert result.converged == (reason == "grad_tol")
        assert result.steps == cfg.max_steps if reason == "max_steps" else result.steps < 1000

    @pytest.mark.parametrize("trace", [False, True])
    def test_adam_takes_the_loss_only_where_something_reads_it(self, monkeypatch, trace):
        """Untraced, each Adam step makes one gradient-only evaluation, and one loss-only
        evaluation at the end gives the returned loss; traced, each step takes both."""
        m = tr.Moments.from_spectrum(DataSpectrum.from_singular_values([3, 2, 1], dim_y=3))
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, decvar_mode="learnable")
        calls = record_evaluations(monkeypatch)
        cfg = tr.TrainConfig("adam", 1e-2, max_steps=25, grad_tol=0.0)
        result = tr.train(0, m, hp, cfg, trace=trace)
        monkeypatch.undo()
        steps = [(np.inf, trace)] * cfg.max_steps
        assert [args for args, _ in calls] == [()] + steps + ([] if trace else [(-np.inf,)])
        assert result.final_loss == tr.eval_loss(result.params, m, hp)

    def test_gd_trial_that_ties_the_loss_writes_its_gradient(self):
        """At a minimum, GD's trials tie the loss at float precision. A tie is accepted, so
        the trial writes its gradient, and the run matches the plain loop to the bit."""
        ds, sp = make_instance(seed=17, dim_x=4, dim_y=4)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.2, latent_dim=3)
        init = params_from_minimum(cf.global_minimum(sp, hp), hp)
        cfg = tr.TrainConfig("gd", 0.05, max_steps=40, grad_tol=0.0)
        result = train_as_reference(init, m, hp, cfg)
        assert np.count_nonzero(np.diff(result.loss_trace) == 0.0) > result.steps // 2

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

    def test_divergence_raises_when_the_squared_gradient_overflows(self):
        """README's three-row 1e150 CSV, centered as ``train`` centers it: the loss at the
        start is finite, but the gradient's square overflows, so Adam, which reads only the
        gradient, stops before its first step, with no floating-point warning."""
        x, y = np.array([[1e150], [-1e150], [3e150]]), np.array([[1.0], [2.0], [-3.0]])
        m = tr.Moments.from_dataset(center(Dataset(x=x, y=y))[0])
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        with pytest.raises(DivergenceError) as err:
            tr.train(0, m, hp, tr.TrainConfig("adam", max_steps=50))
        assert err.value.step == 0
        assert str(err.value) == "squared gradient left the float range at step 0"

    def test_divergence_raises_at_a_last_point_whose_gradient_is_finite(self, monkeypatch):
        """One Adam step of 720 lifts the log decoder variance past log(float max): the
        variance overflows to inf, so the loss's log term is inf while every gradient
        entry stays finite. The loss taken at the returned point still raises."""
        sp = DataSpectrum.from_singular_values([30.0, 20.0], dim_y=2)
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(beta=0.5, latent_dim=2, decvar_mode="learnable")
        calls = record_evaluations(monkeypatch)
        with pytest.raises(DivergenceError) as err:
            tr.train(0, m, hp, tr.TrainConfig("adam", 720.0, max_steps=1, grad_tol=0.0))
        monkeypatch.undo()
        assert str(err.value) == "loss became non-finite at step 1"
        assert calls[1:] == [((np.inf, False), True), ((-np.inf,), True)]

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
            rot = oracles.random_rotation(3, seed)
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
