from dataclasses import replace

import numpy as np
import pytest

from collapse_lab.closed_form import Hyperparams
from collapse_lab.data import Dataset, center, generate, random_spec
from collapse_lab.decoder_variance import solve_decoder_variance
from collapse_lab.spectrum import DEFAULT_TOL, DataSpectrum, compute_spectrum

from conftest import make_instance, traced_peak


def test_autoencoding_singular_values_are_input_spectrum():
    """When the target equals the input, the squared singular values of
    the whitened cross-moment are exactly the input eigenvalues."""
    spec = random_spec(5, 5, 800, seed=21)
    ds = generate(spec)
    ds, _, _ = center(Dataset(ds.x, ds.x))
    sp = compute_spectrum(ds)
    np.testing.assert_allclose(sp.singular_values**2, sp.eigenvalues, atol=1e-8)


def test_holds_one_sample_sized_temporary():
    """Beyond the dataset, compute_spectrum holds one array the size of x at a
    time: the whitened inputs, divided in place, or the squared targets."""
    ds, _, _ = center(generate(random_spec(16, 16, 20000, seed=3)))
    _, peak = traced_peak(lambda: compute_spectrum(ds))
    assert peak <= 1.1 * ds.x.nbytes


def test_zero_target_spectrum():
    spec = random_spec(4, 3, 100, seed=2)
    ds = generate(spec)
    ds, _, _ = center(Dataset(ds.x, np.zeros((ds.n_samples, 3))))
    sp = compute_spectrum(ds)
    assert np.all(sp.singular_values == 0.0)
    assert sp.effective_rank == 0


def test_linear_map_cross_moment_identity(rng):
    """For y = gain * M x the cross-moment Gram matrix equals
    gain^2 * M A M^T with the empirical second moment A."""
    gain = 1.7
    m = rng.normal(size=(4, 4))
    m /= np.linalg.norm(m, 2)
    spec = random_spec(4, 4, 500, seed=9)
    ds = generate(spec)
    ds, _, _ = center(Dataset(ds.x, gain * ds.x @ m.T))
    sp = compute_spectrum(ds)
    a = ds.x.T @ ds.x / ds.n_samples
    z = sp.cross_moment() @ (sp.basis * np.sqrt(sp.eigenvalues)).T  # undo whitening
    gram = sp.cross_moment() @ sp.cross_moment().T
    np.testing.assert_allclose(gram, gain**2 * m @ a @ m.T, atol=1e-8)
    np.testing.assert_allclose(z, gain * m @ a, atol=1e-8)


def test_whitened_second_moment_is_identity():
    ds, sp = make_instance(seed=31, dim_x=6, dim_y=3)
    white = (ds.x @ sp.basis) / np.sqrt(sp.eigenvalues)
    emp = white.T @ white / ds.n_samples
    np.testing.assert_allclose(emp, np.eye(sp.rank), atol=1e-8)


def test_cross_moment_power_matches_singular_values():
    ds, sp = make_instance(seed=13, dim_x=5, dim_y=4)
    z = ds.y.T @ ((ds.x @ sp.basis) / np.sqrt(sp.eigenvalues)) / ds.n_samples
    np.testing.assert_allclose(
        np.sum(z**2), np.sum(sp.singular_values**2), atol=1e-8
    )


def test_factors_orthogonal_and_reconstruct():
    ds, sp = make_instance(seed=41, dim_x=6, dim_y=4)
    f, g = sp.left_vectors, sp.right_vectors
    np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)
    np.testing.assert_allclose(g.T @ g, np.eye(g.shape[1]), atol=1e-10)
    np.testing.assert_allclose(sp.basis.T @ sp.basis, np.eye(sp.rank), atol=1e-10)
    z = ds.y.T @ ((ds.x @ sp.basis) / np.sqrt(sp.eigenvalues)) / ds.n_samples
    np.testing.assert_allclose(sp.cross_moment(), z, atol=1e-8)


def test_sample_space_rotation_invariance(rng):
    """Empirical moments only see X^T X, X^T Y, Y^T Y, so any joint
    orthogonal mixing of the sample rows (permutations included) leaves
    the spectrum untouched."""
    ds, sp = make_instance(seed=51, dim_x=4, dim_y=4, n=60)
    perm = rng.permutation(ds.n_samples)
    sp_perm = compute_spectrum(Dataset(ds.x[perm], ds.y[perm]))
    np.testing.assert_allclose(
        sp_perm.singular_values, sp.singular_values, atol=1e-8
    )
    q, _ = np.linalg.qr(rng.normal(size=(ds.n_samples, ds.n_samples)))
    rotated = Dataset(q @ ds.x, q @ ds.y)
    with pytest.warns(UserWarning):  # rotation re-introduces sample means
        sp_rot = compute_spectrum(rotated)
    np.testing.assert_allclose(sp_rot.singular_values, sp.singular_values, atol=1e-8)


def test_rank_deficient_input_detected():
    ds, sp = make_instance(seed=61, dim_x=6, dim_y=3, rank=3)
    assert sp.rank == 3
    assert sp.basis.shape == (6, 3)
    assert sp.n_modes == 3


def test_zero_input_raises_degenerate():
    ds = Dataset(x=np.zeros((10, 3)), y=np.zeros((10, 2)))
    with pytest.raises(ValueError):
        compute_spectrum(ds)


def test_uncentered_input_warns(rng):
    ds = Dataset(x=rng.normal(size=(30, 3)) + 5.0, y=rng.normal(size=(30, 2)))
    with pytest.warns(UserWarning, match="not centered"):
        compute_spectrum(ds)


def test_spectrum_deterministic():
    ds, sp1 = make_instance(seed=71)
    sp2 = compute_spectrum(ds)
    assert sp1.left_vectors.tobytes() == sp2.left_vectors.tobytes()
    assert sp1.right_vectors.tobytes() == sp2.right_vectors.tobytes()
    assert sp1.singular_values.tobytes() == sp2.singular_values.tobytes()


class TestEffectiveCounts:
    def test_trailing_zeros(self):
        sp = DataSpectrum.from_singular_values([3.0, 2.0, 0.0, 0.0], dim_y=4)
        assert (sp.n_modes, sp.effective_rank, sp.signal_modes(3)) == (4, 2, 2)

    def test_latent_smaller_than_rank(self):
        sp = DataSpectrum.from_singular_values([3.0, 2.0, 1.0], dim_y=3)
        assert (sp.n_modes, sp.effective_rank, sp.signal_modes(1)) == (3, 3, 1)

    def test_all_zero(self):
        sp = DataSpectrum.from_singular_values([0.0, 0.0], dim_y=2)
        assert (sp.n_modes, sp.effective_rank, sp.signal_modes(2)) == (2, 0, 0)

    def test_rejects_bad_latent(self):
        with pytest.raises(ValueError, match="latent_dim"):
            Hyperparams(beta=1.0, latent_dim=0)


def test_from_singular_values_validation():
    with pytest.raises(ValueError):
        DataSpectrum.from_singular_values([1.0, 2.0], dim_y=2)  # increasing
    with pytest.raises(ValueError):
        DataSpectrum.from_singular_values([2.0, 1.0], dim_y=1)  # dim_y too small
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            DataSpectrum.from_singular_values(bad, dim_y=2)
    sp = DataSpectrum.from_singular_values([2.0, 1.0], dim_y=3)
    assert sp.target_power == pytest.approx(5.0)
    np.testing.assert_allclose(sp.cross_moment(), np.array([[2, 0], [0, 1], [0, 0]]))


def assert_derived_fields(sp):
    assert sp.ambient_dim == sp.basis.shape[0]
    assert sp.rank == sp.eigenvalues.size
    assert sp.dim_y == sp.left_vectors.shape[0]
    assert sp.effective_rank == np.count_nonzero(sp.singular_values)
    assert sp.tol == DEFAULT_TOL


class TestDerivedFields:
    """Sizes, ``effective_rank`` and ``tol`` are read off the arrays, so no
    constructor and no ``dataclasses.replace`` can leave them stale."""

    def test_compute_spectrum(self):
        _, sp = make_instance(seed=61, dim_x=6, dim_y=3, rank=3)
        assert_derived_fields(sp)
        assert (sp.ambient_dim, sp.rank, sp.dim_y) == (6, 3, 3)

    def test_from_singular_values(self):
        sp = DataSpectrum.from_singular_values([3.0, 2.0, 0.0], dim_y=5)
        assert_derived_fields(sp)
        assert (sp.ambient_dim, sp.rank, sp.dim_y, sp.effective_rank) == (3, 3, 5, 2)

    def test_replace_recomputes(self):
        _, sp = make_instance(seed=31, dim_x=6, dim_y=3)
        edited = replace(
            sp, basis=sp.basis[:, :2], eigenvalues=sp.eigenvalues[:2],
            right_vectors=np.eye(2), singular_values=np.array([sp.singular_values[0], 0.0]),
        )
        assert_derived_fields(edited)
        assert (edited.ambient_dim, edited.rank, edited.effective_rank) == (6, 2, 1)

    def test_replaced_zero_singular_value_is_not_counted(self):
        """A spectrum edited to a zero singular value gets the verdict of one
        built with it, instead of keeping the count of the original."""
        hp = Hyperparams(beta=1.0, latent_dim=3, sigma_mode="learnable", decvar_mode="learnable")
        fresh = DataSpectrum.from_singular_values([3.0, 2.0, 0.0], dim_y=3)
        edited = replace(
            DataSpectrum.from_singular_values([3.0, 2.0, 1.0], dim_y=3),
            singular_values=np.array([3.0, 2.0, 0.0]),
        )
        assert edited.effective_rank == fresh.effective_rank == 2
        assert solve_decoder_variance(edited, hp).regime == "ill_posed_zero"
        assert solve_decoder_variance(fresh, hp).regime == "ill_posed_zero"

    @pytest.mark.parametrize("name", ["ambient_dim", "rank", "dim_y", "tol", "effective_rank"])
    def test_derived_values_cannot_be_passed(self, name):
        sp = DataSpectrum.from_singular_values([2.0, 1.0], dim_y=2)
        arrays = dict(
            eigenvalues=sp.eigenvalues, singular_values=sp.singular_values,
            target_power=sp.target_power, basis=sp.basis,
            left_vectors=sp.left_vectors, right_vectors=sp.right_vectors,
        )
        assert_derived_fields(DataSpectrum(**arrays))
        with pytest.raises(TypeError, match=name):
            DataSpectrum(**arrays, **{name: getattr(sp, name)})

    @pytest.mark.parametrize("name, value", [
        ("singular_values", np.array([2.0, 1.0, 1.0])),
        ("basis", np.eye(2)[:, :1]),
        ("basis", np.ones(2)),
        ("left_vectors", np.eye(3)[:, :2]),
        ("right_vectors", np.eye(3)),
        ("singular_values", np.array([[2.0, 1.0]])),
        ("eigenvalues", np.ones((2, 1))),
    ])
    def test_arrays_must_agree_in_shape(self, name, value):
        """A part whose shape disagrees with the sizes the other arrays fix is refused
        by name: a rank-2 input with three singular values built, counted
        ``effective_rank=3``, and failed only in ``cross_moment`` with an IndexError."""
        arrays = dict(
            eigenvalues=np.ones(2), singular_values=np.array([2.0, 1.0]), basis=np.eye(2),
            left_vectors=np.eye(3), right_vectors=np.eye(2), target_power=6.0,
        )
        assert DataSpectrum(**arrays).cross_moment().shape == (3, 2)
        with pytest.raises(ValueError, match=name):
            DataSpectrum(**{**arrays, name: value})
