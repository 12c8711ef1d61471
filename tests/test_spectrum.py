import numpy as np
import pytest

from collapse_lab.closed_form import Hyperparams
from collapse_lab.data import Dataset, center, generate, random_spec
from collapse_lab.errors import DegenerateInput
from collapse_lab.spectrum import DataSpectrum, compute_spectrum

from conftest import make_instance


def test_autoencoding_singular_values_are_input_spectrum():
    """When the target equals the input, the squared singular values of
    the whitened cross-moment are exactly the input eigenvalues."""
    spec = random_spec(5, 5, 800, seed=21)
    ds = generate(spec)
    ds, _, _ = center(Dataset(ds.x, ds.x))
    sp = compute_spectrum(ds)
    np.testing.assert_allclose(sp.singular_values**2, sp.eigenvalues, atol=1e-8)


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
    with pytest.raises(DegenerateInput):
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
