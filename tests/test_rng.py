import numpy as np
import pytest

from demigronwall.errors import InvalidSpec
from demigronwall.rng import normal_matrix, path_keys, raw_uint64, uniform_matrix


def test_bit_identical_reproducibility():
    a = uniform_matrix(12345, 64, 32)
    b = uniform_matrix(12345, 64, 32)
    assert np.array_equal(a, b)


def test_per_path_determinism_across_batch_sizes():
    small = uniform_matrix(99, 5, 40)
    large = uniform_matrix(99, 500, 40)
    assert np.array_equal(small, large[:5])


def test_counter_offset_is_a_pure_shift():
    full = uniform_matrix(7, 8, 60)
    tail = uniform_matrix(7, 8, 40, first_counter=20)
    assert np.array_equal(full[:, 20:], tail)


@pytest.mark.parametrize("draw", [raw_uint64, uniform_matrix, normal_matrix])
@pytest.mark.parametrize("first_path, k", [(0, 7), (13, 20), (49, 1)])
def test_path_offset_selects_rows_of_the_full_matrix(draw, first_path, k):
    full = draw(21, 50, 9)
    assert np.array_equal(draw(21, k, 9, first_path=first_path), full[first_path : first_path + k])
    tail = draw(21, k, 4, first_counter=5, first_path=first_path)
    assert np.array_equal(tail, full[first_path : first_path + k, 5:])


def test_uniforms_open_interval_and_moments():
    u = uniform_matrix(3, 400, 250)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 4.0 * u.std() / np.sqrt(u.size)


def test_normals_standardized():
    z = normal_matrix(17, 500, 200)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(n)


def test_distinct_seeds_and_paths_decorrelate():
    keys = path_keys(5, np.arange(1000))
    assert np.unique(keys).size == 1000
    assert not np.array_equal(uniform_matrix(1, 4, 16), uniform_matrix(2, 4, 16))


def test_raw_words_cover_uint64_range():
    bits = raw_uint64(0, 32, 64)
    assert bits.dtype == np.uint64
    # top bit set about half the time
    top = (bits >> np.uint64(63)).astype(float).mean()
    assert 0.45 < top < 0.55


@pytest.mark.parametrize("bad", [-1, 2 ** 64])
def test_seed_must_fit_in_64_bits(bad):
    with pytest.raises(InvalidSpec):
        uniform_matrix(bad, 2, 2)
