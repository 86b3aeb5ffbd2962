import numpy as np
import pytest

from demigronwall.errors import InvalidSpec
from demigronwall.rng import draw_columns, normal_matrix, path_keys, raw_uint64, uniform_matrix

_LAWS = [("words", raw_uint64), ("uniform", uniform_matrix), ("normal", normal_matrix)]


def test_bit_identical_reproducibility():
    a = uniform_matrix(12345, 64, 32)
    b = uniform_matrix(12345, 64, 32)
    assert np.array_equal(a, b)


def test_per_path_determinism_across_batch_sizes():
    small = uniform_matrix(99, 5, 40)
    large = uniform_matrix(99, 500, 40)
    assert np.array_equal(small, large[:5])


@pytest.mark.parametrize("law, matrix", _LAWS, ids=[law for law, _ in _LAWS])
@pytest.mark.parametrize("n_paths, n_draws", [(50, 9), (1, 3), (1000, 1)])
def test_draw_columns_stack_into_the_matrix_functions(law, matrix, n_paths, n_draws):
    # by default each tile is one column
    columns = list(draw_columns(21, n_paths, n_draws, law))
    assert [column.shape for column in columns] == [(n_paths, 1)] * n_draws
    assert np.concatenate(columns, axis=1).tobytes() == matrix(21, n_paths, n_draws).tobytes()


@pytest.mark.parametrize("law", [law for law, _ in _LAWS])
def test_no_draws_yield_no_columns(law):
    assert list(draw_columns(21, 50, 0, law)) == []


@pytest.mark.parametrize("law, matrix", _LAWS, ids=[law for law, _ in _LAWS])
def test_each_column_is_a_fresh_writable_array(law, matrix):
    # a caller may overwrite a column in place: later columns keep their bits, earlier ones what was written
    expected = matrix(8, 30, 5)
    seen = []
    for j, column in enumerate(draw_columns(8, 30, 5, law)):
        assert column.flags.writeable and column.shape == (30, 1)
        assert column.tobytes() == expected[:, j].tobytes()
        column[...] = j
        seen.append(column)
    assert all(np.all(column == j) for j, column in enumerate(seen))


@pytest.mark.parametrize("law, matrix", _LAWS, ids=[law for law, _ in _LAWS])
@pytest.mark.parametrize("first_path, n_paths", [(0, 40), (13, 20), (39, 1)])
@pytest.mark.parametrize("width", [1, 4, 9, 30])
def test_path_ranges_and_tiles_are_rows_and_columns_of_the_matrix(law, matrix, first_path, n_paths, width):
    # tiles of 4 columns leave a last tile of 1; 30 is wider than the 9 draws
    expected = matrix(21, 40, 9)[first_path : first_path + n_paths]
    items = list(draw_columns(21, n_paths, 9, law, first_path=first_path, width=width))
    assert [tile.shape[1] for tile in items] == [min(width, 9 - j) for j in range(0, 9, width)]
    assert all(tile.flags.f_contiguous and tile.flags.writeable for tile in items)
    assert np.concatenate(items, axis=1).tobytes() == expected.tobytes()


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
