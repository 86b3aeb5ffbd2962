import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from demigronwall import generators
from demigronwall.errors import BatchTooLarge, InvalidSpec
from demigronwall.generators import (
    GeneratorSpec,
    TrajectoryBatch,
    associated_increment_matrix,
    associated_increments,
    generate_paths,
    partial_sums,
)
from demigronwall.rng import normal_matrix, uniform_matrix

_ALL_KINDS = [
    GeneratorSpec.random_walk("pm1"),
    GeneratorSpec.random_walk("gauss"),
    GeneratorSpec.associated(0.5),
    GeneratorSpec.bounded_associated(1.0, 0.75),
    GeneratorSpec.two_point(0.4),
]


def _kind_id(spec):
    return spec.kind + ("-" + spec.increment if spec.kind == "random_walk" else "")


class TestGeneratorSpec:
    def test_labels(self):
        assert "pm1" in GeneratorSpec.random_walk().label
        assert "theta=0.5" in GeneratorSpec.associated(0.5).label

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: GeneratorSpec.two_point(1.5),
            lambda: GeneratorSpec.two_point(-0.1),
            lambda: GeneratorSpec.associated(-1.0),
            lambda: GeneratorSpec.bounded_associated(1.0, 0.0),
            lambda: GeneratorSpec.random_walk("cauchy"),
            lambda: GeneratorSpec(kind="brownian"),
            lambda: GeneratorSpec.associated(math.inf),
            lambda: GeneratorSpec.bounded_associated(math.inf, 1.0),
            lambda: GeneratorSpec.bounded_associated(1.0, math.inf),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(InvalidSpec):
            bad()


def _row_major_increments(spec, n_steps, m, seed):
    """Each kind's increment law, drawn as one row-major matrix from the matrix functions."""
    if spec.kind == "random_walk":
        if spec.increment == "pm1":
            return np.where(uniform_matrix(seed, m, n_steps) < 0.5, -1.0, 1.0)
        return normal_matrix(seed, m, n_steps)
    u = uniform_matrix(seed, m, n_steps + 1)
    if spec.kind == "two_point_demisub":
        inc = np.zeros((m, n_steps))
        inc[:, :2] = np.where(u[:, :1] < spec.prob, -1.0, 1.0)
        return inc
    inc = (2.0 * u[:, 1:] - 1.0) + spec.theta * (2.0 * u[:, :1] - 1.0)
    if spec.kind == "bounded_associated_partial_sum":
        np.clip(inc, -spec.bound, spec.bound, out=inc)
    return inc


def _row_major_paths(spec, n_steps, m, seed):
    """The batch as the row-major ``np.cumsum`` of :func:`_row_major_increments` along each row."""
    paths = np.zeros((m, n_steps + 1))
    np.cumsum(_row_major_increments(spec, n_steps, m, seed), axis=1, out=paths[:, 1:])
    return paths


class TestGeneratePaths:
    def test_zero_steps_is_a_single_zero_column(self):
        for spec in _ALL_KINDS:
            batch = generate_paths(spec, 0, 17, seed=1)
            assert batch.values.shape == (17, 1)
            assert np.all(batch.values == 0.0)

    @pytest.mark.parametrize("n_steps", [1, 2, 6])
    def test_two_point_rows_follow_draw_zero(self, n_steps):
        # row r is (0, s, 2s, 2s, ...) with s = -1 exactly when draw 0 of path r is below prob
        m, prob, seed = 70_000, 0.3, 11
        batch = generate_paths(GeneratorSpec.two_point(prob), n_steps, m, seed)
        s = np.where(uniform_matrix(seed, m, 1)[:, 0] < prob, -1.0, 1.0)
        expected = np.minimum(np.arange(n_steps + 1), 2) * s[:, None]
        assert batch.values.tobytes() == (expected + 0.0).tobytes()

    def test_pm1_steps_follow_the_uniform_rule(self):
        # the steps are built from the words' sign bits; they must equal the u < 0.5 rule on
        # the uniforms
        seed, n_steps, m = 12, 50, 2607
        steps = np.where(uniform_matrix(seed, m, n_steps) < 0.5, -1.0, 1.0)
        batch = generate_paths(GeneratorSpec.random_walk("pm1"), n_steps, m, seed)
        assert batch.values[:, 1:].tobytes() == np.cumsum(steps, axis=1).tobytes()
        assert {-1.0, 1.0} == set(np.unique(steps))

    @pytest.mark.parametrize("spec", _ALL_KINDS, ids=_kind_id)
    def test_peak_memory_stays_near_the_batch(self, spec):
        # every kind is drawn one tile at a time, so nothing holds a second copy of the batch
        tracemalloc.start()
        try:
            batch = generate_paths(spec, 50, 20_000, seed=3)
            batch.values  # built on first access
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * batch.values.nbytes

    def test_two_point_empirical_probability(self):
        # P(path = (0,-1,-2)) = 0.3 within 3 standard errors
        m = 100_000
        batch = generate_paths(GeneratorSpec.two_point(0.3), 2, m, seed=2024)
        hit = np.all(batch.values == np.array([0.0, -1.0, -2.0]), axis=1)
        se = math.sqrt(0.3 * 0.7 / m)
        assert abs(hit.mean() - 0.3) <= 3.0 * se

    def test_two_point_exact_law(self):
        batch = generate_paths(GeneratorSpec.two_point(0.4), 2, 5000, seed=5)
        rows = np.unique(batch.values, axis=0)
        assert rows.shape == (2, 3)
        assert np.array_equal(rows, np.array([[0.0, -1.0, -2.0], [0.0, 1.0, 2.0]]))

    def test_two_point_longer_horizon_freezes_tail(self):
        batch = generate_paths(GeneratorSpec.two_point(0.5), 6, 2000, seed=8)
        rows = np.unique(batch.values, axis=0)
        assert np.array_equal(rows[:, 3:], np.tile(rows[:, 2:3], 4))
        # still mean-zero columnwise in distribution: +-2 rows with p=1/2
        assert set(np.unique(rows[:, 2])) == {-2.0, 2.0}

    def test_associated_column_one_mean_zero(self):
        # increments are centered by construction; analytic variance oracle
        theta, m = 0.5, 100_000
        batch = generate_paths(GeneratorSpec.associated(theta), 3, m, seed=31)
        var = 1.0 / 3.0 + theta ** 2 / 3.0  # Var(U) + theta^2 Var(V), centered uniforms
        assert abs(batch.values[:, 1].mean()) <= 3.0 * math.sqrt(var / m)

    def test_random_walk_mean_shrinks_like_sqrt_m(self):
        m, n = 40_000, 9
        batch = generate_paths(GeneratorSpec.random_walk(), n, m, seed=77)
        assert abs(batch.values[:, n].mean()) <= 4.0 * math.sqrt(n / m)

    def test_bounded_increments_respect_the_bound(self):
        spec = GeneratorSpec.bounded_associated(2.0, 0.75)
        batch = generate_paths(spec, 10, 500, seed=3)
        inc = np.diff(batch.values, axis=1)
        # reconstructing increments through cumsum costs at most a few ulp
        assert np.abs(inc).max() <= 0.75 + 1e-12

    def test_reproducible_and_per_path_deterministic(self):
        spec = GeneratorSpec.random_walk("gauss")
        a = generate_paths(spec, 12, 50, seed=9)
        b = generate_paths(spec, 12, 50, seed=9)
        big = generate_paths(spec, 12, 400, seed=9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, big.values[:50])

    @pytest.mark.parametrize("spec", _ALL_KINDS, ids=_kind_id)
    @pytest.mark.parametrize("n_steps", [1, 50, 131072])
    def test_batches_are_the_first_rows_of_the_row_major_oracle(self, spec, n_steps):
        # 2000 paths and 1 path (1 path alone at 131072 steps) equal, bit for bit, the first rows
        # of the row-major np.cumsum oracle drawn one path wider
        sizes = (1,) if n_steps > 1000 else (2000, 1)
        oracle = _row_major_paths(spec, n_steps, sizes[0] + 1, seed=404)
        for size in sizes:
            small = generate_paths(spec, n_steps, size, seed=404)
            assert small.values.tobytes() == oracle[:size].tobytes()

    def test_substream_independence_proxy(self):
        # correlation of terminal values of paths 0 and 1 across 1000 seeds
        spec = GeneratorSpec.random_walk("gauss")
        ends = np.array([generate_paths(spec, 4, 2, seed=s).values[:, 4] for s in range(1000)])
        corr = np.corrcoef(ends[:, 0], ends[:, 1])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(1000)

    def test_budget_and_argument_errors(self):
        with pytest.raises(BatchTooLarge):
            generate_paths(GeneratorSpec.random_walk(), 2 ** 20, 2 ** 10, seed=0)
        with pytest.raises(InvalidSpec):
            generate_paths(GeneratorSpec.random_walk(), 5, 0, seed=0)
        with pytest.raises(InvalidSpec):
            generate_paths(GeneratorSpec.random_walk(), -1, 5, seed=0)

    @pytest.mark.parametrize("n_steps, n_paths", [(16.9, 100), (16, 100.7), (np.float64(2.5), 10), (4, "10")])
    def test_sizes_with_a_fractional_part_raise(self, n_steps, n_paths):
        with pytest.raises(InvalidSpec, match="whole number"):
            generate_paths(GeneratorSpec.random_walk(), n_steps, n_paths, seed=0)
        assert generate_paths(GeneratorSpec.random_walk(), np.int64(4), np.int32(10), seed=0).values.shape == (10, 5)


class TestTrajectoryBatch:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidSpec):
            TrajectoryBatch(np.array([[0.0, np.inf]]))
        with pytest.raises(InvalidSpec):
            TrajectoryBatch(np.zeros(4))


@pytest.mark.parametrize("n_steps, n_paths", [(3.5, 10), (3, 10.5), (np.float64(0.5), 10)])
def test_associated_increment_matrix_rejects_fractional_sizes(n_steps, n_paths):
    with pytest.raises(InvalidSpec, match="whole number"):
        associated_increment_matrix(0.5, n_steps, n_paths, seed=1)
    assert associated_increment_matrix(0.5, np.int64(3), np.int64(10), seed=1).shape == (10, 3)


def test_associated_increment_matrix_contract(monkeypatch):
    inc = associated_increment_matrix(1.0, 6, 2000, seed=4)
    assert inc.shape == (2000, 6)
    assert abs(inc.mean()) < 0.05
    clipped = associated_increment_matrix(1.0, 6, 2000, seed=4, bound=0.5)
    assert np.abs(clipped).max() <= 0.5
    for theta, bound in ((-0.5, None), (math.nan, None), (math.inf, None), (1.0, math.inf)):
        with pytest.raises(InvalidSpec):
            associated_increment_matrix(theta, 6, 10, seed=4, bound=bound)
    for n_steps, n_paths in ((6, 0), (6, -3), (-1, 10), (-4, 10)):
        with pytest.raises(InvalidSpec):
            associated_increment_matrix(1.0, n_steps, n_paths, seed=4)
    empty = associated_increment_matrix(1.0, 0, 7, seed=4)
    assert empty.shape == (7, 0) and empty.flags.f_contiguous
    at_budget = associated_increment_matrix(1.0, 10, 100, seed=4)
    monkeypatch.setattr(generators, "MAX_BATCH_ENTRIES", 1000)
    assert associated_increment_matrix(1.0, 10, 100, seed=4).tobytes() == at_budget.tobytes()
    with pytest.raises(BatchTooLarge, match="100 x 11 entries"):
        associated_increment_matrix(1.0, 11, 100, seed=4)


class TestAssociatedIncrements:
    """The generated batch of increments and the matrix come from one source."""

    @pytest.mark.parametrize("bound", [None, 0.75])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_columns_and_values_equal_the_matrix(self, monkeypatch, bound, workers):
        inc = associated_increment_matrix(0.5, 9, 2000, seed=4, bound=bound)
        _split_rows(monkeypatch, workers)
        batch = associated_increments(0.5, 9, 2000, seed=4, bound=bound)
        assert (batch.n_paths, batch.n_steps + 1) == inc.shape
        for r0, r1, width in ((0, 2000, 1), (0, 2000, 4), (666, 1333, 1), (1999, 2000, 9)):
            tiles = list(batch._tiles(r0, r1, width))
            assert all(1 <= tile.shape[1] <= width for tile in tiles)
            assert np.hstack(tiles).tobytes() == np.ascontiguousarray(inc[r0:r1]).tobytes()
        assert batch._values is None  # reading columns builds no matrix
        assert batch.values.flags.f_contiguous and batch.values.tobytes() == inc.tobytes()

    def test_contract(self, monkeypatch):
        batch = associated_increments(np.int64(1.0), np.int64(6), np.int64(10), seed=np.uint64(4))
        assert (batch.n_paths, batch.n_steps) == (10, 5) and "theta=1" in batch.label
        for theta, bound in ((-0.5, None), (math.nan, None), (1.0, math.inf)):
            with pytest.raises(InvalidSpec):
                associated_increments(theta, 6, 10, seed=4, bound=bound)
        for n_steps, n_paths in ((0, 10), (-1, 10), (6, 0)):
            with pytest.raises(InvalidSpec):
                associated_increments(1.0, n_steps, n_paths, seed=4)
        with pytest.raises(InvalidSpec, match="whole number"):
            associated_increments(1.0, 6.5, 10, seed=4)
        with pytest.raises(InvalidSpec, match="64-bit"):
            associated_increments(1.0, 6, 10, seed=-1)
        monkeypatch.setattr(generators, "MAX_BATCH_ENTRIES", 1000)
        associated_increments(1.0, 10, 100, seed=4)
        with pytest.raises(BatchTooLarge, match="100 x 11 entries"):
            associated_increments(1.0, 11, 100, seed=4)


class TestTimeMajorLayout:
    @pytest.mark.parametrize("spec", _ALL_KINDS, ids=_kind_id)
    @pytest.mark.parametrize("n_steps", [0, 1, 2, 16, 50])
    def test_batches_are_column_major_with_the_row_cumsum_bits(self, spec, n_steps):
        m, seed = 1500, 29
        batch = generate_paths(spec, n_steps, m, seed)
        assert batch.values.flags.f_contiguous
        oracle = _row_major_paths(spec, n_steps, m, seed)
        assert batch.values.tobytes() == oracle.tobytes()
        assert generate_paths(spec, n_steps, 7, seed).values.tobytes() == oracle[:7].tobytes()

    def test_associated_increments_are_column_major_draws_of_the_same_law(self):
        inc = associated_increment_matrix(0.5, 9, 300, seed=4, bound=0.75)
        assert inc.flags.f_contiguous
        spec = GeneratorSpec.bounded_associated(0.5, 0.75)
        assert inc.tobytes() == _row_major_increments(spec, 9, 300, 4).tobytes()

    def test_partial_sums_keep_a_negative_zero_first_increment(self):
        inc = np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0], [2.0, -0.0, -2.0]])
        sums = partial_sums(3, 3, inc.T)
        assert sums.flags.f_contiguous
        assert sums[:, 1:].tobytes() == np.cumsum(inc, axis=1).tobytes()
        assert np.signbit(sums[:2, 1]).all() and np.signbit(sums[1, 2])
        assert sums[:, 0].tobytes() == np.zeros(3).tobytes()


def _split_rows(monkeypatch, workers):
    """Split every batch of more than one row over ``workers`` blocks, on a fresh pool of ``workers - 1`` threads."""
    monkeypatch.setattr(generators, "WORKERS", workers)
    monkeypatch.setattr(generators, "ROW_FLOOR", 1)
    monkeypatch.setattr(generators, "_pool", None)


class TestRowBlocks:
    # 3 workers split 2000 rows into 666, 667 and 667: no block size divides another
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("spec", _ALL_KINDS, ids=_kind_id)
    def test_batches_do_not_depend_on_the_worker_count(self, monkeypatch, spec, workers):
        serial = generate_paths(spec, 50, 2000, seed=61).values.tobytes()
        _split_rows(monkeypatch, workers)
        assert generate_paths(spec, 50, 2000, seed=61).values.tobytes() == serial

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_associated_increments_do_not_depend_on_the_worker_count(self, monkeypatch, workers):
        serial = [associated_increment_matrix(0.5, 17, 2000, seed=8, bound=b).tobytes() for b in (None, 0.75)]
        _split_rows(monkeypatch, workers)
        assert [associated_increment_matrix(0.5, 17, 2000, seed=8, bound=b).tobytes() for b in (None, 0.75)] == serial

    @pytest.mark.parametrize("spec", _ALL_KINDS, ids=_kind_id)
    @pytest.mark.parametrize("entries", [1, 7 * 2000, 64 * 2000])
    def test_tiles_of_any_width_give_the_same_bits(self, monkeypatch, spec, entries):
        # one column, 7 columns (which do not divide 50 steps) and one tile wider than the batch
        serial = generate_paths(spec, 50, 2000, seed=62).values.tobytes()
        _split_rows(monkeypatch, 3)
        monkeypatch.setattr(generators, "TILE_ENTRIES", entries)
        assert generate_paths(spec, 50, 2000, seed=62).values.tobytes() == serial

    def test_the_calling_thread_runs_block_zero(self, monkeypatch):
        _split_rows(monkeypatch, 3)
        seen = {}
        generators.row_blocks(10, lambda r0, r1: seen.setdefault((r0, r1), threading.current_thread()))
        assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]
        assert seen[0, 3] is threading.current_thread()
        assert all(thread is not threading.current_thread() for block, thread in seen.items() if block[0])

    @pytest.mark.parametrize("workers", [3, 64])
    def test_no_block_holds_fewer_rows_than_the_floor(self, monkeypatch, workers):
        # however many CPUs there are, work is split into at most one block per ROW_FLOOR rows, and
        # work over fewer rows is one block on the calling thread
        monkeypatch.setattr(generators, "WORKERS", workers)
        monkeypatch.setattr(generators, "ROW_FLOOR", 100)
        monkeypatch.setattr(generators, "_pool", None)
        for n_rows, blocks in [(99, 1), (199, 1), (299, 2), (300, 3), (1000, min(workers, 10))]:
            seen = {}

            def fn(r0, r1):
                seen[r0, r1] = threading.current_thread()

            generators.row_blocks(n_rows, fn)
            bounds = sorted(seen)
            assert len(bounds) == blocks and bounds[0][0] == 0 and bounds[-1][1] == n_rows
            assert min(r1 - r0 for r0, r1 in bounds) >= min(n_rows, 100)
            assert blocks > 1 or seen[0, n_rows] is threading.current_thread()

    @pytest.mark.parametrize("failing", [(1, 2), (0, 2), (2,)])
    def test_the_lowest_failing_block_raises_after_every_block_ends(self, monkeypatch, failing):
        _split_rows(monkeypatch, 3)
        done = []

        def fn(r0, r1):
            block = r0 // 4
            if block in failing:
                time.sleep(0.05 * (2 - block))  # the lowest failing block fails last
                raise ValueError(f"block {block}")
            time.sleep(0.15)  # and the others end after every failure
            done.append(block)

        with pytest.raises(ValueError, match=f"block {min(failing)}"):
            generators.row_blocks(12, fn)
        assert sorted(done) == sorted({0, 1, 2} - set(failing))

    def test_more_workers_than_cores_with_frequent_thread_switches(self, monkeypatch):
        # every block writes only its own rows, and a non-finite entry in the last block's rows
        # is reported even when its verdict is the last to arrive
        serial = [generate_paths(spec, 20, 2000, seed=63).values.tobytes() for spec in _ALL_KINDS]
        _split_rows(monkeypatch, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            split = [generate_paths(spec, 20, 2000, seed=63).values.tobytes() for spec in _ALL_KINDS]
            values = np.zeros((2000, 3))
            values[-1, 2] = np.nan
            with pytest.raises(InvalidSpec, match="non-finite"):
                TrajectoryBatch(values)
        finally:
            sys.setswitchinterval(interval)
        assert split == serial

    def test_a_bad_seed_raises_from_every_block(self, monkeypatch):
        _split_rows(monkeypatch, 3)
        with pytest.raises(InvalidSpec, match="64-bit"):
            generate_paths(GeneratorSpec.random_walk(), 5, 2000, seed=-1)

    def test_import_starts_no_thread(self):
        # the pool starts on the first split, so importing and small batches stay single-threaded
        script = (
            "import threading, demigronwall\n"
            "n = threading.active_count()\n"
            "demigronwall.generate_paths(demigronwall.GeneratorSpec.random_walk(), 5, 100, 1)\n"
            "print(n, threading.active_count())\n"
        )
        src = str(Path(generators.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["1", "1"]


class TestTiledPartialSums:
    @pytest.mark.parametrize("widths", [(1, 1, 1), (3,), (2, 1), (1, 2)])
    def test_tiles_keep_the_row_cumsum_bits(self, widths):
        # 2 rows take the np.cumsum branch for tiles wider than 2 and the column loop for the rest
        inc = np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0]])
        starts = np.cumsum((0,) + widths)
        tiles = [np.asfortranarray(inc[:, a:b]) for a, b in zip(starts[:-1], starts[1:])]
        sums = partial_sums(2, 3, tiles)
        assert sums[:, 1:].tobytes() == np.cumsum(inc, axis=1).tobytes()
        assert sums[:, 0].tobytes() == np.zeros(2).tobytes()
