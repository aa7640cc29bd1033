"""Tests for repro.spatial.distance."""

import math

import numpy as np
import pytest

from oracles.distance import normalised_distance_matrix
from repro.spatial.distance import (
    _ARRAY_METRICS,
    DistanceModel,
    max_pairwise_distance,
    normalised_distance_row,
)
from repro.spatial.geometry import GeoPoint, points_to_arrays


class TestMaxPairwiseDistance:
    def test_two_points(self):
        assert max_pairwise_distance([GeoPoint(0, 0), GeoPoint(3, 4)]) == pytest.approx(5.0)

    def test_takes_maximum(self):
        points = [GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(10, 0)]
        assert max_pairwise_distance(points) == pytest.approx(10.0)

    def test_single_point_is_zero(self):
        assert max_pairwise_distance([GeoPoint(5, 5)]) == 0.0

    def test_empty_is_zero(self):
        assert max_pairwise_distance([]) == 0.0

    def test_haversine_metric(self):
        points = [GeoPoint(116.4, 39.9), GeoPoint(121.5, 31.2)]
        assert max_pairwise_distance(points, metric="haversine") > 1000.0

    def test_chunked_matches_unchunked(self):
        """The chunked broadcast must agree with a brute-force double loop."""
        from repro.spatial.geometry import euclidean_distance, haversine_distance

        rng = np.random.default_rng(4)
        points = [
            GeoPoint(float(x), float(y))
            for x, y in zip(rng.uniform(100, 120, 37), rng.uniform(20, 45, 37))
        ]
        for metric, scalar_fn in (
            ("euclidean", euclidean_distance),
            ("haversine", haversine_distance),
        ):
            brute = max(
                scalar_fn(a, b) for i, a in enumerate(points) for b in points[i + 1 :]
            )
            assert max_pairwise_distance(points, metric=metric) == pytest.approx(
                brute, rel=1e-12
            )
            assert max_pairwise_distance(
                points, metric=metric, chunk_size=5
            ) == pytest.approx(brute, rel=1e-12)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            max_pairwise_distance([GeoPoint(0, 0), GeoPoint(1, 1)], chunk_size=0)


class TestDistanceModel:
    def test_invalid_max_distance(self):
        with pytest.raises(ValueError):
            DistanceModel(max_distance=0.0)
        with pytest.raises(ValueError):
            DistanceModel(max_distance=-1.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            DistanceModel(max_distance=1.0, metric="manhattan")  # type: ignore[arg-type]

    def test_normalised_in_unit_interval(self):
        model = DistanceModel(max_distance=10.0)
        assert model.normalised(GeoPoint(0, 0), GeoPoint(3, 4)) == pytest.approx(0.5)

    def test_normalised_clipped_at_one(self):
        model = DistanceModel(max_distance=1.0)
        assert model.normalised(GeoPoint(0, 0), GeoPoint(30, 40)) == 1.0

    def test_worker_task_distance_uses_minimum_location(self):
        model = DistanceModel(max_distance=10.0)
        locations = [GeoPoint(0, 0), GeoPoint(9, 0)]
        # The task at (10, 0) is 1 away from the second location.
        assert model.worker_task_distance(locations, GeoPoint(10, 0)) == pytest.approx(0.1)

    def test_worker_task_distance_empty_locations_raises(self):
        model = DistanceModel(max_distance=10.0)
        with pytest.raises(ValueError):
            model.worker_task_distance([], GeoPoint(0, 0))

    def test_from_pois(self):
        pois = [GeoPoint(0, 0), GeoPoint(0, 4), GeoPoint(3, 0)]
        model = DistanceModel.from_pois(pois)
        assert model.max_distance == pytest.approx(5.0)

    def test_from_pois_degenerate_raises(self):
        with pytest.raises(ValueError):
            DistanceModel.from_pois([GeoPoint(1, 1), GeoPoint(1, 1)])

    def test_cache_cleared(self):
        model = DistanceModel(max_distance=5.0)
        model.raw_distance(GeoPoint(0, 0), GeoPoint(1, 1))
        assert len(model._cache) > 0
        model.clear_cache()
        assert len(model._cache) == 0

    def test_raw_distance_symmetric_via_cache(self):
        model = DistanceModel(max_distance=5.0)
        d1 = model.raw_distance(GeoPoint(0, 0), GeoPoint(1, 1))
        d2 = model.raw_distance(GeoPoint(1, 1), GeoPoint(0, 0))
        assert d1 == d2


class TestWorkerTaskDistancesBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(17)
        model = DistanceModel(max_distance=8.0)
        worker_locations = []
        task_locations = []
        for _ in range(50):
            count = int(rng.integers(1, 4))
            worker_locations.append(
                tuple(
                    GeoPoint(float(x), float(y))
                    for x, y in zip(rng.uniform(0, 10, count), rng.uniform(0, 10, count))
                )
            )
            task_locations.append(
                GeoPoint(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            )
        batch = model.worker_task_distances(worker_locations, task_locations)
        scalar = np.array(
            [
                model.worker_task_distance(locations, task)
                for locations, task in zip(worker_locations, task_locations)
            ]
        )
        assert batch.shape == (50,)
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-15)

    def test_haversine_matches_scalar_path(self):
        model = DistanceModel(max_distance=500.0, metric="haversine")
        worker_locations = [
            (GeoPoint(116.4, 39.9), GeoPoint(117.2, 39.1)),
            (GeoPoint(121.5, 31.2),),
        ]
        task_locations = [GeoPoint(116.5, 40.0), GeoPoint(120.2, 30.3)]
        batch = model.worker_task_distances(worker_locations, task_locations)
        scalar = [
            model.worker_task_distance(locations, task)
            for locations, task in zip(worker_locations, task_locations)
        ]
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_mismatched_lengths_rejected(self):
        model = DistanceModel(max_distance=1.0)
        with pytest.raises(ValueError):
            model.worker_task_distances([[GeoPoint(0, 0)]], [])

    def test_empty_worker_locations_rejected(self):
        model = DistanceModel(max_distance=1.0)
        with pytest.raises(ValueError):
            model.worker_task_distances([[]], [GeoPoint(0, 0)])

    def test_empty_batch(self):
        model = DistanceModel(max_distance=1.0)
        assert model.worker_task_distances([], []).shape == (0,)

    def test_clipped_at_one(self):
        model = DistanceModel(max_distance=1.0)
        batch = model.worker_task_distances([[GeoPoint(0, 0)]], [GeoPoint(30, 40)])
        assert batch[0] == 1.0


class TestNormalisedDistanceMatrix:
    """``normalised_distance_row`` and the W×T oracle matrix of
    ``tests/oracles/distance.py`` that the kernel tests read."""

    def test_shape_and_values(self):
        model = DistanceModel(max_distance=10.0)
        workers = [[GeoPoint(0, 0)], [GeoPoint(10, 0), GeoPoint(0, 10)]]
        tasks = [GeoPoint(0, 0), GeoPoint(0, 10)]
        matrix = normalised_distance_matrix(workers, tasks, model)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 0.0
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[1, 1] == 0.0

    def test_values_in_unit_interval(self):
        model = DistanceModel(max_distance=3.0)
        workers = [[GeoPoint(0, 0)]]
        tasks = [GeoPoint(5, 5), GeoPoint(1, 1)]
        matrix = normalised_distance_matrix(workers, tasks, model)
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 1.0)

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(23)
        model = DistanceModel(max_distance=7.5)
        workers = [
            [
                GeoPoint(float(x), float(y))
                for x, y in zip(
                    rng.uniform(0, 10, int(n)), rng.uniform(0, 10, int(n))
                )
            ]
            for n in rng.integers(1, 4, size=9)
        ]
        tasks = [
            GeoPoint(float(x), float(y))
            for x, y in zip(rng.uniform(0, 10, 11), rng.uniform(0, 10, 11))
        ]
        matrix = normalised_distance_matrix(workers, tasks, model)
        for i, locations in enumerate(workers):
            for j, task in enumerate(tasks):
                assert matrix[i, j] == pytest.approx(
                    model.worker_task_distance(locations, task), abs=1e-15
                )
        # Chunking across worker blocks must not change anything.
        chunked = normalised_distance_matrix(workers, tasks, model, chunk_size=2)
        np.testing.assert_array_equal(chunked, matrix)

    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    def test_rows_are_the_segmented_minimum_bit_for_bit(self, metric):
        """Mixed location counts: each worker's row, and the oracle matrix
        under any chunking, is the exact minimum over the worker's locations
        of the raw metric, as one reduceat computes it."""
        rng = np.random.default_rng(5)
        model = DistanceModel(max_distance=50.0, metric=metric)
        counts = np.array([1, 3, 2, 1, 4, 2, 2])
        xs, ys = 116.0 + rng.random(counts.sum()), 39.5 + rng.random(counts.sum())
        starts = np.cumsum(counts) - counts
        workers = [
            [GeoPoint(float(x), float(y)) for x, y in zip(xs[a : a + n], ys[a : a + n])]
            for a, n in zip(starts, counts)
        ]
        task_x, task_y = 116.0 + rng.random(37), 39.5 + rng.random(37)
        tasks = [GeoPoint(float(x), float(y)) for x, y in zip(task_x, task_y)]
        raw = _ARRAY_METRICS[metric](xs[:, None], ys[:, None], task_x, task_y)
        want = np.minimum(1.0, np.minimum.reduceat(raw, starts, axis=0) / 50.0)
        for i, locations in enumerate(workers):
            row = normalised_distance_row(*points_to_arrays(locations), task_x, task_y, model)
            assert row.tobytes() == want[i].tobytes()
        for chunk_size in (1, 2, 3, 1024):
            got = normalised_distance_matrix(workers, tasks, model, chunk_size)
            assert got.tobytes() == want.tobytes()

    def test_empty_matrix(self):
        model = DistanceModel(max_distance=1.0)
        assert normalised_distance_matrix([], [GeoPoint(0, 0)], model).shape == (0, 1)
        assert normalised_distance_matrix([[GeoPoint(0, 0)]], [], model).shape == (1, 0)


class TestHullDiameter:
    """The convex-hull diameter path vs the brute-force O(N^2) oracle."""

    def _random_points(self, rng, count, spread=10.0):
        return [
            GeoPoint(float(rng.uniform(0, spread)), float(rng.uniform(0, spread)))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    def test_hull_matches_bruteforce(self, seed, metric):
        rng = np.random.default_rng(seed)
        points = self._random_points(rng, 300)
        assert max_pairwise_distance(
            points, metric=metric, method="hull"
        ) == pytest.approx(
            max_pairwise_distance(points, metric=metric, method="bruteforce"),
            rel=1e-12,
        )

    def test_auto_switches_to_hull_above_cutoff(self):
        from repro.spatial.distance import _HULL_CUTOFF

        rng = np.random.default_rng(5)
        points = self._random_points(rng, _HULL_CUTOFF + 50)
        assert max_pairwise_distance(points) == pytest.approx(
            max_pairwise_distance(points, method="bruteforce"), rel=1e-12
        )

    def test_collinear_points(self):
        points = [GeoPoint(float(i), float(i)) for i in range(50)]
        assert max_pairwise_distance(points, method="hull") == pytest.approx(
            49.0 * math.sqrt(2.0)
        )

    def test_duplicate_points(self):
        points = [GeoPoint(1.0, 2.0)] * 20 + [GeoPoint(4.0, 6.0)] * 20
        assert max_pairwise_distance(points, method="hull") == pytest.approx(5.0)

    def test_degenerate_small_inputs(self):
        assert max_pairwise_distance([], method="hull") == 0.0
        assert max_pairwise_distance([GeoPoint(3, 3)], method="hull") == 0.0
        assert max_pairwise_distance(
            [GeoPoint(0, 0), GeoPoint(3, 4)], method="hull"
        ) == pytest.approx(5.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            max_pairwise_distance([GeoPoint(0, 0)], method="voronoi")
