"""Tests for repro.spatial.geometry."""

import math

import pytest

from repro.spatial.geometry import (
    GeoPoint,
    euclidean_distance,
    haversine_distance,
)


class TestGeoPoint:
    def test_construction_and_aliases(self):
        point = GeoPoint(116.4, 39.9)
        assert point.x == 116.4
        assert point.lon == 116.4
        assert point.lat == 39.9
        assert point.as_tuple() == (116.4, 39.9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, float("inf"))

    def test_offset(self):
        point = GeoPoint(1.0, 2.0).offset(0.5, -1.0)
        assert point == GeoPoint(1.5, 1.0)

    def test_frozen(self):
        point = GeoPoint(0.0, 0.0)
        with pytest.raises(AttributeError):
            point.x = 3.0  # type: ignore[misc]

    def test_equality_and_hash(self):
        assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
        assert hash(GeoPoint(1.0, 2.0)) == hash(GeoPoint(1.0, 2.0))


class TestEuclideanDistance:
    def test_simple_triangle(self):
        assert euclidean_distance(GeoPoint(0, 0), GeoPoint(3, 4)) == pytest.approx(5.0)

    def test_zero_distance(self):
        assert euclidean_distance(GeoPoint(2, 2), GeoPoint(2, 2)) == 0.0

    def test_symmetry(self):
        a, b = GeoPoint(1.2, 3.4), GeoPoint(-2.0, 7.7)
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))


class TestHaversineDistance:
    def test_zero_distance(self):
        point = GeoPoint(116.4, 39.9)
        assert haversine_distance(point, point) == 0.0

    def test_known_distance_beijing_shanghai(self):
        beijing = GeoPoint(116.4074, 39.9042)
        shanghai = GeoPoint(121.4737, 31.2304)
        distance = haversine_distance(beijing, shanghai)
        # Great-circle distance is roughly 1068 km.
        assert 1000.0 < distance < 1130.0

    def test_symmetry(self):
        a, b = GeoPoint(116.4, 39.9), GeoPoint(121.5, 31.2)
        assert haversine_distance(a, b) == pytest.approx(haversine_distance(b, a))

    def test_one_degree_longitude_at_equator(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0)
        assert haversine_distance(a, b) == pytest.approx(111.19, rel=0.01)

    def test_antipodal_points_do_not_crash(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(180.0, 0.0)
        distance = haversine_distance(a, b)
        assert distance == pytest.approx(math.pi * 6371.0088, rel=0.001)


class TestConvexHull:
    def test_square_with_interior_points(self):
        import numpy as np

        from repro.spatial.geometry import convex_hull_indices

        xs = np.array([0.0, 4.0, 4.0, 0.0, 2.0, 1.0, 3.0])
        ys = np.array([0.0, 0.0, 4.0, 4.0, 2.0, 1.0, 3.0])
        hull = convex_hull_indices(xs, ys)
        assert sorted(hull.tolist()) == [0, 1, 2, 3]

    def test_hull_contains_extremes(self):
        import numpy as np

        from repro.spatial.geometry import convex_hull_indices

        rng = np.random.default_rng(41)
        xs = rng.uniform(-5, 5, size=200)
        ys = rng.uniform(-5, 5, size=200)
        hull = set(convex_hull_indices(xs, ys).tolist())
        for extreme in (
            int(np.argmin(xs)),
            int(np.argmax(xs)),
            int(np.argmin(ys)),
            int(np.argmax(ys)),
        ):
            # An extreme point is always on the hull (or coincides with one).
            assert any(
                xs[h] == xs[extreme] and ys[h] == ys[extreme] for h in hull
            )

    def test_collinear_and_duplicates(self):
        import numpy as np

        from repro.spatial.geometry import convex_hull_indices

        xs = np.array([0.0, 1.0, 2.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, 2.0, 1.0, 2.0])
        hull = convex_hull_indices(xs, ys)
        hull_points = {(xs[h], ys[h]) for h in hull.tolist()}
        assert (0.0, 0.0) in hull_points and (2.0, 2.0) in hull_points

    def test_tiny_inputs_returned_as_is(self):
        import numpy as np

        from repro.spatial.geometry import convex_hull_indices

        assert convex_hull_indices(np.array([]), np.array([])).size == 0
        assert convex_hull_indices(np.array([1.0]), np.array([2.0])).tolist() == [0]
