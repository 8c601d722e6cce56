import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embedtrack.geometry import (
    BoundingBox,
    center_distance,
    center_distance_matrix,
    iou,
    iou_matrix,
    nms,
)

_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_extent = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
_boxes = st.lists(
    st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), _coord, _coord, _extent, _extent),
    max_size=6,
)


class TestBoundingBox:
    def test_properties(self):
        b = BoundingBox(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0
        assert b.height == 6.0
        assert b.area == 18.0
        assert b.center == (2.5, 5.0)
        assert np.array_equal(b.as_array(), [1.0, 2.0, 4.0, 8.0])

    def test_from_xywh(self):
        assert BoundingBox.from_xywh(1, 2, 3, 4) == BoundingBox(1, 2, 4, 6)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError, match="negative extent"):
            BoundingBox(5, 0, 4, 10)
        with pytest.raises(ValueError, match="negative extent"):
            BoundingBox(0, 5, 10, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(0, 0, np.nan, 1)
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(0, 0, np.inf, 1)

    def test_zero_area_allowed(self):
        assert BoundingBox(3, 3, 3, 3).area == 0.0


class TestIou:
    def test_identical(self):
        b = BoundingBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_known_value(self):
        # intersection 2, union 6
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 3, 2)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-15)

    def test_touching_edges(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) == 0.0

    def test_degenerate_union_is_zero(self):
        z = BoundingBox(3, 3, 3, 3)
        assert iou(z, z) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = BoundingBox(*np.sort(rng.uniform(0, 50, 2)), *np.sort(rng.uniform(0, 50, 2)) + 50)
            b = BoundingBox(*np.sort(rng.uniform(0, 50, 2)), *np.sort(rng.uniform(0, 50, 2)) + 50)
            assert iou(a, b) == iou(b, a)


class TestIouMatrix:
    def test_matches_scalar_iou(self):
        rng = np.random.default_rng(1)

        def rand_box():
            x, y = rng.uniform(0, 50, 2)
            w, h = rng.uniform(1, 30, 2)
            return BoundingBox(x, y, x + w, y + h)

        a = [rand_box() for _ in range(7)]
        b = [rand_box() for _ in range(5)]
        m = iou_matrix(np.stack([x.as_array() for x in a]),
                       np.stack([x.as_array() for x in b]))
        assert m.shape == (7, 5)
        for i, ba in enumerate(a):
            for j, bb in enumerate(b):
                assert m[i, j] == pytest.approx(iou(ba, bb), abs=1e-14)

    def test_single_box_inputs_reshaped(self):
        b = BoundingBox(0, 0, 10, 10)
        m = iou_matrix(b.as_array(), b.as_array())
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_degenerate_rows_are_zero(self):
        z = np.array([[5.0, 5.0, 5.0, 5.0]])
        assert iou_matrix(z, z)[0, 0] == 0.0


def test_center_distance():
    a = BoundingBox(0, 0, 2, 2)  # center (1, 1)
    b = BoundingBox(3, 4, 5, 6)  # center (4, 5)
    assert center_distance(a, b) == pytest.approx(5.0, abs=1e-12)


class TestCenterDistanceMatrix:
    @given(_boxes, _boxes)
    def test_equals_scalar_center_distance_exactly(self, a, b):
        m = center_distance_matrix(
            np.array([x.as_array() for x in a]).reshape(-1, 4),
            np.array([x.as_array() for x in b]).reshape(-1, 4),
        )
        assert m.shape == (len(a), len(b))
        for i, ba in enumerate(a):
            for j, bb in enumerate(b):
                assert m[i, j] == center_distance(ba, bb)

    def test_single_box_inputs_reshaped(self):
        a = BoundingBox(0, 0, 2, 2).as_array()
        b = BoundingBox(3, 4, 5, 6).as_array()
        assert center_distance_matrix(a, b).tolist() == [[5.0]]


class TestNms:
    def boxes(self):
        return [
            (BoundingBox(0, 0, 10, 10), 0.9, 0),
            (BoundingBox(1, 1, 11, 11), 0.8, 0),  # heavy overlap with first
            (BoundingBox(50, 50, 60, 60), 0.7, 0),
        ]

    def test_suppresses_overlapping_lower_score(self):
        assert nms(self.boxes(), 0.5) == [0, 2]

    def test_high_threshold_keeps_everything(self):
        assert nms(self.boxes(), 0.99) == [0, 1, 2]

    def test_result_ordered_by_score(self):
        dets = list(reversed(self.boxes()))
        keep = nms(dets, 0.5)
        scores = [dets[i][1] for i in keep]
        assert scores == sorted(scores, reverse=True)

    def test_score_ties_prefer_lower_index(self):
        dets = [
            (BoundingBox(0, 0, 10, 10), 0.5, 0),
            (BoundingBox(0, 0, 10, 10), 0.5, 0),
        ]
        assert nms(dets, 0.3) == [0]

    def test_boundary_overlap_not_suppressed(self):
        # suppression requires IoU strictly above the threshold
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(0, 5, 10, 15)  # IoU = 1/3
        dets = [(a, 0.9, 0), (b, 0.8, 0)]
        assert nms(dets, 1 / 3) == [0, 1]

    def test_per_class_by_default(self):
        dets = [
            (BoundingBox(0, 0, 10, 10), 0.9, 0),
            (BoundingBox(1, 1, 11, 11), 0.8, 1),
        ]
        assert nms(dets, 0.5) == [0, 1]
        assert nms(dets, 0.5, class_agnostic=True) == [0]

    def test_suppressed_box_cannot_suppress(self):
        # chain: a suppresses b; b overlaps c but c must survive
        dets = [
            (BoundingBox(0, 0, 10, 10), 0.9, 0),
            (BoundingBox(4, 0, 14, 10), 0.8, 0),
            (BoundingBox(9, 0, 19, 10), 0.7, 0),
        ]
        assert nms(dets, 0.3) == [0, 2]

    def test_empty_input(self):
        assert nms([], 0.5) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            nms(self.boxes(), 1.5)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            nms([(BoundingBox(0, 0, 1, 1), np.nan, 0)], 0.5)
