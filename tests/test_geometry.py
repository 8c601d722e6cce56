import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embedtrack.geometry import (
    BoundingBox,
    box_array,
    boxes_from_array,
    center_distance,
    iou_matrix,
    nms,
)
from oracles import area, center_distance_matrix, iou, iou_matrix_oracle, nms_oracle

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
        assert area(b) == 18.0
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
        assert area(BoundingBox(3, 3, 3, 3)) == 0.0

    @pytest.mark.parametrize("coords, message", [
        ((np.nan, 0, 1, 1), "box coordinates must be finite: BoundingBox(x1=nan, y1=0, x2=1, y2=1)"),
        ((0, 0, np.inf, 1), "box coordinates must be finite: BoundingBox(x1=0, y1=0, x2=inf, y2=1)"),
        ((0, -np.inf, 1, 1), "box coordinates must be finite: BoundingBox(x1=0, y1=-inf, x2=1, y2=1)"),
        ((np.float32(np.nan), 0, 1, 1),
         "box coordinates must be finite: BoundingBox(x1=np.float32(nan), y1=0, x2=1, y2=1)"),
        ((np.float64(2), 0, 1, 1), "box has negative extent: BoundingBox(x1=np.float64(2.0), y1=0, x2=1, y2=1)"),
        ((3, 0, 1, 1), "box has negative extent: BoundingBox(x1=3, y1=0, x2=1, y2=1)"),
        ((0, 2, 1, 1), "box has negative extent: BoundingBox(x1=0, y1=2, x2=1, y2=1)"),
    ])
    def test_invalid_coordinates_name_the_box(self, coords, message):
        with pytest.raises(ValueError) as exc:
            BoundingBox(*coords)
        assert str(exc.value) == message

    @pytest.mark.parametrize("coords", [
        (0, 0, 1, 1),
        (np.int64(0), np.float32(0.5), np.float64(1.0), True),
        (-1e308, -1e308, 1e308, 1e308),
    ])
    def test_int_and_numpy_scalar_coordinates_accepted(self, coords):
        b = BoundingBox(*coords)
        assert (b.x1, b.y1, b.x2, b.y2) == coords

    @pytest.mark.parametrize("bad", [None, "a", 1 + 0j])
    def test_non_real_coordinates_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            BoundingBox(bad, 0, 2, 1)


class TestBoxesFromArray:
    @given(_boxes)
    def test_inverts_box_array(self, boxes):
        got = boxes_from_array(box_array(boxes))
        assert got == boxes
        assert all(type(v) is float for b in got for v in (b.x1, b.y1, b.x2, b.y2))

    # the message the constructor raises for the first bad row
    @pytest.mark.parametrize("rows, message", [
        ([[0, 0, 1, 1], [3, 0, 1, 1], [0, np.nan, 1, 1]],
         "box has negative extent: BoundingBox(x1=3.0, y1=0.0, x2=1.0, y2=1.0)"),
        ([[0, 0, 1, 1], [0, 0, np.inf, 1], [0, 2, 1, 1]],
         "box coordinates must be finite: BoundingBox(x1=0.0, y1=0.0, x2=inf, y2=1.0)"),
        ([[0, 2, 1, 1]], "box has negative extent: BoundingBox(x1=0.0, y1=2.0, x2=1.0, y2=1.0)"),
    ])
    def test_first_bad_row_raises_the_constructor_message(self, rows, message):
        with pytest.raises(ValueError) as exc:
            boxes_from_array(np.array(rows, dtype=np.float64))
        assert str(exc.value) == message

    @pytest.mark.parametrize("shape", [(4,), (2, 5), (1, 2, 4)])
    def test_needs_an_n_by_4_array(self, shape):
        with pytest.raises(ValueError, match=r"boxes must be an \(N, 4\) array, got shape"):
            boxes_from_array(np.zeros(shape))


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


# Python floats and ints, np.float32 and np.float64 fields, mixed within a box
_typed_coord = st.builds(lambda v, tp: tp(v / 8), st.integers(-10**6, 10**6),
                         st.sampled_from([float, int, np.float32, np.float64]))


class TestBoxArray:
    def test_empty_input(self):
        out = box_array([])
        assert out.shape == (0, 4) and out.dtype == np.float64

    def test_generator_input(self):
        boxes = [BoundingBox(0, 1, 2, 3), BoundingBox(4.5, 5, 6, 7.25)]
        assert box_array(b for b in boxes).tolist() == [[0, 1, 2, 3], [4.5, 5, 6, 7.25]]

    @given(st.lists(st.tuples(*[_typed_coord] * 4), max_size=6))
    def test_equals_the_conversion_of_a_list_of_tuples(self, fields):
        boxes = [BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
                 for x1, y1, x2, y2 in fields]
        want = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)
        got = box_array(iter(boxes))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(_boxes.filter(bool))
    def test_equals_stacked_as_array(self, boxes):
        got, want = box_array(boxes), np.stack([b.as_array() for b in boxes])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _nms(dets, threshold):
    """``nms`` on (box, score) pairs, passed as a box array and a score array."""
    return nms(box_array(b for b, _ in dets), np.array([s for _, s in dets]), threshold)


class TestNms:
    def boxes(self):
        return [
            (BoundingBox(0, 0, 10, 10), 0.9),
            (BoundingBox(1, 1, 11, 11), 0.8),  # heavy overlap with first
            (BoundingBox(50, 50, 60, 60), 0.7),
        ]

    def test_suppresses_overlapping_lower_score(self):
        assert _nms(self.boxes(), 0.5) == [0, 2]

    def test_high_threshold_keeps_everything(self):
        assert _nms(self.boxes(), 0.99) == [0, 1, 2]

    def test_result_ordered_by_score(self):
        dets = list(reversed(self.boxes()))
        keep = _nms(dets, 0.5)
        scores = [dets[i][1] for i in keep]
        assert scores == sorted(scores, reverse=True)

    def test_score_ties_prefer_lower_index(self):
        dets = [
            (BoundingBox(0, 0, 10, 10), 0.5),
            (BoundingBox(0, 0, 10, 10), 0.5),
        ]
        assert _nms(dets, 0.3) == [0]

    def test_boundary_overlap_not_suppressed(self):
        # suppression requires IoU strictly above the threshold
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(0, 5, 10, 15)  # IoU = 1/3
        dets = [(a, 0.9), (b, 0.8)]
        assert _nms(dets, 1 / 3) == [0, 1]

    def test_suppressed_box_cannot_suppress(self):
        # chain: a suppresses b; b overlaps c but c must survive
        dets = [
            (BoundingBox(0, 0, 10, 10), 0.9),
            (BoundingBox(4, 0, 14, 10), 0.8),
            (BoundingBox(9, 0, 19, 10), 0.7),
        ]
        assert _nms(dets, 0.3) == [0, 2]

    def test_empty_input(self):
        assert nms(np.empty((0, 4)), np.empty(0), 0.5) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            _nms(self.boxes(), 1.5)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _nms([(BoundingBox(0, 0, 1, 1), np.nan)], 0.5)


# boxes on a coarse grid, so identical, nested, touching and zero-width
# boxes are common
_grid = st.integers(0, 12).map(float)
_grid_boxes = st.lists(
    st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), _grid, _grid,
              st.integers(0, 6).map(float), st.integers(0, 6).map(float)),
    max_size=12,
)


class TestAgainstDenseReferences:
    """The sparse IoU and the one-pass NMS against the dense versions they
    replaced (``tests/oracles.py``)."""

    @given(_grid_boxes, _grid_boxes)
    def test_iou_matrix_equals_dense_matrix(self, a, b):
        ca = np.array([x.as_array() for x in a]).reshape(-1, 4)
        cb = np.array([x.as_array() for x in b]).reshape(-1, 4)
        got, want = iou_matrix(ca, cb), iou_matrix_oracle(ca, cb)
        assert got.shape == want.shape and np.array_equal(got, want)

    @given(_boxes, _boxes)
    def test_iou_matrix_equals_dense_matrix_on_wide_boxes(self, a, b):
        ca = np.array([x.as_array() for x in a]).reshape(-1, 4)
        cb = np.array([x.as_array() for x in b]).reshape(-1, 4)
        assert np.array_equal(iou_matrix(ca, cb), iou_matrix_oracle(ca, cb))

    @given(st.data())
    def test_nms_keeps_what_the_dense_loop_keeps(self, data):
        boxes = data.draw(_grid_boxes)
        scores = data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0, 1),
                                    min_size=len(boxes), max_size=len(boxes)))
        classes = data.draw(st.lists(st.integers(0, 2), min_size=len(boxes),
                                     max_size=len(boxes)))
        dets = list(zip(boxes, scores, classes))
        threshold = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1))
        assert nms(box_array(boxes), np.array(scores), threshold) == nms_oracle(
            dets, threshold, class_agnostic=True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nms_keeps_what_the_dense_loop_keeps_in_a_crowd(self, seed):
        """600 boxes on a 300 px square, a third of them copies of another
        box moved by at most a pixel, with tied scores or not: most boxes
        overlap several others, and each threshold suppresses a sixth."""
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 300, (600, 2))
        boxes = np.hstack([xy, xy + rng.uniform(20, 60, (600, 2))])
        boxes[400:] = boxes[:200] + rng.uniform(-1, 1, (200, 1)) * [1, 0, 1, 0]
        scores = rng.choice([0.3, 0.5, 0.5, 0.9], 600) if seed else rng.uniform(size=600)
        dets = [(BoundingBox(*b), s, 0) for b, s in zip(boxes.tolist(), scores.tolist())]
        for threshold in (0.0, 0.3, 0.7):
            keep = nms(boxes, scores, threshold)
            assert keep == nms_oracle(dets, threshold, class_agnostic=True)
            assert len(keep) <= 500


@given(st.data())
def test_nms_at_threshold_one_keeps_every_box(data):
    """No computed IoU exceeds 1.0, so NMS at 1.0 suppresses nothing and
    returns every index in descending score order: the tracker's way to
    switch duplicate removal off."""
    drawn = data.draw(_boxes | _grid_boxes)
    # each drawn box with an identical copy, a nested half and a zero-area sliver
    derived = [
        b for x in drawn for b in (x, BoundingBox(x.x1, x.y1, (x.x1 + x.x2) / 2, x.y2),
                                   BoundingBox(x.x1, x.y1, x.x1, x.y2))
    ]
    boxes = data.draw(st.permutations(drawn + derived))
    scores = np.array(data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0, 1),
                                         min_size=len(boxes), max_size=len(boxes))))
    assert nms(box_array(boxes), scores, 1.0) == np.argsort(-scores, kind="stable").tolist()
