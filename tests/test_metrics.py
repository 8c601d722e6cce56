import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from embedtrack import metrics
from embedtrack.geometry import BoundingBox
from embedtrack.metrics import (
    HOTA_ALPHAS,
    ObjectEntry,
    TrackSet,
    clear_mot,
    hota,
    idf1,
    per_class_report,
)
from oracles import (
    class_ids,
    clear_oracle,
    hota_in_oracle,
    hota_oracle,
    idf1_oracle,
    num_boxes,
    random_instance,
    restrict_class,
    separate_clear_mot,
    separate_hota,
    separate_hota_matches,
    separate_idf1,
    separate_match,
    separate_per_class_report,
    visible_frames,
)


def box(x, y, w=10.0, h=10.0):
    return BoundingBox(x, y, x + w, y + h)


def make_sets(gt_rows, pred_rows):
    """rows: (frame, obj_id, box) or (frame, obj_id, box, visible)."""
    gt, pred = TrackSet(), TrackSet()
    for row in gt_rows:
        vis = row[3] if len(row) > 3 else True
        gt.add(row[0], ObjectEntry(row[1], 0, row[2], vis))
    for row in pred_rows:
        pred.add(row[0], ObjectEntry(row[1], 0, row[2]))
    return gt, pred


class TestTrackSet:
    def test_duplicate_id_in_frame_rejected(self):
        ts = TrackSet()
        ts.add(0, ObjectEntry(1, 0, box(0, 0)))
        with pytest.raises(ValueError, match="duplicate object id 1"):
            ts.add(0, ObjectEntry(1, 0, box(5, 5)))

    def test_duplicate_rejected_after_direct_writes(self):
        ts = TrackSet()
        ts.add(0, ObjectEntry(1, 0, box(0, 0)))
        ts.frames[0] = [ObjectEntry(2, 0, box(0, 0))]  # replaced, same length
        with pytest.raises(ValueError, match="duplicate object id 2"):
            ts.add(0, ObjectEntry(2, 0, box(5, 5)))
        ts.add(0, ObjectEntry(1, 0, box(5, 5)))  # id 1 left frame 0 with the old list
        ts.frames[0].append(ObjectEntry(3, 0, box(0, 0)))  # grown in place
        with pytest.raises(ValueError, match="duplicate object id 3"):
            ts.add(0, ObjectEntry(3, 0, box(5, 5)))
        restricted = restrict_class(ts, 0)  # fills frames without add()
        with pytest.raises(ValueError, match="duplicate object id 1"):
            restricted.add(0, ObjectEntry(1, 0, box(9, 9)))

    @given(st.lists(st.tuples(st.sampled_from(["add", "replace", "append"]),
                              st.integers(0, 2), st.integers(0, 3)), max_size=30))
    def test_add_rejects_exactly_the_ids_in_the_frame(self, ops):
        ts = TrackSet()
        for op, f, i in ops:
            entry = ObjectEntry(i, 0, box(0, 0))
            if op == "replace":
                ts.frames[f] = [entry]
            elif op == "append":
                ts.frames.setdefault(f, []).append(entry)
            elif any(e.obj_id == i for e in ts.frames.get(f, ())):
                with pytest.raises(ValueError, match=f"duplicate object id {i} in frame {f}"):
                    ts.add(f, entry)
            else:
                ts.add(f, entry)
                assert ts.frames[f][-1] is entry

    def test_invisible_entries_dropped(self):
        ts = TrackSet()
        ts.add(0, ObjectEntry(1, 0, box(0, 0), visible=False))
        ts.add(0, ObjectEntry(2, 0, box(20, 0)))
        assert num_boxes(ts) == 1

    def test_restrict_class(self):
        ts = TrackSet()
        ts.add(0, ObjectEntry(1, 0, box(0, 0)))
        ts.add(0, ObjectEntry(2, 1, box(20, 0)))
        assert num_boxes(restrict_class(ts, 1)) == 1


class TestClearMotKnownValues:
    def test_perfect_tracking(self):
        gt, pred = make_sets(
            [(f, i, box(20 * i, 0)) for f in range(3) for i in range(2)],
            [(f, i + 5, box(20 * i, 0)) for f in range(3) for i in range(2)],
        )
        r = clear_mot(gt, pred)
        assert r.mota == 1.0 and r.motp == 1.0
        assert r.fp == r.fn == r.idsw == 0
        assert r.mt == 2 and r.ml == 0

    def test_identity_switch_counted_once(self):
        # one object, prediction id changes mid-sequence
        gt, pred = make_sets(
            [(f, 0, box(0, 0)) for f in range(4)],
            [(f, 1 if f < 2 else 2, box(0, 0)) for f in range(4)],
        )
        r = clear_mot(gt, pred)
        assert r.idsw == 1
        assert r.mota == 1.0 - 1 / 4

    def test_switch_relative_to_last_known_match(self):
        # match, two unmatched frames, then reappearance under a new id
        gt, pred = make_sets(
            [(f, 0, box(0, 0)) for f in range(4)],
            [(0, 1, box(0, 0)), (3, 2, box(0, 0))],
        )
        assert clear_mot(gt, pred).idsw == 1

    def test_false_positive_and_negative_counts(self):
        gt, pred = make_sets(
            [(0, 0, box(0, 0)), (0, 1, box(50, 50))],
            [(0, 7, box(0, 0)), (0, 8, box(200, 200))],
        )
        r = clear_mot(gt, pred)
        assert (r.fp, r.fn) == (1, 1)

    def test_mostly_tracked_and_lost(self):
        gt, pred = make_sets(
            [(f, i, box(60 * i, 0)) for f in range(5) for i in range(2)],
            [(f, 0, box(0, 0)) for f in range(5)],  # covers object 0 only
        )
        r = clear_mot(gt, pred)
        assert r.mt == 1 and r.ml == 1

    def test_carryover_beats_higher_iou_newcomer(self):
        # the carried-over prediction keeps its gt even when another
        # prediction overlaps more
        a = box(0, 0)
        gt, pred = make_sets(
            [(0, 0, a), (1, 0, a)],
            [
                (0, 1, a),
                (1, 1, BoundingBox(2, 0, 12, 10)),  # carried, IoU < 1
                (1, 2, a),  # IoU = 1 but arrives later
            ],
        )
        r = clear_mot(gt, pred)
        assert r.idsw == 0
        assert r.fp == 1

    def test_carried_pair_at_exactly_the_threshold_is_kept(self):
        # IoU 0.5 is admissible at threshold 0.5, so the carried pair beats
        # the newcomer at 0.9
        a = box(0, 0)
        gt, pred = make_sets(
            [(0, 1, a), (1, 1, a)],
            [(0, 7, a), (1, 7, BoundingBox(0, 0, 10, 5)), (1, 8, BoundingBox(0, 0, 10, 9))],
        )
        r = clear_mot(gt, pred)
        assert (r.idsw, r.fp) == (0, 1)

    def test_carried_pair_one_ulp_below_the_threshold_is_dropped(self, monkeypatch):
        # CLEAR compares IoU with the threshold itself, not with threshold - eps
        # as HOTA does: frame 0's pair overlaps fully, frame 1's one ulp below 0.5
        below = np.nextafter(0.5, 0.0)
        monkeypatch.setattr(metrics, "iou_matrix",
                            lambda a, b: np.full((len(a), len(b)), 1.0 if a[0, 0] == 0.0 else below))
        gt, pred = make_sets([(0, 1, box(0, 0)), (1, 1, box(5, 0))],
                             [(0, 7, box(0, 0)), (1, 7, box(5, 0))])
        r = clear_mot(gt, pred)
        assert (r.num_matches, r.fp, r.fn) == (1, 1, 1)

    def test_empty_ground_truth_rejected(self):
        gt, pred = TrackSet(), TrackSet()
        pred.add(0, ObjectEntry(1, 0, box(0, 0)))
        with pytest.raises(ValueError, match="ground truth has no visible objects"):
            clear_mot(gt, pred)

    @pytest.mark.parametrize("evaluate", [clear_mot, idf1, hota, per_class_report])
    def test_ground_truth_with_no_visible_object_rejected(self, evaluate):
        # every class of the ground truth is invisible in every frame
        gt, pred = TrackSet(), TrackSet()
        for f in range(3):
            gt.add(f, ObjectEntry(0, 0, box(0, 0), visible=False))
            gt.add(f, ObjectEntry(1, 1, box(50, 0), visible=False))
            pred.add(f, ObjectEntry(5, 0, box(0, 0)))
        with pytest.raises(ValueError) as exc:
            evaluate(gt, pred)
        assert str(exc.value) == "ground truth has no visible objects"


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), 1.5])
def test_iou_threshold_outside_unit_interval_rejected(threshold):
    # at 0 or below, disjoint boxes would match; above 1 or nan, none would
    gt, pred = make_sets([(0, 1, box(0, 0))], [(0, 1, box(500, 500))])
    for evaluate in (per_class_report, clear_mot, idf1):
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate(gt, pred, threshold)


class TestIdf1KnownValues:
    def test_perfect(self):
        gt, pred = make_sets(
            [(f, 0, box(0, 0)) for f in range(3)],
            [(f, 9, box(0, 0)) for f in range(3)],
        )
        r = idf1(gt, pred)
        assert r.idf1 == 1.0 and r.idtp == 3 and r.idfp == 0 and r.idfn == 0

    def test_split_track_keeps_majority(self):
        # id switch after 2 of 5 frames: best assignment keeps 3 frames
        gt, pred = make_sets(
            [(f, 0, box(0, 0)) for f in range(5)],
            [(f, 1 if f < 2 else 2, box(0, 0)) for f in range(5)],
        )
        r = idf1(gt, pred)
        assert r.idtp == 3
        assert r.idf1 == pytest.approx(3 / (3 + 0.5 * 2 + 0.5 * 2), abs=1e-15)

    def test_no_overlap_gives_zero(self):
        gt, pred = make_sets(
            [(0, 0, box(0, 0))],
            [(0, 1, box(500, 500))],
        )
        assert idf1(gt, pred).idf1 == 0.0

    def test_iou_one_ulp_below_the_threshold_is_no_frame(self, monkeypatch):
        # IDF1 compares IoU with the threshold itself, not with threshold - eps as HOTA does
        monkeypatch.setattr(metrics, "iou_matrix",
                            lambda a, b: np.full((len(a), len(b)), np.nextafter(0.5, 0.0)))
        gt, pred = make_sets([(0, 0, box(0, 0))], [(0, 1, box(0, 0))])
        assert idf1(gt, pred).idtp == 0


class TestHotaKnownValues:
    def test_perfect(self):
        gt, pred = make_sets(
            [(f, i, box(40 * i, 0)) for f in range(3) for i in range(2)],
            [(f, i, box(40 * i, 0)) for f in range(3) for i in range(2)],
        )
        r = hota(gt, pred)
        assert r.hota == 1.0 and r.deta == 1.0 and r.assa == 1.0

    def test_alpha_grid(self):
        assert len(HOTA_ALPHAS) == 19
        assert HOTA_ALPHAS[0] == 0.05 and HOTA_ALPHAS[-1] == 0.95

    def test_association_error_lowers_assa_not_deta(self):
        gt, pred = make_sets(
            [(f, 0, box(0, 0)) for f in range(4)],
            [(f, 1 if f < 2 else 2, box(0, 0)) for f in range(4)],
        )
        r = hota(gt, pred)
        assert r.deta == 1.0
        assert r.assa == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("below", [np.nextafter(0.5, 0.0), 0.5 - np.finfo(float).eps],
                             ids=["one_ulp_below", "exactly_alpha_less_eps"])
    def test_iou_just_below_an_alpha_counts_at_that_alpha(self, monkeypatch, below):
        # TrackEval keeps a match with IoU >= alpha - eps, the floor itself too
        monkeypatch.setattr(metrics, "iou_matrix", lambda a, b: np.full((len(a), len(b)), below))
        gt, pred = make_sets([(0, 1, box(0, 0))], [(0, 2, box(0, 0))])
        tp = dict(zip(HOTA_ALPHAS, hota(gt, pred).tp))
        assert (tp[0.5], tp[0.55]) == (1, 0)


class TestOracleEquivalence:
    """Brute-force enumeration oracles on small random instances."""

    N_INSTANCES = 200

    def instances(self):
        rng = np.random.default_rng(20240817)
        for _ in range(self.N_INSTANCES):
            yield random_instance(rng)

    def test_clear_mot_matches_enumeration(self):
        for gt, pred in self.instances():
            got = clear_mot(gt, pred)
            want = clear_oracle(gt, pred)
            assert (got.fp, got.fn, got.idsw) == (want["fp"], want["fn"], want["idsw"])
            assert (got.mt, got.ml) == (want["mt"], want["ml"])
            assert got.num_matches == want["num_matches"]
            assert abs(got.mota - want["mota"]) <= 1e-12
            assert abs(got.motp - want["motp"]) <= 1e-12

    def test_idf1_matches_enumeration(self):
        for gt, pred in self.instances():
            got = idf1(gt, pred)
            want = idf1_oracle(gt, pred)
            assert (got.idtp, got.idfp, got.idfn) == (
                want["idtp"], want["idfp"], want["idfn"],
            )
            assert abs(got.idf1 - want["idf1"]) <= 1e-12

    def test_hota_matches_enumeration(self):
        for gt, pred in self.instances():
            got = hota(gt, pred)
            assert hota_in_oracle(got, hota_oracle(gt, pred))


class TestPerClassReport:
    def test_single_class_matches_direct_calls(self):
        rng = np.random.default_rng(7)
        gt, pred = random_instance(rng)
        rep = per_class_report(gt, pred)
        c = clear_mot(gt, pred)
        i = idf1(gt, pred)
        h = hota(gt, pred)
        m = rep.per_class[0]
        assert m.mota == c.mota and m.idsw == c.idsw
        assert m.idf1 == i.idf1
        assert m.hota == h.hota
        assert rep.aggregate.mota == pytest.approx(c.mota, abs=1e-15)
        assert rep.mmota == pytest.approx(c.mota, abs=1e-15)

    def test_classes_evaluated_independently(self):
        gt, pred = TrackSet(), TrackSet()
        for f in range(3):
            gt.add(f, ObjectEntry(0, 0, box(0, 0)))
            gt.add(f, ObjectEntry(1, 1, box(100, 0)))
            pred.add(f, ObjectEntry(5, 0, box(0, 0)))
            # class-1 prediction placed on the class-0 object: must not match
            pred.add(f, ObjectEntry(6, 1, box(0, 0)))
        rep = per_class_report(gt, pred)
        assert rep.per_class[0].mota == 1.0
        assert rep.per_class[1].fp == 3 and rep.per_class[1].fn == 3

    def test_prediction_only_class_counts_fp_but_not_means(self):
        gt, pred = TrackSet(), TrackSet()
        for f in range(2):
            gt.add(f, ObjectEntry(0, 0, box(0, 0)))
            pred.add(f, ObjectEntry(5, 0, box(0, 0)))
            pred.add(f, ObjectEntry(6, 3, box(200, 200)))
        rep = per_class_report(gt, pred)
        assert rep.per_class[3].num_gt == 0
        assert rep.per_class[3].fp == 2
        assert rep.per_class[3].mota is None
        assert rep.mmota == 1.0  # mean over gt-bearing classes only
        assert rep.aggregate.fp == 2
        assert rep.aggregate.mota == pytest.approx(1.0 - 2 / 2, abs=1e-15)

    def test_aggregate_counts_are_class_sums(self):
        rng = np.random.default_rng(11)
        gt, pred = TrackSet(), TrackSet()
        for cls in (0, 1):
            g, p = random_instance(rng)
            for f, entries in g.frames.items():
                for e in entries:
                    gt.add(f, ObjectEntry(e.obj_id + 100 * cls, cls, e.box, e.visible))
            for f, entries in p.frames.items():
                for e in entries:
                    pred.add(f, ObjectEntry(e.obj_id + 100 * cls, cls, e.box))
        rep = per_class_report(gt, pred)
        for key in ("fp", "fn", "idsw", "idtp", "num_gt"):
            assert getattr(rep.aggregate, key) == sum(
                getattr(m, key) for m in rep.per_class.values()
            )


def solver_matching(overlaps, threshold):
    """The matching as the assignment solver gives it on the full cost
    matrix: admissible pairs weighted by IoU, all others 0."""
    admissible = overlaps >= threshold
    rows, cols = linear_sum_assignment(np.where(admissible, -overlaps, 0.0))
    keep = admissible[rows, cols]
    return rows[keep].tolist(), cols[keep].tolist()


_iou_values = st.sampled_from([0.0, 0.0, 0.04, 0.05, 0.3, 0.5, 0.5, 0.72, 0.95, 1.0]) | st.floats(0.0, 1.0)
_thresholds = st.sampled_from([0.0, 0.05, 0.5, 0.95]) | st.floats(0.0, 1.0)


@st.composite
def iou_matrices(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return np.array(draw(st.lists(_iou_values, min_size=n * m, max_size=n * m))).reshape(n, m)


@st.composite
def matching_cases(draw):
    """A threshold and an IoU matrix whose admissible pairs form a matching:
    a partial permutation at or above the threshold, the rest below it."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    threshold = draw(st.sampled_from([0.05, 0.5, 0.95]) | st.floats(1e-6, 1.0))
    below = st.floats(0.0, threshold, exclude_max=True)
    overlaps = np.array(draw(st.lists(below, min_size=n * m, max_size=n * m))).reshape(n, m)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(m)))
    for r, c in zip(rows[:draw(st.integers(0, min(n, m)))], cols):
        overlaps[r, c] = draw(st.floats(threshold, 1.0))
    return overlaps, threshold


class TestMatch:
    """metrics._match is the solver's matching on the full cost matrix, cut
    to the admissible pairs."""

    @given(iou_matrices(), _thresholds)
    def test_equals_solver_on_random_matrices(self, overlaps, threshold):
        rows, cols = metrics._match(overlaps, threshold)
        assert (rows.tolist(), cols.tolist()) == solver_matching(overlaps, threshold)
        # and the copy the separate_* oracles solve with
        assert [x.tolist() for x in separate_match(overlaps, threshold)] == [rows.tolist(), cols.tolist()]

    @given(matching_cases())
    def test_matching_graph_gives_its_admissible_pairs(self, case):
        # every admissible IoU is above 0, so the optimum takes each admissible pair, in row order
        overlaps, threshold = case
        rows, cols = metrics._match(overlaps, threshold)
        want = solver_matching(overlaps, threshold)
        assert (rows.tolist(), cols.tolist()) == want
        assert want == tuple(x.tolist() for x in np.nonzero(overlaps >= threshold))

    @given(_iou_values)
    def test_single_pair_at_threshold_zero(self, value):
        overlaps = np.array([[value]])
        rows, cols = metrics._match(overlaps, 0.0)
        assert (rows.tolist(), cols.tolist()) == solver_matching(overlaps, 0.0) == ([0], [0])


_grid_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.sampled_from([0.0, 5.0, 10.0, 25.0]),
    st.sampled_from([0.0, 5.0]),
    st.sampled_from([10.0, 15.0]),
    st.sampled_from([10.0, 15.0]),
)


@st.composite
def small_tracksets(draw):
    """Up to three frames of up to three gt and three predicted objects on a
    coarse grid, so that exactly repeated boxes and tied matchings are
    common. At least one gt box is visible."""
    gt, pred = TrackSet(), TrackSet()
    for f in range(draw(st.integers(1, 3))):
        for i in draw(st.sets(st.integers(0, 3), max_size=3)):
            gt.add(f, ObjectEntry(i, 0, draw(_grid_boxes), draw(st.booleans() | st.just(True))))
        for j in draw(st.sets(st.integers(0, 4), max_size=3)):
            pred.add(f, ObjectEntry(10 + j, 0, draw(_grid_boxes)))
    if num_boxes(gt) == 0:
        gt.add(-1, ObjectEntry(0, 0, draw(_grid_boxes)))
    return gt, pred


class TestHotaProperties:
    """HOTA on small random instances: the published single-matching
    definition, checked against the brute-force oracle."""

    @settings(deadline=None)
    @given(small_tracksets())
    def test_equals_oracle(self, sets):
        assert hota_in_oracle(hota(*sets), hota_oracle(*sets))

    @settings(deadline=None)
    @given(small_tracksets())
    def test_sub_metrics_in_unit_interval(self, sets):
        r = hota(*sets)
        for key in ("hota", "deta", "assa", "detre", "detpr", "assre", "asspr"):
            assert 0.0 <= getattr(r, key) <= 1.0, key

    @settings(deadline=None)
    @given(small_tracksets())
    def test_tp_pairs_nest_as_alpha_rises(self, sets):
        keys, ious, _, _ = metrics._one_pass(*sets, False, metrics._Ids)[1].matches()
        tp_pairs = [Counter(keys[ious >= alpha - np.finfo(float).eps].tolist()) for alpha in HOTA_ALPHAS]
        for looser, stricter in zip(tp_pairs, tp_pairs[1:]):
            assert not stricter - looser
        assert hota(*sets).tp == [sum(c.values()) for c in tp_pairs]

    @settings(deadline=None)
    @given(small_tracksets())
    def test_one_solver_call_per_frame(self, sets):
        gt, pred = sets
        gt_frames = visible_frames(gt)
        both = [f for f in gt_frames if gt_frames[f] and pred.frames.get(f)]
        calls = []
        original = metrics.linear_sum_assignment

        def counted(cost):
            calls.append(cost.shape)
            return original(cost)

        metrics.linear_sum_assignment = counted
        try:
            hota(gt, pred)
        finally:
            metrics.linear_sum_assignment = original
        assert len(calls) <= len(both)


def test_overlap_free_frame_costs_hota_no_solve(monkeypatch):
    """A cell whose boxes overlap nowhere has no match at any alpha, so
    HOTA keeps nothing of it and solves only the frame that overlaps; the
    reports equal the separate evaluation all the same."""
    gt, pred = make_sets([(0, 1, box(0, 0)), (1, 1, box(0, 0))], [(0, 1, box(0, 0)), (1, 2, box(50, 50))])
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(metrics, "linear_sum_assignment", counted)
    result = hota(gt, pred)
    assert calls == [(1, 1)]
    assert result == separate_hota(gt, pred)
    assert per_class_report(gt, pred) == separate_per_class_report(gt, pred)


@st.composite
def multi_class_tracksets(draw, max_frames=4):
    """Up to ``max_frames`` frames on the coarse grid over gt classes 0 and
    1 and a prediction-only class 2. Gt boxes may be invisible, and a frame
    may hold no object of a class on either side. At least one gt box is
    visible."""
    gt, pred = TrackSet(), TrackSet()
    for f in range(draw(st.integers(1, max_frames))):
        for i in draw(st.sets(st.integers(0, 5), max_size=4)):
            gt.add(f, ObjectEntry(i, i % 2, draw(_grid_boxes), draw(st.booleans())))
        for j in draw(st.sets(st.integers(0, 8), max_size=4)):
            pred.add(f, ObjectEntry(10 + j, j % 3, draw(_grid_boxes)))
    if num_boxes(gt) == 0:
        gt.add(-1, ObjectEntry(0, 0, draw(_grid_boxes)))
    return gt, pred


@st.composite
def shared_id_tracksets(draw, max_frames=4):
    """Up to ``max_frames`` frames on the coarse grid in which every entry
    draws its own class out of three, so that one id belongs to several
    classes and can change class between frames, as in files that number
    ids per class. Gt boxes may be invisible. At least one gt box is
    visible."""
    gt, pred = TrackSet(), TrackSet()
    for f in range(draw(st.integers(1, max_frames))):
        for i in draw(st.sets(st.integers(0, 3), max_size=4)):
            gt.add(f, ObjectEntry(i, draw(st.integers(0, 2)), draw(_grid_boxes), draw(st.booleans())))
        for j in draw(st.sets(st.integers(0, 3), max_size=4)):
            pred.add(f, ObjectEntry(j, draw(st.integers(0, 2)), draw(_grid_boxes)))
    if num_boxes(gt) == 0:
        gt.add(-1, ObjectEntry(0, 0, draw(_grid_boxes)))
    return gt, pred


class TestSharedPass:
    """per_class_report evaluates every class in one pass over the frames,
    shared by CLEAR, IDF1 and HOTA; it and each public metric must equal
    the separate evaluation, one run per class and metric, exactly."""

    @settings(deadline=None)
    @given(multi_class_tracksets(), st.sampled_from([0.05, 0.3, 0.5, 0.75, 1.0]))
    def test_equals_separate_passes(self, sets, iou_threshold):
        assert per_class_report(*sets, iou_threshold) == separate_per_class_report(*sets, iou_threshold)
        assert clear_mot(*sets, iou_threshold) == separate_clear_mot(*sets, iou_threshold)
        assert idf1(*sets, iou_threshold) == separate_idf1(*sets, iou_threshold)
        assert hota(*sets) == separate_hota(*sets)
        got_matches = metrics._one_pass(*sets, False, metrics._Ids)[1].matches()
        for got, want in zip(got_matches, separate_hota_matches(*sets)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(deadline=None)
    @given(shared_id_tracksets(), st.sampled_from([0.05, 0.3, 0.5, 0.75, 1.0]))
    def test_an_identity_is_a_class_and_an_id(self, sets, iou_threshold):
        assert per_class_report(*sets, iou_threshold) == separate_per_class_report(*sets, iou_threshold)

    @pytest.mark.parametrize("n_classes", [1, 3, 8])
    def test_one_pass_whatever_the_class_count(self, monkeypatch, n_classes):
        gt, pred = TrackSet(), TrackSet()
        for f in range(4):
            for i in range(12):
                gt.add(f, ObjectEntry(i, i % n_classes, box(20 * i, 0)))
                pred.add(f, ObjectEntry(i + f // 2, i % n_classes, box(20 * i + 1, 0)))
        calls = []
        original = metrics._one_pass

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(metrics, "_one_pass", counted)
        report = per_class_report(gt, pred)
        assert sorted(report.per_class) == list(range(n_classes))
        assert calls == [True]

    @settings(deadline=None)
    @given(multi_class_tracksets())
    def test_one_iou_matrix_per_frame_and_class(self, sets):
        gt, pred = sets
        want = 0
        for c in class_ids(gt):
            gt_c = visible_frames(restrict_class(gt, c))
            pr_c = restrict_class(pred, c).frames
            want += sum(1 for f, entries in gt_c.items() if entries and pr_c.get(f))
        calls = []
        original = metrics.iou_matrix

        def counted(a, b):
            calls.append((len(a), len(b)))
            return original(a, b)

        metrics.iou_matrix = counted
        try:
            per_class_report(gt, pred)
        finally:
            metrics.iou_matrix = original
        assert len(calls) == want


_grid_tie_draws = small_tracksets() | multi_class_tracksets()
_report_thresholds = st.sampled_from([0.05, 0.3, 0.5, 0.75, 1.0])


@st.composite
def count_pairs(draw):
    """Distinct (row, col) pairs with small positive integer counts, as
    IDF1 counts them per (gt id, pred id): ties are common, and a row or a
    column often holds several pairs that no other row or column scores."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                                min_size=1)))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(cells), max_size=len(cells)))
    rows, cols = np.array(cells).T
    return rows, cols, np.array(counts), (n_rows, n_cols)


class TestSolvesEqualTheFullMatrix:
    """IDF1 solves only what its pair counts leave open. The oracles solve
    every full matrix, class by class: the pairs HOTA matches, the IDF1
    totals and the reports must be equal to theirs."""

    @given(count_pairs())
    def test_idf1_total_equals_dense_solve(self, case):
        rows, cols, counts, shape = case
        dense = np.zeros(shape)
        dense[rows, cols] = counts
        r, c = linear_sum_assignment(-dense)
        assert metrics._max_matching_total(rows, cols, counts) == int(dense[r, c].sum())

    @settings(deadline=None)
    @given(_grid_tie_draws, _report_thresholds)
    def test_idf1_equals_dense_solve_on_grid_ties(self, sets, iou_threshold):
        assert idf1(*sets, iou_threshold) == separate_idf1(*sets, iou_threshold)

    @settings(deadline=None)
    @given(_grid_tie_draws)
    def test_hota_pairs_equal_full_frame_solves(self, sets):
        got_matches = metrics._one_pass(*sets, False, metrics._Ids)[1].matches()
        for got, want in zip(got_matches, separate_hota_matches(*sets)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(deadline=None)
    @given(small_tracksets() | multi_class_tracksets(max_frames=1), _report_thresholds)
    def test_one_class_and_one_frame_reports(self, sets, iou_threshold):
        assert per_class_report(*sets, iou_threshold) == separate_per_class_report(*sets, iou_threshold)
        assert clear_mot(*sets, iou_threshold) == separate_clear_mot(*sets, iou_threshold)


@settings(deadline=None)
@given(small_tracksets(), _report_thresholds)
def test_one_class_report_aggregates_to_its_class_bit_for_bit(sets, iou_threshold):
    """A report of one class sums its one class's counts as every report
    does: the aggregate's MOTA, IDF1 and HOTA family and the class means
    are that class's own values, to the bit."""
    rep = per_class_report(*sets, iou_threshold)
    (cm,) = rep.per_class.values()
    keys = ("mota", "idf1", "hota", "deta", "assa", "detre", "detpr", "assre", "asspr")
    assert [getattr(rep.aggregate, k) for k in keys] == [getattr(cm, k) for k in keys]
    assert (rep.mmota, rep.midf1) == (cm.mota, cm.idf1)


def sequence_sets(n_frames=300, n_ids=64, seed=0):
    """Two classes of objects moving on straight lines for ``n_frames``
    frames; predictions are jittered boxes, a tenth missing, under ids
    that change every 75 frames, and a twentieth of the gt is invisible."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(0, 1500, (n_ids, 2))
    velocity = rng.normal(0, 2, (n_ids, 2))
    gt, pred = TrackSet(), TrackSet()
    for f in range(n_frames):
        xy = start + f * velocity
        shifted = xy + rng.normal(0, 2, (n_ids, 2))
        for i in range(n_ids):
            x, y = xy[i]
            gt.add(f, ObjectEntry(i, i % 2, BoundingBox(x, y, x + 40, y + 80), rng.random() < 0.95))
            if rng.random() < 0.9:
                x, y = shifted[i]
                pred.add(f, ObjectEntry(i + 100 * (f // 75), i % 2, BoundingBox(x, y, x + 40, y + 80)))
    return gt, pred


def test_per_class_report_streams_its_iou_matrices():
    """A 300-frame evaluation must not hold every frame's IoU matrix: the
    tracemalloc peak stays below 0.75x the bytes of the largest class's
    matrices over all frames. The per-metric evaluation this pass replaced
    peaked at 0.57x on these sets; keeping the matrices costs at least
    1x."""
    gt, pred = sequence_sets()
    dense = 0
    for c in class_ids(gt):
        gt_c, pr_c = visible_frames(restrict_class(gt, c)), restrict_class(pred, c).frames
        dense = max(dense, sum(8 * len(v) * len(pr_c.get(f, ())) for f, v in gt_c.items()))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = per_class_report(gt, pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.aggregate.num_gt == num_boxes(gt)
    assert peak - base < 0.75 * dense


def fragmenting_sets(n_ids=100, n_frames=100, life=2, seed=0):
    """One class of ``n_ids`` objects on a coarse grid, one box apart;
    predictions are jittered boxes under a new id every ``life`` frames,
    as a tracker that keeps losing its tracks would give: 5,000 pred ids
    at the defaults."""
    rng = np.random.default_rng(seed)
    gt, pred = TrackSet(), TrackSet()
    for f in range(n_frames):
        for i in range(n_ids):
            x, y = 100.0 * (i % 10) + f, 100.0 * (i // 10)
            gt.add(f, ObjectEntry(i, 0, BoundingBox(x, y, x + 40, y + 80)))
            dx, dy = rng.normal(0, 2, 2)
            box = BoundingBox(x + dx, y + dy, x + dx + 40, y + dy + 80)
            pred.add(f, ObjectEntry(i + n_ids * (f // life), 0, box))
    return gt, pred


def test_identity_sums_are_kept_per_pair_not_per_id_pair():
    """A fragmenting prediction must not cost a dense (gt id, pred id)
    matrix: the tracemalloc peak stays below n_gt_ids * n_pred_ids * 8
    bytes, the size of one float64 such matrix."""
    gt, pred = fragmenting_sets()
    n_gt = len({e.obj_id for v in gt.frames.values() for e in v})
    n_pred = len({e.obj_id for v in pred.frames.values() for e in v})
    assert (n_gt, n_pred) == (100, 5000)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = per_class_report(gt, pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.aggregate.idtp == 100 * 2  # each gt id keeps one two-frame fragment
    assert peak - base < n_gt * n_pred * 8
