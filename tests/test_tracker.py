import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embedtrack import tracker as tracker_module
from embedtrack.ablation import standard_noisy_world, synth_tracker_config
from embedtrack.config import PROFILE_NAMES, load_profile
from embedtrack.geometry import BoundingBox, box_array, center_distance, centers_within
from embedtrack.metrics import TrackSet
from embedtrack.synth import Scenario, WorldConfig, generate
from embedtrack.tracker import (
    Detection,
    Tracker,
    TrackerConfig,
    TrackerState,
    detections_from_arrays,
    interpolate_tracks,
    merge_tracklets,
    momentum_update,
    run_sequence,
)
from oracles import OracleTrackerState, finish_oracle, interpolate_tracks_oracle, step_oracle, within_oracle

DIM = 8


def emb(i, scale=10.0):
    """Orthogonal one-hot embedding for identity i."""
    e = np.zeros(DIM)
    e[i] = scale
    return e


def det(i, score=0.9, x=0.0, cls=0, embedding=None):
    return Detection(
        box=BoundingBox(x, 0, x + 10, 10),
        class_id=cls,
        score=score,
        embedding=emb(i) if embedding is None else embedding,
    )


def cfg(**kw):
    base = dict(beta_obj=0.35, beta_new=0.5,
                memory_frames=10, backdrop_frames=1, momentum=0.8,
                det_confidence=0.1, nms_threshold=0.65)
    base.update(kw)
    return TrackerConfig(**base)


class TestConfig:
    def test_threshold_range_checked(self):
        with pytest.raises(ValueError, match="beta_new"):
            TrackerConfig(beta_new=1.5)

    def test_momentum_range_checked(self):
        with pytest.raises(ValueError, match="momentum"):
            TrackerConfig(momentum=-0.1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="similarity metric"):
            TrackerConfig(similarity_metric="euclidean")

    def test_low_beta_new_warns(self):
        with pytest.warns(UserWarning, match="beta_new"):
            TrackerConfig(beta_new=0.1, beta_obj=0.5)

    @pytest.mark.parametrize("name", ["memory_frames", "backdrop_frames"])
    @pytest.mark.parametrize("value", [np.nan, 2.5, -1, np.float64(3.0), "3", True, False])
    def test_windows_must_be_ints_of_at_least_zero(self, name, value):
        with pytest.raises(ValueError) as exc:
            TrackerConfig(**{name: value})
        rule = "an int >= 0" if value == -1 else "int"
        assert str(exc.value) == f"{name} must be {rule}, got {value!r}"

    # a truthy string such as "off" would switch the stage on
    @pytest.mark.parametrize("name", ["merge", "interpolate"])
    @pytest.mark.parametrize("value", ["off", "true", 1, 0, None, 1.0])
    def test_switches_must_be_bools(self, name, value):
        with pytest.raises(ValueError) as exc:
            TrackerConfig(**{name: value})
        assert str(exc.value) == f"{name} must be bool, got {value!r}"

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bool_switches_accepted(self, value):
        c = TrackerConfig(merge=value, interpolate=value)
        assert c.merge is value and c.interpolate is value

    @pytest.mark.parametrize("value", [0, 7, np.int64(3)])
    def test_int_windows_accepted(self, value):
        c = TrackerConfig(memory_frames=value, backdrop_frames=value)
        assert c.memory_frames == c.backdrop_frames == value

    # an assigned field would skip the checks: similarity_metric="dot" ran cosine
    @pytest.mark.parametrize("name,value", [
        ("nms_threshold", 5.0), ("similarity_metric", "dot"), ("merge", "off"), ("momentum", 0.5),
    ])
    def test_fields_cannot_be_assigned(self, name, value):
        c = TrackerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, value)
        assert c == TrackerConfig()

    @pytest.mark.parametrize("name,value,message", [
        ("nms_threshold", 5.0, "nms_threshold must be in"),
        ("similarity_metric", "dot", "unknown similarity metric"),
        ("merge", "off", "merge must be bool"),
        ("memory_frames", -1, "memory_frames must be an int"),
    ])
    def test_replace_checks_the_variant(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TrackerConfig(), **{name: value})


class TestDetection:
    def test_score_range_checked(self):
        with pytest.raises(ValueError, match="score"):
            det(0, score=1.5)

    def test_non_finite_embedding_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            det(0, embedding=np.array([np.nan] * DIM))

    @pytest.mark.parametrize("shape", [(1, DIM), (2, DIM), (), (0,)])
    def test_embedding_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            det(0, embedding=np.ones(shape))

    @pytest.mark.parametrize("score, message", [
        (1.5, "detection score must be in [0, 1], got 1.5"),
        (-0.1, "detection score must be in [0, 1], got -0.1"),
        (np.float64(1.0000001), "detection score must be in [0, 1], got 1.0000001"),
        (2, "detection score must be in [0, 1], got 2"),
        (np.nan, "detection score must be in [0, 1], got nan"),
        (np.inf, "detection score must be in [0, 1], got inf"),
        (np.float32(-np.inf), "detection score must be in [0, 1], got -inf"),
        # a bool is no score, though it compares as 0 or 1
        (True, "detection score must be in [0, 1], got True"),
        (np.False_, "detection score must be in [0, 1], got False"),
    ])
    def test_invalid_score_message(self, score, message):
        with pytest.raises(ValueError) as exc:
            Detection(BoundingBox(0, 0, 1, 1), 0, score, np.ones(2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("score", [0, 1, 0.0, 1.0, np.float32(0.5), np.float64(0.25)])
    def test_int_and_numpy_scalar_scores_kept_as_given(self, score):
        d = Detection(BoundingBox(0, 0, 1, 1), 0, score, np.ones(2, dtype=np.float32))
        assert d.score is score
        assert d.embedding.dtype == np.float64 and d.embedding.shape == (2,)

    @pytest.mark.parametrize("embedding, message", [
        (np.ones((2, 2)), "detection embedding must be 1-D and non-empty, got shape (2, 2)"),
        (np.ones(()), "detection embedding must be 1-D and non-empty, got shape ()"),
        ([1.0, np.nan], "detection embedding contains non-finite values"),
        ([1.0, -np.inf], "detection embedding contains non-finite values"),
        # every admissible pair would score a logit of 0
        (np.array([]), "detection embedding must be 1-D and non-empty, got shape (0,)"),
    ])
    def test_invalid_embedding_message(self, embedding, message):
        with pytest.raises(ValueError) as exc:
            Detection(BoundingBox(0, 0, 1, 1), 0, 0.5, embedding)
        assert str(exc.value) == message

    # a class id the writers would put in a file that the readers reject
    @pytest.mark.parametrize("class_id", [1.5, True, np.bool_(False), "a", None, np.float64(1.0)])
    def test_non_int_class_id_rejected(self, class_id):
        with pytest.raises(ValueError) as exc:
            Detection(BoundingBox(0, 0, 1, 1), class_id, 0.5, np.ones(2))
        assert str(exc.value) == f"detection class_id must be an int, got {class_id!r}"

    @pytest.mark.parametrize("class_id", [0, 7, np.int64(2), np.int32(3)])
    def test_int_and_numpy_integer_class_ids_kept(self, class_id):
        assert Detection(BoundingBox(0, 0, 1, 1), class_id, 0.5, np.ones(2)).class_id is class_id

    @pytest.mark.parametrize("score", [None, "0.5"])
    def test_non_real_score_raises_type_error(self, score):
        with pytest.raises(TypeError):
            Detection(BoundingBox(0, 0, 1, 1), 0, score, np.ones(2))

    @pytest.mark.parametrize("name,value", [
        ("box", BoundingBox(0, 0, 2, 2)), ("class_id", 1.5), ("score", 7.0), ("embedding", np.ones(2)),
    ])
    def test_fields_cannot_be_assigned(self, name, value):
        d = det(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, value)
        assert d.box == BoundingBox(0, 0, 10, 10) and d.class_id == 0 and d.score == 0.9
        assert np.array_equal(d.embedding, emb(0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_embedding_is_a_read_only_copy_of_the_input(self, dtype):
        given = np.arange(DIM, dtype=dtype)
        d = det(0, embedding=given)
        assert d.embedding.dtype == np.float64 and not d.embedding.flags.writeable
        assert not np.shares_memory(d.embedding, given) and given.flags.writeable
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            d.embedding[0] = 5.0
        given[0] = 5.0
        assert d.embedding[0] == 0.0

    @pytest.mark.parametrize("name,value,message", [
        ("class_id", 1.5, "detection class_id must be an int, got 1.5"),
        ("embedding", np.full(DIM, np.nan), "detection embedding contains non-finite values"),
    ])
    def test_replace_checks_the_variant(self, name, value, message):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(det(0), **{name: value})
        assert str(exc.value) == message


def frame_arrays(changes=()):
    """A valid three-detection frame as the arrays ``detections_from_arrays``
    takes; a change maps a field, or a (field, index) pair, to a value."""
    arrays = dict(boxes=np.array([[0.0, 0, 10, 10], [20, 0, 30, 10], [40, 0, 50, 10]]),
                  class_ids=np.array([0, 1, 0]), scores=np.array([0.9, 0.5, 0.3]),
                  embeddings=np.arange(3.0 * DIM).reshape(3, DIM) / 10.0)
    for key, value in dict(changes).items():
        if isinstance(key, tuple):
            arrays[key[0]][key[1]] = value
        else:
            arrays[key] = value
    return arrays


class TestDetectionsFromArrays:
    def test_equals_the_constructors(self):
        a = frame_arrays()
        got = detections_from_arrays(**a)
        want = [Detection(BoundingBox(*b), c, s, e) for b, c, s, e in
                zip(a["boxes"].tolist(), a["class_ids"].tolist(), a["scores"].tolist(), a["embeddings"])]
        assert [(d.box, d.class_id, type(d.class_id), d.score, type(d.score), d.embedding.tolist())
                for d in got] == \
               [(d.box, d.class_id, int, d.score, float, d.embedding.tolist()) for d in want]
        assert [type(v) for d in got for v in dataclasses.astuple(d.box)] == [float] * 12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_embeddings_are_read_only_and_do_not_alias_the_input(self, dtype):
        given = (np.arange(3.0 * DIM).reshape(3, DIM) / 10.0).astype(dtype)
        dets = detections_from_arrays(**frame_arrays({"embeddings": given}))
        for d, row in zip(dets, given):
            assert d.embedding.dtype == np.float64 and d.embedding.shape == (DIM,)
            assert not d.embedding.flags.writeable and not np.shares_memory(d.embedding, given)
            assert np.array_equal(d.embedding, row)
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                d.embedding[0] = 5.0
        assert given.flags.writeable
        given[:] = 5.0
        assert dets[1].embedding[0] == np.float64(dtype(DIM / 10.0))

    def test_empty_frame(self):
        assert detections_from_arrays(np.empty((0, 4)), np.empty(0, dtype=int), np.empty(0),
                                      np.empty((0, DIM))) == []

    @pytest.mark.parametrize("changes", [
        {"scores": np.array([0.9, 0.5])}, {"boxes": np.zeros((3, 5))},
        {"embeddings": np.zeros((2, DIM))}, {"class_ids": np.zeros((3, 1), dtype=int)},
    ])
    def test_row_counts_and_box_width_must_agree(self, changes):
        with pytest.raises(ValueError, match=r"^a frame needs an \(N, 4\) box array and N class ids"):
            detections_from_arrays(**frame_arrays(changes))

    # the message each constructor raises for the first bad row
    @pytest.mark.parametrize("changes, message", [
        ({("embeddings", (1, 2)): np.nan}, "detection embedding contains non-finite values"),
        ({("embeddings", (2, 0)): -np.inf}, "detection embedding contains non-finite values"),
        ({("scores", 1): 1.5}, "detection score must be in [0, 1], got 1.5"),
        ({("scores", 2): -0.1}, "detection score must be in [0, 1], got -0.1"),
        ({("scores", 1): np.nan}, "detection score must be in [0, 1], got nan"),
        ({("boxes", 1): [30.0, 0, 20, 10]},
         "box has negative extent: BoundingBox(x1=30.0, y1=0.0, x2=20.0, y2=10.0)"),
        ({("boxes", 2): [40.0, 10, 50, 0]},
         "box has negative extent: BoundingBox(x1=40.0, y1=10.0, x2=50.0, y2=0.0)"),
        ({("boxes", (1, 2)): np.inf}, "box coordinates must be finite: BoundingBox(x1=20.0, y1=0.0, x2=inf, y2=10.0)"),
        ({("boxes", (2, 0)): np.nan}, "box coordinates must be finite: BoundingBox(x1=nan, y1=0.0, x2=50.0, y2=10.0)"),
        ({"class_ids": np.array([True, False, True])}, "detection class_id must be an int, got True"),
        ({"scores": np.array([True, True, False])}, "detection score must be in [0, 1], got True"),
        ({"class_ids": np.array([0.0, 1.5, 0.0])}, "detection class_id must be an int, got 0.0"),
        ({"embeddings": np.ones((3, 0))}, "detection embedding must be 1-D and non-empty, got shape (0,)"),
        ({"embeddings": np.ones(3)}, "detection embedding must be 1-D and non-empty, got shape ()"),
        ({"embeddings": np.ones((3, DIM, 1))},
         f"detection embedding must be 1-D and non-empty, got shape ({DIM}, 1)"),
        # an earlier row's fault wins over a later row's, whatever its field
        ({("scores", 1): 1.5, ("boxes", 2): [50.0, 0, 40, 10]}, "detection score must be in [0, 1], got 1.5"),
        ({("boxes", 1): [30.0, 0, 20, 10], ("embeddings", (2, 0)): np.nan},
         "box has negative extent: BoundingBox(x1=30.0, y1=0.0, x2=20.0, y2=10.0)"),
        ({("embeddings", (1, 0)): np.nan, ("boxes", 2): [50.0, 0, 40, 10]},
         "detection embedding contains non-finite values"),
    ])
    def test_first_bad_row_raises_the_constructor_message(self, changes, message):
        with pytest.raises(ValueError) as exc:
            detections_from_arrays(**frame_arrays(changes))
        assert str(exc.value) == message


def test_momentum_update_formula():
    old, new = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    out = momentum_update(old, new, 0.8)
    assert np.allclose(out, [0.2, 0.8], atol=1e-15)
    with pytest.raises(ValueError, match="momentum"):
        momentum_update(old, new, 1.2)


def test_momentum_update_is_row_wise():
    rng = np.random.default_rng(0)
    old, new = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    out = momentum_update(old, new, 0.3)
    assert out.shape == (3, 4)
    assert np.array_equal(out, 0.3 * new + (1.0 - 0.3) * old)
    # a 1-D input gives the same bits as its row
    row = momentum_update(old[1], new[1], 0.3)
    assert row.shape == (4,) and np.array_equal(row, out[1])
    assert momentum_update(np.ones((3, 4)), np.zeros((3, 4)), 0.5).tolist() == [[0.5] * 4] * 3
    with pytest.raises(ValueError, match="rows"):
        momentum_update(old, new[:2], 0.3)


def test_step_blends_matched_tracks_with_one_momentum_update(monkeypatch):
    """One call of the momentum kernel per frame with a match; the checked
    entry momentum_update is not called."""
    calls = []
    kernel = tracker_module._momentum

    def counting(old, new, m):
        calls.append(len(old))
        return kernel(old, new, m)

    monkeypatch.setattr(tracker_module, "_momentum", counting)
    monkeypatch.setattr(tracker_module, "momentum_update", lambda *a: pytest.fail("entry called"))
    t = Tracker(cfg())
    t.step(0, [det(0), det(1, x=100)])
    t.step(1, [det(0), det(1, x=100)])
    t.step(2, [det(0), det(1, x=100)])
    assert calls == [2, 2]


class TestStep:
    def test_cold_start_creates_tracks_above_beta_new(self):
        t = Tracker(cfg())
        out = t.step(0, [det(0, 0.9), det(1, 0.6, x=100)])
        assert len(out) == 2
        assert sorted(t.state.tracks) == [1, 2]

    def test_cold_start_low_score_becomes_backdrop(self):
        t = Tracker(cfg())
        out = t.step(0, [det(0, 0.4)])
        assert out == []
        assert not t.state.tracks
        assert len(t.state.backdrops) == 1

    def test_confidence_floor_drops_detection_entirely(self):
        t = Tracker(cfg(det_confidence=0.3))
        t.step(0, [det(0, 0.2)])
        assert not t.state.tracks and not t.state.backdrops

    def test_reassociation_keeps_id(self):
        t = Tracker(cfg())
        [(tid0, _)] = t.step(0, [det(0)])
        [(tid1, _)] = t.step(1, [det(0, x=5.0)])
        assert tid0 == tid1
        assert t.state.tracks[tid1].history[-1][1].x1 == 5.0
        assert t.state.live.tid.tolist() == [tid1] and t.state.live.box[0, 0] == 5.0

    def test_match_requires_score_above_beta_obj(self):
        t = Tracker(cfg())
        t.step(0, [det(0)])
        out = t.step(1, [det(0, score=0.3)])  # same appearance, low score
        assert out == []
        assert len(t.state.backdrops) == 1

    def test_momentum_applied_on_match(self):
        t = Tracker(cfg(momentum=0.8))
        t.step(0, [det(0)])
        new = emb(0) + np.eye(DIM)[1] * 2.0
        t.step(1, [det(0, embedding=new)])
        want = 0.8 * new + 0.2 * emb(0)
        assert t.state.live.tid.tolist() == [1]
        assert np.allclose(t.state.live.emb[0], want, atol=1e-12)

    def test_new_identity_starts_new_track(self):
        t = Tracker(cfg())
        t.step(0, [det(0)])
        t.step(1, [det(0, x=5.0), det(1, x=100)])
        assert sorted(t.state.tracks) == [1, 2]

    def test_backdrop_consumes_matching_detection(self):
        t = Tracker(cfg())
        t.step(0, [det(0, 0.9), det(5, 0.4, x=200)])  # one track, one backdrop
        assert len(t.state.backdrops) == 1
        # same appearance as the backdrop, decent score: swallowed silently
        out = t.step(1, [det(5, 0.6, x=200)])
        assert out == []
        assert sorted(t.state.tracks) == [1]

    def test_expired_backdrop_is_no_candidate(self):
        # distance gate keeps the far-away track out of reach, so the only
        # possible candidate is the backdrop - which has expired
        t = Tracker(cfg(backdrop_frames=1, distance_gate=50.0))
        t.step(0, [det(0, 0.9), det(5, 0.4, x=200)])
        t.step(1, [det(0, 0.9, x=2)])
        t.step(2, [det(0, 0.9, x=4)])  # backdrop from frame 0 now expired
        out = t.step(3, [det(5, 0.6, x=200)])
        assert [tid for tid, _ in out] == [2]  # becomes a fresh track instead

    def test_zero_backdrop_frames_disables_backdrops(self):
        t = Tracker(cfg(backdrop_frames=0, distance_gate=50.0))
        t.step(0, [det(0, 0.9), det(5, 0.4, x=200)])
        out = t.step(1, [det(5, 0.6, x=200)])
        assert [tid for tid, _ in out] == [2]  # nothing there to consume it

    def test_track_beyond_memory_retired(self):
        t = Tracker(cfg(memory_frames=2))
        t.step(0, [det(0)])
        for f in range(1, 4):
            t.step(f, [])
        assert not t.state.tracks
        assert 1 in t.state.retired
        # reappearance gets a new id
        [(tid, _)] = t.step(4, [det(0)])
        assert tid == 2

    def test_track_within_memory_reclaimed(self):
        t = Tracker(cfg(memory_frames=5))
        t.step(0, [det(0)])
        for f in range(1, 4):
            t.step(f, [])
        [(tid, _)] = t.step(4, [det(0)])
        assert tid == 1

    def test_track_inactive_exactly_memory_frames_reclaimed(self):
        # a track expires only when inactive for more than memory_frames frames
        t = Tracker(cfg(memory_frames=2))
        t.step(0, [det(0)])
        [(tid, _)] = t.step(2, [det(0)])
        assert tid == 1

    def test_same_class_only_masks_other_classes(self):
        t = Tracker(cfg())
        t.step(0, [det(0, cls=0)])
        out = t.step(1, [det(0, cls=1)])  # identical appearance, other class
        assert out == [(2, out[0][1])]

    def test_duplicate_removal_is_class_agnostic(self):
        t = Tracker(cfg())
        out = t.step(0, [det(0, 0.9, cls=0), det(1, 0.8, cls=1)])  # same box
        assert len(out) == 1

    def test_duplicate_removal_can_be_disabled(self):
        t = Tracker(cfg(nms_threshold=1.0))  # no IoU exceeds 1.0
        out = t.step(0, [det(0, 0.9, cls=0), det(1, 0.8, cls=1)])
        assert len(out) == 2

    def test_higher_score_claims_contested_track(self):
        t = Tracker(cfg())
        t.step(0, [det(0)])
        e = emb(0)
        a = Detection(BoundingBox(0, 0, 10, 10), 0, 0.7, e)
        b = Detection(BoundingBox(100, 0, 110, 10), 0, 0.9, e.copy())
        out = t.step(1, [a, b])
        by_id = dict(out)
        assert by_id[1].box.x1 == 100.0  # higher score won the track
        assert by_id[2].box.x1 == 0.0

    def test_distance_gate_blocks_far_matches(self):
        t = Tracker(cfg(distance_gate=50.0))
        t.step(0, [det(0, x=0)])
        [(tid, _)] = t.step(1, [det(0, x=500)])
        assert tid == 2

    @pytest.mark.parametrize("x, want", [(50.0, 1), (50.5, 2)])
    def test_distance_gate_allows_exactly_the_gate(self, x, want):
        t = Tracker(cfg(distance_gate=50.0))
        t.step(0, [det(0, x=0)])
        assert center_distance(det(0, x=0).box, det(0, x=x).box) == x
        [(tid, _)] = t.step(1, [det(0, x=x)])
        assert tid == want

    def test_frame_indices_must_increase(self):
        t = Tracker(cfg())
        t.step(3, [det(0)])
        with pytest.raises(ValueError, match="monotonically"):
            t.step(3, [det(0)])

    @pytest.mark.parametrize("gap", [1, 5])  # candidates present, tracks out of memory
    def test_other_embedding_dimension_rejected_before_any_change(self, gap):
        t = Tracker(cfg(memory_frames=2))
        t.step(0, [det(0), det(1, 0.4, x=100)])
        wide = det(0, embedding=np.ones(2 * DIM))
        with pytest.raises(ValueError) as exc:
            t.step(gap, [wide])
        assert str(exc.value) == (f"frame {gap}: embedding dimensions [{DIM}, {2 * DIM}] "
                                  "differ among its detections and the tracker's rows")
        assert t.state.frame == 0 and sorted(t.state.tracks) == [1]
        # the same frame, with valid detections, is accepted
        assert [tid for tid, _ in t.step(gap, [det(0)])] == [1 if gap == 1 else 2]

    def test_detections_of_one_frame_share_a_dimension(self):
        t = Tracker(cfg())
        with pytest.raises(ValueError, match=r"frame 4: embedding dimensions \[8, 16\]"):
            t.step(4, [det(0), det(1, x=100, embedding=np.ones(16))])
        assert t.state.frame is None and not t.state.tracks
        # with no rows held, a frame may start a new dimension
        assert len(t.step(4, [det(1, x=100, embedding=np.ones(16))])) == 1
        assert t.state.live.emb.shape == (1, 16)

    def test_gap_in_frame_indices_allowed(self):
        t = Tracker(cfg(memory_frames=10))
        t.step(0, [det(0)])
        [(tid, _)] = t.step(7, [det(0)])
        assert tid == 1

    def test_matches_sorted_by_track_id(self):
        t = Tracker(cfg())
        t.step(0, [det(0), det(1, x=50), det(2, x=100)])
        out = t.step(1, [det(2, 0.6, x=100), det(0, 0.95), det(1, 0.7, x=50)])
        assert [tid for tid, _ in out] == sorted(tid for tid, _ in out)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(0)
        frames = []
        for f in range(10):
            dets = []
            for i in range(4):
                e = emb(i) + rng.normal(0, 1.0, DIM)
                dets.append(det(i, score=float(rng.uniform(0.3, 0.95)),
                                x=30.0 * i, embedding=e))
            frames.append(dets)

        def run():
            t = Tracker(cfg())
            return [t.step(f, ds) for f, ds in enumerate(frames)]

        a, b = run(), run()
        assert [[tid for tid, _ in fr] for fr in a] == [[tid for tid, _ in fr] for fr in b]

    @pytest.mark.parametrize("score", [0.9, 0.05])  # above and below det_confidence
    def test_zero_embedding_rejected_before_any_change_in_cosine_mode(self, score):
        t = Tracker(cfg(similarity_metric="cosine"))
        t.step(0, [det(0)])
        zero = det(1, score, x=100, embedding=np.zeros(DIM))
        with pytest.raises(ValueError, match="frame 1: cosine similarity needs non-zero"):
            t.step(1, [det(0), zero])
        assert t.state.frame == 0 and sorted(t.state.tracks) == [1]
        # the same frame, without the zero embedding, is accepted
        assert [tid for tid, _ in t.step(1, [det(0)])] == [1]

    # step does not check a detection again: its embedding cannot be spoiled
    # after Detection checked it, so a frame holding it is tracked as built
    SPOILED = [
        ("nan", lambda d: d.embedding.__setitem__(3, np.nan)),
        ("inf", lambda d: d.embedding.__setitem__(0, np.inf)),
        ("-inf", lambda d: d.embedding.__setitem__(7, -np.inf)),
    ]

    @pytest.mark.parametrize("metric", ["bisoftmax", "cosine"])
    @pytest.mark.parametrize("spoil", [s for _, s in SPOILED], ids=[n for n, _ in SPOILED])
    def test_spoiled_embedding_rejected_before_any_change_on_the_first_frame(self, spoil, metric):
        t = Tracker(cfg(similarity_metric=metric))
        bad = det(0)
        with pytest.raises(ValueError, match="read-only"):
            spoil(bad)
        assert np.array_equal(bad.embedding, det(0).embedding)
        assert t.state.frame is None and not t.state.tracks and not len(t.state.live)
        assert [tid for tid, _ in t.step(0, [det(1, x=100), bad])] == [1, 2]
        assert np.isfinite(t.state.live.emb).all()

    @pytest.mark.parametrize("score", [0.9, 0.4, 0.05])  # above beta_new, below it, below the floor
    @pytest.mark.parametrize("spoil", [s for _, s in SPOILED], ids=[n for n, _ in SPOILED])
    def test_spoiled_embedding_rejected_before_any_change_on_a_later_frame(self, spoil, score):
        t = Tracker(cfg(merge=True))
        t.step(0, [det(0), det(1, 0.4, x=100)])
        bad = det(0, score)
        with pytest.raises(ValueError, match="read-only"):
            spoil(bad)
        assert np.array_equal(bad.embedding, det(0, score).embedding)
        assert [tid for tid, _ in t.step(1, [bad])] == ([] if score < 0.1 else [1])
        assert all(np.isfinite(r.emb).all() for r in (t.state.live, t.state.backdrops))

    def test_embedding_reshaped_after_construction_rejected_before_any_change(self):
        t = Tracker(cfg())
        t.step(0, [det(0)])
        good = det(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            good.embedding = good.embedding[:, None]
        assert good.embedding.shape == (DIM,)
        assert [tid for tid, _ in t.step(1, [good])] == [1]

    def test_reshaped_embedding_beside_a_valid_one_names_the_frame(self):
        t = Tracker(cfg())
        t.step(0, [det(0)])
        bad = det(1, x=100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bad.embedding = bad.embedding[:, None]
        assert bad.embedding.shape == (DIM,)
        assert t.state.frame == 0 and sorted(t.state.tracks) == [1] and len(t.state.live) == 1
        assert [tid for tid, _ in t.step(1, [det(0), bad])] == [1, 2]

    def test_embedding_reshaped_in_place_names_the_frame_before_any_change(self):
        # numpy lets a read-only array's shape be assigned
        t = Tracker(cfg())
        t.step(0, [det(0)])
        bad = det(0, x=1.0)
        bad.embedding.shape = (DIM, 1)
        for frame in ([bad], [det(1, x=100), bad]):
            with pytest.raises(ValueError) as exc:
                t.step(1, frame)
            assert str(exc.value).startswith("frame 1: detection embeddings must be 1-D, got shapes")
            assert f"({DIM}, 1)" in str(exc.value)
            assert t.state.frame == 0 and sorted(t.state.tracks) == [1] and len(t.state.live) == 1
            assert t.state.tracks[1].history == [(0, det(0).box, 0.9)]
        bad.embedding.shape = (DIM,)
        assert [tid for tid, _ in t.step(1, [bad])] == [1]

    @pytest.mark.parametrize("score", [7.0, -0.5, np.nan, np.inf])
    def test_score_changed_after_construction_rejected_before_any_change(self, score):
        t = Tracker(cfg(merge=True))
        t.step(0, [det(0), det(1, 0.4, x=100)])
        good = det(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            good.score = score
        # a variant is built by replace, which checks it again
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(good, score=score)
        assert str(exc.value) == f"detection score must be in [0, 1], got {score}"
        assert good.score == 0.9
        assert [tid for tid, _ in t.step(1, [det(2, x=200), good])] == [1, 2]

    def test_cosine_metric_supported(self):
        t = Tracker(cfg(similarity_metric="cosine"))
        t.step(0, [det(0)])
        [(tid, _)] = t.step(1, [det(0, x=3)])
        assert tid == 1


class TestMerge:
    # merge_tracklets folds within 50 px; a tighter association gate makes
    # a returning object spawn a young track that merging can fold back
    def test_young_track_folds_into_vanished(self):
        t = Tracker(cfg(distance_gate=20.0, merge=True))
        t.step(0, [det(0, x=0)])
        t.step(1, [])  # track 1 misses a frame -> vanished
        t.step(2, [det(0, x=50)])  # centers exactly 50 px apart
        assert sorted(t.state.tracks) == [1]
        frames = [f for f, _, _ in t.state.tracks[1].history]
        assert frames == [0, 2]

    def test_merge_respects_distance(self):
        t = Tracker(cfg(distance_gate=20.0, merge=True))
        t.step(0, [det(0, x=0)])
        t.step(1, [])
        t.step(2, [det(0, x=50.5)])
        assert sorted(t.state.tracks) == [1, 2]

    def test_merge_respects_class(self):
        t = Tracker(cfg(merge=True))
        t.step(0, [det(0, cls=0)])
        t.step(1, [])
        t.step(2, [det(0, x=5, cls=1)])
        assert sorted(t.state.tracks) == [1, 2]

    def test_vanished_absorbs_single_best(self):
        t = Tracker(cfg(distance_gate=20.0, merge=True))
        t.step(0, [det(0, x=0)])
        t.step(1, [])
        # both spawn young tracks that score above 0.5 against track 1; the
        # closer appearance wins though it spawned second
        b = Detection(BoundingBox(40, 0, 50, 10), 0, 0.9, emb(0) * 0.9)
        a = Detection(BoundingBox(30, 0, 40, 10), 0, 0.8, emb(0))
        t.step(2, [b, a])
        assert sorted(t.state.tracks) == [1, 2]  # only one young track absorbed
        assert t.state.tracks[1].history[-1][1] is a.box

    def test_merge_skips_track_overlapping_in_time(self):
        # two lookalikes spawn together; one continues, the other vanishes.
        # The continuing track lived alongside the vanished one, so folding
        # it in would give one ID two boxes at frame 0.
        d = {0: [det(0, x=0), det(0, x=40)], 1: [det(0, x=2)], 2: [det(0, x=4)]}
        scenario = Scenario(TrackSet(), d, {}, np.zeros((1, DIM)), WorldConfig(dim=DIM))
        c = cfg(merge=True, interpolate=True)
        pred = run_sequence(scenario.detections, c)
        keys = [(f, e.obj_id) for f, es in pred.frames.items() for e in es]
        assert len(keys) == len(set(keys))
        assert sorted({tid for _, tid in keys}) == [1, 2]

    def test_state_before_any_frame_is_returned_as_it_is(self):
        state = TrackerState()
        assert merge_tracklets(state) is state
        assert (state.tracks, state.retired, state.next_id, state.frame) == ({}, {}, 1, None)
        assert len(state.live) == len(state.backdrops) == 0


def _brute_force_within(boxes_a, boxes_b, radius):
    """The distance gate pair by pair with the scalar center_distance, on
    two (N, 4) / (M, 4) box arrays."""
    out = np.zeros((len(boxes_a), len(boxes_b)), dtype=bool)
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            out[i, j] = center_distance(BoundingBox(*a), BoundingBox(*b)) <= radius
    return out


# boxes on a half-pixel grid, so centers often lie exactly a grid distance
# (1, 5 = the 3-4-5 triangle, ...) apart
_half = st.integers(-20, 20).map(lambda v: v / 2)
_gate_boxes = st.lists(
    st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), _half, _half,
              st.integers(0, 8), st.integers(0, 8)),
    max_size=8,
)


@given(_gate_boxes, _gate_boxes, st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0, 7.5]),
                                           st.floats(0.0, 30.0), st.integers(0, 63)))
@settings(max_examples=300, deadline=None)
def test_gate_prefilter_equals_oracle(boxes_a, boxes_b, radius):
    if isinstance(radius, int):
        # a radius exactly at one of the pair distances, when there is one
        dist = [center_distance(a, b) for a in boxes_a for b in boxes_b]
        radius = dist[radius % len(dist)] if dist else 1.0
    got = centers_within(box_array(boxes_a), box_array(boxes_b), radius)
    want = within_oracle(boxes_a, boxes_b, radius)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_gate_keeps_pairs_exactly_at_the_radius():
    a = [BoundingBox(0, 0, 2, 2)]  # center (1, 1)
    # centers (4, 5): 3-4-5 triangle; (6, 1): |dx| = 5; (5.5, 1): |dx| = 4.5
    b = [BoundingBox(3, 4, 5, 6), BoundingBox(5, 0, 7, 2), BoundingBox(5.5, 1, 5.5, 1)]
    a, b = box_array(a), box_array(b)
    assert centers_within(a, b, 5.0).tolist() == [[True, True, True]]
    assert centers_within(a, b, 4.5).tolist() == [[False, False, True]]
    assert centers_within(a, b, 4.0).tolist() == [[False, False, False]]


def test_broadcast_gate_matches_brute_force(monkeypatch):
    world = WorldConfig(n_identities=15, n_frames=60, dim=16, speed=6.0,
                        sigma_e=0.2, jitter_sigma=2.0, fp_rate=0.05,
                        n_distractors=4, occlusions=[(0, 10, 14), (3, 25, 30), (7, 40, 43)],
                        seed=4)
    frames = generate(world).detections
    # a gate tighter than the merge radius, so occluded objects come back as
    # young tracks that merging then folds into their vanished ones
    c = cfg(distance_gate=20.0, merge=True, interpolate=True)

    def run():
        t = Tracker(c)
        steps = [
            [(tid, d.box, d.score) for tid, d in t.step(f, frames[f])]
            for f in sorted(frames)
        ]
        return t, steps

    fast, fast_steps = run()
    monkeypatch.setattr(tracker_module, "centers_within", _brute_force_within)
    slow, slow_steps = run()
    assert fast_steps == slow_steps
    assert fast.finish() == slow.finish()
    # the world exercises the merge path
    s = slow.state
    assert len(s.tracks) + len(s.retired) < s.next_id - 1


class TestFinishAndInterpolate:
    def test_finish_collects_live_and_retired(self):
        t = Tracker(cfg(memory_frames=1))
        t.step(0, [det(0)])
        t.step(1, [])
        t.step(2, [])
        t.step(3, [det(1, x=100)])
        hist = t.finish()
        assert set(hist) == {1, 2}

    def test_interpolation_fills_gaps_linearly(self):
        hist = {
            1: [
                (0, BoundingBox(0, 0, 10, 10), 0.8),
                (3, BoundingBox(30, 0, 40, 10), 0.6),
            ]
        }
        out = interpolate_tracks(hist)[1]
        assert [f for f, _, _ in out] == [0, 1, 2, 3]
        assert out[1][1].x1 == pytest.approx(10.0)
        assert out[2][1].x1 == pytest.approx(20.0)
        assert out[1][2] == pytest.approx(0.7)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_interpolation_equals_per_frame_oracle(self, data):
        # shuffled entries, gaps of 1-12 frames, zero-width and one-entry tracks
        size = st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 300.0)
        coord = st.floats(-1e4, 1e4)
        histories = {}
        for tid in range(1, data.draw(st.integers(1, 4)) + 1):
            n = data.draw(st.integers(1, 5))
            steps = data.draw(st.lists(st.integers(1, 12), min_size=n - 1, max_size=n - 1))
            entries = []
            for f in np.cumsum([data.draw(st.integers(0, 30)), *steps]).tolist():
                x1, y1, w, h = (data.draw(s) for s in (coord, coord, size, size))
                entries.append((f, BoundingBox(x1, y1, x1 + w, y1 + h), data.draw(st.floats(0.0, 1.0))))
            histories[tid] = data.draw(st.permutations(entries))
        got, want = interpolate_tracks(histories), interpolate_tracks_oracle(histories)
        assert got.keys() == want.keys()
        for tid in want:
            assert [f for f, _, _ in got[tid]] == [f for f, _, _ in want[tid]]
            for (_, box, score), (_, want_box, want_score) in zip(got[tid], want[tid]):
                assert [box.x1, box.y1, box.x2, box.y2, score] == [
                    want_box.x1, want_box.y1, want_box.x2, want_box.y2, want_score]
                assert {type(v) for v in (box.x1, box.y1, box.x2, box.y2)} == {float}

    def test_interpolation_leaves_boundaries_alone(self):
        hist = {1: [(5, BoundingBox(0, 0, 1, 1), 0.5)]}
        assert interpolate_tracks(hist)[1] == hist[1]

    def test_tracker_finish_interpolates_when_configured(self):
        t = Tracker(cfg(interpolate=True, memory_frames=10))
        t.step(0, [det(0)])
        t.step(1, [])
        t.step(2, [det(0, x=4)])
        out = t.finish()[1]
        assert [f for f, _, _ in out] == [0, 1, 2]


# ---------------------------------------------------------------------------
# The array-resident tracker against the per-object tracker it replaced
# (``tests/oracles.py``): every output and every piece of state, exactly.
# ---------------------------------------------------------------------------


def assert_same_state(state, oracle):
    assert state.next_id == oracle.next_id and state.frame == oracle.frame
    for got, want in ((state.tracks, oracle.tracks), (state.retired, oracle.retired)):
        assert [(t.track_id, t.class_id, t.history) for t in got.values()] == [
            (t.track_id, t.class_id, t.history) for t in want.values()]
    # the live rows, row for row in the order of the oracle's live tracks
    live, tracks = state.live, list(oracle.tracks.values())
    assert live.tid.tolist() == [t.track_id for t in tracks]
    assert live.cls.tolist() == [t.class_id for t in tracks]
    assert live.frame.tolist() == [t.last_active_frame for t in tracks]
    assert live.created.tolist() == [t.created_frame for t in tracks]
    assert [BoundingBox(*b) for b in live.box.tolist()] == [t.last_box for t in tracks]
    assert all(np.array_equal(a, t.embedding) for a, t in zip(live.emb, tracks))
    rows, backdrops = state.backdrops, oracle.backdrops
    assert rows.tid.tolist() == [-1] * len(backdrops)
    assert rows.cls.tolist() == [b.class_id for b in backdrops]
    assert rows.frame.tolist() == rows.created.tolist() == [b.frame for b in backdrops]
    assert [BoundingBox(*b) for b in rows.box.tolist()] == [b.box for b in backdrops]
    assert all(np.array_equal(a, b.embedding) for a, b in zip(rows.emb, backdrops))


def run_both(c, frames):
    """Step the tracker and the oracle through ``frames`` (frame, detections)
    and compare every frame's matches and the final state."""
    t, oracle = Tracker(c), OracleTrackerState()
    given = [(d.embedding, d.embedding.copy()) for _, dets in frames for d in dets]
    for f, dets in frames:
        got = t.step(f, dets)
        want = step_oracle(oracle, f, dets, c)
        assert [(tid, id(d)) for tid, d in got] == [(tid, id(d)) for tid, d in want]
    assert_same_state(t.state, oracle)
    # the tracker never writes into a detection's embedding
    assert all(np.array_equal(a, b) for a, b in given)
    assert t.finish() == finish_oracle(oracle, c)
    return t


@st.composite
def tracked_streams(draw):
    """A tracker configuration and a few frames of detections: a handful of
    integer-valued identity embeddings (so similarities tie), boxes on a
    coarse grid (so NMS and the distance gate bite), tied scores, three
    classes and frame gaps."""
    c = TrackerConfig(
        beta_obj=0.35,
        beta_new=0.5,
        memory_frames=draw(st.integers(0, 3)),
        backdrop_frames=draw(st.integers(0, 3)),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        nms_threshold=draw(st.sampled_from([0.0, 0.4, 1.0])),
        det_confidence=0.1,
        similarity_metric=draw(st.sampled_from(["bisoftmax", "cosine"])),
        distance_gate=draw(st.sampled_from([None, 12.0])),
        merge=draw(st.booleans()),
        interpolate=draw(st.booleans()),
    )
    protos = 5.0 * np.eye(DIM)[:4]
    frames, f = [], 0
    for _ in range(draw(st.integers(1, 7))):
        f += draw(st.integers(1, 3))
        dets = []
        for _ in range(draw(st.integers(0, 6))):
            noise = np.array(draw(st.lists(st.integers(-1, 1), min_size=DIM, max_size=DIM)))
            x, y = 8.0 * draw(st.integers(0, 6)), 8.0 * draw(st.integers(0, 2))
            dets.append(Detection(
                box=BoundingBox(x, y, x + 10, y + 10),
                class_id=draw(st.integers(0, 2)),
                score=draw(st.sampled_from([0.05, 0.3, 0.45, 0.6, 0.9])),
                embedding=protos[draw(st.integers(0, 3))] + noise,
            ))
        frames.append((f, dets))
    return c, frames


@settings(max_examples=300, deadline=None)
@given(tracked_streams())
def test_step_equals_per_object_tracker(drawn):
    run_both(*drawn)


@pytest.mark.parametrize("overrides", [
    {},
    {"distance_gate": 20.0, "interpolate": True, "merge": True},
    {"similarity_metric": "cosine", "memory_frames": 2, "backdrop_frames": 3},
])
def test_seeded_world_equals_per_object_tracker(overrides):
    world = WorldConfig(n_identities=25, n_frames=60, dim=16, speed=6.0, sigma_e=0.2,
                        jitter_sigma=2.0, fp_rate=0.05, n_distractors=6,
                        occlusions=[(0, 10, 14), (3, 25, 30), (7, 40, 43)], seed=9)
    frames = generate(world).detections
    run_both(synth_tracker_config(**overrides), [(f, frames[f]) for f in sorted(frames)])


@st.composite
def small_worlds(draw):
    """A small seeded world with clutter and occlusions, some of its frames
    dropped (so tracks have gaps to interpolate), and a tracker config:
    the default config, or a benchmark profile or the synthetic settings, at times
    with a short memory so that tracks retire."""
    n_identities = draw(st.integers(1, 6))
    n_frames = draw(st.integers(0, 20))
    world = WorldConfig(
        n_identities=n_identities, n_frames=n_frames, n_classes=draw(st.integers(1, 2)),
        dim=draw(st.integers(8, 16)), speed=draw(st.sampled_from([0.0, 4.0, 20.0])),
        sigma_e=draw(st.sampled_from([0.0, 0.3, 0.8])), jitter_sigma=1.0,
        fp_rate=draw(st.sampled_from([0.0, 0.2])), n_distractors=draw(st.integers(0, 2)),
        distractor_affinity=draw(st.sampled_from([0.0, 0.7])),
        occlusions=[(draw(st.integers(0, n_identities - 1)), 3, 6)],
        seed=draw(st.integers(0, 2**16)),
    )
    frames = generate(world).detections
    if frames:
        dropped = draw(st.sets(st.sampled_from(sorted(frames)), max_size=n_frames // 3))
        frames = {f: dets for f, dets in frames.items() if f not in dropped}
    profile = draw(st.sampled_from([None, "synth", *PROFILE_NAMES]))
    if profile is None:
        return frames, TrackerConfig()
    c = synth_tracker_config() if profile == "synth" else load_profile(profile)
    memory = draw(st.sampled_from([c.memory_frames, 0, 2]))
    return frames, dataclasses.replace(c, memory_frames=memory)


@settings(max_examples=80, deadline=None)
@given(small_worlds(), st.booleans())
def test_run_sequence_is_the_online_output(drawn, postprocess):
    frames, c = drawn
    if not postprocess:
        c = dataclasses.replace(c, merge=False, interpolate=False)
    pred = run_sequence(frames, c)
    got = [(f, e) for f in sorted(pred.frames) for e in pred.frames[f]]
    keys = [(f, e.obj_id) for f, e in got]
    assert len(keys) == len(set(keys))
    if c.merge or c.interpolate:
        return
    t = Tracker(c)
    online = [(f, tid, d) for f in sorted(frames) for tid, d in t.step(f, frames[f])]
    assert [(f, e.obj_id, e.class_id, e.box) for f, e in got] == [
        (f, tid, d.class_id, d.box) for f, tid, d in online]
    assert all(e.box is d.box for (_, e), (_, _, d) in zip(got, online))
    assert [e.score for _, e in got] == [d.score for _, _, d in online]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16), st.sampled_from(["synth", "mot17", "cosine"]))
def test_detection_order_does_not_change_matches(seed, order_seed, arm):
    """Permuting each frame's detections, all with distinct scores, leaves
    every (frame, track id, box) row of the output as it was."""
    frames = generate(dataclasses.replace(standard_noisy_world(seed), n_frames=30)).detections
    assume(all(len({d.score for d in dets}) == len(dets) for dets in frames.values()))
    rng = np.random.default_rng(order_seed)
    permuted = {f: [dets[i] for i in rng.permutation(len(dets))] for f, dets in frames.items()}
    c = {"synth": synth_tracker_config(), "mot17": load_profile("mot17"),
         "cosine": synth_tracker_config(similarity_metric="cosine")}[arm]

    def rows(pred):
        return [(f, e.obj_id, e.box) for f in sorted(pred.frames) for e in pred.frames[f]]

    assert rows(run_sequence(permuted, c)) == rows(run_sequence(frames, c))


def test_run_sequence_adds_in_frame_then_track_order():
    """The output is added frame by frame, ids ascending within a frame,
    so each TrackSet.add stays on the frame it added to last."""
    frames = {0: [det(0)], 5: [det(0), det(2, x=100.0)]}
    frames.update({f: [det(1, x=50.0, cls=1)] for f in (1, 2, 3)})
    pred = run_sequence(frames, TrackerConfig())
    assert list(pred.frames) == [0, 1, 2, 3, 5]
    assert {f: [e.obj_id for e in es] for f, es in pred.frames.items()} == {
        0: [1], 1: [2], 2: [2], 3: [2], 5: [1, 3]}


@pytest.mark.parametrize("overrides", [
    {},
    {"distance_gate": 20.0, "interpolate": True, "merge": True},
])
def test_run_sequence_reaches_no_embedding_validation(monkeypatch, overrides):
    """The frame is checked once, at step's ingress: the association and
    the merge call the bi-softmax and momentum kernels, never a checked
    entry."""
    from embedtrack import similarity

    world = WorldConfig(n_identities=25, n_frames=60, dim=16, speed=6.0, sigma_e=0.2,
                        jitter_sigma=2.0, fp_rate=0.05, n_distractors=6,
                        occlusions=[(0, 10, 14), (3, 25, 30), (7, 40, 43)], seed=9)
    frames = generate(world).detections
    validations, kernels = [], []
    for mod in (similarity, tracker_module):
        real = mod.validate_embeddings
        monkeypatch.setattr(mod, "validate_embeddings",
                            lambda *a, _real=real, **k: validations.append(1) or _real(*a, **k))
    for name in ("_bisoftmax", "_momentum"):
        real = getattr(tracker_module, name)
        monkeypatch.setattr(tracker_module, name,
                            lambda *a, _real=real, _name=name: kernels.append(_name) or _real(*a))
    pred = run_sequence(frames, synth_tracker_config(**overrides))
    assert validations == [] and pred.frames
    assert kernels.count("_bisoftmax") >= len(frames) - 1 and "_momentum" in kernels
