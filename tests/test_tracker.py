import numpy as np
import pytest

from embedtrack import tracker as tracker_module
from embedtrack.geometry import BoundingBox, center_distance
from embedtrack.metrics import TrackSet
from embedtrack.synth import Scenario, WorldConfig, generate, track_scenario
from embedtrack.tracker import (
    Detection,
    MergeConfig,
    Tracker,
    TrackerConfig,
    interpolate_tracks,
    merge_tracklets,
    momentum_update,
)

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
    base = dict(beta_obj=0.35, beta_match=0.5, beta_new=0.5,
                memory_frames=10, backdrop_frames=1, momentum=0.8,
                det_confidence=0.1, nms_threshold=0.65)
    base.update(kw)
    return TrackerConfig(**base)


class TestConfig:
    def test_threshold_range_checked(self):
        with pytest.raises(ValueError, match="beta_match"):
            TrackerConfig(beta_match=1.5)

    def test_momentum_range_checked(self):
        with pytest.raises(ValueError, match="momentum"):
            TrackerConfig(momentum=-0.1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="similarity metric"):
            TrackerConfig(similarity_metric="euclidean")

    def test_low_beta_new_warns(self):
        with pytest.warns(UserWarning, match="beta_new"):
            TrackerConfig(beta_new=0.1, beta_obj=0.5)

    def test_get_params_round_trips(self):
        c = cfg(merge=MergeConfig())
        p = Tracker(c).get_params()
        assert p["beta_match"] == 0.5
        assert p["merge"]["beta_merge"] == 0.5


class TestDetection:
    def test_score_range_checked(self):
        with pytest.raises(ValueError, match="score"):
            det(0, score=1.5)

    def test_non_finite_embedding_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            det(0, embedding=np.array([np.nan] * DIM))

    @pytest.mark.parametrize("shape", [(1, DIM), (2, DIM), ()])
    def test_embedding_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            det(0, embedding=np.ones(shape))


def test_momentum_update_formula():
    old, new = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    out = momentum_update(old, new, 0.8)
    assert np.allclose(out, [0.2, 0.8], atol=1e-15)
    with pytest.raises(ValueError, match="momentum"):
        momentum_update(old, new, 1.2)


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
        assert t.state.tracks[tid1].last_box.x1 == 5.0

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
        assert np.allclose(t.state.tracks[1].embedding, want, atol=1e-12)

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

    def test_same_class_only_masks_other_classes(self):
        t = Tracker(cfg())
        t.step(0, [det(0, cls=0)])
        out = t.step(1, [det(0, cls=1)])  # identical appearance, other class
        assert out == [(2, out[0][1])]

    def test_class_agnostic_matching_when_disabled(self):
        t = Tracker(cfg(same_class_only=False))
        t.step(0, [det(0, cls=0)])
        [(tid, _)] = t.step(1, [det(0, cls=1)])
        assert tid == 1

    def test_duplicate_removal_is_class_agnostic(self):
        t = Tracker(cfg())
        out = t.step(0, [det(0, 0.9, cls=0), det(1, 0.8, cls=1)])  # same box
        assert len(out) == 1

    def test_duplicate_removal_can_be_disabled(self):
        t = Tracker(cfg(duplicate_removal=False, same_class_only=False))
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

    def test_cosine_metric_supported(self):
        t = Tracker(cfg(similarity_metric="cosine"))
        t.step(0, [det(0)])
        [(tid, _)] = t.step(1, [det(0, x=3)])
        assert tid == 1


class TestMerge:
    def test_young_track_folds_into_vanished(self):
        # the association distance gate blocks direct re-association, so the
        # detection spawns a new track; the wider merge radius then folds it
        # back into the vanished one
        t = Tracker(cfg(distance_gate=50.0,
                        merge=MergeConfig(t=10, beta_merge=0.5, d_merge=100.0)))
        t.step(0, [det(0, x=0)])
        t.step(1, [])  # track 1 misses a frame -> vanished
        t.step(2, [det(0, x=60)])
        assert sorted(t.state.tracks) == [1]
        frames = [f for f, _, _ in t.state.tracks[1].history]
        assert frames == [0, 2]

    def test_merge_respects_distance(self):
        t = Tracker(cfg(distance_gate=50.0,
                        merge=MergeConfig(t=10, beta_merge=0.5, d_merge=100.0)))
        t.step(0, [det(0, x=0)])
        t.step(1, [])
        t.step(2, [det(0, x=500)])
        assert sorted(t.state.tracks) == [1, 2]

    def test_merge_respects_class(self):
        t = Tracker(cfg(merge=MergeConfig()))
        t.step(0, [det(0, cls=0)])
        t.step(1, [])
        t.step(2, [det(0, x=5, cls=1)])
        assert sorted(t.state.tracks) == [1, 2]

    def test_vanished_absorbs_single_best(self):
        state_cfg = cfg(merge=None)
        t = Tracker(state_cfg)
        t.step(0, [det(0, x=0)])
        t.step(1, [])
        a = Detection(BoundingBox(0, 0, 10, 10), 0, 0.9, emb(0))
        b = Detection(BoundingBox(20, 0, 30, 10), 0, 0.8, emb(0) * 0.5)
        t.step(2, [a, b])
        merge_tracklets(t.state, MergeConfig(t=10, beta_merge=0.3, d_merge=100.0))
        assert len(t.state.tracks) == 2  # only one young track absorbed


    def test_merge_skips_track_overlapping_in_time(self):
        # two lookalikes spawn together; one continues, the other vanishes.
        # The continuing track lived alongside the vanished one, so folding
        # it in would give one ID two boxes at frame 0.
        d = {0: [det(0, x=0), det(0, x=60)], 1: [det(0, x=2)], 2: [det(0, x=4)]}
        scenario = Scenario(TrackSet(), d, {}, np.zeros((1, DIM)), WorldConfig(dim=DIM))
        c = cfg(merge=MergeConfig(beta_merge=0.3, d_merge=100.0), interpolate=True)
        pred = track_scenario(scenario, c)
        keys = [(f, e.obj_id) for f, es in pred.frames.items() for e in es]
        assert len(keys) == len(set(keys))
        assert sorted({tid for _, tid in keys}) == [1, 2]


def _brute_force_within(boxes_a, boxes_b, radius):
    """The distance gate pair by pair with the scalar center_distance."""
    out = np.zeros((len(boxes_a), len(boxes_b)), dtype=bool)
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            out[i, j] = center_distance(a, b) <= radius
    return out


def test_broadcast_gate_matches_brute_force(monkeypatch):
    world = WorldConfig(n_identities=15, n_frames=60, dim=16, speed=6.0,
                        sigma_e=0.2, jitter_sigma=2.0, fp_rate=0.05,
                        n_distractors=4, occlusions=[(0, 10, 14), (3, 25, 30), (7, 40, 43)],
                        seed=4)
    frames = generate(world).detections
    # a gate tighter than the merge radius, so occluded objects come back as
    # young tracks that merging then folds into their vanished ones
    c = cfg(distance_gate=20.0, merge=MergeConfig(t=10, beta_merge=0.5, d_merge=100.0),
            interpolate=True)

    def run():
        t = Tracker(c)
        steps = [
            [(tid, d.box, d.score) for tid, d in t.step(f, frames[f])]
            for f in sorted(frames)
        ]
        return t, steps

    fast, fast_steps = run()
    monkeypatch.setattr(tracker_module, "_within", _brute_force_within)
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
