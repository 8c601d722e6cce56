import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack.ablation import standard_noisy_world
from embedtrack.config import from_dict
from embedtrack.geometry import BoundingBox
from embedtrack.metrics import TrackSet, per_class_report
from embedtrack.synth import (
    _DISTRACTOR_SCORE_RANGE,
    _FP_SCORE_RANGE,
    _SCORE_RANGE,
    _TAU,
    Scenario,
    WorldConfig,
    generate,
    iou_baseline_track,
    oracle_tracks,
    place_prototypes,
    subsample,
)
from embedtrack.tracker import Detection, Frame, run_sequence
from oracles import generate_oracle, place_prototypes_oracle


def small_world(**kw):
    base = dict(n_identities=5, n_frames=20, dim=16, seed=0)
    base.update(kw)
    return WorldConfig(**base)


class TestWorldConfig:
    def test_rate_ranges_checked(self):
        with pytest.raises(ValueError, match="fp_rate"):
            WorldConfig(fp_rate=1.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma_e must be finite and >= 0, got -0\.1$"):
            WorldConfig(sigma_e=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("n_classes", 0), ("n_identities", 0), ("n_identities", -1),
        ("n_distractors", -2), ("n_frames", -1), ("sigma_e", float("nan")),
        ("sigma_e", float("inf")), ("jitter_sigma", float("inf")), ("speed", float("nan")),
        ("speed", float("inf")), ("min_margin", float("nan")),
        ("image_size", (1000.0, 160.0)), ("image_size", (1000.0, -1000.0)),
        ("image_size", (160.0, 1000.0)), ("image_size", (1000.0, 100.0)),
        ("image_size", (float("inf"), 1000.0)), ("image_size", (float("nan"), 1000.0)),
        ("occlusions", [(10, 0, 5)]), ("occlusions", [(-1, 0, 5)]),
        ("occlusions", [(0, 1, 2), (0, 5, 4)]),
        ("distractor_affinity", 1.5), ("distractor_affinity", -0.5), ("seed", -1),
        ("image_size", (1000.0,)), ("image_size", (1000.0, 1000.0, 1000.0)),
    ])
    def test_impossible_world_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorldConfig(**{field: value})
        # a variant is built by replace, which checks it again
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(WorldConfig(), **{field: value})

    # each of these built, then failed inside generate
    @pytest.mark.parametrize("field,value", [
        ("n_identities", 2.0), ("n_frames", 10.0), ("n_classes", 1.0), ("dim", 8.0),
        ("dim", np.float64(8.0)), ("n_distractors", 1.0), ("seed", 1.5), ("seed", True),
        ("n_frames", "5"),
    ])
    def test_counts_must_be_ints(self, field, value):
        with pytest.raises(ValueError) as exc:
            WorldConfig(**{field: value})
        assert str(exc.value) == f"{field} must be int, got {value!r}"

    @pytest.mark.parametrize("occlusions,message", [
        ([(0, 1.5, 3)], "occlusions[0][1] must be int, got 1.5"),
        ([(0.0, 1, 3)], "occlusions[0][0] must be int, got 0.0"),
        ([(0, 1, True)], "occlusions[0][2] must be int, got True"),
        ([(0, 1)], "occlusions[0] must be a list of 3 values, got (0, 1)"),
        ([(0, 1, 2, 3)], "occlusions[0] must be a list of 3 values, got (0, 1, 2, 3)"),
        (["abc"], "occlusions[0] must be a list of 3 values, got 'abc'"),
    ])
    def test_occlusion_entries_must_be_three_ints(self, occlusions, message):
        with pytest.raises(ValueError) as exc:
            WorldConfig(occlusions=occlusions)
        assert str(exc.value) == message

    def test_numpy_ints_make_the_same_world(self):
        ints = dict(n_identities=3, n_frames=6, dim=4, n_distractors=1, seed=2, occlusions=[(1, 2, 3)])
        numpy_ints = {k: np.int32(v) for k, v in ints.items() if k != "occlusions"}
        numpy_ints["occlusions"] = [tuple(map(np.int64, ints["occlusions"][0]))]
        a, b = generate(WorldConfig(**ints)), generate(WorldConfig(**numpy_ints))
        assert a.gt.frames == b.gt.frames
        for f, dets in a.detections.items():
            assert [(d.box, d.score) for d in dets] == [(d.box, d.score) for d in b.detections[f]]
            assert all(np.array_equal(d.embedding, e.embedding) for d, e in zip(dets, b.detections[f]))

    def test_occlusions_held_as_tuples(self):
        given = [[0, 1, 2], (1, 3, 4)]
        w = WorldConfig(occlusions=given)
        assert w.occlusions == ((0, 1, 2), (1, 3, 4))
        given[0].append(9)
        given.append((7, 3, 1))
        assert w.occlusions == ((0, 1, 2), (1, 3, 4))
        assert hash(w) == hash(WorldConfig(occlusions=((0, 1, 2), (1, 3, 4))))
        assert dataclasses.replace(w, seed=1).occlusions == w.occlusions

    def test_image_size_held_as_a_tuple(self):
        given = [640.0, 480.0]
        w = WorldConfig(image_size=given)
        assert w.image_size == (640.0, 480.0)
        given.append(1.0)
        assert w.image_size == (640.0, 480.0)
        assert hash(w) == hash(WorldConfig(image_size=(640.0, 480.0)))
        assert generate(dataclasses.replace(w, n_frames=2)).config.image_size == (640.0, 480.0)

    def test_asdict_json_round_trip(self):
        w = WorldConfig(image_size=(640.0, 480.0), occlusions=[(0, 1, 2), (3, 4, 9)], seed=5)
        assert from_dict(WorldConfig, json.loads(json.dumps(dataclasses.asdict(w)))) == w

    def test_false_positive_worlds_need_100_pixel_sides(self):
        # false positives are centred 50 pixels inside each border; every
        # side must exceed twice the largest box size, 160, which covers that
        WorldConfig(fp_rate=0.5, image_size=(160.5, 160.5))
        for side in (99.0, 160.0):
            with pytest.raises(ValueError, match="image_size sides must be finite and more than 160"):
                WorldConfig(fp_rate=0.5, image_size=(200.0, side))

    @pytest.mark.parametrize("field,value", [
        ("n_frames", -1), ("image_size", (100.0, 100.0)), ("occlusions", []), ("seed", 3),
    ])
    def test_fields_cannot_be_assigned(self, field, value):
        world = WorldConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(world, field, value)
        assert world == WorldConfig()

    @pytest.mark.parametrize("world", [
        dict(image_size=(160.5, 160.5)),
        dict(image_size=(160.5, 160.5), fp_rate=0.5, n_distractors=2),
        dict(image_size=(1e6, 160.5), fp_rate=0.5, speed=1e4),
        dict(occlusions=[(0, 3, 3), (9, 0, 500)]),
    ])
    def test_worlds_at_the_limits_generate_finite_boxes(self, world):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = generate(WorldConfig(n_frames=20, dim=8, **world))
        boxes = [d.box.as_array() for dets in s.detections.values() for d in dets]
        assert np.isfinite(boxes).all()

    def test_zero_frame_world_is_empty(self):
        s = generate(WorldConfig(n_frames=0))
        assert s.detections == {} and s.gt.frames == {}

    def test_from_dict_turns_lists_into_tuples(self):
        w = from_dict(WorldConfig, {"image_size": [640, 480], "occlusions": [[0, 1, 2]]})
        assert w == WorldConfig(image_size=(640, 480), occlusions=[(0, 1, 2)])

    @pytest.mark.parametrize("data,message", [
        ([], "world config must be a JSON object"),
        ({"n_ids": 3}, "unknown world config keys"),
        ({"n_frames": "5"}, "n_frames must be int"),
        ({"n_frames": 5.0}, "n_frames must be int"),
        ({"seed": True}, "seed must be int"),
        ({"image_size": 5}, "image_size must be a list of 2 values"),
        ({"image_size": [1000.0]}, "image_size must be a list of 2 values"),
        ({"image_size": [1000.0, "x"]}, r"image_size\[1\] must be float"),
        ({"occlusions": [[0, 1]]}, r"occlusions\[0\] must be a list of 3 values"),
        ({"motion": "linear", "walk_sigma": 2.0, "tau": 10.0, "score_range": [0.85, 0.99],
          "fp_score_range": [0.2, 0.7], "distractor_score_range": [0.15, 0.45]},
         "unknown world config keys"),
        ({"box_size_range": [40.0, 80.0]}, r"unknown world config keys: \['box_size_range'\]"),
        ({"occlusions": 5}, "occlusions must be a list of values"),
        ({"occlusions": [[0, 1.5, 3]]}, r"occlusions\[0\]\[1\] must be int"),
    ])
    def test_from_dict_names_the_bad_key(self, data, message):
        with pytest.raises(ValueError, match=message):
            from_dict(WorldConfig, data)


class TestPlacePrototypes:
    def test_unit_norm_and_separated(self):
        rng = np.random.default_rng(0)
        p = place_prototypes(10, 32, 0.05, rng)
        assert np.allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)
        sim = p @ p.T
        np.fill_diagonal(sim, -1.0)
        assert sim.max() <= 1.0 - 0.05

    def test_impossible_margin_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="cannot separate"):
            place_prototypes(50, 2, 0.5, rng)

    # cases where the fixed-step loop converges; D=256 n=500 takes about a
    # second per call, so it runs on one seed
    CONVERGING = [(n, 16, seed) for n in (2, 10, 20, 50, 80) for seed in range(3)]
    CONVERGING += [(200, 64, seed) for seed in range(3)] + [(500, 256, 0)]

    @pytest.mark.parametrize("n,dim,seed", CONVERGING)
    def test_converging_cases_equal_fixed_step_loop(self, n, dim, seed):
        got = place_prototypes(n, dim, 0.0, np.random.default_rng(seed))
        want = place_prototypes_oracle(n, dim, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [100, 120, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_large_n_keeps_a_margin(self, n, seed):
        p = place_prototypes(n, 16, 0.0, np.random.default_rng(seed))
        sim = p @ p.T
        np.fill_diagonal(sim, -1.0)
        assert 1.0 - sim.max() >= 0.15


def test_generate_builds_a_100_identity_world_at_default_margin():
    cfg = small_world(n_identities=100, n_frames=2)
    assert cfg.min_margin == WorldConfig().min_margin
    scenario = generate(cfg)
    assert len(scenario.prototypes) == 100


class TestGenerate:
    def test_deterministic(self):
        a = generate(small_world())
        b = generate(small_world())
        for f in a.detections:
            for da, db in zip(a.detections[f], b.detections[f]):
                assert da.box == db.box
                assert np.array_equal(da.embedding, db.embedding)
                assert da.score == db.score

    def test_seed_changes_output(self):
        a = generate(small_world(seed=0))
        b = generate(small_world(seed=1))
        assert not np.array_equal(a.prototypes, b.prototypes)

    def test_embedding_norm_is_tau(self):
        s = generate(small_world(sigma_e=0.3))
        for dets in s.detections.values():
            for d in dets:
                assert np.linalg.norm(d.embedding) == pytest.approx(_TAU, abs=1e-9)

    def test_clean_world_one_detection_per_identity(self):
        s = generate(small_world())
        for f, dets in s.detections.items():
            assert len(dets) == 5
            assert sorted(s.det_identity[f]) == list(range(5))

    def test_occlusion_hides_object(self):
        s = generate(small_world(occlusions=[(2, 5, 8)]))
        for f in range(5, 9):
            assert 2 not in s.det_identity[f]
            entry = next(e for e in s.gt.frames[f] if e.obj_id == 2)
            assert not entry.visible
        assert 2 in s.det_identity[4] and 2 in s.det_identity[9]

    def test_false_negatives_reduce_detections(self):
        s = generate(small_world(fn_rate=0.5, n_frames=100))
        n = sum(len(d) for d in s.detections.values())
        assert n < 5 * 100

    def test_false_positives_carry_no_identity(self):
        s = generate(small_world(fp_rate=0.5, n_frames=50))
        labels = [i for f in s.det_identity.values() for i in f]
        assert any(i is None for i in labels)

    def test_distractors_are_persistent_unlabeled(self):
        s = generate(small_world(n_distractors=2))
        for f in s.det_identity:
            assert s.det_identity[f].count(None) == 2

    def test_distractor_affinity_pulls_toward_identity(self):
        far = generate(small_world(n_distractors=2, distractor_affinity=0.0))
        near = generate(small_world(n_distractors=2, distractor_affinity=0.9))
        for d in range(2):
            j = 5 + d
            cos_far = far.prototypes[j] @ far.prototypes[d]
            cos_near = near.prototypes[j] @ near.prototypes[d]
            assert cos_near > cos_far
            assert cos_near > 0.85

    def test_boxes_stay_inside_image(self):
        s = generate(small_world(speed=20.0, n_frames=200))
        w, h = s.config.image_size
        for entries in s.gt.frames.values():
            for e in entries:
                assert -1e-9 <= e.box.x1 and e.box.x2 <= w + 1e-9
                assert -1e-9 <= e.box.y1 and e.box.y2 <= h + 1e-9

    def test_explicit_prototypes_shape_checked(self):
        with pytest.raises(ValueError, match="prototypes must have shape"):
            generate(small_world(), prototypes=np.eye(3))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf"), 1e200])
    def test_explicit_prototype_row_without_finite_norm_rejected(self, value):
        p = np.eye(16)[:5]
        p[3] = value  # 1e200 squared overflows the norm
        with pytest.raises(ValueError, match="prototype row 3 is zero or not finite"):
            generate(small_world(), prototypes=p)

    def test_explicit_prototypes_margin_checked(self):
        p = np.eye(16)[:5]
        p[4] = 2.0 * p[1]  # a duplicate once normalized: margin 0
        with pytest.raises(ValueError, match="margin 0.0000, below min_margin 0.5"):
            generate(small_world(min_margin=0.5), prototypes=p)
        p[4] = p[1] + np.eye(16)[5]  # cosine 1/sqrt(2) with row 1
        assert generate(small_world(min_margin=0.25), prototypes=p).prototypes.shape == (5, 16)
        with pytest.raises(ValueError, match="below min_margin 0.3"):
            generate(small_world(min_margin=0.3), prototypes=p)

    def test_explicit_prototypes_used(self):
        p = np.eye(16)[:5] * 3.0  # normalized internally
        s = generate(small_world(), prototypes=p)
        assert np.allclose(s.prototypes, np.eye(16)[:5], atol=1e-12)


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _zero_or(high: float):
    """0, or a positive float up to ``high``."""
    return st.just(0.0) | st.floats(1e-3, high)


def assert_same_world(got, want):
    """Each detection's box, class, score and embedding, the true
    identities, every ground-truth entry and the prototypes are equal to
    the bit; classes are Python ints on both sides."""
    assert got.detections.keys() == want.detections.keys()
    for f, dets in want.detections.items():
        assert [(_bits(dataclasses.astuple(d.box)), d.class_id, type(d.class_id), _bits(d.score),
                 _bits(d.embedding)) for d in got.detections[f]] == \
               [(_bits(dataclasses.astuple(d.box)), d.class_id, type(d.class_id), _bits(d.score),
                 _bits(d.embedding)) for d in dets], f"frame {f}"
    assert got.det_identity == want.det_identity
    assert got.gt.frames.keys() == want.gt.frames.keys()
    for f, entries in want.gt.frames.items():
        assert [(e.obj_id, e.class_id, _bits(dataclasses.astuple(e.box)), e.visible, e.score)
                for e in got.gt.frames[f]] == \
               [(e.obj_id, e.class_id, _bits(dataclasses.astuple(e.box)), e.visible, e.score)
                for e in entries], f"frame {f}"
    assert _bits(got.prototypes) == _bits(want.prototypes)
    assert got.config == want.config


class TestSameWorldAsThePerDetectionGenerator:
    def test_crowded_world(self):
        # the benchmark's crowded world, cut to 30 frames
        rng = np.random.default_rng([5, 20])
        occlusions = []
        for _ in range(20):
            first = int(rng.integers(0, 28))
            occlusions.append((int(rng.integers(100)), first, first + int(rng.integers(5, 20))))
        world = WorldConfig(n_identities=100, n_distractors=20, distractor_affinity=0.5,
                            n_frames=30, dim=64, sigma_e=0.15, jitter_sigma=1.0, fp_rate=0.02,
                            occlusions=occlusions, seed=5)
        assert_same_world(generate(world), generate_oracle(world))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_worlds(self, data):
        draw = data.draw
        n_ids, n_frames = draw(st.integers(1, 6)), draw(st.integers(0, 12))
        n_dis, dim = draw(st.integers(0, 3)), draw(st.integers(1, 9))
        frame = st.integers(-3, n_frames + 3)  # spans may start before frame 0 or end after the last
        occlusions = [(i, min(a, b), max(a, b)) for i, a, b in
                      draw(st.lists(st.tuples(st.integers(0, n_ids - 1), frame, frame), max_size=3))]
        world = WorldConfig(
            n_identities=n_ids, n_frames=n_frames, n_classes=draw(st.integers(1, 3)), dim=dim,
            n_distractors=n_dis, distractor_affinity=draw(_zero_or(1.0)),
            fn_rate=draw(_zero_or(1.0)), jitter_sigma=draw(_zero_or(5.0)),
            sigma_e=draw(_zero_or(2.0)), fp_rate=draw(_zero_or(1.0)),
            occlusions=occlusions, seed=draw(st.integers(0, 2**16)))
        prototypes = None
        if draw(st.booleans()):
            prototypes = np.random.default_rng(world.seed).standard_normal((n_ids + n_dis, dim))
        try:
            want = generate_oracle(world, prototypes)
        except ValueError as exc:  # prototypes that cannot be separated or miss the margin
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                generate(world, prototypes)
            return
        assert_same_world(generate(world, prototypes), want)


@st.composite
def paired_worlds(draw):
    """A small world with every kind of per-frame draw; dim 8 fits every
    prototype, so placement never fails."""
    n_ids = draw(st.integers(1, 5))
    return WorldConfig(
        n_identities=n_ids, n_frames=draw(st.integers(1, 10)), n_classes=draw(st.integers(1, 3)),
        dim=8, n_distractors=draw(st.integers(0, 3)), distractor_affinity=draw(_zero_or(1.0)),
        fn_rate=draw(_zero_or(1.0)), jitter_sigma=draw(_zero_or(5.0)), sigma_e=draw(_zero_or(2.0)),
        fp_rate=draw(_zero_or(1.0)), seed=draw(st.integers(0, 2**16)))


def _by_object(scenario) -> dict:
    """Each detection's box, class, score and embedding bits, keyed by
    (frame, identity) for an identity, (frame, n_identities + n) for the
    n-th distractor and (frame, ("fp", n)) for the n-th false positive."""
    n_id, n_dis = scenario.config.n_identities, scenario.config.n_distractors
    out = {}
    for f, dets in scenario.detections.items():
        idents = scenario.det_identity[f]
        n_seen = len(idents) - idents.count(None)
        keys = idents[:n_seen] + list(range(n_id, n_id + n_dis))
        keys += [("fp", n) for n in range(len(dets) - len(keys))]
        out.update(((f, k), (_bits(dataclasses.astuple(d.box)), d.class_id, _bits(d.score),
                             _bits(d.embedding))) for k, d in zip(keys, dets))
    return out


class TestPairedWorlds:
    """Each kind of per-frame draw has its own stream, so a knob moves only
    the draws of its own kind."""

    @settings(max_examples=40, deadline=None)
    @given(paired_worlds(), st.floats(1e-3, 2.0))
    def test_embedding_noise_moves_no_other_draw(self, world, sigma_e):
        clean = generate(dataclasses.replace(world, sigma_e=0.0))
        noisy = generate(dataclasses.replace(world, sigma_e=sigma_e))
        assert noisy.det_identity == clean.det_identity
        for f, dets in clean.detections.items():
            assert [(_bits(dataclasses.astuple(d.box)), _bits(d.score), d.class_id)
                    for d in noisy.detections[f]] == \
                   [(_bits(dataclasses.astuple(d.box)), _bits(d.score), d.class_id) for d in dets]

    @settings(max_examples=40, deadline=None)
    @given(paired_worlds(), st.data())
    def test_an_occlusion_moves_no_other_detection(self, world, data):
        ident = data.draw(st.integers(0, world.n_identities - 1))
        first = data.draw(st.integers(0, world.n_frames - 1))
        last = data.draw(st.integers(first, world.n_frames - 1))
        want = {k: v for k, v in _by_object(generate(world)).items()
                if not (k[1] == ident and first <= k[0] <= last)}
        assert _by_object(generate(dataclasses.replace(world, occlusions=[(ident, first, last)]))) == want

    @settings(max_examples=40, deadline=None)
    @given(paired_worlds(), st.floats(0.0, 1.0))
    def test_false_positives_move_no_object_detection(self, world, other):
        def objects(rate):
            scenario = generate(dataclasses.replace(world, fp_rate=rate))
            return {k: v for k, v in _by_object(scenario).items() if not isinstance(k[1], tuple)}

        assert objects(other) == objects(world.fp_rate)


def test_world_statistics_over_20_seeds_match_their_analytic_values():
    """Detections per frame, the identities' mean score and the mean cosine
    between an identity's detection and its prototype on
    ``standard_noisy_world(0..19)``, each within a few standard errors of
    its analytic value; every score lies in its kind's range."""
    world = standard_noisy_world(0)
    hidden = sum(last - first + 1 for _, first, last in world.occlusions)
    seen = (world.n_identities * world.n_frames - hidden) / world.n_frames * (1.0 - world.fn_rate)
    want_per_frame = seen + world.n_distractors + world.n_identities * world.fp_rate  # 18.45
    n_frames, n_dets, id_scores, cosines = 0, 0, [], []
    for seed in range(20):
        s = generate(standard_noisy_world(seed))
        for f, dets in s.detections.items():
            n_frames, n_dets = n_frames + 1, n_dets + len(dets)
            idents = s.det_identity[f]
            n_seen = len(idents) - idents.count(None)
            scores = np.array([d.score for d in dets])
            assert ((_SCORE_RANGE[0] <= scores[:n_seen]) & (scores[:n_seen] < _SCORE_RANGE[1])).all()
            clutter = scores[n_seen:n_seen + world.n_distractors]
            assert ((_DISTRACTOR_SCORE_RANGE[0] <= clutter) & (clutter < _DISTRACTOR_SCORE_RANGE[1])).all()
            fps = scores[n_seen + world.n_distractors:]
            assert ((_FP_SCORE_RANGE[0] <= fps) & (fps < _FP_SCORE_RANGE[1])).all()
            id_scores.extend(scores[:n_seen])
            cosines.extend(d.embedding @ s.prototypes[i] / _TAU for d, i in zip(dets, idents[:n_seen]))
    # standard errors: about 0.017 detections, 0.0003 score and 0.0005 cosine
    assert n_dets / n_frames == pytest.approx(want_per_frame, abs=0.1)
    assert np.mean(id_scores) == pytest.approx(np.mean(_SCORE_RANGE), abs=0.002)
    # the noise of D dimensions at sigma_e makes a draw's squared norm about
    # 1 + sigma_e^2 D, with the prototype's component still about 1
    assert np.mean(cosines) == pytest.approx(1.0 / np.sqrt(1.0 + world.sigma_e**2 * world.dim), abs=0.01)


class TestSubsample:
    def test_frames_renumbered_densely(self):
        s = generate(small_world(n_frames=20))
        sub = subsample(s, 5)
        assert sorted(sub.detections) == [0, 1, 2, 3]
        assert sub.config.n_frames == 4
        for new_f, old_f in enumerate([0, 5, 10, 15]):
            assert sub.detections[new_f] is s.detections[old_f]
        assert all(type(frame) is Frame for frame in s.detections.values())

    def test_identity_subsample_is_noop(self):
        s = generate(small_world())
        assert subsample(s, 1) is s

    def test_invalid_factor(self):
        with pytest.raises(ValueError, match="keep_every_k"):
            subsample(generate(small_world()), 0)


class TestReferenceTrackers:
    def test_oracle_is_perfect_on_clean_world(self):
        s = generate(small_world(n_frames=30))
        rep = per_class_report(s.gt, oracle_tracks(s))
        assert rep.aggregate.mota == 1.0
        assert rep.aggregate.idf1 == 1.0
        assert rep.aggregate.idsw == 0

    def test_oracle_drops_low_scores_and_numbers_false_positives_in_frame_order(self):
        # distractors score 0.15-0.45 and false positives 0.2-0.7, so some
        # of both fall below the 0.5 floor and some false positives clear it
        s = generate(small_world(n_frames=30, fp_rate=0.3, n_distractors=2, n_classes=2))
        pred = oracle_tracks(s)
        fresh, n_dropped = [], 0
        for f in sorted(s.detections):
            pairs = list(zip(s.detections[f], s.det_identity[f]))
            kept = [(d, ident) for d, ident in pairs if d.score >= 0.5]
            n_dropped += len(pairs) - len(kept)
            entries = pred.frames.get(f, [])
            assert [(e.box, e.class_id) for e in entries] == [(d.box, d.class_id) for d, _ in kept]
            for e, (_, ident) in zip(entries, kept):
                if ident is None:
                    fresh.append(e.obj_id)
                else:
                    assert e.obj_id == ident + 1
        assert n_dropped > 0 and fresh
        assert fresh == list(range(10_000_000, 10_000_000 + len(fresh)))

    def test_oracle_floor_keeps_a_score_of_exactly_one_half(self):
        s = generate(small_world(n_frames=2))
        d = s.detections[1][0]
        s.detections[1] = [dataclasses.replace(d, score=0.5),
                           dataclasses.replace(d, score=float(np.nextafter(0.5, 0.0)))]
        s.det_identity[1] = [None, None]
        assert [(e.obj_id, e.box) for e in oracle_tracks(s).frames[1]] == [(10_000_000, d.box)]

    def test_iou_baseline_good_on_slow_clean_world(self):
        s = generate(small_world(speed=1.0, n_frames=30))
        rep = per_class_report(s.gt, iou_baseline_track(s))
        assert rep.aggregate.idf1 > 0.95

    @pytest.mark.parametrize("y2,n_ids", [(3.0, 1), (2.8, 2)])
    def test_iou_baseline_matches_at_iou_three_tenths(self, y2, n_ids):
        # [0,0,10,3] overlaps [0,0,10,10] at IoU exactly 0.3, [0,0,10,2.8] at 0.28
        emb = np.ones(4)
        dets = {0: [Detection(BoundingBox(0, 0, 10, 10), 0, 0.9, emb)],
                1: [Detection(BoundingBox(0, 0, 10, y2), 0, 0.9, emb)]}
        s = Scenario(TrackSet(), dets, {}, np.zeros((1, 4)), WorldConfig(dim=4))
        pred = iou_baseline_track(s)
        assert len({e.obj_id for es in pred.frames.values() for e in es}) == n_ids

    def test_iou_baseline_fragments_under_subsampling(self):
        s = generate(small_world(speed=4.0, n_frames=120))
        full = per_class_report(s.gt, iou_baseline_track(s)).aggregate.idf1
        sub = subsample(s, 30)
        dropped = per_class_report(sub.gt, iou_baseline_track(sub)).aggregate.idf1
        assert dropped < full

    def test_appearance_tracker_on_clean_world(self):
        from embedtrack.ablation import synth_tracker_config

        s = generate(small_world(n_frames=30))
        rep = per_class_report(s.gt, run_sequence(s.detections, synth_tracker_config()))
        assert rep.aggregate.idf1 == 1.0
        assert rep.aggregate.idsw == 0

    def test_track_scenario_interpolates_when_configured(self):
        from embedtrack.ablation import synth_tracker_config

        s = generate(small_world(n_frames=20, occlusions=[(0, 5, 7)]))
        cfg = synth_tracker_config(interpolate=True)
        pred = run_sequence(s.detections, cfg)
        tid = next(
            e.obj_id for e in pred.frames[4]
        )  # sole class, occluded object present before the gap
        # interpolation fills the occlusion gap for the surviving track
        filled = [f for f in range(5, 8) if any(e.obj_id == tid for e in pred.frames[f])]
        assert filled == [5, 6, 7]
