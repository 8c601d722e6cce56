import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from embedtrack.contrastive import (
    _AUX_NEG_RATIO,
    IGNORED,
    NEGATIVE,
    POSITIVE,
    VARIANTS,
    LossConfig,
    RegionSample,
    SampleBatch,
    _aux_pairs,
    _aux_value_and_grad,
    _embed_value_and_grad,
    _iou_balanced_draw,
    _loss_total,
    assign_samples,
    aux_selection_margin,
    cross_frame_nn_accuracy,
    finite_difference_gradient,
    loss_total,
    make_toy_problem,
    optimize_embeddings,
    sample_batch,
)
from embedtrack.geometry import BoundingBox
from oracles import (
    assign_samples_oracle,
    aux_pairs_oracle,
    aux_selection_margin_oracle,
    aux_value_and_grad_oracle,
    embed_value_and_grad_oracle,
    finite_difference_gradient_oracle,
    iou_balanced_draw_oracle,
    loss_total_oracle,
    optimize_embeddings_oracle,
    positivity_oracle,
)

UNIT = BoundingBox(0, 0, 1, 1)
# boxes on a small integer grid, zero widths and heights included
GRID_BOXES = st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
                       st.integers(0, 12), st.integers(0, 12), st.integers(0, 8), st.integers(0, 8))


def pos(ident, emb):
    return RegionSample(UNIT, ident, POSITIVE, 1.0, np.asarray(emb, dtype=float))


def neg(emb, max_iou=0.1):
    return RegionSample(UNIT, None, NEGATIVE, max_iou, np.asarray(emb, dtype=float))


def random_labeled_batch(rng, v=5, k=8, dim=6):
    def draw(n):
        out = []
        for _ in range(n):
            if rng.random() < 0.6:
                out.append(pos(int(rng.integers(3)), rng.standard_normal(dim)))
            else:
                out.append(neg(rng.standard_normal(dim)))
        return out

    while True:
        b = SampleBatch(key=draw(v), ref=draw(k))
        if b.positivity.any():
            return b


class TestRegionSample:
    def test_positive_needs_identity(self):
        with pytest.raises(ValueError, match="requires an identity"):
            RegionSample(UNIT, None, POSITIVE, 1.0)

    def test_negative_must_not_have_identity(self):
        with pytest.raises(ValueError, match="must not carry"):
            RegionSample(UNIT, 3, NEGATIVE, 0.0)

    def test_unknown_polarity(self):
        with pytest.raises(ValueError, match="polarity"):
            RegionSample(UNIT, None, "maybe", 0.0)


class TestAssignSamples:
    def gts(self):
        return [
            (BoundingBox(0, 0, 10, 10), 7),
            (BoundingBox(100, 100, 110, 110), 8),
        ]

    def test_thresholds(self):
        regions = [
            BoundingBox(0, 0, 10, 10),      # IoU 1.0 with gt 0 -> positive
            BoundingBox(0, 4, 10, 14),      # IoU 3/7 -> ignored
            BoundingBox(300, 300, 310, 310),  # IoU 0 -> negative
        ]
        out = assign_samples(regions, self.gts())
        assert [s.polarity for s in out] == [POSITIVE, IGNORED, NEGATIVE]
        assert out[0].identity == 7
        assert out[0].max_iou == 1.0
        assert out[1].identity is None

    def test_iou_tie_prefers_lower_gt_index(self):
        g = [(BoundingBox(0, 0, 10, 10), 5), (BoundingBox(0, 0, 10, 10), 6)]
        region = BoundingBox(0, 0, 10, 9)  # IoU 0.9 with both
        out = assign_samples([region], g)
        assert out[0].polarity == POSITIVE and out[0].identity == 5

    def test_no_ground_truth_all_negative(self):
        out = assign_samples([UNIT, UNIT], [])
        assert all(s.polarity == NEGATIVE and s.max_iou == 0.0 for s in out)

    def test_bands_are_strict(self):
        gt = [(BoundingBox(0, 0, 10, 10), 3)]
        out = assign_samples([BoundingBox(0, 0, 10, 7), BoundingBox(0, 0, 10, 3)], gt)
        assert [(s.max_iou, s.polarity) for s in out] == [(0.7, IGNORED), (0.3, IGNORED)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(GRID_BOXES, max_size=12), st.lists(st.tuples(GRID_BOXES, st.integers(0, 3)), max_size=5))
    @example([BoundingBox(0, 0, 10, 7), BoundingBox(0, 0, 10, 3), BoundingBox(0, 0, 10, 8)],
             [(BoundingBox(0, 0, 10, 10), 1)])  # IoU exactly 0.7 and 0.3, then 0.8
    @example([BoundingBox(0, 0, 10, 9)], [(BoundingBox(20, 0, 30, 9), 4), (BoundingBox(0, 0, 10, 10), 5),
                                          (BoundingBox(0, 0, 10, 10), 6)])  # a tie between gts 1 and 2
    @example([], [(UNIT, 0)])
    @example([UNIT, UNIT], [])
    def test_matches_per_region_oracle(self, regions, gts):
        # small integer boxes repeat IoUs, so regions tie between gts and land on the band edges
        def fields(samples):
            return [(s.box, s.identity, s.polarity, s.max_iou, type(s.max_iou)) for s in samples]
        assert fields(assign_samples(regions, gts)) == fields(assign_samples_oracle(regions, gts))


class TestSampleBatch:
    def test_positivity_matrix(self):
        b = SampleBatch(
            key=[pos(1, [1.0]), pos(2, [1.0]), neg([1.0])],
            ref=[pos(1, [1.0]), neg([1.0]), pos(2, [1.0])],
        )
        want = np.array([
            [True, False, False],
            [False, False, True],
            [False, False, False],
        ])
        assert np.array_equal(b.positivity, want)

    def test_embeddings_stacked(self):
        b = SampleBatch(key=[pos(1, [1.0, 2.0])], ref=[pos(1, [3.0, 4.0])])
        k, r = b.embeddings()
        assert k.shape == (1, 2) and r.shape == (1, 2)

    def test_missing_embedding_rejected(self):
        b = SampleBatch(key=[RegionSample(UNIT, 1, POSITIVE, 1.0)], ref=[pos(1, [1.0])])
        with pytest.raises(ValueError, match="without embeddings"):
            b.embeddings()


class TestSampleBatchDraw:
    # 600 regions a frame: about 540 key candidates, 180 reference positives
    # and 360 negatives, more than each part of a 128-key, 256-reference batch
    def labeled(self, rng, n=600):
        key, ref = [], []
        for pool in (key, ref):
            for _ in range(n):
                u = rng.random()
                if u < 0.3:
                    pool.append(pos(int(rng.integers(4)), rng.standard_normal(3)))
                elif u < 0.4:
                    pool.append(RegionSample(UNIT, None, IGNORED, 0.5,
                                             rng.standard_normal(3)))
                else:
                    pool.append(neg(rng.standard_normal(3),
                                    max_iou=float(rng.uniform(0, 0.3))))
        return key, ref

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(0)
        key, ref = self.labeled(rng)
        b1 = sample_batch(key, ref, rng_seed=42)
        b2 = sample_batch(key, ref, rng_seed=42)
        assert [id(s) for s in b1.key] == [id(s) for s in b2.key]
        assert [id(s) for s in b1.ref] == [id(s) for s in b2.ref]

    def test_ignored_never_drawn(self):
        rng = np.random.default_rng(1)
        key, ref = self.labeled(rng)
        b = sample_batch(key, ref, rng_seed=0)
        assert all(s.polarity != IGNORED for s in b.key + b.ref)

    def test_sizes_respected(self):
        rng = np.random.default_rng(2)
        key, ref = self.labeled(rng)
        b = sample_batch(key, ref, rng_seed=0)
        assert (len(b.key), len(b.ref)) == (128, 256)

    def test_reference_ratio_roughly_balanced(self):
        rng = np.random.default_rng(3)
        key, ref = self.labeled(rng)
        b = sample_batch(key, ref, rng_seed=0)
        n_pos = sum(1 for s in b.ref if s.polarity == POSITIVE)
        assert abs(n_pos - len(b.ref) / 2) <= 1

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="no positive pairs"):
            sample_batch([neg([1.0])], [neg([1.0])], rng_seed=0)


class TestLossConfig:
    @pytest.mark.parametrize("field,value", [
        ("gamma1", float("nan")), ("gamma1", float("inf")), ("gamma1", -0.5),
        ("gamma2", float("inf")), ("gamma2", float("nan")), ("gamma2", -1.0),
    ])
    def test_invalid_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            LossConfig(**{field: value})
        # a variant is built by replace, which checks it again
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(LossConfig(), **{field: value})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown loss variant 'x'"):
            LossConfig(variant="x")

    def test_zero_weights_allowed(self):
        cfg = LossConfig(gamma1=0.0, gamma2=0)
        assert (cfg.gamma1, cfg.gamma2) == (0.0, 0)

    @pytest.mark.parametrize("field,value", [
        ("gamma1", -1.0), ("gamma2", 0.5), ("variant", "x"), ("variant", "naive_multi"),
    ])
    def test_fields_cannot_be_assigned(self, field, value):
        # an assigned field would skip the checks: variant="x" scored naive_multi
        cfg = LossConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == LossConfig()


class TestLossValues:
    """Direct algebraic formulas, written out naively, as the reference."""

    def naive_per_positive(self, b, key_emb, ref_emb):
        """InfoNCE per (key, positive) pair from the literal definition."""
        dots = key_emb @ ref_emb.T
        out = []
        for i in range(len(b.key)):
            row = []
            for j in np.flatnonzero(b.positivity[i]):
                negs = np.flatnonzero(~b.positivity[i])
                denom = np.exp(dots[i, j]) + np.exp(dots[i, negs]).sum()
                row.append(-np.log(np.exp(dots[i, j]) / denom))
            out.append(row)
        return out

    def test_single_positive_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            b = random_labeled_batch(rng, v=4, k=6, dim=4)
            key_emb, ref_emb = b.embeddings()
            per = self.naive_per_positive(b, key_emb, ref_emb)
            active = [r for r in per if r]
            want = np.mean([np.mean(r) for r in active])
            got = loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0, variant="single_positive"))[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_naive_multi_sums_per_positive_terms(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            b = random_labeled_batch(rng, v=4, k=6, dim=4)
            key_emb, ref_emb = b.embeddings()
            per = self.naive_per_positive(b, key_emb, ref_emb)
            active = [r for r in per if r]
            want = np.mean([np.sum(r) for r in active])
            got = loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0, variant="naive_multi"))[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_accumulated_matches_naive_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            b = random_labeled_batch(rng, v=4, k=6, dim=4)
            key_emb, ref_emb = b.embeddings()
            dots = key_emb @ ref_emb.T
            terms = []
            for i in range(len(b.key)):
                ps = np.flatnonzero(b.positivity[i])
                ns = np.flatnonzero(~b.positivity[i])
                if ps.size == 0:
                    continue
                if ns.size == 0:
                    terms.append(0.0)
                    continue
                s = sum(
                    np.exp(dots[i, n] - dots[i, p]) for p in ps for n in ns
                )
                terms.append(np.log1p(s))
            want = np.mean(terms)
            got = loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0, variant="accumulated_multi"))[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_variants_coincide_with_one_positive_per_key(self):
        # with a single positive and shared negatives all three variants
        # reduce to the same value
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = 5
            b = SampleBatch(
                key=[pos(0, rng.standard_normal(dim))],
                ref=[pos(0, rng.standard_normal(dim))]
                + [neg(rng.standard_normal(dim)) for _ in range(4)],
            )
            vals = [loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0, variant=v))[0]
                    for v in ("single_positive", "naive_multi", "accumulated_multi")]
            assert abs(vals[0] - vals[1]) <= 1e-12
            assert abs(vals[0] - vals[2]) <= 1e-12

    def test_no_positive_pairs_rejected(self):
        b = SampleBatch(key=[neg([1.0, 0.0])], ref=[neg([0.0, 1.0])])
        with pytest.raises(ValueError, match="no positive pairs"):
            loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0))[0]

    def test_no_negatives_gives_zero_accumulated_loss(self):
        b = SampleBatch(key=[pos(0, [1.0, 0.0])], ref=[pos(0, [0.5, 0.5])])
        cfg = LossConfig(gamma1=1.0, gamma2=0.0, variant="accumulated_multi")
        assert loss_total(b, b.embeddings(), cfg)[0] == 0.0


class TestAuxLoss:
    def test_value_matches_hand_computation(self):
        key = [pos(0, [1.0, 0.0])]
        ref = [pos(0, [1.0, 0.0]), neg([0.0, 1.0]), neg([1.0, 1.0])]
        b = SampleBatch(key=key, ref=ref)
        # pairs: positive cos=1 target 1; negatives cos 0 and 1/sqrt(2),
        # both kept (ratio 3 x 1 positive > 2 negatives)
        want = ((1 - 1) ** 2 + 0.0**2 + (1 / np.sqrt(2)) ** 2) / 3
        got = loss_total(b, b.embeddings(), LossConfig(gamma1=0.0, gamma2=1.0))[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_hard_negative_selection_keeps_highest_cosine(self):
        key = [pos(0, [1.0, 0.0])]
        ref = [pos(0, [1.0, 0.0])] + [
            neg([np.cos(t), np.sin(t)]) for t in (0.1, 0.5, 1.0, 1.4, 1.5)
        ]
        b = SampleBatch(key=key, ref=ref)
        # three negatives per positive: keep the three closest to the key
        want = (0.0 + sum(np.cos(t) ** 2 for t in (0.1, 0.5, 1.0))) / 4
        got = loss_total(b, b.embeddings(), LossConfig(gamma1=0.0, gamma2=1.0))[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_selection_margin_reported(self):
        key = [pos(0, [1.0, 0.0])]
        ref = [pos(0, [1.0, 0.0])] + [
            neg([np.cos(t), np.sin(t)]) for t in (0.1, 0.5, 1.0, 1.4, 1.5)
        ]
        b = SampleBatch(key=key, ref=ref)
        margin = aux_selection_margin(b, b.embeddings(), 3)
        assert margin == pytest.approx(np.cos(1.0) - np.cos(1.4), abs=1e-12)

    def test_margin_infinite_when_nothing_excluded(self):
        b = SampleBatch(key=[pos(0, [1.0, 0.0])],
                        ref=[pos(0, [1.0, 0.0]), neg([0.0, 1.0])])
        assert aux_selection_margin(b, b.embeddings(), 3) == np.inf

    def test_zero_norm_rejected(self):
        b = SampleBatch(key=[pos(0, [0.0, 0.0])], ref=[pos(0, [1.0, 0.0])])
        with pytest.raises(ValueError, match="zero-norm"):
            loss_total(b, b.embeddings(), LossConfig(gamma1=0.0, gamma2=1.0))[0]


class TestGradients:
    @pytest.mark.parametrize("variant", ["single_positive", "naive_multi",
                                         "accumulated_multi"])
    def test_analytic_matches_finite_differences(self, variant):
        rng = np.random.default_rng(hash(variant) % 2**32)
        cfg = LossConfig(variant=variant)
        checked = 0
        while checked < 8:
            b = random_labeled_batch(rng, v=4, k=7, dim=5)
            emb = b.embeddings()
            if aux_selection_margin(b, emb, _AUX_NEG_RATIO) < 1e-3:
                continue
            _, (gk, gr) = loss_total(b, emb, cfg)
            fk, fr = finite_difference_gradient(b, emb, cfg)
            for a, f in ((gk, fk), (gr, fr)):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
                assert np.max(np.abs(a - f) / denom) < 1e-6
            checked += 1

    def test_gradient_zero_at_symmetric_optimum(self):
        # identical positive embeddings, negatives orthogonal and far:
        # embedding loss gradient on the positive direction vanishes as the
        # loss saturates; just check descent direction reduces the loss
        rng = np.random.default_rng(0)
        b = random_labeled_batch(rng, v=4, k=7, dim=5)
        emb = b.embeddings()
        val, (gk, gr) = loss_total(b, emb, LossConfig())
        step = 1e-3 / max(np.abs(gk).max(), np.abs(gr).max())
        val2, _ = loss_total(b, (emb[0] - step * gk, emb[1] - step * gr), LossConfig())
        assert val2 < val

    def test_rotation_invariance(self):
        # both loss terms depend on dot products / cosines only
        rng = np.random.default_rng(1)
        b = random_labeled_batch(rng, v=4, k=7, dim=5)
        emb = b.embeddings()
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        val, _ = loss_total(b, emb, LossConfig())
        val_rot, _ = loss_total(b, (emb[0] @ q, emb[1] @ q), LossConfig())
        assert abs(val - val_rot) <= 1e-12 * max(1.0, abs(val))

    def test_weights_scale_constituents(self):
        rng = np.random.default_rng(2)
        b = random_labeled_batch(rng, v=4, k=7, dim=5)
        e_only, _ = loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0))
        a_only, _ = loss_total(b, b.embeddings(), LossConfig(gamma1=0.0, gamma2=1.0))
        both, _ = loss_total(b, b.embeddings(), LossConfig(gamma1=0.25, gamma2=1.0))
        assert both == pytest.approx(0.25 * e_only + a_only, abs=1e-12)


class TestToyOptimization:
    def test_loss_decreases(self):
        p = make_toy_problem(4, n_frames=5, dim=8, seed=0)
        _, trace = optimize_embeddings(p, LossConfig(), steps=50, lr=0.5, rng_seed=0)
        assert trace[-1][1] < trace[0][1]

    def test_reaches_perfect_nearest_neighbor_accuracy(self):
        p = make_toy_problem(8, n_frames=8, dim=16, seed=0)
        params, _ = optimize_embeddings(p, LossConfig(), steps=200, lr=0.5, rng_seed=0)
        assert cross_frame_nn_accuracy(params, p.identity, p.frame) == 1.0

    def test_deterministic(self):
        p1 = make_toy_problem(4, n_frames=5, dim=8, seed=3)
        p2 = make_toy_problem(4, n_frames=5, dim=8, seed=3)
        a, _ = optimize_embeddings(p1, LossConfig(), steps=20, lr=0.5, rng_seed=1)
        b, _ = optimize_embeddings(p2, LossConfig(), steps=20, lr=0.5, rng_seed=1)
        assert np.array_equal(a, b)

    def test_needs_two_identities(self):
        with pytest.raises(ValueError, match="two identities"):
            make_toy_problem(1, n_frames=3, dim=4, seed=0)

    @pytest.mark.parametrize("steps", [1, 7])
    def test_each_pair_checked_once_per_run(self, monkeypatch, steps):
        """The entry check runs once per consecutive-frame pair, before the
        first step; the steps call the unchecked kernel."""
        import embedtrack.contrastive as c

        checks, validations = [], []
        check, validate = c._check_embeddings, c.validate_embeddings
        monkeypatch.setattr(c, "_check_embeddings", lambda *a: checks.append(1) or check(*a))
        monkeypatch.setattr(c, "validate_embeddings",
                            lambda *a, **k: validations.append(1) or validate(*a, **k))
        monkeypatch.setattr(c, "loss_total", lambda *a: pytest.fail("checked entry called"))
        p = make_toy_problem(4, n_frames=5, dim=8, seed=0)
        _, trace = optimize_embeddings(p, LossConfig(), steps=steps, lr=0.5, rng_seed=0)
        assert len(trace) == steps and len(checks) == 4 and len(validations) == 8

    @pytest.mark.parametrize("spoil, message", [
        (lambda p: p.params.__setitem__((0, 2), np.nan), "key embeddings contain non-finite"),
        (lambda p: p.params.__setitem__((19, 0), np.inf), "ref embeddings contain non-finite"),
        (lambda p: setattr(p, "params", p.params[:-1]), "embedding counts do not match"),
        (lambda p: setattr(p, "batch", SampleBatch(key=[neg([1.0])] * 4, ref=[neg([1.0])] * 4)),
         "batch has no positive pairs"),
    ])
    def test_bad_input_rejected_before_the_first_step(self, monkeypatch, spoil, message):
        import embedtrack.contrastive as c

        p = make_toy_problem(4, n_frames=5, dim=8, seed=0)
        spoil(p)
        before = p.params.copy()
        monkeypatch.setattr(c, "_loss_total", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=message):
            optimize_embeddings(p, LossConfig(), steps=3, lr=0.5, rng_seed=0)
        assert np.array_equal(p.params, before, equal_nan=True)

    def test_divergence_reported_with_step(self):
        p = make_toy_problem(4, n_frames=5, dim=8, seed=0)
        with pytest.raises(RuntimeError, match="diverged at step"):
            optimize_embeddings(p, LossConfig(), steps=200, lr=1e4, rng_seed=0)

    def test_nn_accuracy_on_known_embeddings(self):
        # two identities, two frames; identity 1 drifts so that its frame-0
        # sample points at the other identity's frame-1 sample
        params = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, -0.1]])
        identity = np.array([0, 1, 0, 1])
        frame = np.array([0, 0, 1, 1])
        assert cross_frame_nn_accuracy(params, identity, frame) == 0.5

    def test_nn_accuracy_skips_a_frame_whose_next_frame_is_missing(self):
        # frame 1 has no frame 2; only frame 3's samples look ahead, to frame 4,
        # and both of them point at the wrong identity
        params = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        identity = np.array([0, 1, 0, 1, 0, 1])
        frame = np.array([1, 1, 3, 3, 4, 4])
        assert cross_frame_nn_accuracy(params, identity, frame) == 0.0


# ---------------------------------------------------------------------------
# Matrix-form losses against the per-row reference loops in tests/oracles.py
# ---------------------------------------------------------------------------

# A label is an identity (positive sample) or None (negative sample).
_labels = st.lists(st.none() | st.integers(0, 2), min_size=1, max_size=7)


@st.composite
def labeled_batches(draw):
    """(key labels, ref labels, dim, seed); embeddings are drawn from the
    seed so the search explores label structure, not float conditioning."""
    return draw(_labels), draw(_labels), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


def build_batch(key_labels, ref_labels, dim, seed):
    rng = np.random.default_rng(seed)

    def sample(label):
        emb = rng.standard_normal(dim)
        return neg(emb) if label is None else pos(label, emb)

    return SampleBatch(key=[sample(x) for x in key_labels], ref=[sample(x) for x in ref_labels])


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestMatrixFormEquivalence:
    @given(labeled_batches(), st.integers(0, 4))
    # every ref positive: key 0 has no negative, keys None and 1 no positive
    @example(([0, None, 1], [0, 0, 0], 4, 0), 3)
    @example(([0, 1, None], [0, None, 1, 1], 3, 1), 3)  # a key with no positive
    @example(([0], [0, None, 1, 0], 5, 3), 3)  # single row
    @example(([1], [1], 2, 4), 3)  # single row, single ref, no negative
    def test_loss_total_matches_per_row_oracle(self, drawn, neg_ratio):
        b = build_batch(*drawn)
        emb = b.embeddings()
        if b.positivity.any():
            # loss_total keeps three negatives per positive; the kernel takes any ratio
            got = _aux_value_and_grad(b.positivity, *emb, neg_ratio)
            want = aux_value_and_grad_oracle(b.positivity, *emb, neg_ratio)
            for g, w in zip(got, want):
                assert_close(g, w)
        for variant in VARIANTS:
            for gamma1, gamma2 in ((0.25, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
                cfg = LossConfig(gamma1=gamma1, gamma2=gamma2, variant=variant)
                if not b.positivity.any() and (gamma1 or gamma2):
                    with pytest.raises(ValueError, match="no positive pairs"):
                        loss_total(b, emb, cfg)
                    continue
                value, (gk, gr) = loss_total(b, emb, cfg)
                want, (wk, wr) = loss_total_oracle(b.positivity, *emb, cfg)
                assert_close(value, want)
                assert_close(gk, wk)
                assert_close(gr, wr)

    @given(st.data())
    def test_embedding_loss_matches_oracle_on_any_positivity(self, data):
        # Positivity from identities never mixes a key without negatives with
        # a key that has both; an arbitrary boolean matrix does.
        v, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        dim = data.draw(st.integers(1, 5))
        cells = st.lists(st.booleans(), min_size=v * k, max_size=v * k).filter(any)
        positivity = np.array(data.draw(cells)).reshape(v, k)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        key_emb, ref_emb = rng.standard_normal((v, dim)), rng.standard_normal((k, dim))
        for variant in VARIANTS:
            got = _embed_value_and_grad(positivity, key_emb, ref_emb, variant)
            want = embed_value_and_grad_oracle(positivity, key_emb, ref_emb, variant)
            for g, w in zip(got, want):
                assert_close(g, w)

    @given(st.data())
    def test_hard_negative_selection_equals_stable_argsort(self, data):
        # Integer-valued cosines make ties at the cutoff common; neg_ratio 0
        # selects no negative and a large ratio selects all of them. A batch
        # without positive pairs stops at the loss entry, before selection.
        v, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        cells = st.lists(st.booleans(), min_size=v * k, max_size=v * k).filter(any)
        positivity = np.array(data.draw(cells)).reshape(v, k)
        values = st.lists(st.integers(-2, 2), min_size=v * k, max_size=v * k)
        cos = np.array(data.draw(values), dtype=float).reshape(v, k)
        neg_ratio = data.draw(st.sampled_from([0, 1, 2, 3, v * k]))
        cells, targets = _aux_pairs(positivity, cos, neg_ratio)
        got = (*np.divmod(cells, k), targets)
        want = aux_pairs_oracle(positivity, cos, neg_ratio)
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and g.dtype == w.dtype

    @given(labeled_batches(), st.integers(0, 4), st.data())
    def test_selection_margin_equals_full_sort(self, drawn, neg_ratio, data):
        b = build_batch(*drawn)
        # small integer embeddings repeat cosines, so margins of 0 occur
        dim = drawn[2]
        rows = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
        key_emb = np.array([data.draw(rows) for _ in b.key], dtype=float)
        ref_emb = np.array([data.draw(rows) for _ in b.ref], dtype=float)
        got = aux_selection_margin(b, (key_emb, ref_emb), neg_ratio)
        assert got == aux_selection_margin_oracle(b.positivity, key_emb, ref_emb, neg_ratio)

    @given(st.lists(st.sampled_from([None, IGNORED, -1, 0, 2**70]) | st.integers(0, 3)),
           st.lists(st.sampled_from([None, IGNORED, -1, 0, 2**70]) | st.integers(0, 3)))
    def test_positivity_equals_double_loop(self, key_labels, ref_labels):
        def sample(label):
            if label is None:
                return neg([1.0])
            if label == IGNORED:
                return RegionSample(UNIT, None, IGNORED, 0.5)
            return pos(label, [1.0])

        key = [sample(x) for x in key_labels]
        ref = [sample(x) for x in ref_labels]
        got = SampleBatch(key=key, ref=ref).positivity
        want = positivity_oracle(key, ref)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.data())
    def test_iou_balanced_draw_equals_per_negative_binning(self, data):
        # max IoUs on and around the bin edges, outside [0, upper) and NaN
        n_bins = data.draw(st.integers(1, 4))
        upper = data.draw(st.sampled_from([0.3, 0.5, 1.0]))
        edges = np.linspace(0.0, upper, n_bins + 1).tolist()
        values = st.sampled_from(edges + [-0.1, 0.0, upper + 0.2, float("nan")]) | st.floats(0, 1)
        max_ious = np.array(data.draw(st.lists(values, min_size=1, max_size=30)))
        negatives = data.draw(st.lists(st.integers(0, len(max_ious) - 1), unique=True))
        count = data.draw(st.integers(0, len(negatives) + 2))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = _iou_balanced_draw(negatives, max_ious, count, n_bins, upper,
                                 np.random.default_rng(seed))
        want = iou_balanced_draw_oracle(negatives, max_ious, count, n_bins, upper,
                                        np.random.default_rng(seed))
        assert got == want


# ---------------------------------------------------------------------------
# One kernel over a stack of pairs against the same calls one slice at a time
# ---------------------------------------------------------------------------

GAMMAS = ((0.25, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))


class TestStackedKernel:
    @given(labeled_batches(), st.integers(1, 4), st.integers(0, 4), st.data())
    def test_loss_total_on_a_stack_equals_one_slice_at_a_time(self, drawn, stack, neg_ratio, data):
        # small integer embeddings repeat cosines, so each slice has its own
        # ties at the hard-negative cutoff
        key_labels, ref_labels, dim, _ = drawn
        positivity = build_batch(*drawn).positivity
        assume(positivity.any())
        row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
        key_emb, ref_emb = (
            np.array([[data.draw(row) for _ in labels] for _ in range(stack)], dtype=float)
            for labels in (key_labels, ref_labels))
        # loss_total keeps three negatives per positive; the kernel takes any ratio
        value, gk, gr = _aux_value_and_grad(positivity, key_emb, ref_emb, neg_ratio)
        for s in range(stack):
            want, wk, wr = _aux_value_and_grad(positivity, key_emb[s], ref_emb[s], neg_ratio)
            assert value[s] == want
            assert np.array_equal(gk[s], wk) and np.array_equal(gr[s], wr)
        for variant in VARIANTS:
            for gamma1, gamma2 in GAMMAS:
                cfg = LossConfig(gamma1=gamma1, gamma2=gamma2, variant=variant)
                value, (gk, gr) = _loss_total(positivity, key_emb, ref_emb, cfg)
                assert value.shape == (stack,)
                for s in range(stack):
                    want, (wk, wr) = _loss_total(positivity, key_emb[s], ref_emb[s], cfg)
                    assert value[s] == want
                    assert np.array_equal(gk[s], wk) and np.array_equal(gr[s], wr)

    @given(st.data())
    def test_hard_negative_selection_on_a_stack_equals_stable_argsort(self, data):
        stack, v, k = (data.draw(st.integers(1, n)) for n in (4, 6, 8))
        cells = st.lists(st.booleans(), min_size=v * k, max_size=v * k).filter(any)
        positivity = np.array(data.draw(cells)).reshape(v, k)
        values = st.lists(st.integers(-2, 2), min_size=stack * v * k, max_size=stack * v * k)
        cos = np.array(data.draw(values), dtype=float).reshape(stack, v, k)
        neg_ratio = data.draw(st.sampled_from([0, 1, 2, 3, v * k]))
        got, targets = _aux_pairs(positivity, cos, neg_ratio)
        for s in range(stack):
            rows, cols, want = aux_pairs_oracle(positivity, cos[s], neg_ratio)
            assert np.array_equal(got[s], rows * k + cols) and np.array_equal(targets, want)


class TestStackedCallers:
    """The trainer and the finite differences give the bits of the loops
    that called the kernel once per pair and twice per entry."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("gammas", GAMMAS[:3])
    # one frame has no pair, two frames one
    @pytest.mark.parametrize("ids, frames, dim", [(4, 5, 8), (3, 2, 4), (5, 1, 3)])
    def test_optimize_equals_per_pair_loop(self, variant, gammas, ids, frames, dim):
        p = make_toy_problem(ids, n_frames=frames, dim=dim, seed=frames)
        cfg = LossConfig(gamma1=gammas[0], gamma2=gammas[1], variant=variant)
        params, trace = optimize_embeddings(p, cfg, steps=15, lr=0.5, rng_seed=ids)
        want_params, want_trace = optimize_embeddings_oracle(p, cfg, steps=15, lr=0.5, rng_seed=ids)
        assert np.array_equal(params, want_params)
        assert trace == want_trace

    @staticmethod
    def spy_on_stacks(monkeypatch):
        """The stack size of each kernel call finite_difference_gradient makes."""
        import embedtrack.contrastive as c

        sizes, kernel = [], c._loss_total

        def spy(positivity, key_emb, ref_emb, cfg):
            sizes.append(len(key_emb))
            return kernel(positivity, key_emb, ref_emb, cfg)

        monkeypatch.setattr(c, "_loss_total", spy)
        return sizes

    @pytest.mark.parametrize("variant", VARIANTS)
    # the key's 8 entries are more than, as many as and fewer than a chunk;
    # the reference's 24 fill four, three and three chunks
    @pytest.mark.parametrize("chunk", [7, 8, 9])
    def test_finite_differences_equal_per_entry_loop(self, monkeypatch, variant, chunk):
        import embedtrack.contrastive as c

        b = build_batch([0], [0, None, 1], 8, seed=chunk)
        emb = b.embeddings()
        per_slice = b.positivity.size + emb[0].size + emb[1].size
        monkeypatch.setattr(c, "_FD_STACK_FLOATS", 2 * chunk * per_slice)
        sizes = self.spy_on_stacks(monkeypatch)
        cfg = LossConfig(variant=variant)
        fk, fr = finite_difference_gradient(b, emb, cfg)
        wk, wr = finite_difference_gradient_oracle(b.positivity, *emb, cfg)
        assert np.array_equal(fk, wk) and np.array_equal(fr, wr)
        chunks = [[chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0) for n in (8, 24)]
        assert sizes == [2 * n for n in chunks[0] + chunks[1]]

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_stacks_stay_within_the_float_budget(self, monkeypatch, dim):
        import embedtrack.contrastive as c

        b = random_labeled_batch(np.random.default_rng(dim), v=6, k=10, dim=dim)
        emb = b.embeddings()
        sizes = self.spy_on_stacks(monkeypatch)
        finite_difference_gradient(b, emb, LossConfig())
        per_slice = b.positivity.size + emb[0].size + emb[1].size
        assert 2 < max(sizes) and max(sizes) * per_slice <= c._FD_STACK_FLOATS
