import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from embedtrack.similarity import (
    _bisoftmax,
    _listed_best,
    _pair_bisoftmax,
    _stable_softmax,
    cosine_matrix,
    masked_bisoftmax,
    validate_embeddings,
)
from embedtrack.tracker import _BETA_MATCH, TrackerConfig
from oracles import listed_bisoftmax_oracle, masked_bisoftmax_oracle, stable_softmax_oracle


def rand_emb(rng, n, d, scale=1.0):
    return scale * rng.standard_normal((n, d))


class TestValidateEmbeddings:
    def test_promotes_1d(self):
        assert validate_embeddings(np.ones(4)).shape == (1, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 3, expected 4"):
            validate_embeddings(np.ones((2, 3)), dim=4)

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_embeddings(np.array([[1.0, np.nan]]))

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"detection embeddings must be a 2-D array, got shape \(2, 2, 2\)"):
            cosine_matrix(np.ones((2, 2, 2)), np.ones((2, 2)))


class TestCosineMatrix:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        a, b = rand_emb(rng, 5, 8), rand_emb(rng, 3, 8)
        m = cosine_matrix(a, b)
        for i in range(5):
            for j in range(3):
                want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                assert m[i, j] == pytest.approx(want, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        m = cosine_matrix(rand_emb(rng, 10, 4), rand_emb(rng, 10, 4))
        assert np.all(m <= 1.0 + 1e-12) and np.all(m >= -1.0 - 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rand_emb(rng, 4, 6), rand_emb(rng, 4, 6)
        assert np.allclose(cosine_matrix(a, b), cosine_matrix(3.7 * a, 0.2 * b), atol=1e-12)

    def test_zero_norm_named_in_error(self):
        a = np.ones((2, 3))
        a[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm detection embedding at index 1"):
            cosine_matrix(a, np.ones((1, 3)))
        with pytest.raises(ValueError, match="zero-norm candidate embedding at index 1"):
            cosine_matrix(np.ones((1, 3)), a)


class TestBisoftmax:
    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(3)
        m = masked_bisoftmax(rand_emb(rng, 6, 8), rand_emb(rng, 9, 8))
        assert np.all(m > 0.0) and np.all(m <= 1.0)

    def test_single_pair_is_exactly_one(self):
        rng = np.random.default_rng(4)
        m = masked_bisoftmax(rand_emb(rng, 1, 8), rand_emb(rng, 1, 8))
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_component_normalization(self):
        rng = np.random.default_rng(5)
        a, b = rand_emb(rng, 4, 8), rand_emb(rng, 7, 8)
        row, col = _stable_softmax(a @ b.T, axis=1), _stable_softmax(a @ b.T, axis=0)
        assert np.allclose(row.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(col.sum(axis=0), 1.0, atol=1e-12)
        # the kernel is the mean of exactly these two terms
        assert np.array_equal(_bisoftmax(a, b, None), 0.5 * (row + col))

    def test_shift_invariance(self):
        # appending a constant coordinate adds the same constant to every
        # dot product; the similarity matrix must not move
        rng = np.random.default_rng(6)
        a, b = rand_emb(rng, 5, 8), rand_emb(rng, 6, 8)
        c = 37.5
        a2 = np.hstack([a, np.full((5, 1), 5.0)])
        b2 = np.hstack([b, np.full((6, 1), c / 5.0)])
        assert np.allclose(masked_bisoftmax(a, b), masked_bisoftmax(a2, b2), atol=1e-12)

    def test_overflow_safe(self):
        rng = np.random.default_rng(7)
        m = masked_bisoftmax(rand_emb(rng, 4, 8, scale=1e3), rand_emb(rng, 5, 8, scale=1e3))
        assert np.all(np.isfinite(m))

    def test_mutual_nearest_neighbor_scores_high(self):
        # orthogonal one-hot embeddings: every pair is mutually nearest
        e = 10.0 * np.eye(4)
        m = masked_bisoftmax(e, e)
        assert np.all(np.diag(m) > 0.99)
        assert np.all(m[~np.eye(4, dtype=bool)] < 0.01)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            masked_bisoftmax(np.zeros((0, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="at least one"):
            masked_bisoftmax(np.ones((2, 4)), np.zeros((0, 4)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            masked_bisoftmax(np.ones((2, 4)), np.ones((2, 5)))


class TestMaskedBisoftmax:
    def test_all_true_equals_unmasked(self):
        rng = np.random.default_rng(8)
        a, b = rand_emb(rng, 5, 8), rand_emb(rng, 6, 8)
        mask = np.ones((5, 6), dtype=bool)
        assert np.allclose(masked_bisoftmax(a, b, mask), masked_bisoftmax(a, b), atol=1e-15)

    def test_disallowed_entries_zero(self):
        rng = np.random.default_rng(9)
        a, b = rand_emb(rng, 4, 8), rand_emb(rng, 4, 8)
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = False
        m = masked_bisoftmax(a, b, mask)
        assert m[1, 2] == 0.0

    def test_masking_renormalizes_over_admissible(self):
        rng = np.random.default_rng(10)
        a, b = rand_emb(rng, 3, 8), rand_emb(rng, 5, 8)
        mask = np.ones((3, 5), dtype=bool)
        mask[0, 3:] = False
        m = masked_bisoftmax(a, b, mask)
        # row softmax over the remaining candidates equals a bi-softmax
        # computed on the reduced candidate set (row component only)
        from embedtrack.similarity import _stable_softmax
        logits = a @ b.T
        reduced = _stable_softmax(logits[0:1, :3], axis=1)
        full_row = _stable_softmax(np.where(mask, logits, -np.inf), axis=1)
        assert np.allclose(full_row[0, :3], reduced[0], atol=1e-12)

    def test_fully_masked_row_gives_zeros(self):
        rng = np.random.default_rng(11)
        a, b = rand_emb(rng, 2, 4), rand_emb(rng, 3, 4)
        mask = np.ones((2, 3), dtype=bool)
        mask[0] = False
        m = masked_bisoftmax(a, b, mask)
        assert np.all(m[0] == 0.0)
        assert np.all(np.isfinite(m))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="mask shape"):
            masked_bisoftmax(np.ones((2, 4)), np.ones((3, 4)), np.ones((2, 2), dtype=bool))


def same_bits(a, b):
    """Equal shape and the same float64 bit pattern in every entry."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def scattered(sim, i, j, shape):
    out = np.zeros(shape)
    out[i, j] = sim
    return out


def kernel_reference(dets, cands, allowed):
    """The kernel's two arithmetics, chosen by its rule: the dense two-pass
    softmax when every pair is admitted and every logit of the product is
    finite, else the per-pair loop over the admitted pairs, scattered."""
    shape = (len(dets), len(cands))
    allowed = np.ones(shape, dtype=bool) if allowed is None else allowed
    if allowed.all() and np.isfinite(dets @ cands.T).all():
        return masked_bisoftmax_oracle(dets, cands, allowed)
    sim, i, j = listed_bisoftmax_oracle(dets, cands, *np.nonzero(allowed))
    return scattered(sim, i, j, shape)


# how near a tie or _BETA_MATCH a dense similarity may be for the two
# arithmetics' rounding to decide otherwise
NEAR = 1e-9
BETA_OBJ, BETA_NEW = TrackerConfig().beta_obj, TrackerConfig().beta_new


def decisions(sim, scores, n_tracks):
    """What ``step`` decides from an (N, M) similarity matrix (0 where no
    pair is scored): per detection, its best candidates with their ties
    (for a detection with a positive best), whether the best is above
    _BETA_MATCH, and its outcome in the greedy claim: a track, a backdrop
    that consumes it, a new track (score above beta_new) or a backdrop."""
    top = sim.max(axis=1)
    ties = [tuple(np.flatnonzero(row == t).tolist()) if t > 0.0 else () for row, t in zip(sim, top)]
    above = (top > _BETA_MATCH).tolist()
    best = np.argmax(sim, axis=1).tolist()
    outcome, claimed = [None] * len(scores), set()
    for d in sorted(range(len(scores)), key=lambda d: (-scores[d], d)):
        if above[d] and scores[d] > BETA_OBJ:
            if best[d] >= n_tracks:
                outcome[d] = "consumed"
                continue
            if best[d] not in claimed:
                claimed.add(best[d])
                outcome[d] = ("track", best[d])
                continue
        outcome[d] = "spawn" if scores[d] > BETA_NEW else "backdrop"
    return ties, above, outcome


def near_tie_or_threshold(dense):
    """Whether some detection's positive best dense similarity lies within
    NEAR of another of its similarities or of _BETA_MATCH."""
    top = dense.max(axis=1, keepdims=True)
    tie = ((np.abs(dense - top) <= NEAR).sum(axis=1) > 1) & (top[:, 0] > 0.0)
    return bool(tie.any() or (np.abs(top - _BETA_MATCH) <= NEAR).any())


def decisions_differ(got, dense, scores, n_tracks):
    """Whether ``got`` decides otherwise than the dense kernel's ``dense``;
    asserts that it decides the same unless a dense similarity lies near a
    tie or the threshold."""
    differ = decisions(got, scores, n_tracks) != decisions(dense, scores, n_tracks)
    assert not differ or near_tie_or_threshold(dense)
    return differ


@st.composite
def kernel_inputs(draw):
    """Detection and candidate embeddings, tied rows and overflowing scales
    included, and a mask that may leave rows or columns empty."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 10.0, 1e3, 1e155]))
    cells = st.integers(-3, 3).map(float)
    dets = scale * np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    cands = scale * np.array(draw(st.lists(cells, min_size=m * d, max_size=m * d))).reshape(m, d)
    allowed = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))).reshape(n, m)
    return dets, cands, allowed


class TestKernelMatchesTwoPassSoftmax:
    """The one kernel, bit for bit, against the two-pass softmax it
    replaced (``tests/oracles.py``) where it is dense, and against the
    per-pair loop where it lists pairs; on decisions, against the dense
    two-pass softmax everywhere."""

    @given(kernel_inputs())
    @example((np.ones((2, 3)), np.ones((4, 3)), np.zeros((2, 4), dtype=bool)))
    def test_masked(self, inputs):
        dets, cands, allowed = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            got = masked_bisoftmax(dets, cands, allowed)
            want = kernel_reference(dets, cands, allowed)
            dense = masked_bisoftmax_oracle(dets, cands, allowed)
        assert same_bits(got, want)
        decisions_differ(got, dense, np.linspace(0.3, 0.9, len(dets)), len(cands) // 2)

    @given(kernel_inputs())
    def test_unmasked(self, inputs):
        dets, cands, _ = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            logits = dets @ cands.T
            matrix = masked_bisoftmax(dets, cands)
            kernel = _bisoftmax(dets, cands, None)
            want = kernel_reference(dets, cands, None)
        assert same_bits(matrix, want) and same_bits(kernel, matrix)
        if np.isfinite(logits).all():
            want_row, want_col = stable_softmax_oracle(logits, axis=1), stable_softmax_oracle(logits, axis=0)
            row, col = _stable_softmax(logits, axis=1), _stable_softmax(logits, axis=0)
            assert same_bits(row, want_row) and same_bits(col, want_col)
            assert same_bits(matrix, 0.5 * (want_row + want_col))

    def test_scale_1e3_case(self):
        rng = np.random.default_rng(7)
        a, b = rand_emb(rng, 4, 8, scale=1e3), rand_emb(rng, 5, 8, scale=1e3)
        assert same_bits(masked_bisoftmax(a, b),
                         masked_bisoftmax_oracle(a, b, np.ones((4, 5), dtype=bool)))

    @given(st.lists(st.sampled_from([0.0, 1.5, -2.0, 1e155, -1e155, 1e300]), min_size=10, max_size=10),
           st.none() | st.lists(st.booleans(), min_size=6, max_size=6).map(lambda c: np.array(c).reshape(2, 3)))
    def test_non_finite_logits_drop_out(self, cells, allowed):
        """A pair whose logit overflows to inf or nan is scored 0 and left
        out of its row's and its column's softmax, as a disallowed one is."""
        dets, cands = np.array(cells[:4]).reshape(2, 2), np.array(cells[4:]).reshape(3, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.einsum("nd,md->nm", dets, cands))
            got = masked_bisoftmax(dets, cands, allowed)
            want = kernel_reference(dets, cands, allowed)
        assert same_bits(got, want) and np.isfinite(got).all()
        assert np.all(got[~finite] == 0.0)

    def test_each_input_validated_once(self, monkeypatch):
        """The entry checks each input once; the kernel behind it checks
        nothing and trusts its arrays."""
        import embedtrack.similarity as sim

        calls = []
        real = sim.validate_embeddings
        monkeypatch.setattr(sim, "validate_embeddings",
                            lambda *a, **k: calls.append(k.get("name")) or real(*a, **k))
        a = np.ones((2, 3))
        sim.masked_bisoftmax(a, a, np.ones((2, 2), dtype=bool))
        sim.masked_bisoftmax(a, a)
        sim._bisoftmax(a, a, None)
        sim._bisoftmax(a, a, np.ones((2, 2), dtype=bool))
        assert calls == ["detection embeddings", "candidate embeddings"] * 2

    def test_logits_checked_for_finiteness_once(self, monkeypatch):
        shapes = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: shapes.append(np.shape(x)) or real(x, *a, **k))
        dets, cands = np.ones((2, 4)), np.ones((3, 4))
        masked_bisoftmax(dets, cands, np.ones((2, 3), dtype=bool))
        _bisoftmax(dets, cands, None)
        assert shapes.count((2, 3)) == 2


@st.composite
def listed_pair_inputs(draw):
    """Embeddings and an admitted-pair mask whose rows hold 0, 1, 2, 3, 9 or
    every entry and whose columns may hold nine or more, the shapes N == 1
    and M == 1 included. Small-integer embeddings tie; at 1e155 logits
    overflow to inf."""
    shape = draw(st.sampled_from(["both", "one detection", "one candidate"]))
    n = 1 if shape == "one detection" else draw(st.integers(1, 300 if shape == "one candidate" else 60))
    m = 1 if shape == "one candidate" else draw(st.integers(1, 60))
    d = draw(st.sampled_from([1, 4, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dets, cands = rng.integers(-3, 4, (n, d)).astype(float), rng.integers(-3, 4, (m, d)).astype(float)
    else:
        dets, cands = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    scale = draw(st.sampled_from([1.0, 10.0, 1e155]))
    allowed = np.zeros((n, m), dtype=bool)
    for row, count in enumerate(rng.choice([0, 1, 2, 3, 9, m], size=n).tolist()):
        allowed[row, rng.choice(m, min(count, m), replace=False)] = True
    if draw(st.booleans()):
        allowed[:, rng.integers(m)] |= rng.random(n) < 0.8
    return scale * dets, scale * cands, allowed


class TestListedPairsMatchDenseKernel:
    """The listed pairs' kernel, bit for bit, against the per-pair loop of
    ``tests/oracles.py``, and on decisions against the dense masked kernel
    there."""

    @given(listed_pair_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bits_and_best_candidates(self, inputs):
        dets, cands, allowed = inputs
        i, j = np.nonzero(allowed)
        # the pairs in any order within their rows, as the callers list them
        shuffle = np.lexsort((np.random.default_rng(0).random(len(i)), i))
        i, j = i[shuffle], j[shuffle]
        with np.errstate(over="ignore", invalid="ignore"):
            dense = masked_bisoftmax_oracle(dets, cands, allowed)
            finite = np.isfinite(dets @ cands.T)
            sim, pi, pj = _pair_bisoftmax(dets, cands, i, j)
            want, wi, wj = listed_bisoftmax_oracle(dets, cands, i, j)
        assert _pair_set(pi, pj) == _pair_set(*np.nonzero(allowed & finite))
        assert same_bits(sim, want) and np.array_equal(pi, wi) and np.array_equal(pj, wj)
        got = scattered(sim, pi, pj, allowed.shape)
        decisions_differ(got, dense, np.linspace(0.3, 0.9, len(dets)), len(cands) // 2)
        # _listed_best picks as argmax picks in the scattered matrix
        best, conf = _listed_best(sim, pi, pj, len(dets))
        scored = got.max(axis=1) > 0.0
        assert np.array_equal(best[scored], np.argmax(got, axis=1)[scored])
        assert same_bits(conf[scored], got.max(axis=1)[scored])
        assert np.all(conf[~scored] <= 0.0)


@st.composite
def near_decision_inputs(draw):
    """Small tied frames: small-integer embeddings, at times nudged by a
    few ulps or by 1e-12, an admitted-pair mask, detection scores at and
    around beta_obj and beta_new, and how many candidates are tracks.
    Symmetric draws put similarities at ties and at exactly 0.5."""
    n, m, d = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dets, cands = rng.integers(-2, 3, (n, d)).astype(float), rng.integers(-2, 3, (m, d)).astype(float)
    nudge = draw(st.sampled_from([0.0, 1e-15, 1e-12]))
    dets = dets + nudge * rng.standard_normal((n, d))
    allowed = rng.random((n, m)) < draw(st.sampled_from([0.5, 0.8, 1.0]))
    scores = rng.choice([0.3, BETA_OBJ, 0.4, BETA_NEW, 0.7, 0.9], size=n)
    return dets, cands, allowed, scores, draw(st.integers(0, m))


@given(near_decision_inputs())
@settings(max_examples=500, deadline=None)
def test_decisions_differ_from_the_dense_kernel_only_at_ties_and_thresholds(inputs):
    """The listed arithmetic decides as the dense kernel does, unless a
    dense similarity lies within NEAR of a tie or of _BETA_MATCH. How often
    it decides otherwise there is reported as a hypothesis event
    (``--hypothesis-show-statistics``)."""
    dets, cands, allowed, scores, n_tracks = inputs
    dense = masked_bisoftmax_oracle(dets, cands, allowed)
    got = scattered(*_pair_bisoftmax(dets, cands, *np.nonzero(allowed)), allowed.shape)
    differ = decisions_differ(got, dense, scores, n_tracks)
    if near_tie_or_threshold(dense):
        event(f"near a tie or _BETA_MATCH: decisions {'differ' if differ else 'agree'}")


def _pair_set(i, j):
    return sorted(zip(i.tolist(), j.tolist()))
