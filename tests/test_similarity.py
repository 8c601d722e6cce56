import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from embedtrack.similarity import (
    _bisoftmax,
    _stable_softmax,
    cosine_matrix,
    masked_bisoftmax,
    validate_embeddings,
)
from oracles import masked_bisoftmax_oracle, stable_softmax_oracle


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
    """The one kernel against the two-pass softmax it replaced
    (``tests/oracles.py``), bit for bit."""

    @given(kernel_inputs())
    @example((np.ones((2, 3)), np.ones((4, 3)), np.zeros((2, 4), dtype=bool)))
    def test_masked(self, inputs):
        dets, cands, allowed = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            got = masked_bisoftmax(dets, cands, allowed)
            want = masked_bisoftmax_oracle(dets, cands, allowed)
        assert same_bits(got, want)

    @given(kernel_inputs())
    def test_unmasked(self, inputs):
        dets, cands, _ = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            logits = dets @ cands.T
            want_row = stable_softmax_oracle(logits, axis=1)
            want_col = stable_softmax_oracle(logits, axis=0)
            row, col = _stable_softmax(logits, axis=1), _stable_softmax(logits, axis=0)
            matrix = masked_bisoftmax(dets, cands)
            kernel = _bisoftmax(dets, cands, None)
        assert same_bits(row, want_row) and same_bits(col, want_col)
        assert same_bits(matrix, 0.5 * (want_row + want_col)) and same_bits(kernel, matrix)

    def test_scale_1e3_case(self):
        rng = np.random.default_rng(7)
        a, b = rand_emb(rng, 4, 8, scale=1e3), rand_emb(rng, 5, 8, scale=1e3)
        assert same_bits(masked_bisoftmax(a, b),
                         masked_bisoftmax_oracle(a, b, np.ones((4, 5), dtype=bool)))

    @given(st.lists(st.sampled_from([0.0, 1.5, -2.0, 700.0, -800.0, np.inf, -np.inf, np.nan]),
                    min_size=6, max_size=6), st.sampled_from([0, 1]))
    def test_stable_softmax_on_non_finite_logits(self, cells, axis):
        logits = np.array(cells).reshape(2, 3)
        with np.errstate(invalid="ignore"):
            assert same_bits(_stable_softmax(logits, axis), stable_softmax_oracle(logits, axis))

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
