import numpy as np
import pytest

from spoofcm.contrastive import (
    LEVEL_TERMS,
    BatchComposition,
    _similarity_matrix,
    cf_value_and_grad,
)
from spoofcm.errors import ConfigError, NumericalError

from reference import (
    contrastive_loss_loops,
    cosine_seq_similarity_loops,
    partition_loops,
)

TAU = 0.07


def cf_levels(batch, levels="both"):
    """Loss and member gradients summed over the levels LEVEL_TERMS lists."""
    value, grads = 0.0, [np.zeros_like(m) for m in batch.members]
    for level, _ in LEVEL_TERMS[levels]:
        v, gs = cf_value_and_grad(batch, level, TAU)
        value += v
        grads = [g + h for g, h in zip(grads, gs)]
    return value, grads


def similarity(a, b):
    return _similarity_matrix([a, b], TAU)[0][0, 1]


def partition(members, k):
    """H(z_k) read off the similarity matrix: every member but z_k itself."""
    sims = _similarity_matrix(members, TAU)[0]
    return float(np.exp(sims[k]).sum() - np.exp(sims[k, k]))


def random_batch(rng, n_bona=2, n_spoof=4, n=3, d=4):
    bona = [rng.standard_normal((n, d)) for _ in range(n_bona)]
    spoof = [rng.standard_normal((n, d)) for _ in range(n_spoof)]
    return BatchComposition(bona, spoof)


class TestCosineSimilarity:
    def test_self_similarity_is_inverse_temperature(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        assert np.isclose(similarity(a, a), 1.0 / TAU)
        assert np.isclose(1.0 / TAU, 14.285714285714286)

    def test_orthogonal_sequences(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert similarity(a, b) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert abs(similarity(a, b) - cosine_seq_similarity_loops(a, b, TAU)) < 1e-12

    def test_zero_frame_in_both_raises(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            similarity(a, b)

    def test_zero_frame_in_one_is_tolerated(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        val = similarity(a, b)
        assert np.isclose(val, 0.5 / TAU)  # zero-norm frame contributes 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BatchComposition([np.ones((2, 3))] * 2, [np.ones((3, 3))] * 2)


class TestPartition:
    def test_all_identical_members(self):
        m = np.ones((2, 3))
        batch = BatchComposition([m, m.copy()], [m.copy(), m.copy()])
        assert np.isclose(partition(batch.members, 0), 3.0 * np.exp(1.0 / TAU), rtol=1e-12)

    def test_mutually_orthogonal_members(self):
        eye = np.eye(4)
        members = [eye[i : i + 1].copy() for i in range(4)]
        batch = BatchComposition(members[:2], members[2:])
        assert np.isclose(partition(batch.members, 0), 3.0)  # |I| + |J| - 1 unit terms

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng)
        members = batch.members
        for idx in (0, 3):
            mine = partition(members, idx)
            ref = partition_loops(idx, members, TAU)
            assert abs(mine - ref) / ref < 1e-9


class TestLossValue:
    def test_fully_symmetric_batch_closed_form(self):
        m = np.full((3, 5), 0.7)
        batch = BatchComposition([m, m.copy()], [m.copy(), m.copy()])
        expected = 4.0 * np.log(3.0)  # (|I|+|J|) * ln(|I|+|J|-1)
        seq_only = cf_levels(batch, "sequence")[0]
        assert abs(seq_only - expected) < 1e-9
        both = cf_levels(batch, "both")[0]
        assert abs(both - 2.0 * expected) < 1e-9

    def test_within_class_identical_across_class_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        batch = BatchComposition([a, a.copy()], [b, b.copy()])
        expected = contrastive_loss_loops([a, a], [b, b], TAU)
        got = cf_levels(batch, "sequence")[0]
        assert abs(got - expected) < 1e-9

    @pytest.mark.parametrize("n_spoof", [2, 4, 8])
    def test_matches_bruteforce_oracle(self, n_spoof):
        rng = np.random.default_rng(4)
        for _ in range(10):
            batch = random_batch(rng, n_bona=2, n_spoof=n_spoof)
            ref = contrastive_loss_loops(batch.bona_views, batch.spoof_views, TAU)
            got = cf_levels(batch, "sequence")[0]
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            batch = random_batch(rng, n_spoof=3)
            assert cf_levels(batch)[0] >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, n_bona=3, n_spoof=4)
        shuffled = BatchComposition(
            [batch.bona_views[i] for i in (2, 0, 1)],
            [batch.spoof_views[i] for i in (3, 1, 0, 2)],
        )
        assert np.isclose(cf_levels(batch)[0], cf_levels(shuffled)[0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng)
        scaled = BatchComposition(
            [batch.bona_views[0] * 7.3] + batch.bona_views[1:], batch.spoof_views
        )
        assert np.isclose(cf_levels(batch)[0], cf_levels(scaled)[0])

    def test_single_frame_sequence_matches_utterance_level(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng, n=1)
        seq = cf_levels(batch, "sequence")[0]
        utt = cf_levels(batch, "utterance")[0]
        assert np.isclose(seq, utt)

    def test_one_level_per_call(self):
        batch = random_batch(np.random.default_rng(12))
        with pytest.raises(ConfigError):
            cf_value_and_grad(batch, "both", TAU)

    def test_too_small_composition_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ConfigError):
            random_batch(rng, n_bona=1, n_spoof=2)
        with pytest.raises(ConfigError):
            random_batch(rng, n_bona=2, n_spoof=1)


class TestGradient:
    @pytest.mark.parametrize("levels", ["sequence", "utterance", "both"])
    def test_finite_difference_agreement(self, levels):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, n_bona=2, n_spoof=4, n=3, d=4)
        value, grads = cf_levels(batch, levels)
        step = 1e-5
        worst = 0.0
        for mi in range(6):
            arrays = [m.copy() for m in batch.members]
            for idx in np.ndindex(arrays[mi].shape):
                def loss_at(delta):
                    pert = [a.copy() for a in arrays]
                    pert[mi][idx] += delta
                    b = BatchComposition(pert[:2], pert[2:])
                    return cf_levels(b, levels)[0]

                fd = (loss_at(step) - loss_at(-step)) / (2 * step)
                an = grads[mi][idx]
                if abs(fd) > 1e-7:
                    worst = max(worst, abs(fd - an) / abs(fd))
        assert worst < 1e-4

    def test_symmetric_batch_gradient_structure(self):
        v = np.ones((2, 4)) / 2.0  # unit-norm frames
        batch = BatchComposition([v, v.copy()], [v.copy(), v.copy()])
        _, grads = cf_value_and_grad(batch, "sequence", TAU)
        for g in grads[1:]:
            assert np.allclose(g, grads[0])
        for g in grads:  # cosine gradients live in the tangent space
            for n in range(v.shape[0]):
                assert abs(np.dot(g[n], v[n])) < 1e-12

    def test_scaling_direction_is_flat(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng)
        base = cf_levels(batch)[0]
        scaled = BatchComposition(
            [batch.bona_views[0] * 2.0] + batch.bona_views[1:], batch.spoof_views
        )
        assert abs(cf_levels(scaled)[0] - base) < 1e-12
        grads = cf_levels(batch)[1]
        radial = float(np.sum(grads[0] * batch.bona_views[0]))
        assert abs(radial) < 1e-10
