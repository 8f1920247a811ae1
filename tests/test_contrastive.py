import numpy as np
import pytest

from spoofcm.contrastive import LEVEL_TERMS, _similarity_matrix, cf_value_and_grad
from spoofcm.errors import ConfigError, NumericalError

from reference import (
    contrastive_loss_loops,
    cosine_seq_similarity_loops,
    partition_loops,
)

TAU = 0.07


def cf_level(members, labels, level):
    """One level's loss and member gradients: the utterance level runs on the
    mean-pooled members, and its gradient is mapped back through the mean."""
    if level == "sequence":
        return cf_value_and_grad(members, labels, TAU)
    n = members[0].shape[0]
    value, gs = cf_value_and_grad([m.mean(axis=0, keepdims=True) for m in members], labels, TAU)
    return value, [np.repeat(g / n, n, axis=0) for g in gs]


def cf_levels(members, labels, levels="both"):
    """Loss and member gradients summed over the levels LEVEL_TERMS lists."""
    value, grads = 0.0, [np.zeros_like(m) for m in members]
    for level, _ in LEVEL_TERMS[levels]:
        v, gs = cf_level(members, labels, level)
        value += v
        grads = [g + h for g, h in zip(grads, gs)]
    return value, grads


def similarity(a, b):
    return _similarity_matrix(np.stack([a, b]), TAU)[0][0, 1]


def partition(members, k):
    """H(z_k) read off the similarity matrix: every member but z_k itself."""
    sims = _similarity_matrix(np.stack(members), TAU)[0]
    return float(np.exp(sims[k]).sum() - np.exp(sims[k, k]))


def labels_of(n_bona, n_spoof):
    return [1] * n_bona + [0] * n_spoof


def random_batch(rng, n_bona=2, n_spoof=4, n=3, d=4):
    """Members, bona fide first, and their labels."""
    members = [rng.standard_normal((n, d)) for _ in range(n_bona + n_spoof)]
    return members, labels_of(n_bona, n_spoof)


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
        for members in ([np.ones((2, 3))] * 2 + [np.ones((3, 3))] * 2, [np.ones(3)] * 4,
                        [np.ones((1, 3))] * 2 + [np.ones((1, 4))] * 2):
            with pytest.raises(ConfigError, match=r"\(N, D\) shape"):
                cf_value_and_grad(members, labels_of(2, 2), TAU)


class TestPartition:
    def test_all_identical_members(self):
        m = np.ones((2, 3))
        members = [m, m.copy(), m.copy(), m.copy()]
        assert np.isclose(partition(members, 0), 3.0 * np.exp(1.0 / TAU), rtol=1e-12)

    def test_mutually_orthogonal_members(self):
        eye = np.eye(4)
        members = [eye[i : i + 1].copy() for i in range(4)]
        assert np.isclose(partition(members, 0), 3.0)  # |I| + |J| - 1 unit terms

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        members, _ = random_batch(rng)
        for idx in (0, 3):
            mine = partition(members, idx)
            ref = partition_loops(idx, members, TAU)
            assert abs(mine - ref) / ref < 1e-9


class TestLossValue:
    def test_fully_symmetric_batch_closed_form(self):
        m = np.full((3, 5), 0.7)
        members, labels = [m, m.copy(), m.copy(), m.copy()], labels_of(2, 2)
        expected = 4.0 * np.log(3.0)  # (|I|+|J|) * ln(|I|+|J|-1)
        seq_only = cf_levels(members, labels, "sequence")[0]
        assert abs(seq_only - expected) < 1e-9
        both = cf_levels(members, labels, "both")[0]
        assert abs(both - 2.0 * expected) < 1e-9

    def test_within_class_identical_across_class_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        expected = contrastive_loss_loops([a, a], [b, b], TAU)
        got = cf_levels([a, a.copy(), b, b.copy()], labels_of(2, 2), "sequence")[0]
        assert abs(got - expected) < 1e-9

    @pytest.mark.parametrize("n_spoof", [2, 4, 8])
    def test_matches_bruteforce_oracle(self, n_spoof):
        rng = np.random.default_rng(4)
        for _ in range(10):
            members, labels = random_batch(rng, n_bona=2, n_spoof=n_spoof)
            ref = contrastive_loss_loops(members[:2], members[2:], TAU)
            got = cf_levels(members, labels, "sequence")[0]
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert cf_levels(*random_batch(rng, n_spoof=3))[0] >= 0.0

    def test_permutation_invariance(self):
        """Permuting members and labels together, within a class or across
        classes, keeps the loss, and the gradients permute with the members."""
        rng = np.random.default_rng(6)
        members, labels = random_batch(rng, n_bona=3, n_spoof=4)
        value, grads = cf_levels(members, labels)
        for order in ((2, 0, 1, 6, 4, 3, 5), (3, 0, 4, 1, 5, 2, 6), (6, 5, 4, 3, 2, 1, 0)):
            shuffled = cf_levels([members[i] for i in order], [labels[i] for i in order])
            assert np.isclose(shuffled[0], value, rtol=1e-12)
            for got, i in zip(shuffled[1], order):
                assert np.allclose(got, grads[i], rtol=1e-10, atol=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        members, labels = random_batch(rng)
        scaled = [members[0] * 7.3] + members[1:]
        assert np.isclose(cf_levels(members, labels)[0], cf_levels(scaled, labels)[0])

    def test_single_frame_sequence_matches_utterance_level(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng, n=1)
        seq = cf_levels(*batch, "sequence")[0]
        utt = cf_levels(*batch, "utterance")[0]
        assert np.isclose(seq, utt)

    def test_one_level_per_call(self):
        """A call evaluates the level of the members it is given: the
        utterance level is a call on the pooled members, and "both" sums the
        two calls."""
        members, labels = random_batch(np.random.default_rng(12))
        seq = cf_value_and_grad(members, labels, TAU)[0]
        utt = cf_value_and_grad([m.mean(axis=0, keepdims=True) for m in members], labels, TAU)[0]
        assert seq != utt
        assert cf_levels(members, labels, "both")[0] == seq + utt

    def test_too_small_composition_rejected(self):
        rng = np.random.default_rng(9)
        for n_bona, n_spoof in ((1, 2), (2, 1), (0, 4)):
            for level in ("sequence", "utterance"):
                with pytest.raises(ConfigError, match=">= 2 views per class"):
                    cf_level(*random_batch(rng, n_bona, n_spoof), level)


class TestGradient:
    @pytest.mark.parametrize("levels", ["sequence", "utterance", "both"])
    def test_finite_difference_agreement(self, levels):
        rng = np.random.default_rng(10)
        members, labels = random_batch(rng, n_bona=2, n_spoof=4, n=3, d=4)
        value, grads = cf_levels(members, labels, levels)
        step = 1e-5
        worst = 0.0
        for mi in range(6):
            for idx in np.ndindex(members[mi].shape):
                def loss_at(delta):
                    pert = [a.copy() for a in members]
                    pert[mi][idx] += delta
                    return cf_levels(pert, labels, levels)[0]

                fd = (loss_at(step) - loss_at(-step)) / (2 * step)
                an = grads[mi][idx]
                if abs(fd) > 1e-7:
                    worst = max(worst, abs(fd - an) / abs(fd))
        assert worst < 1e-4

    def test_symmetric_batch_gradient_structure(self):
        v = np.ones((2, 4)) / 2.0  # unit-norm frames
        members = [v, v.copy(), v.copy(), v.copy()]
        _, grads = cf_value_and_grad(members, labels_of(2, 2), TAU)
        for g in grads[1:]:
            assert np.allclose(g, grads[0])
        for g in grads:  # cosine gradients live in the tangent space
            for n in range(v.shape[0]):
                assert abs(np.dot(g[n], v[n])) < 1e-12

    def test_scaling_direction_is_flat(self):
        rng = np.random.default_rng(11)
        members, labels = random_batch(rng)
        base, grads = cf_levels(members, labels)
        scaled = [members[0] * 2.0] + members[1:]
        assert abs(cf_levels(scaled, labels)[0] - base) < 1e-12
        radial = float(np.sum(grads[0] * members[0]))
        assert abs(radial) < 1e-10


class TestInterleavedUnequalClasses:
    """3 bona fide and 5 spoofed members in mixed order, at each level: the
    anchor-vectorized core against the loop oracle and finite differences."""

    LABELS = [0, 1, 0, 0, 1, 0, 1, 0]

    def members(self, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((3, 4)) for _ in self.LABELS]

    @pytest.mark.parametrize("level", ["sequence", "utterance"])
    def test_loss_matches_loop_oracle(self, level):
        for seed in range(13, 18):
            members = self.members(seed)
            seqs = members if level == "sequence" else [m.mean(axis=0, keepdims=True) for m in members]
            ref = contrastive_loss_loops([s for s, y in zip(seqs, self.LABELS) if y == 1],
                                         [s for s, y in zip(seqs, self.LABELS) if y == 0], TAU)
            got = cf_level(members, self.LABELS, level)[0]
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("level", ["sequence", "utterance"])
    def test_gradient_matches_finite_differences(self, level):
        members = self.members(18)
        _, grads = cf_level(members, self.LABELS, level)
        step = 1e-5
        worst = 0.0
        for mi in range(len(members)):
            for idx in np.ndindex(members[mi].shape):
                def loss_at(delta):
                    pert = [a.copy() for a in members]
                    pert[mi][idx] += delta
                    return cf_level(pert, self.LABELS, level)[0]

                fd = (loss_at(step) - loss_at(-step)) / (2 * step)
                if abs(fd) > 1e-7:
                    worst = max(worst, abs(fd - grads[mi][idx]) / abs(fd))
        assert worst < 1e-4
