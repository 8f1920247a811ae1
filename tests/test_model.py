import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spoofcm.audio_io import Waveform
from spoofcm.contrastive import CfConfig
from spoofcm.errors import ConfigError, DataError
from spoofcm.model import (
    BASE_DIM,
    LEAKY_SLOPE,
    LossConfig,
    ModelParams,
    _dlrelu,
    _lrelu,
    extract_base_features,
    forward_backward,
    forward_member,
    init_model,
)

from conftest import harmonic_speechlike

SR = 16000


def tiny_model(seed=0, d=8):
    return init_model(seed, feature_dim=d, extractor_hidden=6, head_hidden=7)


class TestBaseFeatures:
    def test_frame_count_one_second(self):
        w = Waveform(np.random.default_rng(0).standard_normal(SR) * 0.1, SR)
        assert extract_base_features(w).shape == (98, BASE_DIM)

    def test_zero_waveform_constant_frames(self):
        feats = extract_base_features(Waveform(np.zeros(SR), SR))
        assert np.allclose(feats, feats[0])

    def test_finite_on_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=rng.integers(400, 8000))
            feats = extract_base_features(Waveform(x, SR))
            assert np.all(np.isfinite(feats)) and np.max(np.abs(feats)) < 1e6

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            extract_base_features(Waveform(np.zeros(100), SR))


class TestPoolAndClassify:
    def test_pool_constant_sequence(self):
        p = tiny_model()
        p.W2[...] = 0.0  # every frame's feature is b2
        p.b2[...] = np.arange(1.0, p.feature_dim + 1)
        cache = forward_member(np.random.default_rng(1).standard_normal((5, BASE_DIM)), p)
        assert np.array_equal(cache["v"], p.b2)

    def test_pool_permutation_invariant(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((7, BASE_DIM))
        p = tiny_model()
        assert np.allclose(forward_member(base, p)["v"], forward_member(base[::-1], p)["v"])

    def test_pool_two_frames(self):
        cache = forward_member(np.random.default_rng(3).standard_normal((2, BASE_DIM)), tiny_model())
        assert np.allclose(cache["v"], 0.5 * (cache["X"][0] + cache["X"][1]))

    def test_score_is_logit_difference(self):
        p = tiny_model()
        base = np.zeros((3, BASE_DIM))
        p.Ho[...] = 0.0
        p.co[...] = [1.0, 1.0]
        assert forward_member(base, p)["score"] == 0.0
        p.co[...] = [-1.0, 2.0]
        cache = forward_member(base, p)
        assert cache["score"] == 3.0 and np.allclose(cache["logits"], [-1.0, 2.0])
        p.co[...] = [-1.0 + 5.0, 2.0 + 5.0]  # shared offset cancels
        assert forward_member(base, p)["score"] == 3.0

    def test_extract_features_shape_and_determinism(self):
        w = harmonic_speechlike(duration=0.5, seed=3)
        p = tiny_model()
        f1 = forward_member(extract_base_features(w), p)["X"]
        f2 = forward_member(extract_base_features(w), p)["X"]
        assert f1.shape[1] == p.feature_dim and np.array_equal(f1, f2)


from conftest import gradcheck


class TestForwardBackward:
    def _batch(self, rng, n_bona=2, n_spoof=4, n=4):
        members = [rng.standard_normal((n, BASE_DIM)) for _ in range(n_bona + n_spoof)]
        labels = [1] * n_bona + [0] * n_spoof
        return members, labels

    def test_ce_equal_logits_is_ln2(self):
        rng = np.random.default_rng(4)
        members, labels = self._batch(rng)
        p = tiny_model()
        p.Ho[...] = 0.0
        p.co[...] = 0.0
        loss, _, parts = forward_backward(members, labels, p, LossConfig("ce"))
        assert np.isclose(loss, np.log(2.0))
        assert np.isclose(parts["ce"], np.log(2.0))

    def test_ce_duplication_invariance(self):
        rng = np.random.default_rng(5)
        members, labels = self._batch(rng)
        p = tiny_model(1)
        base = forward_backward(members, labels, p, LossConfig("ce"))[0]
        doubled = forward_backward(members + members, labels + labels, p, LossConfig("ce"))[0]
        assert np.isclose(base, doubled)

    @pytest.mark.parametrize(
        "loss_cfg",
        [
            LossConfig("ce"),
            LossConfig("ce+cf", CfConfig(levels="sequence")),
            LossConfig("ce+cf", CfConfig(levels="utterance")),
            LossConfig("ce+cf", CfConfig(levels="both")),
        ],
        ids=["ce", "cf-seq", "cf-utt", "cf-both"],
    )
    def test_gradients_match_finite_differences(self, loss_cfg):
        rng = np.random.default_rng(6)
        members, labels = self._batch(rng, n=3)
        max_rel, max_abs = gradcheck(members, labels, loss_cfg, tiny_model(7), n_probe=120, probe_seed=7)
        assert max_rel < 1e-4
        assert max_abs < 1e-8

    def test_cf_requires_both_classes_twice(self):
        rng = np.random.default_rng(7)
        members, labels = self._batch(rng, n_bona=1, n_spoof=4)
        with pytest.raises(ConfigError):
            forward_backward(members, labels, tiny_model(), LossConfig("ce+cf"))

    def test_score_waveform_runs(self):
        w = harmonic_speechlike(duration=0.6, seed=8)
        assert np.isfinite(forward_member(extract_base_features(w), tiny_model())["score"])


class TestActivations:
    """The LeakyReLU helpers keep the bytes of the np.where forms they replaced."""

    @staticmethod
    def assert_where_bytes(z):
        with np.errstate(invalid="ignore"):
            want_act = np.where(z > 0, z, LEAKY_SLOPE * z)
            got_act = _lrelu(z)
        want_slope = np.where(z > 0, 1.0, LEAKY_SLOPE)
        got_slope = _dlrelu(z)
        for want, got in ((want_act, got_act), (want_slope, got_slope)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_special_values(self):
        nans = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000abc],
            dtype=np.uint64,
        ).view(np.float64)  # quiet and signalling NaNs of both signs
        specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 1e308, -1e308]
        z = np.concatenate([nans, specials])
        self.assert_where_bytes(z)
        self.assert_where_bytes(z.reshape(4, 4))
        self.assert_where_bytes(z.reshape(4, 4)[:, ::2])  # non-contiguous

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=9), elements=st.floats()))
    def test_arbitrary_arrays(self, z):
        self.assert_where_bytes(z)
