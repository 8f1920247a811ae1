import hashlib

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
    FEATURES_VERSION,
    LEAKY_SLOPE,
    PARAM_DTYPE,
    LossConfig,
    ModelParams,
    _dlrelu,
    _lrelu,
    extract_base_features,
    forward,
    forward_backward,
    init_model,
)

from conftest import harmonic_speechlike, with_dtype
from reference import forward_backward_frames

SR = 16000


def tiny_model(seed=0, d=8, dtype=np.float64):
    """init_model's parameters, widened to float64 unless ``dtype`` says otherwise."""
    return with_dtype(init_model(seed, feature_dim=d, extractor_hidden=6, head_hidden=7), dtype)


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


# SHA-256 of the stored base features, extract_base_features(w).astype(PARAM_DTYPE),
# of harmonic_speechlike(duration=0.5, sr, seed=3), recorded at
# GOLDEN_FEATURES_VERSION 1 (numpy 2.4.6, x86-64; the same on one BLAS thread).
# A run stores these bytes in the vocoded set's features file, keyed by
# model.FEATURES_VERSION, and serves them to later runs: a change to the feature
# front's bytes re-records these digests and bumps FEATURES_VERSION with
# GOLDEN_FEATURES_VERSION, so that no stale file is served.
GOLDEN_FEATURES_VERSION = 1
GOLDEN_FEATURES_SHA256 = {
    8000: "f8f17132bb52bfc01c3cb9b28910cca180af5b896785ed61e8699dd47a07202b",
    16000: "b2a3fc5bdb85625938bacf57cf44bbacd255a4619f77f957512b9e7eeb9359b5",
    48000: "7a4297d5e73e8d39494ba88d344597616e0b170156260bc6f703171f638901e3",
}


def test_feature_goldens_are_recorded_at_the_features_version():
    assert GOLDEN_FEATURES_VERSION == FEATURES_VERSION


@pytest.mark.parametrize("sr", sorted(GOLDEN_FEATURES_SHA256))
def test_base_feature_bytes_match_golden(sr):
    feats = extract_base_features(harmonic_speechlike(duration=0.5, sr=sr, seed=3)).astype(PARAM_DTYPE)
    assert hashlib.sha256(feats.tobytes()).hexdigest() == GOLDEN_FEATURES_SHA256[sr]


def forward_member(base, p):
    """``forward`` on a one-member batch, read back as that member's arrays."""
    cache = forward([base], p)
    return dict(A1=cache["frames"][0][1], v=cache["v"][0], logits=cache["logits"][0], score=cache["score"][0])


class TestPoolAndClassify:
    def test_pool_constant_sequence(self):
        p = tiny_model()
        p.W2[...] = 0.0  # every frame's feature is b2
        p.b2[...] = np.arange(1.0, p.W2.shape[0] + 1)
        cache = forward_member(np.random.default_rng(1).standard_normal((5, BASE_DIM)), p)
        assert np.array_equal(cache["v"], p.b2)

    def test_pool_permutation_invariant(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((7, BASE_DIM))
        p = tiny_model()
        assert np.allclose(forward_member(base, p)["v"], forward_member(base[::-1], p)["v"])

    def test_pool_two_frames(self):
        p = tiny_model()
        cache = forward_member(np.random.default_rng(3).standard_normal((2, BASE_DIM)), p)
        X = cache["A1"] @ p.W2.T + p.b2  # the frame-level features the embedding pools
        assert np.allclose(cache["v"], 0.5 * (X[0] + X[1]))

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
        c1 = forward_member(extract_base_features(w), p)
        c2 = forward_member(extract_base_features(w), p)
        assert c1["v"].shape == (p.W2.shape[0],)
        assert np.allclose(c1["v"], (c1["A1"] @ p.W2.T + p.b2).mean(axis=0))
        assert np.array_equal(c1["v"], c2["v"]) and c1["score"] == c2["score"]


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
        "loss_cfg, order",
        [
            (LossConfig("ce"), None),
            (LossConfig("ce+cf", CfConfig(levels="sequence")), None),
            (LossConfig("ce+cf", CfConfig(levels="utterance")), None),
            (LossConfig("ce+cf", CfConfig(levels="both")), None),
            (LossConfig("ce+cf", CfConfig(levels="both")), (2, 0, 3, 4, 1, 5)),
        ],
        ids=["ce", "cf-seq", "cf-utt", "cf-both", "cf-both-interleaved"],
    )
    def test_gradients_match_finite_differences(self, loss_cfg, order):
        rng = np.random.default_rng(6)
        members, labels = self._batch(rng, n=3)
        if order is not None:  # labels interleaved: spoof, bona, spoof, spoof, bona, spoof
            members, labels = [members[i] for i in order], [labels[i] for i in order]
        max_rel, max_abs = gradcheck(members, labels, loss_cfg, tiny_model(7), n_probe=120, probe_seed=7)
        assert max_rel < 1e-4
        assert max_abs < 1e-8

    @pytest.mark.parametrize(
        "loss_cfg, ragged, order",
        [
            (LossConfig("ce"), True, None),
            (LossConfig("ce"), True, (2, 0, 3, 4, 1, 5)),
            (LossConfig("ce+cf", CfConfig(levels="sequence")), False, None),
            (LossConfig("ce+cf", CfConfig(levels="utterance")), False, None),
            (LossConfig("ce+cf", CfConfig(levels="both")), False, None),
            (LossConfig("ce+cf", CfConfig(levels="both")), False, (2, 0, 3, 4, 1, 5)),
        ],
        ids=["ce-ragged", "ce-ragged-permuted", "cf-seq", "cf-utt", "cf-both", "cf-both-permuted"],
    )
    def test_matches_frame_level_oracle(self, loss_cfg, ragged, order):
        """Pooling before W2 reassociates sums only: loss, parts and every
        gradient match the formulation that builds X for every member."""
        rng = np.random.default_rng(9)
        members, labels = self._batch(rng, n=40)
        if ragged:
            members = [rng.standard_normal((n, BASE_DIM)) for n in (13, 40, 7, 1, 25, 40)]
        if order is not None:
            members, labels = [members[i] for i in order], [labels[i] for i in order]
        p = tiny_model(8)
        p.feat_mean[...] = rng.standard_normal(BASE_DIM) * 0.1
        p.feat_scale[...] = rng.uniform(0.5, 2.0, BASE_DIM)
        loss, grads, parts = forward_backward(members, labels, p, loss_cfg)
        ref_loss, ref_grads, ref_parts = forward_backward_frames(
            members, labels, p, loss_cfg.mode, loss_cfg.cf.levels, loss_cfg.cf.temperature
        )
        assert np.isclose(loss, ref_loss, rtol=1e-10, atol=0)
        assert parts.keys() == ref_parts.keys()
        for key in parts:
            assert np.isclose(parts[key], ref_parts[key], rtol=1e-10, atol=0), key
        for name in p.TRAINABLE:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, atol=0, err_msg=name)

    def test_cf_requires_both_classes_twice(self):
        rng = np.random.default_rng(7)
        members, labels = self._batch(rng, n_bona=1, n_spoof=4)
        with pytest.raises(ConfigError):
            forward_backward(members, labels, tiny_model(), LossConfig("ce+cf"))

    def test_cf_refuses_members_of_unequal_length(self):
        members, labels = self._batch(np.random.default_rng(7))
        members[3] = members[3][:2]
        with pytest.raises(ConfigError, match=r"\(N, D\) shape"):
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_slope_of_the_output_is_the_slope_of_the_input(self, dtype):
        """The backward pass reads each slope from the cached activation:
        lrelu(z) > 0 exactly where z > 0, also where 0.01 * z underflows."""
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        underflowing = tiny * np.array([1, 2, 3, 10, 49], dtype=dtype)
        assert np.all(LEAKY_SLOPE * underflowing == 0)
        edges = np.array([0.0, tiny, info.smallest_normal, np.inf], dtype=dtype)
        normals = np.random.default_rng(0).standard_normal(10_000).astype(dtype)
        z = np.concatenate([edges, -edges, underflowing, -underflowing, np.array([np.nan], dtype), normals])
        assert z.dtype == dtype
        assert _dlrelu(_lrelu(z)).tobytes() == _dlrelu(z).tobytes()


class TestDtype:
    """Training runs in the parameters' dtype: init_model's float32, or float64."""

    @staticmethod
    def _members(rng, ragged):
        lengths = (13, 40, 7, 1, 25, 40) if ragged else (40,) * 6
        return [rng.standard_normal((n, BASE_DIM)) for n in lengths], [1, 1, 0, 0, 0, 0]

    @pytest.mark.parametrize("loss_cfg, ragged", [(LossConfig("ce"), True), (LossConfig("ce+cf"), False)],
                             ids=["ce", "ce+cf"])
    def test_float32_batch_matches_float64_from_the_same_weights(self, loss_cfg, ragged):
        """Tolerances: float32 rounds at 6e-8 relative; the loss and its parts
        agree to 1e-5 relative, every gradient to 1e-4 of its largest entry
        (seen: 5e-7 and 1.2e-5 at most over five seeds)."""
        members, labels = self._members(np.random.default_rng(10), ragged)
        p32 = tiny_model(11, dtype=np.float32)
        p32.feat_mean[...] = 0.1
        p32.feat_scale[...] = 1.5
        p64 = with_dtype(p32, np.float64)
        loss32, grads32, parts32 = forward_backward(members, labels, p32, loss_cfg)
        loss64, grads64, parts64 = forward_backward(members, labels, p64, loss_cfg)
        assert np.isclose(loss32, loss64, rtol=1e-5, atol=0)
        for key in parts64:
            assert np.isclose(parts32[key], parts64[key], rtol=1e-5, atol=0), key
        for name in p32.TRAINABLE:
            assert grads32[name].dtype == np.float32 and grads64[name].dtype == np.float64, name
            np.testing.assert_allclose(grads32[name], grads64[name], rtol=0,
                                       atol=1e-4 * np.abs(grads64[name]).max(), err_msg=name)

    def test_init_model_makes_float32_and_mixed_dtypes_are_refused(self):
        p = init_model(0, feature_dim=8, extractor_hidden=6, head_hidden=7)
        assert {getattr(p, name).dtype for name in p.FIELDS} == {np.dtype(np.float32)}
        fields = {name: getattr(p, name) for name in p.FIELDS}
        for bad in ({"b2": p.b2.astype(np.float64)}, {"feat_scale": p.feat_scale.astype(np.float64)},
                    {name: arr.astype(np.float16) for name, arr in fields.items()},
                    {name: arr.astype(np.int64) for name, arr in fields.items()}):
            with pytest.raises(ConfigError, match="share one dtype"):
                ModelParams(**{**fields, **bad})
