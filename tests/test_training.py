import hashlib
import json
import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spoofcm.training as training_mod
from spoofcm.audio_io import read_wav, write_wav
from spoofcm.augment import apply_augment
from spoofcm.errors import ConfigError, DataError, SpoofcmError
from spoofcm.manifest import TrialManifest, TrialRecord
from spoofcm.model import LossConfig, extract_base_features, forward_backward, init_model
from spoofcm.training import (
    AdamState,
    DataBundle,
    TrainConfig,
    adam_init,
    adam_step,
    compose_batch,
    history_csv,
    load_checkpoint,
    manifest_features,
    save_checkpoint,
    score_manifest,
    train,
)
from spoofcm.util import derive_seed, file_size
from spoofcm.vocoders import VocoderChannel, build_vocoded_set

from conftest import flat, harmonic_speechlike, with_dtype

SR = 16000


def make_tiny_bundle(root):
    """Nine 0.8 s trials (5 train, 2 dev, 2 eval) and their coarsegl and
    phasernd spoofs under ``root``, with one rawboost view per train trial."""
    records = []
    subsets = ["train"] * 5 + ["dev"] * 2 + ["eval"] * 2
    for i, subset in enumerate(subsets):
        tid = f"t{i:02d}"
        w = harmonic_speechlike(duration=0.8, f0=120.0 + 15 * i, seed=300 + i)
        write_wav(root / f"{tid}.wav", w)
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, subset))
    manifest = TrialManifest(records, root=root)
    combined = build_vocoded_set(manifest, [VocoderChannel("coarsegl"), VocoderChannel("phasernd")], root / "voc")
    combined.save(root / "voc" / "manifest.tsv")
    return DataBundle(combined, "rawboost", master_seed=99, k_views=1)


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    return make_tiny_bundle(tmp_path_factory.mktemp("tinycorpus"))


@pytest.fixture(scope="module")
def plain_bundle(tiny_bundle):
    """The same trials with no augmentation: training sees original views only."""
    return DataBundle(tiny_bundle.manifest, None, master_seed=99, k_views=1)


@pytest.mark.parametrize("kind", ["codec", "freqmask", "rawboost"])
def test_view_is_the_kind_applied_with_a_per_view_seed(tiny_bundle, kind):
    bundle = DataBundle(tiny_bundle.manifest, kind, master_seed=99, k_views=2)
    tid = "t03_coarsegl"
    w = read_wav(bundle.manifest.resolve(bundle.manifest.by_id(tid)))
    first = bundle.view(tid, 1)
    features = extract_base_features(apply_augment(w, kind, derive_seed(99, tid, 1)))
    assert features.dtype == np.float64 and first.dtype == np.float32  # stored at half the width
    assert np.array_equal(first, features.astype(np.float32))
    assert bundle.view(tid, 1) is first  # built once, then looked up
    assert not np.array_equal(bundle.view(tid, 2), first)


@pytest.fixture
def augment_calls(monkeypatch):
    """The apply_augment calls the bundle makes in this process, one entry each."""
    calls = []
    monkeypatch.setattr(training_mod, "apply_augment", lambda *args: calls.append(args) or apply_augment(*args))
    return calls


def test_built_views_are_all_that_training_asks_for(tiny_bundle, augment_calls, cpus):
    """The constructor builds views 1..k_views of every train trial, and
    training, in either loss mode, builds no more. On one CPU, so the spy
    sees every view built."""
    cpus(1)
    cfg = TrainConfig(max_epochs=2, patience=10, feature_dim=4, extractor_hidden=6, head_hidden=6)
    systems = [("ce", "random"), ("ce+cf", "paired"), ("ce+cf", "random")]
    bundle = DataBundle(tiny_bundle.manifest, "rawboost", master_seed=99, k_views=2)
    assert len(augment_calls) == 2 * len(bundle.ids(subset="train"))
    augment_calls.clear()
    for loss_mode, pairing in systems:
        train(bundle, dc_replace(cfg, loss_mode=loss_mode, pairing=pairing), seed=5)
    assert augment_calls == []


def test_bundle_bytes_do_not_depend_on_the_worker_count(tiny_bundle, cpus):
    train_ids = tiny_bundle.ids(subset="train")
    keys = {(t, 0) for t in tiny_bundle.ids()} | {(t, k) for t in train_ids for k in (1, 2)}
    found = {}
    for n in (1, 2):
        cpus(n)
        bundle = DataBundle(tiny_bundle.manifest, "rawboost", master_seed=99, k_views=2)
        found[n] = {key: (v.dtype, v.shape, v.tobytes()) for key, v in bundle._views.items()}
    assert set(found[1]) == keys and found[2] == found[1]


def test_a_view_the_bundle_does_not_hold_is_refused_without_augmenting(tiny_bundle, plain_bundle, augment_calls):
    for bundle, key in [(tiny_bundle, ("t05", 1)),  # a dev trial
                        (tiny_bundle, ("t00_phasernd", 2)),  # past k_views = 1
                        (plain_bundle, ("t00", 1))]:  # no augmentation
        with pytest.raises(ConfigError, match=f"no view {key[1]} of trial {key[0]}"):
            bundle.view(*key)
    assert augment_calls == []


def test_views_are_read_only_and_a_given_view_is_not_built_again(tiny_bundle, augment_calls, cpus, monkeypatch):
    """A stray write into a view raises, so it cannot reach later seeds; a
    view handed to the constructor is held as it is, and only the others
    are built. On one CPU, so the spies see every view built."""
    cpus(1)
    for key in [("t00", 0), ("t00", 1)]:  # built: the base features and an augmented view
        with pytest.raises(ValueError, match="read-only"):
            tiny_bundle.view(*key)[0, 0] = 0.0
    given = {(t, 0): tiny_bundle.view(t, 0).copy() for t in tiny_bundle.ids()}
    featurized = []
    monkeypatch.setattr(training_mod, "extract_base_features", lambda w: featurized.append(1) or extract_base_features(w))
    bundle = DataBundle(tiny_bundle.manifest, "rawboost", master_seed=99, k_views=1, views=given)
    assert len(featurized) == len(augment_calls) == len(bundle.ids(subset="train"))
    assert all(bundle.view(t, 0) is given[t, 0] and not given[t, 0].flags.writeable for t in bundle.ids())
    with pytest.raises(ValueError, match="read-only"):
        bundle.view("t00", 1)[0, 0] = 0.0


def _manifest_with_two_unreadable(root, monkeypatch):
    """Four train trials, heaviest first; u1 and u3 are not WAV files. Reading
    u0 waits 0.1 s and u1 0.3 s, so on two CPUs this process holds u0, the
    heaviest, while the forked worker takes u1, and this process then takes
    u2 and u3."""
    records = []
    for tid, content in [("u0", 1.0), ("u1", 20000), ("u2", 0.5), ("u3", 10000)]:
        if isinstance(content, float):
            write_wav(root / f"{tid}.wav", harmonic_speechlike(duration=content, seed=len(records)))
        else:
            (root / f"{tid}.wav").write_bytes(b"\0" * content)
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, "train"))
    manifest = TrialManifest(records, root=root)
    sizes = [file_size(manifest.resolve(r)) for r in manifest]
    assert sizes == sorted(sizes, reverse=True)
    real = training_mod._trial_features

    def slowed(manifest, transform, rec):
        time.sleep({"u0": 0.1, "u1": 0.3}.get(rec.trial_id, 0))
        return real(manifest, transform, rec)

    monkeypatch.setattr(training_mod, "_trial_features", slowed)
    return manifest


def test_unreadable_trial_in_a_worker_raises_the_serial_error(tmp_path, cpus, monkeypatch):
    manifest = _manifest_with_two_unreadable(tmp_path, monkeypatch)
    errors = {}
    for n in (1, 2):
        cpus(n)
        with pytest.raises(DataError) as info:
            DataBundle(manifest, None, master_seed=0, k_views=0)
        errors[n] = str(info.value)
    assert errors[2] == errors[1] and "u1.wav" in errors[1]


def test_manifest_features_do_not_depend_on_the_worker_count(tmp_path, cpus, monkeypatch):
    manifest = _manifest_with_two_unreadable(tmp_path, monkeypatch)
    found = {}
    for n in (1, 2):
        cpus(n)
        features, missing = manifest_features(manifest)
        found[n] = [(t, f.dtype, f.shape, f.tobytes()) for t, f in features.items()], missing
    assert found[2] == found[1]
    assert [t for t, *_ in found[1][0]] == ["u0", "u2"] and found[1][1] == ["u1", "u3"]


class TestAdam:
    def test_first_step_magnitude(self):
        p = with_dtype(init_model(0, feature_dim=8, extractor_hidden=6, head_hidden=7), np.float64)
        state = adam_init(p)
        grads = {k: np.full_like(getattr(p, k), 3.0) for k in p.TRAINABLE}
        before = flat(p)
        adam_step(p, grads, state, lr=0.01)
        delta = np.abs(flat(p) - before)
        assert np.all(delta >= 0.99 * 0.01) and np.all(delta <= 0.01 + 1e-12)

    def test_zero_gradients_leave_params_unchanged(self):
        p = init_model(1, feature_dim=8, extractor_hidden=6, head_hidden=7)
        state = adam_init(p)
        before = flat(p)
        for _ in range(5):
            adam_step(p, {k: np.zeros_like(getattr(p, k)) for k in p.TRAINABLE}, state, lr=0.1)
        assert np.array_equal(flat(p), before)

    def test_a_float32_step_stays_float32(self, tiny_bundle):
        """No term widens a float32 step: the forward cache, the activation
        slopes, the contrastive gradients, every gradient and Adam moment."""
        from spoofcm.contrastive import cf_value_and_grad
        from spoofcm.model import _dlrelu, forward

        p = init_model(3, feature_dim=8, extractor_hidden=6, head_hidden=7)
        members, labels = compose_batch(tiny_bundle, "t00", "paired", np.random.default_rng(0), 40)
        assert {m.dtype for m in members} == {np.dtype(np.float32)}
        cache = forward(members, p)
        arrays = [arr for frame in cache["frames"] for arr in frame]
        arrays += [v for k, v in cache.items() if k not in ("frames", "score")]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert _dlrelu(cache["frames"][0][1]).dtype == np.float32
        frames = [A1 @ p.W2.T + p.b2 for _, A1 in cache["frames"]]
        _, cf_grads = cf_value_and_grad(frames, labels, 0.07)
        assert cf_grads.dtype == np.float32
        _, grads, _ = forward_backward(members, labels, p, LossConfig("ce+cf"))
        state = adam_init(p)
        adam_step(p, grads, state, lr=1e-3)
        assert state.m.dtype == state.v.dtype == np.float32
        for name in p.TRAINABLE:
            assert [a.dtype for a in (grads[name], getattr(p, name))] == [np.float32] * 2, name

    def test_flat_update_matches_the_per_tensor_oracle_bytes(self):
        """20 float32 steps over one concatenated vector leave every parameter
        and moment with the bytes of the per-tensor update."""
        from reference import adam_per_tensor

        p = init_model(4, feature_dim=8, extractor_hidden=6, head_hidden=7)
        ref = p.copy()
        ref_m = {name: np.zeros_like(getattr(p, name)) for name in p.TRAINABLE}
        ref_v = {name: np.zeros_like(getattr(p, name)) for name in p.TRAINABLE}
        state = adam_init(p)
        rng = np.random.default_rng(4)
        for t in range(1, 21):
            grads = {name: (rng.standard_normal(getattr(p, name).shape) * 10.0 ** rng.uniform(-6, 1))
                     .astype(np.float32) for name in p.TRAINABLE}
            lr = 1e-3 if t <= 10 else 1e-4
            adam_step(p, grads, state, lr)
            adam_per_tensor({name: getattr(ref, name) for name in p.TRAINABLE}, grads, ref_m, ref_v, t, lr)
        for name in p.TRAINABLE:
            assert getattr(p, name).dtype == np.float32
            assert getattr(p, name).tobytes() == getattr(ref, name).tobytes(), name
        assert state.m.tobytes() == np.concatenate([ref_m[n].ravel() for n in p.TRAINABLE]).tobytes()
        assert state.v.tobytes() == np.concatenate([ref_v[n].ravel() for n in p.TRAINABLE]).tobytes()

    def test_scalar_quadratic_matches_oracle_and_decreases(self):
        from reference import scalar_adam_oracle

        # x0 = 20 keeps the iterate away from the sign flip where Adam
        # momentum makes |x| oscillate
        p = with_dtype(init_model(2, feature_dim=8, extractor_hidden=6, head_hidden=7), np.float64)
        p.W1[0, 0] = 20.0
        state = adam_init(p)
        traj = [p.W1[0, 0]]
        for _ in range(100):
            grads = {k: np.zeros_like(getattr(p, k)) for k in p.TRAINABLE}
            grads["W1"][0, 0] = 2.0 * p.W1[0, 0]
            adam_step(p, grads, state, lr=0.1)
            traj.append(p.W1[0, 0])
        oracle = scalar_adam_oracle(20.0, lambda x: 2.0 * x, 100, lr=0.1)
        assert np.allclose(traj, oracle, atol=1e-12)
        mags = [abs(t) for t in traj]
        assert all(b < a for a, b in zip(mags[3:], mags[4:]))


class TestComposeBatch:
    def test_paired_sizes_s4_k1_like(self, tiny_bundle):
        rng = np.random.default_rng(0)
        members, labels = compose_batch(tiny_bundle, "t00", mode="paired", rng=rng, max_frames=398)
        # bona fide first: 1 + K of them, then S(1 + K) spoofs, S = 2 channels here
        assert labels == [1] * 2 + [0] * 4
        assert len(members) == len(labels)
        assert len({m.shape for m in members}) == 1

    def test_k0_composition_error(self, plain_bundle):
        rng = np.random.default_rng(1)
        members, labels = compose_batch(plain_bundle, "t00", mode="paired", rng=rng, max_frames=398)
        assert labels == [1, 0, 0]  # one bona fide view: no positive for it
        params = init_model(0, feature_dim=8, extractor_hidden=6, head_hidden=7)
        with pytest.raises(ConfigError, match=">= 2 views per class"):
            forward_backward(members, labels, params, LossConfig("ce+cf"))

    def test_paired_mode_pulls_pairing_index(self, tiny_bundle):
        rng = np.random.default_rng(2)
        members, labels = compose_batch(tiny_bundle, "t01", mode="paired", rng=rng, max_frames=10_000)
        expected = tiny_bundle.pairing["t01"]
        spoofs = [m for m, y in zip(members, labels) if y == 0]
        for got, sid in zip(spoofs[: len(expected)], expected):
            full = tiny_bundle.view(sid, 0)
            n = got.shape[0]
            assert any(
                np.array_equal(got, full[s : s + n]) for s in range(full.shape[0] - n + 1)
            )

    def test_random_mode_needs_pool(self, tiny_bundle):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            compose_batch(tiny_bundle, "t00", "random", rng, 398, spoof_pool=[])
        pool = tiny_bundle.ids(subset="train", label="spoof")  # the bundle holds views of train trials only
        _, labels = compose_batch(tiny_bundle, "t00", "random", rng, 398, spoof_pool=pool)
        assert labels == [1] * 2 + [0] * 4

    @pytest.mark.parametrize("mode", ["paired", "random"])
    def test_trial_without_paired_spoofs_is_an_error_in_both_modes(self, plain_bundle, mode):
        """Random mode samples as many spoofs as the trial has paired ones, so it
        has no count to sample for a trial that has none."""
        records = [plain_bundle.manifest.by_id("t00")]
        records += [r for r in plain_bundle.manifest if r.label == "spoof" and r.source_id == "t01"]
        bundle = DataBundle(TrialManifest(records, plain_bundle.manifest.root), None, master_seed=99, k_views=0)
        pool = bundle.ids(label="spoof")
        with pytest.raises(ConfigError, match="no paired spoofs for t00"):
            compose_batch(bundle, "t00", mode, np.random.default_rng(0), 398, spoof_pool=pool)


class TestTrainLoop:
    @pytest.mark.parametrize(
        "field",
        ["batch_size", "lr_decay_every", "patience", "max_epochs", "feature_dim", "extractor_hidden", "head_hidden"],
    )
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: 0})

    def test_negative_k_views_rejected(self, tiny_bundle):
        with pytest.raises(ConfigError, match="k_views must be >= 0, got -1"):
            DataBundle(tiny_bundle.manifest, "rawboost", master_seed=99, k_views=-1)
        assert DataBundle(tiny_bundle.manifest, "rawboost", master_seed=99, k_views=0).k_views == 0
        assert DataBundle(tiny_bundle.manifest, None, master_seed=99, k_views=2).k_views == 0

    def test_determinism(self, plain_bundle):
        cfg = TrainConfig(max_epochs=3, patience=10, loss_mode="ce")
        p1, h1 = train(plain_bundle, cfg, seed=42)
        p2, h2 = train(plain_bundle, cfg, seed=42)
        assert h1 == h2
        assert all(h.ce == h.train_loss and h.cf_seq == h.cf_utt == 0.0 for h in h1)  # ce mode has one term
        assert np.array_equal(flat(p1), flat(p2))

    @pytest.mark.parametrize("mode, setting, value", [("ce", "pairing", "random"), ("ce+cf", "batch_size", 3)])
    def test_a_loss_mode_ignores_the_other_modes_setting(self, tiny_bundle, mode, setting, value):
        """ce reads batch_size and not pairing; ce+cf reads pairing and not batch_size."""
        cfg = TrainConfig(max_epochs=1, loss_mode=mode, pairing="paired", batch_size=8)
        p1, h1 = train(tiny_bundle, cfg, seed=5)
        p2, h2 = train(tiny_bundle, dc_replace(cfg, **{setting: value}), seed=5)
        assert h1 == h2
        assert np.array_equal(flat(p1), flat(p2))

    def test_patience_semantics_with_scripted_dev_loss(self, plain_bundle, monkeypatch):
        snapshots = []
        counter = iter(range(1000))

        def scripted(bundle, dev_ids, params):
            snapshots.append(params.copy())
            return 1.0 + next(counter), 0.5  # strictly worsening from the start

        monkeypatch.setattr(training_mod, "_dev_metrics", scripted)
        cfg = TrainConfig(max_epochs=50, patience=10, loss_mode="ce")
        best, history = train(plain_bundle, cfg, seed=7)
        assert len(history) == 11  # epoch 1 best + 10 non-improving
        assert np.array_equal(flat(best), flat(snapshots[0]))

    def test_best_checkpoint_not_worse_than_any_epoch(self, plain_bundle):
        cfg = TrainConfig(max_epochs=4, patience=10, loss_mode="ce")
        best, history = train(plain_bundle, cfg, seed=11)
        dev_best = training_mod._dev_metrics(plain_bundle, plain_bundle.ids(subset="dev"), best)[0]
        assert dev_best <= min(h.dev_loss for h in history) + 1e-12

    def test_cf_paired_mode_runs(self, tiny_bundle):
        cfg = TrainConfig(max_epochs=2, patience=10, loss_mode="ce+cf", pairing="paired")
        _, history = train(tiny_bundle, cfg, seed=5)
        assert len(history) == 2
        assert all(np.isfinite(h.train_loss) for h in history)
        for h in history:  # the loss split: each term's epoch mean, summing to the loss within float32 rounding
            assert min(h.ce, h.cf_seq, h.cf_utt) > 0
            assert np.isclose(h.ce + h.cf_seq + h.cf_utt, h.train_loss, rtol=1e-6, atol=0)

    def test_single_class_rejected(self, tiny_bundle, tmp_path):
        bona_only = TrialManifest(
            [r for r in tiny_bundle.manifest if r.label == "bonafide"], tiny_bundle.manifest.root
        )
        bundle = DataBundle(bona_only, None, master_seed=0, k_views=0)
        with pytest.raises(ConfigError):
            train(bundle, TrainConfig(max_epochs=1), seed=0)


# SHA-256 of checkpoint bytes followed by history_csv, re-recorded when
# training moved to float32 parameters, Adam state and stored views, and
# history.csv gained the loss split, and again when a batch came to run the
# pooled head once and the contrastive core every anchor at once (sums are
# reassociated). Other speedups of training must keep every byte. test_vocoders checks the same digests with BLAS on one thread
# (sgemm's kernels are not dgemm's, and the benchmark trains on one thread).
GOLDEN_TRAIN_SHA256 = {
    ("ce", "random"): "735aa18b29ebe87493c1f056dab8cd10762197f025bc7d9f209128c02277eb5b",
    ("ce+cf", "paired"): "a63967190e863b7796a03173dfb6b4fc25a30d2154ad63cd56e0a4722d5a5aa5",
}


def golden_train_digest(bundle, tmp_path, loss_mode, pairing):
    cfg = TrainConfig(max_epochs=2, patience=10, loss_mode=loss_mode, pairing=pairing,
                      feature_dim=8, extractor_hidden=12, head_hidden=10)
    params, history = train(bundle, cfg, seed=21)
    save_checkpoint(tmp_path / "golden.ckpt", params, config_hash="golden")
    data = (tmp_path / "golden.ckpt").read_bytes() + history_csv(history).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("loss_mode,pairing", sorted(GOLDEN_TRAIN_SHA256))
def test_training_bytes_match_golden(tiny_bundle, tmp_path, loss_mode, pairing):
    assert golden_train_digest(tiny_bundle, tmp_path, loss_mode, pairing) == GOLDEN_TRAIN_SHA256[(loss_mode, pairing)]


class TestScoring:
    def test_full_length_scoring_and_missing(self, plain_bundle, tmp_path):
        cfg = TrainConfig(max_epochs=1, patience=10, loss_mode="ce")
        params, _ = train(plain_bundle, cfg, seed=3)
        eval_records = [r for r in plain_bundle.manifest if r.subset == "eval"]
        eval_manifest = TrialManifest(eval_records, plain_bundle.manifest.root)
        features, missing = manifest_features(eval_manifest)
        assert not missing and set(features) == {r.trial_id for r in eval_records}
        scores, missing = score_manifest(eval_manifest, params, features, "eval")
        assert not missing and len(scores) == len(eval_manifest)
        # run_experiment scores from the bundle's features: the same bytes
        from_bundle = {tid: plain_bundle.view(tid, 0) for tid in features}
        rescored, _ = score_manifest(eval_manifest, params, from_bundle, "eval")
        assert [e.score for e in scores.entries] == [e.score for e in rescored.entries]

        gone = TrialRecord("gone", "gone.wav", "bonafide", "-", "gone", "eval")
        with_gone = TrialManifest(eval_records + [gone], plain_bundle.manifest.root)
        features, missing = manifest_features(with_gone)
        assert missing == ["gone"] and "gone" not in features
        scores, missing = score_manifest(with_gone, params, features, "eval")
        assert missing == ["gone"] and len(scores) == len(eval_records)

    def test_short_trial_crop_is_noop(self, tiny_bundle):
        from spoofcm.training import _crop

        rng = np.random.default_rng(0)
        seq = np.zeros((120, 25))
        assert _crop(seq, 398, rng) is seq


class TestCheckpointFiles:
    def test_roundtrip_and_byte_determinism(self, tmp_path):
        p = init_model(9, feature_dim=8, extractor_hidden=6, head_hidden=7)
        p.feat_mean[...] = 1.5
        save_checkpoint(tmp_path / "a.ckpt", p, config_hash="abc")
        save_checkpoint(tmp_path / "b.ckpt", p, config_hash="abc")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        loaded, h = load_checkpoint(tmp_path / "a.ckpt")
        assert h == "abc"
        assert np.array_equal(flat(loaded), flat(p))
        assert np.array_equal(loaded.feat_mean, p.feat_mean)
        header = json.loads((tmp_path / "a.ckpt").read_bytes().split(b"\n", 1)[0])
        assert (header["version"], header["dtype"], loaded.dtype) == (2, "<f4", np.float32)

    def test_float64_and_version_1_checkpoints_load_as_float64(self, tmp_path):
        p = with_dtype(init_model(9, feature_dim=8, extractor_hidden=6, head_hidden=7), np.float64)
        save_checkpoint(tmp_path / "f8.ckpt", p, config_hash="abc")
        header, blob = (tmp_path / "f8.ckpt").read_bytes().split(b"\n", 1)
        spec = json.loads(header)
        assert (spec["version"], spec["dtype"]) == (2, "<f8")
        del spec["dtype"]  # a version-1 header: no dtype key, "<f8" tensors
        spec["version"] = 1
        (tmp_path / "v1.ckpt").write_bytes(json.dumps(spec).encode() + b"\n" + blob)
        for name in ("f8.ckpt", "v1.ckpt"):
            loaded, h = load_checkpoint(tmp_path / name)
            assert loaded.dtype == np.float64 and h == "abc"
            assert all(np.array_equal(getattr(loaded, n), getattr(p, n)) for n in p.FIELDS)

    def test_unknown_dtype_makes_score_exit_2(self, tmp_path, capsys):
        from spoofcm.cli import main

        save_checkpoint(tmp_path / "c.ckpt", init_model(9, feature_dim=8, extractor_hidden=6, head_hidden=7))
        header, blob = (tmp_path / "c.ckpt").read_bytes().split(b"\n", 1)
        (tmp_path / "c.ckpt").write_bytes(header.replace(b'"<f4"', b'"<f2"') + b"\n" + blob)
        write_wav(tmp_path / "a.wav", harmonic_speechlike(duration=0.5))
        TrialManifest([TrialRecord("a", "a.wav", "bonafide", "-", "a", "eval")], tmp_path).save(tmp_path / "m.tsv")
        args = ["score", "--checkpoint", str(tmp_path / "c.ckpt"), "--manifest", str(tmp_path / "m.tsv")]
        assert main([*args, "--out", str(tmp_path / "s.txt")]) == 2
        assert "'<f2'" in capsys.readouterr().err and not (tmp_path / "s.txt").exists()

    @pytest.fixture(scope="class")
    def ckpt_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
        save_checkpoint(path, init_model(9, feature_dim=8, extractor_hidden=6, head_hidden=7), "abc")
        return path.read_bytes()

    def test_malformed_checkpoints_raise_data_error(self, ckpt_bytes, tmp_path):
        header, blob = ckpt_bytes.split(b"\n", 1)
        spec = json.loads(header)
        spec["tensors"][0]["shape"] = spec["tensors"][0]["shape"][::-1]  # same bytes, wrong layout
        cases = {
            "garbage": b"\x00\xffnot a checkpoint",
            "truncated": ckpt_bytes[:-8],
            "padded": ckpt_bytes + bytes(8),
            "format": header.replace(b"spoofcm-checkpoint", b"other") + b"\n" + blob,
            "shape": json.dumps(spec).encode() + b"\n" + blob,
            "dtype": header.replace(b'"<f4"', b'"<f2"') + b"\n" + blob,
            "no dtype": header.replace(b'"dtype": "<f4", ', b"") + b"\n" + blob,
        }
        for name, data in cases.items():
            (tmp_path / name).write_bytes(data)
            with pytest.raises(DataError):
                load_checkpoint(tmp_path / name)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_checkpoint_raises_only_spoofcm_errors(self, ckpt_bytes, data, tmp_path_factory):
        cut = data.draw(st.integers(min_value=0, max_value=len(ckpt_bytes)))
        at = data.draw(st.integers(min_value=0, max_value=cut))
        noise = data.draw(st.binary(max_size=16))
        path = tmp_path_factory.getbasetemp() / "corrupt.ckpt"
        path.write_bytes(ckpt_bytes[:at] + noise + ckpt_bytes[at + len(noise) : cut])
        try:
            load_checkpoint(path)
        except SpoofcmError:
            pass

    def test_history_csv_shape(self):
        from spoofcm.training import EpochStats

        rows = [EpochStats(0, 1.0, 0.75, 0.25, 0.0, 2.0, 0.25, 1e-3)]
        text = history_csv(rows)
        assert text.splitlines()[0] == "epoch,train_loss,ce,cf_seq,cf_utt,dev_loss,dev_eer,lr"
        assert text.splitlines()[1].startswith("0,1.0,0.75,0.25,0.0,2.0,0.25,")
