import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spoofcm.training as training_mod
from spoofcm.audio_io import write_wav
from spoofcm.augment import RawBoostLike
from spoofcm.errors import ConfigError, DataError, SpoofcmError
from spoofcm.manifest import TrialManifest, TrialRecord
from spoofcm.model import init_model
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
from spoofcm.vocoders import CoarseMelGlChannel, PhaseRandomChannel, build_vocoded_set

from conftest import harmonic_speechlike

SR = 16000


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinycorpus")
    records = []
    subsets = ["train"] * 5 + ["dev"] * 2 + ["eval"] * 2
    for i, subset in enumerate(subsets):
        tid = f"t{i:02d}"
        w = harmonic_speechlike(duration=0.8, f0=120.0 + 15 * i, seed=300 + i)
        write_wav(root / f"{tid}.wav", w)
        records.append(TrialRecord(tid, f"{tid}.wav", "bonafide", "-", tid, subset))
    manifest = TrialManifest(records, root=root)
    combined = build_vocoded_set(manifest, [CoarseMelGlChannel(), PhaseRandomChannel()], root / "voc")
    combined.save(root / "voc" / "manifest.tsv")
    return DataBundle(combined, RawBoostLike(seed=0), master_seed=99)


@pytest.fixture(scope="module")
def plain_bundle(tiny_bundle):
    """The same trials with no augmentation: training sees original views only."""
    return DataBundle(tiny_bundle.manifest, None, master_seed=99)


class TestAdam:
    def test_first_step_magnitude(self):
        p = init_model(0, feature_dim=8, extractor_hidden=6, head_hidden=7)
        state = adam_init(p)
        grads = {k: np.full_like(getattr(p, k), 3.0) for k in p.TRAINABLE}
        before = p.flatten()
        adam_step(p, grads, state, lr=0.01)
        delta = np.abs(p.flatten() - before)
        assert np.all(delta >= 0.99 * 0.01) and np.all(delta <= 0.01 + 1e-12)

    def test_zero_gradients_leave_params_unchanged(self):
        p = init_model(1, feature_dim=8, extractor_hidden=6, head_hidden=7)
        state = adam_init(p)
        before = p.flatten()
        for _ in range(5):
            adam_step(p, {k: np.zeros_like(getattr(p, k)) for k in p.TRAINABLE}, state, lr=0.1)
        assert np.array_equal(p.flatten(), before)

    def test_scalar_quadratic_matches_oracle_and_decreases(self):
        from reference import scalar_adam_oracle

        # x0 = 20 keeps the iterate away from the sign flip where Adam
        # momentum makes |x| oscillate
        p = init_model(2, feature_dim=8, extractor_hidden=6, head_hidden=7)
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
        batch = compose_batch(tiny_bundle, "t00", k_views=1, mode="paired", rng=rng, max_frames=398)
        assert len(batch.bona_views) == 2  # 1 + K
        assert len(batch.spoof_views) == 4  # S(1 + K), S = 2 channels here
        assert len({m.shape for m in batch.members}) == 1

    def test_k0_composition_error(self, tiny_bundle):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigError):
            compose_batch(tiny_bundle, "t00", k_views=0, mode="paired", rng=rng, max_frames=398)

    def test_paired_mode_pulls_pairing_index(self, tiny_bundle):
        rng = np.random.default_rng(2)
        batch = compose_batch(tiny_bundle, "t01", k_views=1, mode="paired", rng=rng, max_frames=10_000)
        expected = tiny_bundle.pairing["t01"]
        for got, sid in zip(batch.spoof_views[: len(expected)], expected):
            full = tiny_bundle.base(sid)
            n = got.shape[0]
            assert any(
                np.array_equal(got, full[s : s + n]) for s in range(full.shape[0] - n + 1)
            )

    def test_random_mode_needs_pool(self, tiny_bundle):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            compose_batch(tiny_bundle, "t00", 1, "random", rng, 398, spoof_pool=[])
        pool = tiny_bundle.ids(label="spoof")
        batch = compose_batch(tiny_bundle, "t00", 1, "random", rng, 398, spoof_pool=pool)
        assert len(batch.spoof_views) == 4


class TestTrainLoop:
    @pytest.mark.parametrize(
        "field",
        ["batch_size", "lr_decay_every", "patience", "max_epochs", "feature_dim", "extractor_hidden", "head_hidden"],
    )
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: 0})

    def test_negative_k_views_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(k_views=-1)
        assert TrainConfig(k_views=0).k_views == 0

    def test_determinism(self, plain_bundle):
        cfg = TrainConfig(max_epochs=3, patience=10, loss_mode="ce")
        p1, h1 = train(plain_bundle, cfg, seed=42)
        p2, h2 = train(plain_bundle, cfg, seed=42)
        assert h1 == h2
        assert np.array_equal(p1.flatten(), p2.flatten())

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
        assert np.array_equal(best.flatten(), snapshots[0].flatten())

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

    def test_single_class_rejected(self, tiny_bundle, tmp_path):
        bona_only = TrialManifest(
            [r for r in tiny_bundle.manifest if r.label == "bonafide"], tiny_bundle.manifest.root
        )
        bundle = DataBundle(bona_only, None, master_seed=0)
        with pytest.raises(ConfigError):
            train(bundle, TrainConfig(max_epochs=1), seed=0)


# SHA-256 of checkpoint bytes followed by history_csv, recorded before the
# training step was made lean (np.maximum LeakyReLU, slope lookup, in-place
# Adam). The speedups must keep every byte.
GOLDEN_TRAIN_SHA256 = {
    ("ce", "random"): "095724173b4ace1675b9614510e0af8f844c4c8f47dbc743285cfb1bdc9ba67e",
    ("ce+cf", "paired"): "e9392b4432d8bbaadeb905d926512799e633fe30a9f1ff7029af8592d487a261",
}


@pytest.mark.parametrize("loss_mode,pairing", sorted(GOLDEN_TRAIN_SHA256))
def test_training_bytes_match_golden(tiny_bundle, tmp_path, loss_mode, pairing):
    cfg = TrainConfig(max_epochs=2, patience=10, loss_mode=loss_mode, pairing=pairing,
                      feature_dim=8, extractor_hidden=12, head_hidden=10)
    params, history = train(tiny_bundle, cfg, seed=21)
    save_checkpoint(tmp_path / "golden.ckpt", params, config_hash="golden")
    data = (tmp_path / "golden.ckpt").read_bytes() + history_csv(history).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == GOLDEN_TRAIN_SHA256[(loss_mode, pairing)]


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
        from_bundle = {tid: plain_bundle.base(tid) for tid in features}
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
        assert np.array_equal(loaded.flatten(), p.flatten())
        assert np.array_equal(loaded.feat_mean, p.feat_mean)

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

        rows = [EpochStats(0, 1.0, 2.0, 0.25, 1e-3)]
        text = history_csv(rows)
        assert text.splitlines()[0] == "epoch,train_loss,dev_loss,dev_eer,lr"
        assert text.splitlines()[1].startswith("0,1.0,2.0,0.25,")
