"""Training loop: Adam with a step learning-rate schedule, 4-second random
crops, paired or random contrastive mini-batches, early stopping on the
development loss, and deterministic checkpoints.

All randomness is derived from the run seed; reruns are bit-identical.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import read_wav
from .augment import AugmentOp, apply_augment, reseeded
from .contrastive import BatchComposition, CfConfig
from .errors import ConfigError, DataError, SpoofcmError
from .manifest import TrialManifest
from .metrics import EerResult, ScoreEntry, ScoreSet, compute_eer
from .model import (
    FRAME_HOP,
    FRAME_WIN,
    LossConfig,
    ModelParams,
    ce_and_grad,
    extract_base_features,
    forward_backward,
    forward_member,
    init_model,
)
from .util import derive_seed

PAPER_LR0 = 5e-6  # published recipe for a large pre-trained front end


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-3  # desk-scale default; PAPER_LR0 is the documented override
    lr_decay: float = 0.1
    lr_decay_every: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 8
    max_seconds: float = 4.0
    patience: int = 10
    max_epochs: int = 40
    loss_mode: str = "ce"  # "ce" or "ce+cf"
    pairing: str = "paired"  # spoof views paired with the batch's bona fide trial, or random
    k_views: int = 1  # augmented views per trial (all batches, when the bundle augments)
    feature_dim: int = 32
    extractor_hidden: int = 64
    head_hidden: int = 64
    cf: CfConfig = field(default_factory=CfConfig)

    def __post_init__(self):
        counts = ("patience", "max_epochs", "batch_size", "lr_decay_every",
                  "feature_dim", "extractor_hidden", "head_hidden")
        if min(getattr(self, name) for name in counts) < 1:
            raise ConfigError(f"{', '.join(counts)} must be >= 1")
        if self.k_views < 0:
            raise ConfigError(f"k_views must be >= 0, got {self.k_views}")
        if self.loss_mode not in ("ce", "ce+cf"):
            raise ConfigError(f"loss_mode must be 'ce' or 'ce+cf', got {self.loss_mode!r}")
        if self.pairing not in ("paired", "random"):
            raise ConfigError(f"pairing must be 'paired' or 'random', got {self.pairing!r}")
        if min(self.lr0, self.lr_decay, self.max_seconds, self.eps) <= 0:
            raise ConfigError("learning-rate, decay, eps and max_seconds must be positive")

    def max_frames(self, sample_rate: int = 16000) -> int:
        samples = int(self.max_seconds * sample_rate)
        return max(1, (samples - FRAME_WIN) // FRAME_HOP + 1)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def adam_init(params: ModelParams) -> AdamState:
    return AdamState(m=params.zero_grads(), v=params.zero_grads())


def adam_step(
    params: ModelParams,
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """Bias-corrected Adam update, applied in place."""
    state.step += 1
    t = state.step
    for name in params.TRAINABLE:
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        getattr(params, name)[...] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


# ---------------------------------------------------------------------------
# Data access
# ---------------------------------------------------------------------------

class DataBundle:
    """Base features for every trial plus lazily computed augmented views.

    Augmented views are fixed per (trial, view index): their seeds derive
    from the bundle's master seed, so every epoch sees the same view and
    reruns are deterministic.
    """

    def __init__(self, manifest: TrialManifest, augment_op: AugmentOp | None, master_seed: int):
        self.manifest = manifest
        self.augment_op = augment_op
        self.master_seed = master_seed
        self.trials: dict[str, dict] = {}
        self.pairing: dict[str, list[str]] = {}
        for rec in manifest:
            w = read_wav(manifest.resolve(rec))
            self.trials[rec.trial_id] = {
                "record": rec,
                "base": extract_base_features(w),
                "path": manifest.resolve(rec),
            }
            if rec.label == "bonafide":
                self.pairing.setdefault(rec.trial_id, [])
        for rec in manifest:
            if rec.label == "spoof" and rec.source_id in self.pairing:
                self.pairing[rec.source_id].append(rec.trial_id)
        self.pairing = {k: sorted(v) for k, v in self.pairing.items()}
        self._views: dict[tuple[str, int], np.ndarray] = {}

    def ids(self, subset: str | None = None, label: str | None = None) -> list[str]:
        out = []
        for tid, t in self.trials.items():
            rec = t["record"]
            if subset and rec.subset != subset:
                continue
            if label and rec.label != label:
                continue
            out.append(tid)
        return sorted(out)

    def label(self, trial_id: str) -> int:
        return 1 if self.trials[trial_id]["record"].label == "bonafide" else 0

    def base(self, trial_id: str) -> np.ndarray:
        return self.trials[trial_id]["base"]

    def view(self, trial_id: str, view_index: int) -> np.ndarray:
        """Augmented view's base features (view_index >= 1)."""
        if view_index == 0:
            return self.base(trial_id)
        if self.augment_op is None:
            raise ConfigError("augmented views requested but no augmentation is configured")
        key = (trial_id, view_index)
        if key not in self._views:
            op = reseeded(self.augment_op, derive_seed(self.master_seed, trial_id, view_index))
            w = read_wav(self.trials[trial_id]["path"])
            self._views[key] = extract_base_features(apply_augment(w, op))
        return self._views[key]


def compose_batch(
    bundle: DataBundle,
    bona_id: str,
    k_views: int,
    mode: str,
    rng: np.random.Generator,
    max_frames: int,
    spoof_pool: list[str] | None = None,
) -> BatchComposition:
    """Build one contrastive mini-batch around a bona fide trial.

    Paired mode takes the trial's own vocoded spoofs; random mode samples
    the same number of spoofs from the provided pool. The bona fide views
    are the original plus k_views augmented copies, and every spoof gets
    k_views augmented copies too. All members are cropped to a shared
    frame window (aligned in paired mode).
    """
    if bundle.label(bona_id) != 1:
        raise ConfigError(f"{bona_id} is not a bona fide trial")
    paired_ids = bundle.pairing.get(bona_id, [])
    if mode == "paired":
        spoof_ids = paired_ids
        if not spoof_ids:
            raise ConfigError(f"no paired spoofs for {bona_id}")
    elif mode == "random":
        pool = spoof_pool if spoof_pool is not None else []
        count = len(paired_ids) if paired_ids else min(4, len(pool))
        if count == 0 or len(pool) < count:
            raise ConfigError("random pairing needs a spoof pool at least as large as S")
        spoof_ids = [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]
    else:
        raise ConfigError(f"unknown pairing mode {mode!r}")

    bona_views = [bundle.base(bona_id)] + [bundle.view(bona_id, k) for k in range(1, k_views + 1)]
    spoof_views = [bundle.base(s) for s in spoof_ids]
    for k in range(1, k_views + 1):
        spoof_views += [bundle.view(s, k) for s in spoof_ids]

    members = bona_views + spoof_views
    common = min(min(m.shape[0] for m in members), max_frames)
    if mode == "paired":
        start = int(rng.integers(0, min(m.shape[0] for m in members) - common + 1))
        members = [m[start : start + common] for m in members]
    else:
        members = [
            m[(s := int(rng.integers(0, m.shape[0] - common + 1))) : s + common] for m in members
        ]
    n_bona = len(bona_views)
    return BatchComposition(members[:n_bona], members[n_bona:])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float
    dev_eer: float
    lr: float


def _crop(seq: np.ndarray, max_frames: int, rng: np.random.Generator) -> np.ndarray:
    if seq.shape[0] <= max_frames:
        return seq
    start = int(rng.integers(0, seq.shape[0] - max_frames + 1))
    return seq[start : start + max_frames]


def _dev_metrics(bundle: DataBundle, dev_ids: list[str], params: ModelParams) -> tuple[float, float]:
    losses = []
    entries = []
    for tid in dev_ids:
        cache = forward_member(bundle.base(tid), params)
        losses.append(ce_and_grad(cache["logits"], bundle.label(tid))[0])
        rec = bundle.trials[tid]["record"]
        entries.append(ScoreEntry(tid, cache["score"], rec.label, rec.attack_tag, "dev"))
    dev_loss = float(np.mean(losses))
    dev_eer = compute_eer(ScoreSet(entries, "dev")).eer
    return dev_loss, dev_eer


def fit_standardization(params: ModelParams, bundle: DataBundle, train_ids: list[str]) -> None:
    """Freeze per-dimension mean/scale of the front-end features into the model."""
    stacked = np.vstack([bundle.base(t) for t in train_ids])
    params.feat_mean[...] = stacked.mean(axis=0)
    params.feat_scale[...] = stacked.std(axis=0) + 1e-8


def train(
    bundle: DataBundle,
    cfg: TrainConfig,
    seed: int,
) -> tuple[ModelParams, list[EpochStats]]:
    """Train on the bundle's train subset with early stopping on dev loss.

    Returns the best-dev checkpoint and the per-epoch history. Improvement
    is strict; ties keep the earlier checkpoint.
    """
    train_ids = bundle.ids(subset="train")
    dev_ids = bundle.ids(subset="dev")
    if not train_ids or not dev_ids:
        raise ConfigError("need non-empty train and dev subsets")
    train_labels = {bundle.label(t) for t in train_ids}
    if len(train_labels) < 2:
        raise ConfigError("training set must contain both classes")

    params = init_model(
        derive_seed(seed, "init"), cfg.feature_dim, cfg.extractor_hidden, cfg.head_hidden
    )
    fit_standardization(params, bundle, train_ids)
    state = adam_init(params)
    rng = np.random.default_rng(derive_seed(seed, "train-loop"))
    max_frames = cfg.max_frames()
    loss_cfg = LossConfig(mode=cfg.loss_mode, cf=cfg.cf)

    bona_train = bundle.ids(subset="train", label="bonafide")
    spoof_train = bundle.ids(subset="train", label="spoof")
    history: list[EpochStats] = []
    best_loss = np.inf
    best_params = params.copy()
    epochs_since_best = 0

    for epoch in range(cfg.max_epochs):
        lr = cfg.lr0 * cfg.lr_decay ** (epoch // cfg.lr_decay_every)
        epoch_losses = []
        if cfg.loss_mode == "ce":
            items = [(t, 0) for t in train_ids]
            if bundle.augment_op is not None:
                items += [(t, k) for t in train_ids for k in range(1, cfg.k_views + 1)]
            order = rng.permutation(len(items))
            for s in range(0, len(order), cfg.batch_size):
                chunk = [items[i] for i in order[s : s + cfg.batch_size]]
                members = [_crop(bundle.view(t, k), max_frames, rng) for t, k in chunk]
                labels = [bundle.label(t) for t, _ in chunk]
                loss, grads, _ = forward_backward(members, labels, params, loss_cfg, batch_id=f"ep{epoch}")
                epoch_losses.append(loss)
                adam_step(params, grads, state, lr, cfg.beta1, cfg.beta2, cfg.eps)
        else:
            for idx in rng.permutation(len(bona_train)):
                bona_id = bona_train[idx]
                batch = compose_batch(
                    bundle, bona_id, cfg.k_views, cfg.pairing, rng, max_frames, spoof_pool=spoof_train
                )
                loss, grads, _ = forward_backward(
                    batch.members, batch.labels, params, loss_cfg, batch_id=bona_id
                )
                epoch_losses.append(loss)
                adam_step(params, grads, state, lr, cfg.beta1, cfg.beta2, cfg.eps)

        dev_loss, dev_eer = _dev_metrics(bundle, dev_ids, params)
        history.append(EpochStats(epoch, float(np.mean(epoch_losses)), dev_loss, dev_eer, lr))
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break
    return best_params, history


def manifest_features(manifest: TrialManifest, transform=None) -> tuple[dict[str, np.ndarray], list[str]]:
    """Base features of every trial at full length (no crop), keyed by trial
    id; unreadable trials are reported back as missing rather than failing
    the whole set.

    ``transform`` optionally maps each waveform first (for example
    non-speech trimming)."""
    features = {}
    missing = []
    for rec in manifest:
        try:
            w = read_wav(manifest.resolve(rec))
            if transform is not None:
                w = transform(w)
            features[rec.trial_id] = extract_base_features(w)
        except DataError:
            missing.append(rec.trial_id)
    return features, missing


def score_manifest(
    manifest: TrialManifest, params: ModelParams, features: Mapping[str, np.ndarray], set_name: str = ""
) -> tuple[ScoreSet, list[str]]:
    """Score every trial of the manifest from its base features; trials
    without features are reported back as missing."""
    entries = []
    missing = []
    for rec in manifest:
        base = features.get(rec.trial_id)
        if base is None:
            missing.append(rec.trial_id)
            continue
        score = forward_member(base, params)["score"]
        entries.append(ScoreEntry(rec.trial_id, score, rec.label, rec.attack_tag, set_name))
    return ScoreSet(entries, name=set_name), missing


# ---------------------------------------------------------------------------
# Checkpoints and history files (deterministic bytes)
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "spoofcm-checkpoint"


def save_checkpoint(path: str | Path, params: ModelParams, config_hash: str = "") -> None:
    header = {
        "format": _CKPT_MAGIC,
        "version": 1,
        "config_hash": config_hash,
        "tensors": [
            {"name": n, "shape": list(getattr(params, n).shape)} for n in ModelParams.FIELDS
        ],
    }
    blob = b"".join(np.ascontiguousarray(getattr(params, n), dtype="<f8").tobytes() for n in ModelParams.FIELDS)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(blob)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, str]:
    """Read a checkpoint written by ``save_checkpoint``; any malformed or
    truncated file raises DataError."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            first_line = f.readline()
            blob = f.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    try:
        header = json.loads(first_line.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise DataError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _CKPT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint")
    specs = header.get("tensors")
    if not isinstance(specs, list) or len(specs) != len(ModelParams.FIELDS):
        raise DataError(f"{path}: checkpoint must hold the tensors {list(ModelParams.FIELDS)}")
    kwargs = {}
    pos = 0
    for name, spec in zip(ModelParams.FIELDS, specs):
        shape = spec.get("shape") if isinstance(spec, dict) and spec.get("name") == name else None
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"{path}: expected tensor {name} with a valid shape, got {spec!r}")
        end = pos + 8 * math.prod(shape)
        if end > len(blob):
            raise DataError(f"{path}: truncated: tensor data ends at byte {len(blob)}, inside {name}")
        kwargs[name] = np.frombuffer(blob[pos:end], dtype="<f8").reshape(shape).copy()
        pos = end
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} bytes follow the last tensor")
    try:
        params = ModelParams(**kwargs)
    except SpoofcmError as exc:  # inconsistent layer shapes or non-finite values
        raise DataError(f"{path}: {exc}") from exc
    return params, header.get("config_hash", "")


def history_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,dev_loss,dev_eer,lr"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.dev_loss!r},{h.dev_eer!r},{h.lr!r}")
    return "\n".join(lines) + "\n"
