"""Training loop: Adam with a step learning-rate schedule, 4-second random
crops, paired or random contrastive mini-batches, early stopping on the
development loss, and deterministic checkpoints.

All randomness is derived from the run seed; reruns are bit-identical.
Training runs in the parameters' dtype, float32 (``model.PARAM_DTYPE``):
the forward and backward passes, the contrastive terms, the gradients and
Adam's moments. The features are computed in float64 and stored as float32,
because the stored views are most of a bundle's memory and training reads
them in float32 anyway; ``manifest_features`` stores the eval features the
same way. Checkpoints keep the parameters' dtype.

A training batch is one ``forward_backward`` call, which runs the pooled
head once for the whole batch, and one ``adam_step``, which updates all
tensors as one concatenated vector. Scoring and the dev pass instead call
``model.forward`` with one trial at a time, so that a trial's score does
not depend on the other trials scored with it (``score_manifest`` says why).

Per-trial features (a bundle's base features and augmented views, and
``manifest_features``) are mapped by ``util.parallel_map``, one trial or
view per item weighted by its WAV's bytes, and come back in input order,
so they are byte-identical for any CPU count. A bundle builds only the
views it is not handed: ``run`` hands it the base features stored beside
the vocoded set (``experiment.ensure_data_bundle``), so a rerun builds only
the augmented views. A bundle's views are read-only.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .audio_io import read_wav
from .augment import apply_augment
from .contrastive import CfConfig
from .corpus import SAMPLE_RATE
from .errors import ConfigError, DataError, SpoofcmError
from .manifest import TrialManifest
from .metrics import ScoreEntry, ScoreSet, compute_eer
from .model import (
    FRAME_HOP,
    FRAME_WIN,
    PARAM_DTYPE,
    LossConfig,
    ModelParams,
    cross_entropy,
    extract_base_features,
    forward,
    forward_backward,
    init_model,
)
from .util import derive_seed, file_size, parallel_map, table_text, write_file

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-3  # desk scale; the paper's large pre-trained front end used 5e-6
    lr_decay: float = 0.1
    lr_decay_every: int = 10
    batch_size: int = 8  # ce only; a ce+cf batch is one bona fide trial and its spoofs
    max_seconds: float = 4.0
    patience: int = 10
    max_epochs: int = 40
    loss_mode: str = "ce"  # "ce" or "ce+cf"
    pairing: str = "paired"  # ce+cf only: spoof views paired with the batch's bona fide trial, or random
    feature_dim: int = 32
    extractor_hidden: int = 64
    head_hidden: int = 64
    cf: CfConfig = field(default_factory=CfConfig)

    def __post_init__(self):
        counts = ("patience", "max_epochs", "batch_size", "lr_decay_every",
                  "feature_dim", "extractor_hidden", "head_hidden")
        if min(getattr(self, name) for name in counts) < 1:
            raise ConfigError(f"{', '.join(counts)} must be >= 1")
        if self.loss_mode not in ("ce", "ce+cf"):
            raise ConfigError(f"loss_mode must be 'ce' or 'ce+cf', got {self.loss_mode!r}")
        if self.pairing not in ("paired", "random"):
            raise ConfigError(f"pairing must be 'paired' or 'random', got {self.pairing!r}")
        for name in ("lr0", "lr_decay", "max_seconds"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)!r}")

    def max_frames(self) -> int:
        """Front-end frames in a max_seconds crop at the desk rate."""
        samples = int(self.max_seconds * SAMPLE_RATE)
        return max(1, (samples - FRAME_WIN) // FRAME_HOP + 1)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's moments as flat vectors over the trainable tensors, in
    ``ModelParams.TRAINABLE`` order, in the parameters' dtype."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(params: ModelParams) -> AdamState:
    size = sum(getattr(params, name).size for name in params.TRAINABLE)
    return AdamState(m=np.zeros(size, params.dtype), v=np.zeros(size, params.dtype))


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float) -> tuple[ModelParams, AdamState]:
    """Bias-corrected Adam update, applied in place: one update of the
    concatenated gradients, then each tensor subtracts its slice. Every
    operation is elementwise, so the bytes are those of a per-tensor update."""
    state.step += 1
    t = state.step
    g = np.concatenate([grads[name].ravel() for name in params.TRAINABLE])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    pos = 0
    for name in params.TRAINABLE:
        arr = getattr(params, name)
        arr -= update[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return params, state


# ---------------------------------------------------------------------------
# Data access
# ---------------------------------------------------------------------------

def _trial_features(manifest: TrialManifest, transform, rec) -> np.ndarray:
    """Base features of one trial's audio, mapped by ``transform`` first
    unless it is None, stored in the training dtype."""
    w = read_wav(manifest.resolve(rec))
    return extract_base_features(w if transform is None else transform(w)).astype(PARAM_DTYPE)


class DataBundle:
    """Every feature array that training on the manifest's trials can ask
    for, built once by the constructor and read-only after it.

    Records and paths are read through the manifest; the bundle adds only
    ``pairing`` (bona fide id -> its sorted spoof ids) and its views, keyed
    by (trial id, view index). View 0 of every trial is its base features;
    views 1..k_views of every train trial apply the augmentation kind with
    a seed derived from the master seed, the trial and the index, so every
    epoch sees the same view and reruns are deterministic. ``k_views`` is 0
    when the kind is None (no augmentation).

    ``views`` may hand the constructor some of these arrays, by key, as
    ``experiment.ensure_data_bundle`` hands it the stored base features;
    a key it holds is not built again. The other views are built in one
    ``util.parallel_map``, weighted by WAV bytes, and are byte-identical for
    any CPU count. View-0 keys come first, in manifest order, so an
    unreadable trial raises the DataError of the first such trial in
    manifest order. Every view, given or built, is made read-only.
    """

    def __init__(self, manifest: TrialManifest, augment_kind: str | None, master_seed: int, k_views: int,
                 views: Mapping[tuple[str, int], np.ndarray] | None = None):
        if k_views < 0:
            raise ConfigError(f"k_views must be >= 0, got {k_views}")
        self.manifest = manifest
        self.augment_kind = augment_kind
        self.master_seed = master_seed
        self.k_views = 0 if augment_kind is None else k_views
        given = views or {}
        keys = [(r.trial_id, 0) for r in manifest]
        keys += [(t, k) for t in self.ids(subset="train") for k in range(1, self.k_views + 1)]
        todo = [key for key in keys if key not in given]
        built = dict(zip(todo, parallel_map(self._build, todo, weights=[
            file_size(manifest.resolve(manifest.by_id(t))) for t, _ in todo])))
        self._views = {key: given[key] if key in given else built[key] for key in keys}
        for view in self._views.values():
            view.setflags(write=False)  # a stray write would reach every later seed trained here
        self.pairing: dict[str, list[str]] = {r.trial_id: [] for r in manifest if r.label == "bonafide"}
        for rec in sorted(manifest, key=lambda r: r.trial_id):  # so each list is sorted
            if rec.label == "spoof" and rec.source_id in self.pairing:
                self.pairing[rec.source_id].append(rec.trial_id)

    def _build(self, key: tuple[str, int]) -> np.ndarray:
        """The features of one view: the trial's audio, augmented first unless the index is 0."""
        trial_id, k = key
        seed = derive_seed(self.master_seed, trial_id, k)
        augment = None if k == 0 else lambda w: apply_augment(w, self.augment_kind, seed)
        return _trial_features(self.manifest, augment, self.manifest.by_id(trial_id))

    def ids(self, subset: str | None = None, label: str | None = None) -> list[str]:
        return sorted(
            rec.trial_id for rec in self.manifest
            if (not subset or rec.subset == subset) and (not label or rec.label == label)
        )

    def label(self, trial_id: str) -> int:
        return 1 if self.manifest.by_id(trial_id).label == "bonafide" else 0

    def view(self, trial_id: str, view_index: int) -> np.ndarray:
        """The features of a view the bundle holds (0: the base features)."""
        try:
            return self._views[trial_id, view_index]
        except KeyError:
            raise ConfigError(f"the bundle holds no view {view_index} of trial {trial_id}") from None


def compose_batch(
    bundle: DataBundle,
    bona_id: str,
    mode: str,
    rng: np.random.Generator,
    max_frames: int,
    spoof_pool: list[str] | None = None,
) -> tuple[list[np.ndarray], list[int]]:
    """Build one contrastive mini-batch around a bona fide trial: its members
    and their labels (1 bona fide, 0 spoofed), bona fide members first.

    Paired mode takes the trial's own vocoded spoofs; random mode samples
    the same number of spoofs from the provided pool. In either mode a trial
    without paired spoofs is a ConfigError. The bona fide views
    are the original plus the bundle's k_views augmented copies, and every
    spoof gets k_views augmented copies too. All members are cropped to a
    shared frame window (aligned in paired mode).
    """
    if bundle.label(bona_id) != 1:
        raise ConfigError(f"{bona_id} is not a bona fide trial")
    if mode not in ("paired", "random"):
        raise ConfigError(f"unknown pairing mode {mode!r}")
    spoof_ids = bundle.pairing.get(bona_id, [])
    if not spoof_ids:
        raise ConfigError(f"no paired spoofs for {bona_id}")
    if mode == "random":
        pool = spoof_pool if spoof_pool is not None else []
        if len(pool) < len(spoof_ids):
            raise ConfigError("random pairing needs a spoof pool at least as large as S")
        spoof_ids = [pool[i] for i in rng.choice(len(pool), size=len(spoof_ids), replace=False)]

    bona_views = [bundle.view(bona_id, k) for k in range(bundle.k_views + 1)]
    spoof_views = [bundle.view(s, k) for k in range(bundle.k_views + 1) for s in spoof_ids]

    members = bona_views + spoof_views
    common = min(min(m.shape[0] for m in members), max_frames)
    if mode == "paired":
        start = int(rng.integers(0, min(m.shape[0] for m in members) - common + 1))
        members = [m[start : start + common] for m in members]
    else:
        members = [
            m[(s := int(rng.integers(0, m.shape[0] - common + 1))) : s + common] for m in members
        ]
    return members, [1] * len(bona_views) + [0] * len(spoof_views)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    """One row of history.csv. ``ce``, ``cf_seq`` and ``cf_utt`` split
    ``train_loss`` into its terms (``forward_backward``'s parts), each the
    epoch's mean over batches; a term the loss mode lacks reads 0."""

    epoch: int
    train_loss: float
    ce: float
    cf_seq: float
    cf_utt: float
    dev_loss: float
    dev_eer: float
    lr: float


def _crop(seq: np.ndarray, max_frames: int, rng: np.random.Generator) -> np.ndarray:
    if seq.shape[0] <= max_frames:
        return seq
    start = int(rng.integers(0, seq.shape[0] - max_frames + 1))
    return seq[start : start + max_frames]


def _dev_metrics(bundle: DataBundle, dev_ids: list[str], params: ModelParams) -> tuple[float, float]:
    """Mean dev cross-entropy and dev EER, one trial per ``forward`` call
    (see ``score_manifest``)."""
    logits, entries = [], []
    for tid in dev_ids:
        cache = forward([bundle.view(tid, 0)], params)
        logits.append(cache["logits"])
        rec = bundle.manifest.by_id(tid)
        entries.append(ScoreEntry(tid, cache["score"][0], rec.label, rec.attack_tag))
    losses, _ = cross_entropy(np.vstack(logits), [bundle.label(t) for t in dev_ids])
    dev_eer = compute_eer(ScoreSet(entries, "dev")).eer
    return float(np.mean(losses, dtype=np.float64)), dev_eer


def fit_standardization(params: ModelParams, bundle: DataBundle, train_ids: list[str]) -> None:
    """Freeze per-dimension mean/scale of the front-end features into the model."""
    stacked = np.vstack([bundle.view(t, 0) for t in train_ids])
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
        epoch_losses, epoch_parts = [], []
        if cfg.loss_mode == "ce":
            items = [(t, 0) for t in train_ids] + [(t, k) for t in train_ids for k in range(1, bundle.k_views + 1)]
            order = rng.permutation(len(items))
            for s in range(0, len(order), cfg.batch_size):
                chunk = [items[i] for i in order[s : s + cfg.batch_size]]
                members = [_crop(bundle.view(t, k), max_frames, rng) for t, k in chunk]
                labels = [bundle.label(t) for t, _ in chunk]
                loss, grads, parts = forward_backward(members, labels, params, loss_cfg, batch_id=f"ep{epoch}")
                epoch_losses.append(loss)
                epoch_parts.append(parts)
                adam_step(params, grads, state, lr)
        else:
            for idx in rng.permutation(len(bona_train)):
                bona_id = bona_train[idx]
                members, labels = compose_batch(bundle, bona_id, cfg.pairing, rng, max_frames, spoof_pool=spoof_train)
                loss, grads, parts = forward_backward(members, labels, params, loss_cfg, batch_id=bona_id)
                epoch_losses.append(loss)
                epoch_parts.append(parts)
                adam_step(params, grads, state, lr)

        dev_loss, dev_eer = _dev_metrics(bundle, dev_ids, params)
        part_means = {k: float(np.mean([parts[k] for parts in epoch_parts])) for k in ("ce", "cf_seq", "cf_utt")}
        history.append(EpochStats(epoch, float(np.mean(epoch_losses)), **part_means,
                                  dev_loss=dev_loss, dev_eer=dev_eer, lr=lr))
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break
    return best_params, history


def _features_or_none(manifest: TrialManifest, transform, rec) -> np.ndarray | None:
    try:
        return _trial_features(manifest, transform, rec)
    except DataError:
        return None


def manifest_features(manifest: TrialManifest, transform=None) -> tuple[dict[str, np.ndarray], list[str]]:
    """Base features of every trial at full length (no crop), keyed by trial
    id; unreadable trials are reported back as missing, in manifest order,
    rather than failing the whole set.

    ``transform`` optionally maps each waveform first (for example
    non-speech trimming). Trials are mapped by ``util.parallel_map``,
    weighted by WAV bytes, and come back in manifest order: the result is
    byte-identical for any CPU count."""
    records = list(manifest)
    features = parallel_map(functools.partial(_features_or_none, manifest, transform), records,
                            weights=[file_size(manifest.resolve(r)) for r in records])
    missing = [r.trial_id for r, f in zip(records, features) if f is None]
    return {r.trial_id: f for r, f in zip(records, features) if f is not None}, missing


def score_manifest(
    manifest: TrialManifest, params: ModelParams, features: Mapping[str, np.ndarray], set_name: str = ""
) -> tuple[ScoreSet, list[str]]:
    """Score every trial of the manifest from its base features; trials
    without features are reported back as missing.

    Each trial is its own ``forward`` call, so that its score depends on
    the trial and the parameters only. A batch would not do: OpenBLAS
    rounds a matmul's rows differently for different row counts. For the
    first n rows of a random float32 (60, 64) @ (64, 2) product, the
    (n, 64) @ (64, 2) product differs from those rows for 41 of the 59
    counts n = 1..59."""
    entries = []
    missing = []
    for rec in manifest:
        base = features.get(rec.trial_id)
        if base is None:
            missing.append(rec.trial_id)
            continue
        score = forward([base], params)["score"][0]
        entries.append(ScoreEntry(rec.trial_id, score, rec.label, rec.attack_tag))
    return ScoreSet(entries, name=set_name), missing


# ---------------------------------------------------------------------------
# Checkpoints and history files (deterministic bytes)
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "spoofcm-checkpoint"
_CKPT_DTYPES = ("<f4", "<f8")


def save_checkpoint(path: str | Path, params: ModelParams, config_hash: str = "") -> None:
    """Write the parameters as one JSON header line, then every tensor's
    bytes in ``ModelParams.FIELDS`` order, little-endian and C order.

    The header holds ``format``, ``config_hash``, each tensor's ``name`` and
    ``shape``, ``version`` 2 and ``dtype``, the parameters' dtype as "<f4"
    or "<f8". Version 1 had no ``dtype`` and stored "<f8".
    """
    dtype = params.dtype.newbyteorder("<").str
    header = {
        "format": _CKPT_MAGIC,
        "version": 2,
        "dtype": dtype,
        "config_hash": config_hash,
        "tensors": [
            {"name": n, "shape": list(getattr(params, n).shape)} for n in ModelParams.FIELDS
        ],
    }
    blob = b"".join(np.ascontiguousarray(getattr(params, n), dtype=dtype).tobytes() for n in ModelParams.FIELDS)
    write_file(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + blob)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, str]:
    """Read a checkpoint written by ``save_checkpoint``, header version 2 or
    1, as parameters of its stored dtype; any malformed or truncated file,
    or a dtype other than "<f4" or "<f8", raises DataError."""
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
    dtype = header.get("dtype", "<f8" if header.get("version") == 1 else None)
    if dtype not in _CKPT_DTYPES:
        raise DataError(f"{path}: checkpoint tensors must be stored as one of {list(_CKPT_DTYPES)}, got {dtype!r}")
    specs = header.get("tensors")
    if not isinstance(specs, list) or len(specs) != len(ModelParams.FIELDS):
        raise DataError(f"{path}: checkpoint must hold the tensors {list(ModelParams.FIELDS)}")
    kwargs = {}
    pos = 0
    for name, spec in zip(ModelParams.FIELDS, specs):
        shape = spec.get("shape") if isinstance(spec, dict) and spec.get("name") == name else None
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"{path}: expected tensor {name} with a valid shape, got {spec!r}")
        end = pos + np.dtype(dtype).itemsize * math.prod(shape)
        if end > len(blob):
            raise DataError(f"{path}: truncated: tensor data ends at byte {len(blob)}, inside {name}")
        kwargs[name] = np.frombuffer(blob[pos:end], dtype=dtype).reshape(shape).copy()
        pos = end
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} bytes follow the last tensor")
    try:
        params = ModelParams(**kwargs)
    except SpoofcmError as exc:  # inconsistent layer shapes or non-finite values
        raise DataError(f"{path}: {exc}") from exc
    return params, header.get("config_hash", "")


def history_csv(history: list[EpochStats]) -> str:
    return table_text([[f.name for f in fields(EpochStats)], *map(astuple, history)])
