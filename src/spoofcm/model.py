"""The countermeasure model: fixed filterbank framing front, a small
trainable frame-feature extractor, global average pooling, and an MLP
classifier head. Forward and backward passes are written out by hand in
float64 so gradients can be checked against finite differences.

Score convention: bona fide logit minus spoof logit; higher means more
likely bona fide. ``forward_member`` computes it, as ``"score"``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .audio_io import Waveform
from .contrastive import LEVEL_TERMS, BatchComposition, CfConfig, cf_value_and_grad
from .dsp import MelFilterbank, analysis_window, frame_signal
from .errors import ConfigError, DataError, NumericalError

FRAME_WIN = 400  # 25 ms at 16 kHz
FRAME_HOP = 160  # 10 ms
FRAME_FFT = 512
N_FILTERS = 24
BASE_DIM = N_FILTERS + 1  # log-energy + filterbank energies
LEAKY_SLOPE = 0.01
LOG_FLOOR = 1e-10


@lru_cache(maxsize=8)
def _front_filterbank(sample_rate: int) -> np.ndarray:
    return MelFilterbank(N_FILTERS, FRAME_FFT, sample_rate).weights


def extract_base_features(w: Waveform) -> np.ndarray:
    """Fixed framing front: per frame, log energy plus log filterbank energies.

    N = floor((T - 400) / 160) + 1 frames of dimension 25; deterministic.
    """
    if len(w) < FRAME_WIN:
        raise DataError(f"waveform shorter than one frame ({len(w)} < {FRAME_WIN})")
    frames = frame_signal(w.samples, FRAME_WIN, FRAME_HOP) * analysis_window("hann", FRAME_WIN)
    power = np.abs(np.fft.rfft(frames, n=FRAME_FFT, axis=1)) ** 2
    bands = np.log(power @ _front_filterbank(w.sample_rate).T + LOG_FLOOR)
    log_energy = np.log(np.sum(frames**2, axis=1) + LOG_FLOOR)
    return np.hstack([log_energy[:, None], bands])


@dataclass
class ModelParams:
    """All trainable tensors plus the frozen input standardization buffers."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    H1: np.ndarray
    c1: np.ndarray
    H2: np.ndarray
    c2: np.ndarray
    H3: np.ndarray
    c3: np.ndarray
    Ho: np.ndarray
    co: np.ndarray
    feat_mean: np.ndarray = field(default_factory=lambda: np.zeros(BASE_DIM))
    feat_scale: np.ndarray = field(default_factory=lambda: np.ones(BASE_DIM))

    TRAINABLE = ("W1", "b1", "W2", "b2", "H1", "c1", "H2", "c2", "H3", "c3", "Ho", "co")
    FIELDS = TRAINABLE + ("feat_mean", "feat_scale")

    def __post_init__(self):
        for name in self.FIELDS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"parameter {name} contains non-finite values")
            setattr(self, name, arr)
        h, d, k = (getattr(self, n).shape[0] if getattr(self, n).ndim == 2 else -1 for n in ("W1", "W2", "H1"))
        expected = {
            "W1": (h, BASE_DIM), "b1": (h,), "W2": (d, h), "b2": (d,), "H1": (k, d), "c1": (k,),
            "H2": (k, k), "c2": (k,), "H3": (k, k), "c3": (k,), "Ho": (2, k), "co": (2,),
            "feat_mean": (BASE_DIM,), "feat_scale": (BASE_DIM,),
        }
        bad = {n: getattr(self, n).shape for n, shape in expected.items() if getattr(self, n).shape != shape}
        if bad:
            raise ConfigError(f"layer dimensions are inconsistent (input dim {BASE_DIM}, 2 logits): {bad}")

    @property
    def feature_dim(self) -> int:
        return self.W2.shape[0]

    def zero_grads(self) -> dict:
        return {name: np.zeros_like(getattr(self, name)) for name in self.TRAINABLE}

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: getattr(self, name).copy() for name in self.FIELDS})

    def flatten(self) -> np.ndarray:
        return np.concatenate([getattr(self, n).ravel() for n in self.TRAINABLE])

    def load_flat(self, vec: np.ndarray) -> None:
        pos = 0
        for name in self.TRAINABLE:
            arr = getattr(self, name)
            arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size


def init_model(seed: int, feature_dim: int = 32, extractor_hidden: int = 64, head_hidden: int = 64) -> ModelParams:
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        return rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in), np.zeros(n_out)

    W1, b1 = layer(extractor_hidden, BASE_DIM)
    W2, b2 = layer(feature_dim, extractor_hidden)
    H1, c1 = layer(head_hidden, feature_dim)
    H2, c2 = layer(head_hidden, head_hidden)
    H3, c3 = layer(head_hidden, head_hidden)
    Ho, co = layer(2, head_hidden)
    return ModelParams(W1, b1, W2, b2, H1, c1, H2, c2, H3, c3, Ho, co)


# Both helpers avoid np.where (~8x a multiply's time on numpy 2.4) and keep its bytes, also at +-0, +-inf, NaN.
_SLOPES = np.array([LEAKY_SLOPE, 1.0])


def _lrelu(z):
    """LeakyReLU. np.maximum returns its first NaN operand: the product, as np.where did."""
    return np.maximum(LEAKY_SLOPE * z, z)


def _dlrelu(z):
    """d lrelu / dz: 1 where z > 0, else LEAKY_SLOPE (also for NaN)."""
    return _SLOPES.take((z > 0).view(np.uint8))


def forward_member(base: np.ndarray, p: ModelParams) -> dict:
    """Full forward pass for one trial; returns every intermediate needed
    by the backward pass, and the trial's score."""
    B = (np.asarray(base, dtype=np.float64) - p.feat_mean) / p.feat_scale
    Z1 = B @ p.W1.T + p.b1
    A1 = _lrelu(Z1)
    X = A1 @ p.W2.T + p.b2  # the frame-level feature sequence
    v = X.mean(axis=0)
    z1 = p.H1 @ v + p.c1
    u1 = _lrelu(z1)
    z2 = p.H2 @ u1 + p.c2
    u2 = _lrelu(z2)
    z3 = p.H3 @ u2 + p.c3
    u3 = _lrelu(z3)
    logits = p.Ho @ u3 + p.co
    score = float(logits[1] - logits[0])
    return dict(
        B=B, Z1=Z1, A1=A1, X=X, v=v, z1=z1, u1=u1, z2=z2, u2=u2, z3=z3, u3=u3, logits=logits, score=score
    )


def ce_and_grad(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one trial's logits against its label, and d loss / d logits."""
    m = logits.max()
    log_z = m + np.log(np.exp(logits - m).sum())
    loss = log_z - logits[label]
    grad = np.exp(logits - log_z)
    grad[label] -= 1.0
    return float(loss), grad


def _backward_member(cache: dict, dlogits: np.ndarray, dX_extra, p: ModelParams, grads: dict) -> None:
    g = grads
    g["Ho"] += dlogits[:, None] * cache["u3"]
    g["co"] += dlogits
    dz3 = (p.Ho.T @ dlogits) * _dlrelu(cache["z3"])
    g["H3"] += dz3[:, None] * cache["u2"]
    g["c3"] += dz3
    dz2 = (p.H3.T @ dz3) * _dlrelu(cache["z2"])
    g["H2"] += dz2[:, None] * cache["u1"]
    g["c2"] += dz2
    dz1 = (p.H2.T @ dz2) * _dlrelu(cache["z1"])
    g["H1"] += dz1[:, None] * cache["v"]
    g["c1"] += dz1
    dv = p.H1.T @ dz1
    n = cache["X"].shape[0]
    dX = np.tile(dv / n, (n, 1)) if dX_extra is None else dX_extra + dv / n
    g["W2"] += dX.T @ cache["A1"]
    g["b2"] += dX.sum(axis=0)
    dZ1 = (dX @ p.W2) * _dlrelu(cache["Z1"])
    g["W1"] += dZ1.T @ cache["B"]
    g["b1"] += dZ1.sum(axis=0)


@dataclass(frozen=True)
class LossConfig:
    mode: str = "ce"  # "ce" or "ce+cf"
    cf: CfConfig = CfConfig()

    def __post_init__(self):
        if self.mode not in ("ce", "ce+cf"):
            raise ConfigError(f"loss mode must be 'ce' or 'ce+cf', got {self.mode!r}")


def forward_backward(
    members: list,
    labels: list,
    p: ModelParams,
    loss_cfg: LossConfig = LossConfig(),
    batch_id: str = "?",
) -> tuple[float, dict, dict]:
    """Mean cross-entropy over the batch (plus the contrastive feature loss
    when enabled) and exact gradients for every trainable tensor.

    With the contrastive term, members must share one frame count; the
    term is evaluated at each level ``LEVEL_TERMS`` lists for ``cf.levels``.
    Returns (loss, grads, parts) where parts splits the loss per term.
    """
    if len(members) != len(labels) or not members:
        raise ConfigError("members and labels must align and be non-empty")
    caches = [forward_member(m, p) for m in members]
    n = len(members)
    grads = p.zero_grads()
    ce_total = 0.0
    dlogits_list = []
    for cache, label in zip(caches, labels):
        ce, dl = ce_and_grad(cache["logits"], label)
        ce_total += ce
        dlogits_list.append(dl / n)
    loss = ce_total / n
    parts = {"ce": ce_total / n, "cf_seq": 0.0, "cf_utt": 0.0}

    cf_grads = [None] * n
    if loss_cfg.mode == "ce+cf":
        bona = [caches[i]["X"] for i in range(n) if labels[i] == 1]
        spoof = [caches[i]["X"] for i in range(n) if labels[i] == 0]
        batch = BatchComposition(bona, spoof)  # validates composition sizes
        order = [i for i in range(n) if labels[i] == 1] + [i for i in range(n) if labels[i] == 0]
        cf_grads = [np.zeros_like(cache["X"]) for cache in caches]
        for level, part in LEVEL_TERMS[loss_cfg.cf.levels]:
            value, gs = cf_value_and_grad(batch, level, loss_cfg.cf.temperature)
            parts[part] = value
            loss += value
            for slot, g in zip(order, gs):
                cf_grads[slot] += g

    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss in batch {batch_id}")
    for cache, dl, extra in zip(caches, dlogits_list, cf_grads):
        _backward_member(cache, dl, extra, p, grads)
    return loss, grads, parts
