"""The countermeasure model: fixed filterbank framing front, a small
trainable frame-feature extractor, global average pooling, and an MLP
classifier head. Forward and backward passes are written out by hand.

The framing front computes in float64. Everything after it runs in the
parameters' dtype, float32 or float64: ``forward`` casts its input to it,
and every activation, gradient and contrastive term keeps it.
``init_model`` makes float32 parameters (``PARAM_DTYPE``), as the paper's
networks train; float64 parameters give the same computation at double
precision, which the finite-difference gradient checks need.

The extractor's last layer ``W2`` is linear, so pooling commutes with it:
the embedding is ``W2 @ mean(A1) + b2``, the mean over frames of the
frame-level features ``A1 @ W2.T + b2``. Those frame sequences are built
only for the sequence-level contrastive term, the one place that reads them.

A batch runs per member only where members may differ in frame count: the
frame-level layers up to the mean over frames, and their backward pass.
From the pooled rows on, it runs once per batch: ``W2``, the head, the
cross-entropy and their gradients are (members, width) matrix products.

Score convention: bona fide logit minus spoof logit; higher means more
likely bona fide. ``forward`` computes it per member, as ``"score"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .contrastive import LEVEL_TERMS, CfConfig, cf_value_and_grad
from .dsp import analysis_window, frame_signal, mel_filterbank
from .errors import ConfigError, DataError, NumericalError

FRAME_WIN = 400  # 25 ms at 16 kHz
FRAME_HOP = 160  # 10 ms
FRAME_FFT = 512
N_FILTERS = 24
BASE_DIM = N_FILTERS + 1  # log-energy + filterbank energies
LEAKY_SLOPE = 0.01
LOG_FLOOR = 1e-10
PARAM_DTYPE = np.float32  # what init_model makes; see the module docstring


def extract_base_features(w: Waveform) -> np.ndarray:
    """Fixed framing front: per frame, log energy plus log filterbank energies.

    N = floor((T - 400) / 160) + 1 frames of dimension 25; deterministic.
    """
    if len(w) < FRAME_WIN:
        raise DataError(f"waveform shorter than one frame ({len(w)} < {FRAME_WIN})")
    frames = frame_signal(w.samples, FRAME_WIN, FRAME_HOP) * analysis_window(FRAME_WIN)
    power = np.abs(np.fft.rfft(frames, n=FRAME_FFT, axis=1)) ** 2
    bands = np.log(power @ mel_filterbank(N_FILTERS, FRAME_FFT, w.sample_rate).weights.T + LOG_FLOOR)
    log_energy = np.log(np.sum(frames**2, axis=1) + LOG_FLOOR)
    return np.hstack([log_energy[:, None], bands])


@dataclass
class ModelParams:
    """All trainable tensors plus the frozen input standardization buffers,
    all of one dtype: float32 or float64."""

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
    feat_mean: np.ndarray
    feat_scale: np.ndarray

    TRAINABLE = ("W1", "b1", "W2", "b2", "H1", "c1", "H2", "c2", "H3", "c3", "Ho", "co")
    FIELDS = TRAINABLE + ("feat_mean", "feat_scale")

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name)) for name in self.FIELDS}
        dtypes = {arr.dtype for arr in arrays.values()}
        if dtypes not in ({np.dtype(np.float32)}, {np.dtype(np.float64)}):
            raise ConfigError(f"parameters must share one dtype, float32 or float64, got {sorted(map(str, dtypes))}")
        for name, arr in arrays.items():
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
    def dtype(self) -> np.dtype:
        return self.W1.dtype

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: getattr(self, name).copy() for name in self.FIELDS})


def init_model(seed: int, feature_dim: int, extractor_hidden: int, head_hidden: int) -> ModelParams:
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        w = rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)
        return w.astype(PARAM_DTYPE), np.zeros(n_out, PARAM_DTYPE)

    W1, b1 = layer(extractor_hidden, BASE_DIM)
    W2, b2 = layer(feature_dim, extractor_hidden)
    H1, c1 = layer(head_hidden, feature_dim)
    H2, c2 = layer(head_hidden, head_hidden)
    H3, c3 = layer(head_hidden, head_hidden)
    Ho, co = layer(2, head_hidden)
    return ModelParams(W1, b1, W2, b2, H1, c1, H2, c2, H3, c3, Ho, co,
                       np.zeros(BASE_DIM, PARAM_DTYPE), np.ones(BASE_DIM, PARAM_DTYPE))


# Both helpers avoid np.where (~8x a multiply's time on numpy 2.4) and keep its bytes, also at +-0, +-inf, NaN.
# The slopes come in each parameter dtype, so that a float32 gradient is not widened to float64.
_SLOPES = {np.dtype(t): np.array([LEAKY_SLOPE, 1.0], dtype=t) for t in (np.float32, np.float64)}


def _lrelu(z):
    """LeakyReLU. np.maximum returns its first NaN operand: the product, as np.where did."""
    return np.maximum(LEAKY_SLOPE * z, z)


def _dlrelu(z):
    """d lrelu / dz: 1 where z > 0, else LEAKY_SLOPE (also for NaN)."""
    return _SLOPES[z.dtype].take((z > 0).view(np.uint8))


def forward(members: list, p: ModelParams) -> dict:
    """Forward pass of a batch of trials, in the parameters' dtype; returns
    every intermediate the backward pass needs, and each trial's score.
    ``frames`` holds each member's frame-level ``(B, Z1, A1)``; ``a``, ``v``,
    the head activations and ``logits`` have one row per member, and
    ``score`` is one float per member."""
    frames, a = [], np.empty((len(members), p.W1.shape[0]), dtype=p.dtype)
    for i, base in enumerate(members):
        B = (np.asarray(base, dtype=p.dtype) - p.feat_mean) / p.feat_scale
        Z1 = B @ p.W1.T + p.b1
        A1 = _lrelu(Z1)
        a[i] = A1.mean(axis=0)
        frames.append((B, Z1, A1))
    v = a @ p.W2.T + p.b2  # the pooled embeddings, means of the frame features A1 @ W2.T + b2
    z1 = v @ p.H1.T + p.c1
    u1 = _lrelu(z1)
    z2 = u1 @ p.H2.T + p.c2
    u2 = _lrelu(z2)
    z3 = u2 @ p.H3.T + p.c3
    u3 = _lrelu(z3)
    logits = u3 @ p.Ho.T + p.co
    score = (logits[:, 1] - logits[:, 0]).tolist()
    return dict(frames=frames, a=a, v=v, z1=z1, u1=u1, z2=z2, u2=u2, z3=z3, u3=u3, logits=logits, score=score)


def cross_entropy(logits: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cross-entropy against its label, and d loss / d logits,
    from one logsumexp over the (members, 2) logits."""
    rows = np.arange(len(logits))
    m = logits.max(axis=1, keepdims=True)
    log_z = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    grad = np.exp(logits - log_z)
    grad[rows, labels] -= 1
    return log_z[:, 0] - logits[rows, labels], grad


def _backward(cache: dict, dlogits: np.ndarray, dv_cf, dX_cf, p: ModelParams) -> dict:
    """Gradients of every trainable tensor. The head runs once on the batch;
    per member only the frame level is left. dv_cf / dX_cf: the utterance /
    sequence contrastive gradient on v / the frame features, or None."""
    g = {"Ho": dlogits.T @ cache["u3"], "co": dlogits.sum(axis=0)}
    dz3 = (dlogits @ p.Ho) * _dlrelu(cache["z3"])
    g["H3"], g["c3"] = dz3.T @ cache["u2"], dz3.sum(axis=0)
    dz2 = (dz3 @ p.H3) * _dlrelu(cache["z2"])
    g["H2"], g["c2"] = dz2.T @ cache["u1"], dz2.sum(axis=0)
    dz1 = (dz2 @ p.H2) * _dlrelu(cache["z1"])
    g["H1"], g["c1"] = dz1.T @ cache["v"], dz1.sum(axis=0)
    dv = dz1 @ p.H1
    if dv_cf is not None:
        dv += dv_cf
    g["W2"], g["b2"] = dv.T @ cache["a"], dv.sum(axis=0)
    counts = np.array([A1.shape[0] for _, _, A1 in cache["frames"]], dtype=p.dtype)
    dA1_rows = (dv / counts[:, None]) @ p.W2  # the pooling's gradient, the same for every frame of a member
    g["W1"], g["b1"] = np.zeros_like(p.W1), np.zeros_like(p.b1)
    for i, (B, Z1, A1) in enumerate(cache["frames"]):
        dA1 = dA1_rows[i]
        if dX_cf is not None:
            g["W2"] += dX_cf[i].T @ A1
            g["b2"] += dX_cf[i].sum(axis=0)
            dA1 = dA1 + dX_cf[i] @ p.W2
        dZ1 = dA1 * _dlrelu(Z1)
        g["W1"] += dZ1.T @ B
        g["b1"] += dZ1.sum(axis=0)
    return g


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

    With the contrastive term, the members and their labels, in the given
    order, are the contrastive batch, and each class needs two. The term is
    evaluated at each level ``LEVEL_TERMS`` lists for ``cf.levels``: on the
    frame-level feature sequences ("sequence"; members must share one frame
    count) or on the pooled embeddings ("utterance").
    Returns (loss, grads, parts) where parts splits the loss per term.
    """
    if len(members) != len(labels) or not members:
        raise ConfigError("members and labels must align and be non-empty")
    cache = forward(members, p)
    n = len(members)
    ce, dlogits = cross_entropy(cache["logits"], labels)
    loss = float(ce.sum()) / n
    parts = {"ce": loss, "cf_seq": 0.0, "cf_utt": 0.0}

    cf_dv = cf_dX = None
    if loss_cfg.mode == "ce+cf":
        tau = loss_cfg.cf.temperature
        for level, part in LEVEL_TERMS[loss_cfg.cf.levels]:
            if level == "sequence":
                value, cf_dX = cf_value_and_grad(_frame_features(cache["frames"], p), labels, tau)
            else:
                value, cf_dv = cf_value_and_grad(cache["v"][:, None, :], labels, tau)
                cf_dv = cf_dv[:, 0, :]
            parts[part] = value
            loss += value

    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss in batch {batch_id}")
    return loss, _backward(cache, dlogits / n, cf_dv, cf_dX, p), parts


def _frame_features(frames: list, p: ModelParams) -> np.ndarray:
    """The (members, N, D) stack of frame-level features A1 @ W2.T + b2,
    built for the sequence-level contrastive term only; members must share
    one frame count."""
    counts = sorted({A1.shape[0] for _, _, A1 in frames})
    if len(counts) != 1:
        raise ConfigError(f"all members must share one (N, D) shape, got frame counts {counts}")
    X = np.empty((len(frames), counts[0], p.W2.shape[0]), dtype=p.dtype)
    for x, (_, _, A1) in zip(X, frames):
        np.matmul(A1, p.W2.T, out=x)
        x += p.b2
    return X
