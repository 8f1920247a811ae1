"""Two-class supervised contrastive loss over aligned feature sequences.

A batch is its members, feature sequences of one shared (N, D) shape, and
their labels (1 bona fide, 0 spoofed), in any order: bona fide views and
spoofed (vocoded) views of the same utterance. The similarity between two
sequences is the frame-wise cosine similarity averaged over frames and
scaled by 1/temperature; the loss pulls same-class views together and
pushes classes apart, with each anchor normalized by a partition over
every other batch member.

``cf_value_and_grad`` evaluates one level per call, on the members its
caller passes: the frame sequences for "sequence", or the pooled utterance
embeddings, as one-frame sequences, for "utterance". ``LEVEL_TERMS`` maps a
configured ``levels`` value to the single levels it sums, unweighted, and
names each term.

All computation is done in the log domain (logsumexp) since similarities
reach 1/temperature (about 14.3 at the default 0.07). The gradients come
back in the members' dtype (float32 when training), and the loss as a
Python float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

NORM_FLOOR = 1e-12
# The one expansion of a configured `levels` value: (level, loss-part name)
# per term, in the order the terms are added to the loss.
LEVEL_TERMS = {
    "sequence": (("sequence", "cf_seq"),),
    "utterance": (("utterance", "cf_utt"),),
    "both": (("sequence", "cf_seq"), ("utterance", "cf_utt")),
}


@dataclass(frozen=True)
class CfConfig:
    temperature: float = 0.07
    levels: str = "both"

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature!r}")
        if self.levels not in LEVEL_TERMS:
            raise ConfigError(f"levels must be one of {tuple(LEVEL_TERMS)}, got {self.levels!r}")


def _similarity_matrix(members: list, temperature: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    stack = np.stack(members)  # (B, N, D)
    norms = np.linalg.norm(stack, axis=2, keepdims=True)
    zero = norms[:, :, 0] == 0.0
    if np.any(zero.sum(axis=0) >= 2):
        frame = int(np.argmax(zero.sum(axis=0) >= 2))
        raise NumericalError(f"degenerate zero-norm frame at index {frame} in multiple members")
    unit = stack / np.maximum(norms, NORM_FLOOR)
    flat = unit.reshape(len(members), -1)  # frame-wise dot products summed over frames: one matmul
    sims = flat @ flat.T / (stack.shape[1] * temperature)
    return sims, unit, norms


def _cf_core(members: list, labels: list, temperature: float):
    sims, unit, norms = _similarity_matrix(members, temperature)
    b = len(members)
    n_frames = members[0].shape[0]
    labels_arr = np.asarray(labels)
    loss = 0.0
    anchor_grad = np.zeros((b, b), dtype=sims.dtype)  # d loss / d sims[k, m] from anchor k's terms
    for k in range(b):
        others = np.arange(b) != k
        positives = others & (labels_arr == labels_arr[k])
        n_pos = int(positives.sum())
        if n_pos == 0:
            continue
        row = sims[k, others]
        m = row.max()
        lse = m + np.log(np.sum(np.exp(row - m)))
        loss += float(n_pos * lse - sims[k, positives].sum()) / n_pos
        soft = np.zeros(b)
        soft[others] = np.exp(sims[k, others] - lse)
        soft[positives] -= 1.0 / n_pos
        anchor_grad[k] = soft
    pair_weight = anchor_grad + anchor_grad.T  # similarity is symmetric in its arguments
    term_other = (pair_weight @ unit.reshape(b, -1)).reshape(unit.shape)
    term_self = np.sum(unit * term_other, axis=2, keepdims=True) * unit
    grads = (term_other - term_self) / (n_frames * temperature * np.maximum(norms, NORM_FLOOR))
    return loss, [grads[i] for i in range(b)]


def cf_value_and_grad(members: list, labels: list, temperature: float):
    """The loss of a batch at one level and its exact gradient with respect
    to every member frame, in member order.

    Each class needs at least two members, so every anchor has a positive.
    """
    n_bona, n_spoof = (list(labels).count(c) for c in (1, 0))
    if min(n_bona, n_spoof) < 2:
        raise ConfigError(f"batch composition needs >= 2 views per class, got "
                          f"{n_bona} bona fide and {n_spoof} spoofed")
    shapes = {np.shape(m) for m in members}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ConfigError(f"all members must share one (N, D) shape, got {sorted(shapes)}")
    return _cf_core(members, labels, temperature)
