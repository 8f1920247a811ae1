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
names each term. The members come as a list or as their (B, N, D) stack;
``model.forward_backward`` passes stacks, which are used without a copy.
``_cf_core`` takes the stack and scores every anchor at once, with one
masked (B, B) logsumexp, and returns the gradient as one (B, N, D) array.

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


def _similarity_matrix(stack: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    norms = np.linalg.norm(stack, axis=2, keepdims=True)
    zero = norms[:, :, 0] == 0.0
    if np.any(zero.sum(axis=0) >= 2):
        frame = int(np.argmax(zero.sum(axis=0) >= 2))
        raise NumericalError(f"degenerate zero-norm frame at index {frame} in multiple members")
    unit = stack / np.maximum(norms, NORM_FLOOR)
    flat = unit.reshape(len(stack), -1)  # frame-wise dot products summed over frames: one matmul
    sims = flat @ flat.T / (stack.shape[1] * temperature)
    return sims, unit, norms


def _cf_core(stack: np.ndarray, labels: np.ndarray, temperature: float):
    """Every anchor at once: one masked (B, B) logsumexp gives each anchor's
    log-partition over the other members, and the gradient comes back as
    one (B, N, D) array."""
    sims, unit, norms = _similarity_matrix(stack, temperature)
    b, n_frames = stack.shape[:2]
    others = ~np.eye(b, dtype=bool)
    positives = others & (labels[:, None] == labels[None, :])
    pos_weight = positives * (1 / positives.sum(axis=1, keepdims=True)).astype(sims.dtype)
    masked = np.where(others, sims, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(masked - m), axis=1, keepdims=True))
    loss = float(np.sum(lse[:, 0] - np.sum(sims * pos_weight, axis=1)))
    anchor_grad = np.exp(masked - lse) - pos_weight  # d loss / d sims[k, m] from anchor k's terms
    pair_weight = anchor_grad + anchor_grad.T  # similarity is symmetric in its arguments
    term_other = (pair_weight @ unit.reshape(b, -1)).reshape(unit.shape)
    term_self = np.sum(unit * term_other, axis=2, keepdims=True) * unit
    grads = (term_other - term_self) / (n_frames * temperature * np.maximum(norms, NORM_FLOOR))
    return loss, grads


def cf_value_and_grad(members, labels: list, temperature: float):
    """The loss of a batch at one level and its exact gradient with respect
    to every member frame, as one (B, N, D) array in member order.

    ``members`` is a list of B sequences of one (N, D) shape, or their
    (B, N, D) stack, which is used without a copy. Each class needs at
    least two members, so every anchor has a positive.
    """
    n_bona, n_spoof = (list(labels).count(c) for c in (1, 0))
    if min(n_bona, n_spoof) < 2:
        raise ConfigError(f"batch composition needs >= 2 views per class, got "
                          f"{n_bona} bona fide and {n_spoof} spoofed")
    shapes = {np.shape(m) for m in members}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ConfigError(f"all members must share one (N, D) shape, got {sorted(shapes)}")
    return _cf_core(np.asarray(members), np.asarray(labels), temperature)
