"""Two-class supervised contrastive loss over aligned feature sequences.

A mini-batch holds bona fide views and spoofed (vocoded) views of the
same utterance. The similarity between two sequences is the frame-wise
cosine similarity averaged over frames and scaled by 1/temperature; the
loss pulls same-class views together and pushes classes apart, with each
anchor normalized by a partition over every other batch member.

``cf_value_and_grad`` evaluates one level per call: "sequence" on the
frame sequences, or "utterance" on their means (single-frame sequences).
``LEVEL_TERMS`` maps a configured ``levels`` value to the single levels
it sums, unweighted, and names each term.

All computation is done in the log domain (logsumexp) since similarities
reach 1/temperature (about 14.3 at the default 0.07).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

NORM_FLOOR = 1e-12
DEFAULT_TEMPERATURE = 0.07
# The one expansion of a configured `levels` value: (level, loss-part name)
# per term, in the order the terms are added to the loss.
LEVEL_TERMS = {
    "sequence": (("sequence", "cf_seq"),),
    "utterance": (("utterance", "cf_utt"),),
    "both": (("sequence", "cf_seq"), ("utterance", "cf_utt")),
}


@dataclass(frozen=True)
class CfConfig:
    temperature: float = DEFAULT_TEMPERATURE
    levels: str = "both"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.levels not in LEVEL_TERMS:
            raise ConfigError(f"levels must be one of {tuple(LEVEL_TERMS)}, got {self.levels!r}")


@dataclass(frozen=True)
class BatchComposition:
    """Bona fide and spoofed feature-sequence views entering the loss.

    Every member must share the same frame count and dimension, and each
    class needs at least two members so every anchor has a positive."""

    bona_views: list = field(default_factory=list)
    spoof_views: list = field(default_factory=list)

    def __post_init__(self):
        bona = [np.asarray(m, dtype=np.float64) for m in self.bona_views]
        spoof = [np.asarray(m, dtype=np.float64) for m in self.spoof_views]
        if len(bona) < 2 or len(spoof) < 2:
            raise ConfigError(
                f"batch composition needs >= 2 views per class, got "
                f"{len(bona)} bona fide and {len(spoof)} spoofed"
            )
        shapes = {m.shape for m in bona + spoof}
        if len(shapes) != 1 or bona[0].ndim != 2:
            raise ConfigError(f"all members must share one (N, D) shape, got {sorted(shapes)}")
        object.__setattr__(self, "bona_views", bona)
        object.__setattr__(self, "spoof_views", spoof)

    @property
    def members(self) -> list:
        return self.bona_views + self.spoof_views

    @property
    def labels(self) -> list:
        return [1] * len(self.bona_views) + [0] * len(self.spoof_views)


def _similarity_matrix(members: list, temperature: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    stack = np.stack(members)  # (B, N, D)
    norms = np.linalg.norm(stack, axis=2, keepdims=True)
    zero = norms[:, :, 0] == 0.0
    if np.any(zero.sum(axis=0) >= 2):
        frame = int(np.argmax(zero.sum(axis=0) >= 2))
        raise NumericalError(f"degenerate zero-norm frame at index {frame} in multiple members")
    unit = stack / np.maximum(norms, NORM_FLOOR)
    n_frames = stack.shape[1]
    sims = np.einsum("and,bnd->ab", unit, unit) / (n_frames * temperature)
    return sims, unit, norms


def _cf_core(members: list, labels: list, temperature: float):
    sims, unit, norms = _similarity_matrix(members, temperature)
    b = len(members)
    n_frames = members[0].shape[0]
    labels_arr = np.asarray(labels)
    loss = 0.0
    anchor_grad = np.zeros((b, b))  # d loss / d sims[k, m] from anchor k's terms
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
    cosines = np.einsum("and,mnd->amn", unit, unit)
    term_other = np.einsum("am,mnd->and", pair_weight, unit)
    term_self = np.einsum("am,amn->an", pair_weight, cosines)[:, :, None] * unit
    grads = (term_other - term_self) / (n_frames * temperature * np.maximum(norms, NORM_FLOOR))
    return loss, [grads[i] for i in range(b)]


def cf_value_and_grad(batch: BatchComposition, level: str, temperature: float = DEFAULT_TEMPERATURE):
    """The loss at one level ("sequence" or "utterance") and its exact
    gradient with respect to every member frame.

    The utterance-level gradient is propagated through the mean pooling,
    so the returned arrays always match the member shapes.
    """
    if level not in ("sequence", "utterance"):
        raise ConfigError(f"level must be 'sequence' or 'utterance', got {level!r}")
    members, labels = batch.members, batch.labels
    if level == "sequence":
        return _cf_core(members, labels, temperature)
    n_frames = members[0].shape[0]
    value, gs = _cf_core([m.mean(axis=0, keepdims=True) for m in members], labels, temperature)
    return value, [np.repeat(g / n_frames, n_frames, axis=0) for g in gs]
