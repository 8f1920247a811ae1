"""Detection metrics: equal error rate, pooled EER, per-attack grouping,
and score-file I/O.

EER convention (fixed, and mirrored by the test-suite oracle): sweep
thresholds over the sorted unique scores with FRR(t) = P(bona < t) and
FAR(t) = P(spoof >= t), then read the value where FRR - FAR changes
sign, linearly interpolated between the bracketing operating points;
an exact tie takes the lowest such threshold.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import read_utf8

HISTOGRAM_BINS = 64


@dataclass(frozen=True)
class ScoreEntry:
    trial_id: str
    score: float
    label: str
    attack_tag: str = "-"
    set_name: str = ""

    def __post_init__(self):
        if self.label not in ("bonafide", "spoof"):
            raise DataError(f"{self.trial_id}: bad label {self.label!r}")
        if not np.isfinite(self.score):
            raise DataError(f"{self.trial_id}: non-finite score")


class ScoreSet:
    def __init__(self, entries: list[ScoreEntry], name: str = ""):
        ids = [e.trial_id for e in entries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate trial ids in score set")
        self.entries = list(entries)
        self.name = name

    def __len__(self) -> int:
        return len(self.entries)

    def scores(self, label: str) -> np.ndarray:
        return np.array([e.score for e in self.entries if e.label == label], dtype=np.float64)


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float
    n_tar: int
    n_non: int


def compute_eer(s: ScoreSet) -> EerResult:
    """Equal error rate under the documented interpolation convention."""
    bona = np.sort(s.scores("bonafide"))
    spoof = np.sort(s.scores("spoof"))
    if len(bona) == 0 or len(spoof) == 0:
        raise DataError("EER needs at least one trial of each class")
    thresholds = np.unique(np.concatenate([bona, spoof]))
    frr = np.searchsorted(bona, thresholds, side="left") / len(bona)  # P(bona < t)
    far = (len(spoof) - np.searchsorted(spoof, thresholds, side="left")) / len(spoof)  # P(spoof >= t)
    frr = np.concatenate([[0.0], frr, [1.0]])
    far = np.concatenate([[1.0], far, [0.0]])
    tvals = np.concatenate([[thresholds[0] - 1.0], thresholds, [thresholds[-1] + 1.0]])
    for i in range(len(frr)):
        diff = frr[i] - far[i]
        if diff == 0.0:
            return EerResult(float(frr[i]), float(tvals[i]), len(bona), len(spoof))
        if diff > 0.0:
            d1 = frr[i - 1] - far[i - 1]
            alpha = -d1 / (diff - d1)
            eer = frr[i - 1] + alpha * (frr[i] - frr[i - 1])
            thr = tvals[i - 1] + alpha * (tvals[i] - tvals[i - 1])
            return EerResult(float(eer), float(thr), len(bona), len(spoof))
    return EerResult(0.5, float(tvals[-1]), len(bona), len(spoof))


def pooled_eer(sets: list[ScoreSet]) -> EerResult:
    """EER of the concatenation; ids are prefixed with the set name so the
    same trial may appear in several sets."""
    if not sets:
        raise ConfigError("need at least one score set to pool")
    entries = []
    for i, s in enumerate(sets):
        prefix = s.name or f"set{i}"
        for e in s.entries:
            entries.append(replace(e, trial_id=f"{prefix}:{e.trial_id}", set_name=prefix))
    return compute_eer(ScoreSet(entries, name="pooled"))


def mean_eer_over_seeds(results: list[EerResult]) -> float:
    if not results:
        raise ConfigError("need at least one result to average")
    return float(np.mean([r.eer for r in results]))


@dataclass(frozen=True)
class GroupReport:
    category: str
    eer: EerResult
    bin_edges: np.ndarray = field(repr=False)
    bona_counts: np.ndarray = field(repr=False)
    spoof_counts: np.ndarray = field(repr=False)


def group_analysis(s: ScoreSet, grouping: dict[str, str]) -> dict[str, GroupReport]:
    """Per-category EER (all bona fide vs the category's spoofs) plus
    fixed-bin score histograms. Tags missing from the grouping map fall
    into category "other"; categories without spoofed trials are omitted
    with a warning."""
    bona = [e for e in s.entries if e.label == "bonafide"]
    spoof = [e for e in s.entries if e.label == "spoof"]
    if not bona or not spoof:
        raise DataError("group analysis needs both classes")
    all_scores = np.array([e.score for e in s.entries])
    edges = np.linspace(all_scores.min(), all_scores.max(), HISTOGRAM_BINS + 1)
    if edges[0] == edges[-1]:
        edges = np.linspace(edges[0] - 0.5, edges[0] + 0.5, HISTOGRAM_BINS + 1)
    categories: dict[str, list[ScoreEntry]] = {}
    for e in spoof:
        categories.setdefault(grouping.get(e.attack_tag, "other"), []).append(e)
    out = {}
    for cat in sorted(categories):
        members = categories[cat]
        if not members:
            warnings.warn(f"category {cat!r} has no spoofed trials; omitted", stacklevel=2)
            continue
        subset = ScoreSet(bona + members, name=cat)
        out[cat] = GroupReport(
            category=cat,
            eer=compute_eer(subset),
            bin_edges=edges,
            bona_counts=np.histogram([e.score for e in bona], bins=edges)[0],
            spoof_counts=np.histogram([e.score for e in members], bins=edges)[0],
        )
    return out


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def save_scores(path: str | Path, s: ScoreSet) -> None:
    """One line per trial: trial_id<TAB>score."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{e.trial_id}\t{e.score!r}" for e in s.entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scores(path: str | Path, manifest, set_name: str = "") -> ScoreSet:
    """Read a score file and join labels/tags from a manifest."""
    path = Path(path)
    entries = []
    for ln, line in enumerate(read_utf8(path, "score file").splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{ln}: expected 'trial_id<TAB>score'")
        try:
            score = float(fields[1])
        except ValueError:
            raise DataError(f"{path}:{ln}: score {fields[1]!r} is not a number") from None
        rec = manifest.by_id(fields[0])
        entries.append(ScoreEntry(fields[0], score, rec.label, rec.attack_tag, set_name))
    return ScoreSet(entries, name=set_name)


def group_report_csv(reports: dict[str, GroupReport]) -> str:
    lines = ["category,eer,threshold,n_tar,n_non"]
    for cat in sorted(reports):
        r = reports[cat].eer
        lines.append(f"{cat},{r.eer!r},{r.threshold!r},{r.n_tar},{r.n_non}")
    return "\n".join(lines) + "\n"


def histogram_csv(reports: dict[str, GroupReport]) -> str:
    lines = ["category,bin_lo,bin_hi,bona_count,spoof_count"]
    for cat in sorted(reports):
        rep = reports[cat]
        for i in range(len(rep.bona_counts)):
            lines.append(
                f"{cat},{rep.bin_edges[i]!r},{rep.bin_edges[i + 1]!r},"
                f"{rep.bona_counts[i]},{rep.spoof_counts[i]}"
            )
    return "\n".join(lines) + "\n"
