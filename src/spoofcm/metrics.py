"""Detection metrics: equal error rate, pooled EER, per-attack grouping,
and score-file I/O.

EER convention (fixed, and mirrored by the test-suite oracle): sweep
thresholds over the sorted unique scores with FRR(t) = P(bona < t) and
FAR(t) = P(spoof >= t), then read the value where FRR - FAR changes
sign, linearly interpolated between the bracketing operating points;
an exact tie takes the lowest such threshold.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import read_table, table_text, write_file

HISTOGRAM_BINS = 64


@dataclass(frozen=True)
class ScoreEntry:
    trial_id: str
    score: float
    label: str
    attack_tag: str = "-"

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


# The columns an EER table gives each row after its key columns.
EER_COLUMNS = tuple(f.name for f in fields(EerResult))


def compute_eer(s: ScoreSet) -> EerResult:
    """Equal error rate under the documented interpolation convention."""
    bona = np.sort(s.scores("bonafide"))
    spoof = np.sort(s.scores("spoof"))
    if len(bona) == 0 or len(spoof) == 0:
        raise DataError("EER needs at least one trial of each class")
    thresholds = np.unique(np.concatenate([bona, spoof]))
    frr = np.searchsorted(bona, thresholds, side="left") / len(bona)  # P(bona < t)
    far = (len(spoof) - np.searchsorted(spoof, thresholds, side="left")) / len(spoof)  # P(spoof >= t)
    # end points with FRR - FAR = -1 and +1, so the sweep below always returns
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


def pooled_eer(sets: list[ScoreSet]) -> EerResult:
    """EER of the concatenation; ids are prefixed with the set's position so
    the same trial may appear in several sets, whatever their names."""
    if not sets:
        raise ConfigError("need at least one score set to pool")
    entries = [replace(e, trial_id=f"{i}:{e.trial_id}") for i, s in enumerate(sets) for e in s.entries]
    return compute_eer(ScoreSet(entries, name="pooled"))


@dataclass(frozen=True)
class GroupReport:
    eer: EerResult
    bin_edges: np.ndarray = field(repr=False)
    bona_counts: np.ndarray = field(repr=False)
    spoof_counts: np.ndarray = field(repr=False)


def group_analysis(s: ScoreSet, grouping: dict[str, str]) -> dict[str, GroupReport]:
    """Per-category EER (all bona fide vs the category's spoofs) plus
    fixed-bin score histograms. Tags missing from the grouping map fall
    into category "other"; a category exists only if it has spoofed trials."""
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
    bona_counts = np.histogram([e.score for e in bona], bins=edges)[0]  # the same for every category
    return {
        cat: GroupReport(compute_eer(ScoreSet(bona + members, name=cat)), edges, bona_counts,
                         np.histogram([e.score for e in members], bins=edges)[0])
        for cat, members in sorted(categories.items())
    }


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def save_scores(path: str | Path, s: ScoreSet) -> None:
    """One line per trial: trial_id<TAB>score."""
    write_file(path, table_text([(e.trial_id, e.score) for e in s.entries], sep="\t"))


def load_scores(path: str | Path, manifest, set_name: str = "") -> ScoreSet:
    """Read a score file and join labels/tags from a manifest."""
    path = Path(path)
    entries, first_line = [], {}
    for ln, (trial_id, text) in read_table(path, "score file", None, 2, "\t"):
        try:
            score = float(text)
        except ValueError:
            raise DataError(f"{path}:{ln}: score {text!r} is not a number") from None
        if trial_id in first_line:
            raise DataError(f"{path}:{ln}: trial id {trial_id!r} already scored on line {first_line[trial_id]}")
        first_line[trial_id] = ln
        try:
            rec = manifest.by_id(trial_id)
            entries.append(ScoreEntry(trial_id, score, rec.label, rec.attack_tag))
        except DataError as exc:  # an unknown trial id or a non-finite score
            raise DataError(f"{path}:{ln}: {exc}") from None
    return ScoreSet(entries, name=set_name)


def group_report_csv(reports: dict[str, GroupReport]) -> str:
    return table_text([("category", *EER_COLUMNS)] + [(cat, *astuple(reports[cat].eer)) for cat in sorted(reports)])


def histogram_csv(reports: dict[str, GroupReport]) -> str:
    rows = [("category", "bin_lo", "bin_hi", "bona_count", "spoof_count")]
    for cat in sorted(reports):
        rep = reports[cat]
        edges = rep.bin_edges.tolist()
        rows += [(cat, *bins) for bins in zip(edges, edges[1:], rep.bona_counts.tolist(), rep.spoof_counts.tolist())]
    return table_text(rows)
