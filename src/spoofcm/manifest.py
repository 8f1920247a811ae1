"""Trial records and manifests.

Manifests are TSV with a header line:
trial_id, path, label, attack_tag, source_id, subset. Paths are stored
relative to the manifest file. A spoof record names its bona fide source;
``training.DataBundle.pairing`` indexes the spoofs of each source.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError
from .util import read_utf8

LABELS = ("bonafide", "spoof")
SUBSETS = ("train", "dev", "eval")
COLUMNS = ("trial_id", "path", "label", "attack_tag", "source_id", "subset")


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    path: str
    label: str
    attack_tag: str
    source_id: str
    subset: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise DataError(f"{self.trial_id}: label must be one of {LABELS}, got {self.label!r}")
        if self.subset not in SUBSETS:
            raise DataError(f"{self.trial_id}: subset must be one of {SUBSETS}, got {self.subset!r}")
        if self.label == "spoof":
            if self.source_id == self.trial_id or self.attack_tag == "-":
                raise DataError(
                    f"{self.trial_id}: spoof records need a distinct source_id and an attack tag"
                )
        elif self.source_id != self.trial_id:
            raise DataError(f"{self.trial_id}: bona fide records must be their own source")


class TrialManifest:
    """Ordered collection of trial records with unique ids."""

    def __init__(self, records: list[TrialRecord], root: str | Path = "."):
        self.records = list(records)
        self._by_id = {r.trial_id: r for r in self.records}
        if len(self._by_id) != len(self.records):
            dup = sorted(i for i, n in Counter(r.trial_id for r in self.records).items() if n > 1)
            raise DataError(f"duplicate trial ids in manifest: {dup[:5]}")
        self.root = Path(root)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_id(self, trial_id: str) -> TrialRecord:
        try:
            return self._by_id[trial_id]
        except KeyError:
            raise DataError(f"trial id not in manifest: {trial_id}") from None

    def subset(self, name: str) -> "TrialManifest":
        if name not in SUBSETS:
            raise ConfigError(f"unknown subset {name!r}")
        return TrialManifest([r for r in self.records if r.subset == name], self.root)

    def with_label(self, label: str) -> "TrialManifest":
        return TrialManifest([r for r in self.records if r.label == label], self.root)

    def resolve(self, record: TrialRecord) -> Path:
        return self.root / record.path

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["\t".join(COLUMNS)]
        for r in self.records:
            lines.append("\t".join([r.trial_id, r.path, r.label, r.attack_tag, r.source_id, r.subset]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> TrialManifest:
    path = Path(path)
    lines = read_utf8(path, "manifest").splitlines()
    expected_header = "\t".join(COLUMNS)
    if not lines or lines[0] != expected_header:
        raise DataError(f"{path}: expected header {expected_header!r}")
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(COLUMNS):
            raise DataError(f"{path}:{ln}: expected {len(COLUMNS)} fields, got {len(fields)}")
        records.append(TrialRecord(*fields))
    return TrialManifest(records, root=path.parent)
