"""Trial records, manifests, and paired bona-fide/vocoded trial sets.

Manifests are TSV with a header line:
trial_id, path, label, attack_tag, source_id, subset. Paths are stored
relative to the manifest file.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError

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
        ids = [r.trial_id for r in records]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate trial ids in manifest: {dup[:5]}")
        self.records = list(records)
        self.root = Path(root)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_id(self, trial_id: str) -> TrialRecord:
        for r in self.records:
            if r.trial_id == trial_id:
                return r
        raise DataError(f"trial id not in manifest: {trial_id}")

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
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
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


class PairedTrialSet:
    """Bona fide records plus their vocoded spoofs, with the pairing index."""

    def __init__(self, records: list[TrialRecord], root: str | Path = "."):
        self.manifest = TrialManifest(sorted(records, key=lambda r: r.trial_id), root)
        bona_ids = {r.trial_id for r in self.manifest if r.label == "bonafide"}
        pairing: dict[str, list[str]] = {b: [] for b in sorted(bona_ids)}
        for r in self.manifest:
            if r.label == "spoof":
                if r.source_id not in bona_ids:
                    raise DataError(
                        f"spoof {r.trial_id} references unknown bona fide source {r.source_id}"
                    )
                pairing[r.source_id].append(r.trial_id)
        self.pairing = {k: sorted(v) for k, v in pairing.items()}

    @property
    def records(self) -> list[TrialRecord]:
        return self.manifest.records

    def spoofs_of(self, bona_id: str) -> list[str]:
        if bona_id not in self.pairing:
            raise DataError(f"not a bona fide trial id: {bona_id}")
        return self.pairing[bona_id]

    def save(self, path: str | Path) -> None:
        self.manifest.save(path)
