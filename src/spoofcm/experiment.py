"""Experiment orchestration: config files, vocoded-set building with
refresh, multi-seed multi-system runs, trimmed-eval scoring, seed
averaging, and significance reports.

Synthesis, the per-trial features (base features, augmented views and
the trimmed eval features) and each system's seeds run in forked worker
processes, one per CPU this process may run on (``util.parallel_map``);
outputs are byte-identical for any CPU count.

Config files are INI. Example:

    [experiment]
    name = desk
    seed = 1234
    seeds = 101, 202, 303

    [data]
    manifest = corpus/manifest.tsv
    generate = 200

    [channels]
    names = glmel, coarsegl, phasernd, lpcvoc

    [augment]
    kind = rawboost
    k_views = 1

    [train]
    lr0 = 1e-3
    max_epochs = 40
    patience = 10
    feature_dim = 32

    [cf]
    temperature = 0.07
    levels = both

    [systems]
    ce_aug = ce, random
    cecf_paired = ce+cf, paired

A system is a name and its TrainConfig: each [systems] line gives a loss
mode and a pairing, and the [train] and [cf] keys give the rest, shared by
every system. A config without [systems] lines trains DEFAULT_SYSTEMS.
The loss mode decides which of them training reads. ``ce`` trains on
shuffled mini-batches of ``batch_size`` single views and reads neither the
pairing nor [cf], so ``ce, paired`` trains byte-identically to
``ce, random``. ``ce+cf`` trains on one contrastive batch per bona fide
train trial, built under the pairing, and does not read ``batch_size``.

Every report embeds the resolved config hash and the content hash of
each input manifest; reruns with identical config and seeds produce
byte-identical outputs.
"""
from __future__ import annotations

import configparser
import functools
import json
from contextlib import contextmanager, suppress
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .augment import AUGMENT_KINDS
from .contrastive import CfConfig
from .corpus import gen_desk_corpus, trim_nonspeech
from .errors import ConfigError, DataError, SpoofcmError
from .manifest import TrialManifest, load_manifest
from .metrics import EER_COLUMNS, EerResult, compute_eer, pooled_eer, save_scores
from .stats import SignificanceMatrix, significance_matrix
from .training import (
    DataBundle,
    TrainConfig,
    history_csv,
    manifest_features,
    save_checkpoint,
    score_manifest,
    train,
)
from .util import derive_seed, file_sha256, parallel_map, read_utf8, table_text, text_sha256, write_file
from .vocoders import DEFAULT_CHANNEL_NAMES, SYNTHESIS_VERSION, VocoderChannel, build_vocoded_set, check_channels


# The [systems] lines of a config that has none: name = loss_mode, pairing.
DEFAULT_SYSTEMS = {"ce_aug": "ce, random", "cecf_paired": "ce+cf, paired"}


def _systems(lines: dict[str, str], train: dict, cf: CfConfig) -> tuple[tuple[str, TrainConfig], ...]:
    """A (name, TrainConfig) pair per [systems] line: the [train] settings
    given, with cf and the line's loss mode and pairing."""
    systems = []
    for name, text in lines.items():
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"system {name!r} must be 'loss_mode, pairing', got {text!r}")
        try:
            systems.append((name, TrainConfig(**train, loss_mode=parts[0], pairing=parts[1], cf=cf)))
        except ConfigError as exc:
            raise ConfigError(f"system {name!r}: {exc}") from None
    return tuple(systems)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "desk"
    master_seed: int = 1234
    seeds: tuple[int, ...] = (101, 202, 303)
    manifest_path: str = "corpus/manifest.tsv"
    generate: int = 0  # when > 0 and the manifest is missing, generate this many trials
    channel_names: tuple[str, ...] = DEFAULT_CHANNEL_NAMES
    intermediate_sr: int | None = None
    augment_kind: str | None = "rawboost"  # or "freqmask", "codec"; None (INI "none") for no views
    k_views: int = 1  # augmented views per train trial, when augment_kind is not None
    systems: tuple[tuple[str, TrainConfig], ...] = _systems(DEFAULT_SYSTEMS, {}, CfConfig())
    raw_text: str = ""

    def config_hash(self) -> str:
        return text_sha256(self.raw_text or repr(self))

    def channels(self) -> list[VocoderChannel]:
        return [VocoderChannel(n, self.intermediate_sr) for n in self.channel_names]


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


# Every INI key outside the free-form [systems]: (section, key) -> (the config
# it sets, that config's field, parser).
_INI_KEYS = {
    ("experiment", "name"): ("experiment", "name", str),
    ("experiment", "seed"): ("experiment", "master_seed", int),
    ("experiment", "seeds"): ("experiment", "seeds", _parse_int_list),
    ("data", "manifest"): ("experiment", "manifest_path", str),
    ("data", "generate"): ("experiment", "generate", int),
    ("channels", "names"): ("experiment", "channel_names", lambda t: tuple(n.strip() for n in t.split(","))),
    ("channels", "intermediate_sr"): ("experiment", "intermediate_sr", lambda t: int(t) if t.strip() else None),
    ("augment", "kind"): ("experiment", "augment_kind", lambda t: None if t == "none" else t),
    ("augment", "k_views"): ("experiment", "k_views", int),
    **{("train", key): ("train", key, kind) for key, kind in {
        "lr0": float, "lr_decay": float, "lr_decay_every": int, "batch_size": int, "max_seconds": float,
        "patience": int, "max_epochs": int, "feature_dim": int, "extractor_hidden": int, "head_hidden": int,
    }.items()},
    ("cf", "temperature"): ("cf", "temperature", float),
    ("cf", "levels"): ("cf", "levels", str),
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an INI config. Only the keys it sets are passed on, so every
    default lives in ExperimentConfig, TrainConfig, CfConfig or DEFAULT_SYSTEMS.
    The checks that need no data run here, before a run writes any file."""
    path = Path(path)
    raw = read_utf8(path, "config file", decode_error=ConfigError)
    parser = configparser.ConfigParser(default_section="")  # so [DEFAULT] is a section like any other
    try:
        parser.read_string(raw)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    given = {"experiment": {}, "train": {}, "cf": {}}
    for section, keys in sections.items():
        if section == "systems":  # free-form, read below
            continue
        for key, text in keys.items():
            if (section, key) not in _INI_KEYS:
                raise ConfigError(f"{path}: unknown key '{section}.{key}'")
            target, name, kind = _INI_KEYS[section, key]
            try:
                given[target][name] = kind(text)
            except ValueError as exc:
                raise ConfigError(f"{path}: {section}.{key} = {text!r}: {exc}") from None
    try:
        systems = _systems(sections.get("systems") or DEFAULT_SYSTEMS, given["train"], CfConfig(**given["cf"]))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    cfg = ExperimentConfig(**given["experiment"], systems=systems, raw_text=raw)

    # a seed listed twice would train each system twice into one run directory
    if not cfg.seeds or len(set(cfg.seeds)) < len(cfg.seeds):
        raise ConfigError(f"{path}: experiment.seeds needs one or more distinct seeds, got {list(cfg.seeds)}")
    try:
        check_channels(cfg.channels())
    except ConfigError as exc:
        raise ConfigError(f"{path}: [channels] {exc}") from None
    if cfg.augment_kind is not None and cfg.augment_kind not in AUGMENT_KINDS:
        raise ConfigError(f"{path}: augment.kind = {cfg.augment_kind!r}; "
                          f"expected none or one of {sorted(AUGMENT_KINDS)}")
    if cfg.k_views < 0:
        raise ConfigError(f"{path}: augment.k_views must be >= 0, got {cfg.k_views}")
    # a contrastive batch needs two bona fide views: the trial and an augmented copy
    wanting = [name for name, train_cfg in cfg.systems if train_cfg.loss_mode == "ce+cf"]
    if wanting and (cfg.augment_kind is None or cfg.k_views < 1):
        raise ConfigError(f"{path}: systems {wanting} train on augmented views, which need a kind and "
                          f"k_views >= 1; [augment] kind = {cfg.augment_kind or 'none'}, "
                          f"k_views = {cfg.k_views}")
    return cfg


@contextmanager
def _stage(name: str):
    try:
        yield
    except SpoofcmError as exc:
        exc.args = (f"[stage {name}] {exc.args[0] if exc.args else ''}",)
        raise


def ensure_vocoded_set(
    manifest: TrialManifest,
    manifest_file: Path,
    channels: list[VocoderChannel],
    out_dir: Path,
) -> TrialManifest:
    """Build the vocoded set, or reuse it when inputs are unchanged.

    A meta file records the source manifest hash, every channel parameter,
    the synthesis version, the hash of the vocoded manifest.tsv and the size
    of each WAV in out_dir (a stat, not a hash: a hit stays cheap); a matching
    meta makes this a no-op (synthesis is deterministic, so the reused set
    equals what a rebuild would produce). A missing, added or resized WAV or
    any other manifest is a miss.
    """
    meta_path = out_dir / "build_meta.json"
    combined_path = out_dir / "manifest.tsv"
    desc = {
        "source_manifest": file_sha256(manifest_file),
        "channels": [repr(c) for c in channels],
        "synthesis_version": SYNTHESIS_VERSION,
    }

    def record() -> dict:  # the same record is written after a build and compared on a hit
        return {**desc, "vocoded_manifest": file_sha256(combined_path), "wav_bytes": _wav_bytes(out_dir)}

    try:
        if json.loads(meta_path.read_text(encoding="utf-8")) == record():
            return load_manifest(combined_path)
    except (OSError, ValueError):  # a missing or unreadable meta, manifest or WAV is a miss
        pass
    # Removed first and written last, so a killed rebuild leaves no meta that matches
    # the WAVs it overwrote. If it cannot be removed, the writes that follow fail too.
    with suppress(OSError):
        meta_path.unlink()
    combined = build_vocoded_set(manifest, channels, out_dir)
    write_file(meta_path, json.dumps(record(), sort_keys=True, indent=1) + "\n")
    return combined


def _wav_bytes(out_dir: Path) -> dict[str, int]:
    """Byte size of each WAV in the vocoded directory, by file name."""
    return {p.name: p.stat().st_size for p in out_dir.glob("*.wav")}


def _train_run(cfg: ExperimentConfig, bundle: DataBundle, name: str, train_cfg: TrainConfig, out_dir: Path,
               seed: int):
    """Train one system for one seed; write checkpoint.ckpt and history.csv
    into its run directory, ``out_dir/runs/<name>_seed<seed>``. Returns
    (run directory, params): a worker sends back only the parameters."""
    run_dir = out_dir / "runs" / f"{name}_seed{seed}"
    with _stage(f"train:{name}:{seed}"):
        params, history = train(bundle, train_cfg, seed)
        save_checkpoint(run_dir / "checkpoint.ckpt", params, cfg.config_hash())
        write_file(run_dir / "history.csv", history_csv(history))
    return run_dir, params


@dataclass(frozen=True)
class RunResult:
    system: str
    seed: int
    set_name: str
    eer: EerResult


@dataclass
class ExperimentReport:
    results: list[RunResult]
    seed_means: dict[tuple[str, str], float]  # (system, set) -> mean EER
    significance: SignificanceMatrix | None
    out_dir: Path


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path, base_dir: str | Path = ".") -> ExperimentReport:
    """The full protocol: vocode, train each system for each seed, score
    the evaluation subsets (original and non-speech-trimmed), average
    over seeds, and test pairwise significance between systems.

    The bundle's features and views, and the trimmed eval features, are
    built per trial in forked worker processes (``util.parallel_map``).
    Systems train one after another, in config order; a system's seeds
    train in worker processes too, each worker taking the next seed when
    it is free, and the first seed in this process. Each worker
    writes its run's checkpoint and history and sends back only the
    trained parameters, so every output is byte-identical for any CPU
    count. Scoring and what follows run here."""
    out_dir = Path(out_dir)
    base_dir = Path(base_dir)

    with _stage("corpus"):
        manifest_file = base_dir / cfg.manifest_path
        if not manifest_file.exists():
            if cfg.generate > 0:
                gen_desk_corpus(cfg.generate, derive_seed(cfg.master_seed, "corpus"), manifest_file.parent)
            else:
                raise DataError(f"manifest not found: {manifest_file} (set data.generate to create one)")
        bona_manifest = load_manifest(manifest_file)

    with _stage("synth"):
        combined = ensure_vocoded_set(
            bona_manifest, manifest_file, cfg.channels(), out_dir / "vocoded"
        )

    with _stage("train-data"):
        bundle = DataBundle(combined, cfg.augment_kind, cfg.master_seed, cfg.k_views)

    trained = {}
    for name, train_cfg in cfg.systems:  # the first seed, item 0 of equal weights, trains here: so does every system
        runs = parallel_map(functools.partial(_train_run, cfg, bundle, name, train_cfg, out_dir), cfg.seeds)
        trained.update({(name, seed): run for seed, run in zip(cfg.seeds, runs)})

    with _stage("eval-data"):
        # Features do not depend on the model, so they are built once, not per
        # (system, seed), and after training, so they add nothing to its peak memory.
        # The bundle already holds every trial's untrimmed features.
        eval_manifest = combined.subset("eval")
        eval_features = {
            "eval": {rec.trial_id: bundle.view(rec.trial_id, 0) for rec in eval_manifest},
            "eval_trim": manifest_features(eval_manifest, trim_nonspeech)[0],
        }

    results: list[RunResult] = []
    for (name, seed), (run_dir, params) in trained.items():
        with _stage(f"score:{name}:{seed}"):
            sets = []
            for set_name, features in eval_features.items():
                scores = score_manifest(eval_manifest, params, features, set_name)[0]
                save_scores(run_dir / f"scores_{set_name}.txt", scores)
                sets.append(scores)
                results.append(RunResult(name, seed, set_name, compute_eer(scores)))
            results.append(RunResult(name, seed, "pooled", pooled_eer(sets)))

    with _stage("aggregate"):
        seed_means: dict[tuple[str, str], float] = {}
        set_names = sorted({r.set_name for r in results})
        for name, _ in cfg.systems:
            for set_name in set_names:
                eers = [r.eer.eer for r in results if r.system == name and r.set_name == set_name]
                seed_means[(name, set_name)] = float(np.mean(eers))

    with _stage("significance"):
        significance = None
        if len(cfg.systems) >= 2:
            pooled_results = {}
            for name, _ in cfg.systems:
                first = next(r.eer for r in results if r.system == name and r.set_name == "pooled")
                pooled_results[name] = EerResult(seed_means[(name, "pooled")], 0.0, first.n_tar, first.n_non)
            significance = significance_matrix(pooled_results)
            significance.save(out_dir)

    with _stage("report"):
        rows = [(r.system, r.seed, r.set_name, *astuple(r.eer)) for r in results]
        write_file(out_dir / "results.csv", table_text([("system", "seed", "set", *EER_COLUMNS), *rows]))
        rows = [(*key, seed_means[key]) for key in sorted(seed_means)]
        write_file(out_dir / "summary.csv", table_text([("system", "set", "mean_eer"), *rows]))
        meta = {
            "experiment": cfg.name,
            "config_hash": cfg.config_hash(),
            "manifest_hashes": {str(cfg.manifest_path): file_sha256(manifest_file)},
            "seeds": list(cfg.seeds),
            "systems": [name for name, _ in cfg.systems],
        }
        write_file(out_dir / "meta.json", json.dumps(meta, sort_keys=True, indent=1) + "\n")
        write_file(out_dir / "config_resolved.ini", cfg.raw_text)
    return ExperimentReport(results, seed_means, significance, out_dir)
