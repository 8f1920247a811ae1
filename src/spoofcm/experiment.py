"""Experiment orchestration: config files, vocoded-set building with
refresh, multi-seed multi-system runs, trimmed-eval scoring, seed
averaging, and significance reports.

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

Every report embeds the resolved config hash and the content hash of
each input manifest; reruns with identical config and seeds produce
byte-identical outputs.
"""
from __future__ import annotations

import configparser
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path

from .augment import AugmentOp, make_augment
from .contrastive import CfConfig
from .corpus import gen_desk_corpus, trim_nonspeech
from .errors import ConfigError, DataError, SpoofcmError
from .manifest import TrialManifest, load_manifest
from .metrics import EerResult, compute_eer, mean_eer_over_seeds, pooled_eer, save_scores
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
from .util import derive_seed, file_sha256, read_utf8, text_sha256
from .vocoders import DEFAULT_CHANNEL_NAMES, SYNTHESIS_VERSION, VocoderChannel, make_channel

DEFAULT_SEEDS = (101, 202, 303)


@dataclass(frozen=True)
class SystemSpec:
    name: str
    loss_mode: str  # "ce" | "ce+cf"
    pairing: str  # "paired" | "random"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "desk"
    master_seed: int = 1234
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    manifest_path: str = "corpus/manifest.tsv"
    generate: int = 0  # when > 0 and the manifest is missing, generate this many trials
    channel_names: tuple[str, ...] = DEFAULT_CHANNEL_NAMES
    intermediate_sr: int | None = None
    augment_kind: str = "rawboost"  # or "freqmask", "codec", "none"
    train: TrainConfig = field(default_factory=TrainConfig)
    systems: tuple[SystemSpec, ...] = (
        SystemSpec("ce_aug", "ce", "random"),
        SystemSpec("cecf_paired", "ce+cf", "paired"),
    )
    raw_text: str = ""

    def config_hash(self) -> str:
        return text_sha256(self.raw_text or repr(self))

    def channels(self) -> list[VocoderChannel]:
        return [make_channel(n, self.intermediate_sr) for n in self.channel_names]

    def train_config(self, system: SystemSpec) -> TrainConfig:
        """The shared training settings with this system's loss mode and pairing."""
        return dc_replace(self.train, loss_mode=system.loss_mode, pairing=system.pairing)

    def augment_op(self) -> AugmentOp | None:
        if self.augment_kind == "none":
            return None
        return make_augment(self.augment_kind, derive_seed(self.master_seed, "augment"))


# The [train] keys; each sets the TrainConfig field of the same name.
_TRAIN_KEYS = {
    "lr0": float, "lr_decay": float, "lr_decay_every": int, "batch_size": int, "max_seconds": float,
    "patience": int, "max_epochs": int, "feature_dim": int, "extractor_hidden": int, "head_hidden": int,
}


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    raw = read_utf8(path, "config file", decode_error=ConfigError)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(raw)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def value(section: str, key: str, default, kind=str):
        text = sections.get(section, {}).get(key)
        if text is None:
            return default
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: {section}.{key} = {text!r}: {exc}") from None

    def given(section: str, kinds: dict) -> dict:
        """The keys of ``kinds`` set in the section, parsed; unset keys keep their defaults."""
        fields = sections.get(section, {})
        return {key: value(section, key, None, kind) for key, kind in kinds.items() if key in fields}

    train_cfg = TrainConfig(
        **given("train", _TRAIN_KEYS),
        **given("augment", {"k_views": int}),
        cf=CfConfig(**given("cf", {"temperature": float, "levels": str})),
    )
    systems = []
    for name, text in sections.get("systems", {}).items():
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"system {name!r} must be 'loss_mode, pairing', got {text!r}")
        systems.append(SystemSpec(name, parts[0], parts[1]))
    if not systems:
        systems = list(ExperimentConfig().systems)

    augment_kind = value("augment", "kind", "rawboost")
    wanting = [s.name for s in systems if s.loss_mode == "ce+cf"]  # contrastive batches take views
    if augment_kind == "none" and train_cfg.k_views > 0 and wanting:
        raise ConfigError(f"{path}: systems {wanting} train on augmented views "
                          f"(k_views = {train_cfg.k_views}) but [augment] kind = none")
    seeds = value("experiment", "seeds", DEFAULT_SEEDS, _parse_int_list)
    if not seeds:
        raise ConfigError(f"{path}: experiment.seeds lists no seed")

    return ExperimentConfig(
        name=value("experiment", "name", "desk"),
        master_seed=value("experiment", "seed", 1234, int),
        seeds=seeds,
        manifest_path=value("data", "manifest", "corpus/manifest.tsv"),
        generate=value("data", "generate", 0, int),
        channel_names=value(
            "channels", "names", DEFAULT_CHANNEL_NAMES, lambda t: tuple(n.strip() for n in t.split(","))
        ),
        intermediate_sr=value("channels", "intermediate_sr", None, lambda t: int(t) if t.strip() else None),
        augment_kind=augment_kind,
        train=train_cfg,
        systems=tuple(systems),
        raw_text=raw,
    )


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

    A meta file records the source manifest hash, every channel parameter
    and the synthesis version; a matching meta makes this a no-op
    (synthesis is deterministic, so the reused set equals what a rebuild
    would produce).
    """
    from .vocoders import build_vocoded_set

    meta_path = out_dir / "build_meta.json"
    combined_path = out_dir / "manifest.tsv"
    desc = {
        "source_manifest": file_sha256(manifest_file),
        "channels": [repr(c) for c in channels],
        "synthesis_version": SYNTHESIS_VERSION,
    }
    if meta_path.exists() and combined_path.exists():
        if json.loads(meta_path.read_text()) == desc:
            return load_manifest(combined_path)
    combined = build_vocoded_set(manifest, channels, out_dir)
    combined.save(combined_path)
    meta_path.write_text(json.dumps(desc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return combined


def train_system(cfg: ExperimentConfig, bundle: DataBundle, system: SystemSpec, seed: int, run_dir: Path):
    """Train one system for one seed; write checkpoint.ckpt and history.csv
    into ``run_dir``. Returns (params, history)."""
    params, history = train(bundle, cfg.train_config(system), seed)
    save_checkpoint(run_dir / "checkpoint.ckpt", params, cfg.config_hash())
    (run_dir / "history.csv").write_text(history_csv(history), encoding="utf-8")
    return params, history


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


def _results_csv(results: list[RunResult]) -> str:
    lines = ["system,seed,set,eer,threshold,n_tar,n_non"]
    for r in results:
        e = r.eer
        lines.append(f"{r.system},{r.seed},{r.set_name},{e.eer!r},{e.threshold!r},{e.n_tar},{e.n_non}")
    return "\n".join(lines) + "\n"


def _summary_csv(seed_means: dict[tuple[str, str], float]) -> str:
    lines = ["system,set,mean_eer"]
    for key in sorted(seed_means):
        lines.append(f"{key[0]},{key[1]},{seed_means[key]!r}")
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path, base_dir: str | Path = ".") -> ExperimentReport:
    """The full protocol: vocode, train each system for each seed, score
    the evaluation subsets (original and non-speech-trimmed), average
    over seeds, and test pairwise significance between systems."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        bundle = DataBundle(combined, cfg.augment_op(), cfg.master_seed)

    trained = {}
    for system in cfg.systems:
        for seed in cfg.seeds:
            run_dir = out_dir / "runs" / f"{system.name}_seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            with _stage(f"train:{system.name}:{seed}"):
                trained[system.name, seed] = run_dir, train_system(cfg, bundle, system, seed, run_dir)[0]

    with _stage("eval-data"):
        # Features do not depend on the model, so they are built once, not per
        # (system, seed), and after training, so they add nothing to its peak memory.
        # The bundle already holds every trial's untrimmed features.
        eval_manifest = combined.subset("eval")
        eval_features = {
            "eval": {rec.trial_id: bundle.base(rec.trial_id) for rec in eval_manifest},
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
        for system in cfg.systems:
            for set_name in set_names:
                runs = [r.eer for r in results if r.system == system.name and r.set_name == set_name]
                seed_means[(system.name, set_name)] = mean_eer_over_seeds(runs)

    with _stage("significance"):
        significance = None
        if len(cfg.systems) >= 2:
            pooled_results = {}
            for system in cfg.systems:
                runs = [r for r in results if r.system == system.name and r.set_name == "pooled"]
                pooled_results[system.name] = EerResult(
                    seed_means[(system.name, "pooled")], 0.0, runs[0].eer.n_tar, runs[0].eer.n_non
                )
            significance = significance_matrix(pooled_results)
            (out_dir / "sig_p.csv").write_text(significance.p_csv(), encoding="utf-8")
            (out_dir / "sig_reject.csv").write_text(significance.reject_csv(), encoding="utf-8")

    with _stage("report"):
        (out_dir / "results.csv").write_text(_results_csv(results), encoding="utf-8")
        (out_dir / "summary.csv").write_text(_summary_csv(seed_means), encoding="utf-8")
        meta = {
            "experiment": cfg.name,
            "config_hash": cfg.config_hash(),
            "manifest_hashes": {str(cfg.manifest_path): file_sha256(manifest_file)},
            "seeds": list(cfg.seeds),
            "systems": [s.name for s in cfg.systems],
        }
        (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        (out_dir / "config_resolved.ini").write_text(cfg.raw_text or "", encoding="utf-8")
    return ExperimentReport(results, seed_means, significance, out_dir)
