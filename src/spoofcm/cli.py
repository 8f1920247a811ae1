"""Command-line surface.

Subcommands: gen-corpus, synth, train, score, eer, group-report,
sigtest, run. Exit codes: 0 success, 1 usage/config error, 2 data
error, 3 numerical error. Relative --out paths are resolved under
$SPOOFCM_OUT_ROOT when that variable is set.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

from .errors import ConfigError, DataError, NumericalError
from .manifest import load_manifest
from .metrics import (
    EerResult,
    compute_eer,
    group_analysis,
    group_report_csv,
    histogram_csv,
    load_scores,
    pooled_eer,
    save_scores,
)
from .stats import significance_matrix
from .training import DataBundle, load_checkpoint, manifest_features, score_manifest
from .util import read_utf8
from .vocoders import DEFAULT_CHANNEL_NAMES, build_vocoded_set, make_channel

OUT_ROOT_ENV = "SPOOFCM_OUT_ROOT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise ConfigError(message)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--config", default=None, help="experiment config file (INI)")
    p.add_argument("--out", default=None, help="output directory or file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoofcm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-corpus", help="generate a synthetic bona fide corpus")
    p.add_argument("--n", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("synth", help="build a vocoded spoof set from a bona fide manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--channels", default=",".join(DEFAULT_CHANNEL_NAMES))
    p.add_argument("--intermediate-sr", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("train", help="train one system for one seed")
    p.add_argument("--system", default=None, help="system name from the config's [systems]")
    _add_common(p)

    p = sub.add_parser("score", help="score a manifest with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trim", action="store_true", help="trim non-speech before scoring")
    _add_common(p)

    p = sub.add_parser("eer", help="EER of one or more score files")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--manifest", required=True)
    _add_common(p)

    p = sub.add_parser("group-report", help="per-attack-category EERs and histograms")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--grouping", default="", help="tag=category pairs, comma separated")
    _add_common(p)

    p = sub.add_parser("sigtest", help="pairwise significance matrix from a results CSV")
    p.add_argument("--results", required=True, help="CSV: system,eer,n_tar,n_non")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)

    p = sub.add_parser("run", help="full experiment from a config file")
    _add_common(p)
    return parser


def _cmd_gen_corpus(args) -> int:
    from .corpus import gen_desk_corpus

    out = _out_path(args.out or "corpus")
    seed = args.seed if args.seed is not None else 1234
    manifest = gen_desk_corpus(args.n, seed, out)
    print(f"wrote {len(manifest)} trials under {out}")
    return 0


def _cmd_synth(args) -> int:
    manifest = load_manifest(args.manifest)
    channels = [make_channel(n.strip(), args.intermediate_sr) for n in args.channels.split(",")]
    out = _out_path(args.out or "vocoded")
    combined = build_vocoded_set(manifest, channels, out)
    combined.save(Path(out) / "manifest.tsv")
    n_spoof = sum(1 for r in combined if r.label == "spoof")
    print(f"wrote {n_spoof} spoofed trials under {out}")
    return 0


def _cmd_train(args) -> int:
    from .experiment import load_config, train_system

    if not args.config:
        raise ConfigError("train needs --config")
    cfg = load_config(args.config)
    base = Path(args.config).parent
    system = cfg.systems[0] if args.system is None else next(
        (s for s in cfg.systems if s.name == args.system), None
    )
    if system is None:
        raise ConfigError(f"unknown system {args.system!r}; config defines "
                          f"{[s.name for s in cfg.systems]}")
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    combined = load_manifest(base / cfg.manifest_path)
    bundle = DataBundle(combined, cfg.augment_op(), cfg.master_seed)
    out = _out_path(args.out or f"run_{system.name}_seed{seed}")
    _, history = train_system(cfg, bundle, system, seed, out)
    print(f"trained {system.name} seed {seed}: best dev loss "
          f"{min(h.dev_loss for h in history)!r} ({len(history)} epochs)")
    return 0


def _cmd_score(args) -> int:
    from .corpus import trim_nonspeech

    params, _ = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    features, missing = manifest_features(manifest, trim_nonspeech if args.trim else None)
    scores, _ = score_manifest(manifest, params, features, set_name="scored")
    out = _out_path(args.out or "scores.txt")
    save_scores(out, scores)
    if missing:
        print(f"warning: {len(missing)} trials missing: {', '.join(missing[:5])}", file=sys.stderr)
    print(f"wrote {len(scores)} scores to {out}")
    return 0


def _cmd_eer(args) -> int:
    manifest = load_manifest(args.manifest)
    sets = []
    for path in args.scores:
        sets.append(load_scores(path, manifest, set_name=Path(path).stem))
    lines = ["set,eer,threshold,n_tar,n_non"]
    for s in sets:
        r = compute_eer(s)
        lines.append(f"{s.name},{r.eer!r},{r.threshold!r},{r.n_tar},{r.n_non}")
    if len(sets) > 1:
        r = pooled_eer(sets)
        lines.append(f"pooled,{r.eer!r},{r.threshold!r},{r.n_tar},{r.n_non}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_path(args.out)
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_group_report(args) -> int:
    manifest = load_manifest(args.manifest)
    scores = load_scores(args.scores, manifest, set_name="scored")
    grouping = {}
    if args.grouping:
        for pair in args.grouping.split(","):
            if "=" not in pair:
                raise ConfigError(f"bad grouping entry {pair!r}; expected tag=category")
            tag, cat = pair.split("=", 1)
            grouping[tag.strip()] = cat.strip()
    reports = group_analysis(scores, grouping)
    out = _out_path(args.out or "group_report")
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "category_eer.csv").write_text(group_report_csv(reports), encoding="utf-8")
    (Path(out) / "histograms.csv").write_text(histogram_csv(reports), encoding="utf-8")
    print(f"wrote category report for {len(reports)} categories under {out}")
    return 0


def _cmd_sigtest(args) -> int:
    path = Path(args.results)
    results = {}
    lines = read_utf8(path, "results file").splitlines()
    if not lines or not lines[0].startswith("system,"):
        raise DataError(f"{path}: expected header 'system,eer,n_tar,n_non'")
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise DataError(f"{path}:{ln}: expected 'system,eer,n_tar,n_non', got {len(fields)} fields")
        try:
            eer, n_tar, n_non = float(fields[1]), int(fields[2]), int(fields[3])
        except ValueError:
            raise DataError(f"{path}:{ln}: eer must be a number and n_tar, n_non integers") from None
        if not 0.0 <= eer <= 1.0 or min(n_tar, n_non) < 0:
            raise DataError(f"{path}:{ln}: need 0 <= eer <= 1 and counts >= 0")
        if fields[0] in results:
            raise DataError(f"{path}:{ln}: system {fields[0]!r} is listed more than once")
        results[fields[0]] = EerResult(eer, 0.0, n_tar, n_non)
    matrix = significance_matrix(results, alpha=args.alpha)
    out = _out_path(args.out or "sigtest")
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "sig_p.csv").write_text(matrix.p_csv(), encoding="utf-8")
    (Path(out) / "sig_reject.csv").write_text(matrix.reject_csv(), encoding="utf-8")
    print(matrix.reject_csv(), end="")
    return 0


def _cmd_run(args) -> int:
    from .experiment import load_config, run_experiment

    if not args.config:
        raise ConfigError("run needs --config")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dc_replace(cfg, master_seed=args.seed)
    out = _out_path(args.out or f"runs/{cfg.name}")
    report = run_experiment(cfg, out, base_dir=Path(args.config).parent)
    for key in sorted(report.seed_means):
        print(f"{key[0]} {key[1]}: mean EER {report.seed_means[key] * 100:.2f}%")
    print(f"report written under {report.out_dir}")
    return 0


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "score": _cmd_score,
    "eer": _cmd_eer,
    "group-report": _cmd_group_report,
    "sigtest": _cmd_sigtest,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
