"""Command-line surface.

Subcommands: gen-corpus, synth, score, eer, group-report, run.
Each takes only the flags it reads: every subcommand takes --out; --seed
is taken by gen-corpus and run; --config by run. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical error. Relative --out
paths are resolved under $SPOOFCM_OUT_ROOT when that variable is set.
"""
from __future__ import annotations

import argparse
import configparser
import io
import os
import sys
from dataclasses import astuple
from dataclasses import replace as dc_replace
from pathlib import Path

from .errors import ConfigError, DataError, NumericalError
from .manifest import load_manifest
from .metrics import (
    EER_COLUMNS,
    compute_eer,
    group_analysis,
    group_report_csv,
    histogram_csv,
    load_scores,
    pooled_eer,
    save_scores,
)
from .training import load_checkpoint, manifest_features, score_manifest
from .util import table_text, write_file
from .vocoders import DEFAULT_CHANNEL_NAMES, VocoderChannel, build_vocoded_set

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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoofcm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-corpus", help="generate a synthetic bona fide corpus")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234, help="corpus seed")

    p = sub.add_parser("synth", help="build a vocoded spoof set from a bona fide manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--channels", default=",".join(DEFAULT_CHANNEL_NAMES))
    p.add_argument("--intermediate-sr", type=int, default=None)

    p = sub.add_parser("score", help="score a manifest with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trim", action="store_true", help="trim non-speech before scoring")

    p = sub.add_parser("eer", help="EER of one or more score files")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("group-report", help="per-attack-category EERs and histograms")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--grouping", default="", help="tag=category pairs, comma separated")

    p = sub.add_parser("run", help="full experiment from a config file")
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.add_argument("--config", required=True, help="experiment config file (INI)")
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output directory or file")
    return parser


def _cmd_gen_corpus(args) -> int:
    from .corpus import gen_desk_corpus

    out = _out_path(args.out or "corpus")
    manifest = gen_desk_corpus(args.n, args.seed, out)
    print(f"wrote {len(manifest)} trials under {out}")
    return 0


def _cmd_synth(args) -> int:
    manifest = load_manifest(args.manifest)
    channels = [VocoderChannel(n.strip(), args.intermediate_sr) for n in args.channels.split(",")]
    out = _out_path(args.out or "vocoded")
    combined = build_vocoded_set(manifest, channels, out)
    n_spoof = sum(1 for r in combined if r.label == "spoof")
    print(f"wrote {n_spoof} spoofed trials under {out}")
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


def _row_names(paths: list[str]) -> list[str]:
    """Each path's shortest trailing part without its suffix (stem, then
    parent/stem, and so on) that no other path shares at that depth; the
    path as given when every such part is shared (the same file given
    twice, or files that differ only in suffix)."""
    tails = [(*Path(p).parent.parts, Path(p).stem) for p in paths]
    names = []
    for i, parts in enumerate(tails):
        others = tails[:i] + tails[i + 1:]
        k = next((k for k in range(1, len(parts) + 1) if all(o[-k:] != parts[-k:] for o in others)), None)
        names.append(paths[i] if k is None else str(Path(*parts[-k:])))
    return names


def _cmd_eer(args) -> int:
    manifest = load_manifest(args.manifest)
    sets = [load_scores(path, manifest, set_name=name) for path, name in zip(args.scores, _row_names(args.scores))]
    rows = [("set", *EER_COLUMNS)] + [(s.name, *astuple(compute_eer(s))) for s in sets]
    if len(sets) > 1:
        rows.append(("pooled", *astuple(pooled_eer(sets))))
    text = table_text(rows)
    if args.out:
        write_file(_out_path(args.out), text)
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
    write_file(out / "category_eer.csv", group_report_csv(reports))
    write_file(out / "histograms.csv", histogram_csv(reports))
    print(f"wrote category report for {len(reports)} categories under {out}")
    return 0


def _cmd_run(args) -> int:
    from .experiment import load_config, run_experiment

    cfg = load_config(args.config)
    if args.seed is not None:  # hash and write the config the run uses, not the file's
        ini = configparser.ConfigParser()
        ini.read_string(cfg.raw_text)
        ini.read_dict({"experiment": {"seed": str(args.seed)}})
        text = io.StringIO()
        ini.write(text)
        cfg = dc_replace(cfg, master_seed=args.seed, raw_text=text.getvalue())
    out = _out_path(args.out or f"runs/{cfg.name}")
    report = run_experiment(cfg, out, base_dir=Path(args.config).parent)
    for key in sorted(report.seed_means):
        print(f"{key[0]} {key[1]}: mean EER {report.seed_means[key] * 100:.2f}%")
    print(f"report written under {report.out_dir}")
    return 0


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "synth": _cmd_synth,
    "score": _cmd_score,
    "eer": _cmd_eer,
    "group-report": _cmd_group_report,
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
