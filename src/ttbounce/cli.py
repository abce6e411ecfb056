"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently
scriptable: detect, featurize, train, eval, run, mix, grid-search.
Configuration precedence is defaults, then --config file, then flags;
the effective configuration is printed to stderr and saved beside any
--out artifact. Exit codes: 0 success, 2 usage/input error, 3
data/format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import detect as det
from .audio_io import (
    DATASET_SAMPLE_RATE,
    load_manifest,
    load_wav,
    mix_noise,
    write_wav,
)
from .classify import (
    FAMILIES,
    METHODS,
    TrainConfig,
    assemble_task,
    features_for_model,
    load_model,
    save_model,
    stratified_split,
    train_task_model,
)
from .classify.data import TASKS
from .errors import BounceError, DataError, FormatError, NumericError, ParameterError
from .evaluate import (
    confusion_csv,
    end_to_end,
    format_report,
    grid_search_detector,
    metrics_csv,
    score_classifier,
)
from .features import FeatureRecord, log_mel, read_feature_file, write_feature_file
from .synth import DetectionFixture


def _effective_config(args: argparse.Namespace, extra: dict | None = None) -> dict:
    det.build_configs(args.values, DATASET_SAMPLE_RATE)  # validates detector keys everywhere
    defaults = {name: det.CONFIG_TABLE[name].default for name in det.CONFIG_KEYS}
    return {**defaults, **args.values, "seed": args.seed, **(extra or {})}


def _emit_config(eff: dict, out: str | None) -> None:
    text = "".join(f"{k}={v}\n" for k, v in sorted(eff.items()))
    sys.stderr.write("# effective configuration\n" + text)
    if out:
        Path(str(out) + ".config").write_text(text, encoding="utf-8")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- Subcommands ----------------------------------------------------------------


def cmd_detect(args: argparse.Namespace) -> int:
    clip = load_wav(args.audio)
    config, spec = det.build_configs(args.values, clip.sample_rate)
    _emit_config(_effective_config(args), args.out)
    events = det.detect_bounces(clip, config, spec)
    import io

    buf = io.StringIO()
    det.write_events_csv(events, buf)
    _write_or_print(buf.getvalue(), args.out)
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    _emit_config(_effective_config(args), args.out)
    # Rows grouped by file, so each file is decoded once and dropped after
    # its rows; records keep the manifest's row order.
    rows: dict[Path, list[int]] = {}
    for i, entry in enumerate(manifest.entries):
        rows.setdefault(entry.path, []).append(i)
    records: list[FeatureRecord | None] = [None] * len(manifest.entries)
    for path, indices in rows.items():
        clip = load_wav(path)
        for i in indices:
            entry = manifest.entries[i]
            onset_sample = int(round(entry.onset_ms / 1000.0 * clip.sample_rate))
            try:
                window = det.extract_window(clip, onset_sample)
            except DataError as exc:  # name the file among many
                raise DataError(f"{path}: {exc}") from None
            records[i] = FeatureRecord(
                surface=int(entry.surface),
                spin=int(entry.spin) if entry.spin is not None else -1,
                cells=log_mel(window).astype(np.float32),
            )
    write_feature_file(args.out, records)
    return 0


def _fingerprint(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_train(args: argparse.Namespace) -> int:
    records = read_feature_file(args.features)
    # Epochs default per method; every other setting is flag, then file, then default.
    values = {"train.epochs": FAMILIES[args.method].default_epochs, **args.values}
    config = det.config_from(TrainConfig, values, seed=args.seed, task=args.task)
    config.validate()
    resolved = {
        name: getattr(config, key.field)
        for name, key in det.CONFIG_TABLE.items()
        if key.owner is TrainConfig
    }
    extra = {"task": args.task, "method": args.method, **resolved}
    _emit_config(_effective_config(args, extra), args.out)
    model, log = train_task_model(records, args.method, config, svm_epochs=config.epochs)
    model.meta = {
        "seed": args.seed,
        "task": args.task,
        "method": args.method,
        "train_fingerprint": _fingerprint(args.features),
    }
    save_model(model, args.out)
    log_lines = ["epoch,train_loss,val_loss,val_acc"]
    for row in log:
        log_lines.append(
            f"{row['epoch']},{row.get('train_loss', float('nan')):.9g},"
            f"{row.get('val_loss', float('nan')):.9g},{row.get('val_acc', float('nan')):.9g}"
        )
    Path(str(args.out) + ".log.csv").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    records = read_feature_file(args.features)
    _emit_config(_effective_config(args), args.out)
    ds = assemble_task(records, model.task)
    indices = np.arange(len(ds))
    trained_on_this = model.meta.get("train_fingerprint") == _fingerprint(args.features)
    if trained_on_this:
        sys.stderr.write(
            "warning: this is the model's own training file; "
            "scoring the held-out validation split only\n"
        )
        _, indices = stratified_split(
            ds.strata, ds.labels, len(ds.classes), int(model.meta.get("seed", 0))
        )
    feats = features_for_model(model, ds.cells[indices])
    score = score_classifier(model, feats, ds.labels[indices])
    report = format_report(score) + "\n"
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        Path(str(args.out) + ".confusion.csv").write_text(confusion_csv(score), encoding="utf-8")
        Path(str(args.out) + ".metrics.csv").write_text(metrics_csv(score), encoding="utf-8")
    else:
        sys.stdout.write(report + "\n" + confusion_csv(score))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    clip = load_wav(args.audio)
    surface_model = load_model(args.surface_model)
    spin_model = load_model(args.spin_model) if args.spin_model else None
    config, spec = det.build_configs(args.values, clip.sample_rate)
    _emit_config(_effective_config(args), args.out)
    events = end_to_end(clip, config, spec, surface_model, spin_model)
    lines = ["onset_sample,onset_s,surface,spin,surface_score,spin_score"]
    for ev in events:
        spin = ev.spin if ev.spin is not None else ""
        s_score = float(np.max(ev.surface_scores))
        p_score = f"{float(np.max(ev.spin_scores)):.9g}" if ev.spin_scores is not None else ""
        lines.append(
            f"{ev.onset_sample},{ev.onset_s:.9f},{ev.surface},{spin},{s_score:.9g},{p_score}"
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    signal = load_wav(args.signal)
    noise = load_wav(args.noise)
    _emit_config(_effective_config(args, {"snr_db": args.snr_db}), args.out)
    result = mix_noise(signal, noise, args.snr_db)
    write_wav(args.out, result.clip)
    sys.stderr.write(f"noise_gain={result.noise_gain:.9g} rescale={result.rescale:.9g}\n")
    return 0


def _manifest_fixtures(path: str) -> list[DetectionFixture]:
    manifest = load_manifest(path)
    by_file: dict[Path, list[float]] = {}
    for entry in manifest.entries:
        by_file.setdefault(entry.path, []).append(entry.onset_ms / 1000.0)
    fixtures = []
    for file_path, onsets in sorted(by_file.items()):
        fixtures.append(
            DetectionFixture(
                name=str(file_path), clip=load_wav(file_path), onsets_s=tuple(sorted(onsets))
            )
        )
    return fixtures


def cmd_grid_search(args: argparse.Namespace) -> int:
    fixtures = _manifest_fixtures(args.manifest)
    gammas = [float(v) for v in args.gammas.split(",") if v]
    multipliers = [float(v) for v in args.multipliers.split(",") if v]
    rate = fixtures[0].clip.sample_rate if fixtures else DATASET_SAMPLE_RATE
    base_config, spec = det.build_configs(args.values, rate)
    _emit_config(_effective_config(args), args.out)
    noise = None
    if args.noise:
        noise = (load_wav(args.noise), args.snr_db if args.snr_db is not None else 10.0)
    best, rows = grid_search_detector(
        fixtures, gammas, multipliers, base_config=base_config, filter_spec=spec, noise=noise
    )
    lines = ["gamma,threshold_multiplier,precision,recall,f1,mean_abs_onset_error_ms"]
    for r in rows:
        lines.append(
            f"{r.gamma:.9g},{r.threshold_multiplier:.9g},{r.precision:.9g},"
            f"{r.recall:.9g},{r.f1:.9g},{r.mean_abs_onset_error_ms:.9g}"
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    sys.stderr.write(
        f"best: gamma={best.gamma} threshold_multiplier={best.threshold_multiplier}\n"
    )
    return 0


# --- Parser -----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--out", help="output path (default: stdout where applicable)")


def _add_key_flags(p: argparse.ArgumentParser, *owners: type) -> None:
    for name, key in det.CONFIG_TABLE.items():
        if key.flag and key.owner in owners:
            help_text = f"config key {name} (default {key.default})"
            p.add_argument(key.flag, type=key.number, dest=name, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttbounce",
        description="Detect table-tennis ball bounces in audio and classify surface and spin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect bounce onsets, emit events CSV")
    p.add_argument("audio")
    _add_common(p)
    _add_key_flags(p, det.DetectorConfig, det.FilterSpec)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("featurize", help="extract feature records from a manifest")
    p.add_argument("manifest")
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a classifier on a feature file")
    p.add_argument("features")
    _add_common(p)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    _add_key_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model against a feature file")
    p.add_argument("model")
    p.add_argument("features")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="full pipeline: detect then classify")
    p.add_argument("audio")
    _add_common(p)
    _add_key_flags(p, det.DetectorConfig, det.FilterSpec)
    p.add_argument("--surface-model", required=True, dest="surface_model")
    p.add_argument("--spin-model", dest="spin_model")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("mix", help="overlay noise on a signal at a target SNR")
    p.add_argument("signal")
    p.add_argument("noise")
    _add_common(p)
    p.add_argument("--snr-db", type=float, required=True, dest="snr_db")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("grid-search", help="sweep detector settings over labeled fixtures")
    p.add_argument("manifest")
    _add_common(p)
    _add_key_flags(p, det.DetectorConfig, det.FilterSpec)
    p.add_argument("--gammas", required=True, help="comma-separated decay factors")
    p.add_argument("--multipliers", required=True, help="comma-separated threshold multipliers")
    p.add_argument("--noise", help="optional noise WAV for a noisy sweep")
    p.add_argument("--snr-db", type=float, dest="snr_db")
    p.set_defaults(func=cmd_grid_search)

    return parser


_OUT_REQUIRED = {"featurize", "train", "mix"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _OUT_REQUIRED and not args.out:
            raise ParameterError(f"{args.command} requires --out")
        args.values = det.parse_config_file(args.config) if args.config else {}
        for name in det.CONFIG_TABLE:  # flags override the file
            if getattr(args, name, None) is not None:
                args.values[name] = getattr(args, name)
        return args.func(args)
    except (BounceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, NumericError):
            return 4
        return 3 if isinstance(exc, (FormatError, DataError)) else 2

if __name__ == "__main__":
    sys.exit(main())
