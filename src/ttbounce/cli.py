"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently
scriptable: detect, featurize, train, eval, run, mix, grid-search.
Configuration precedence is defaults, then --config file, then flags;
the effective configuration is printed to stderr and saved beside any
--out artifact. The config keys live here, in ``CONFIG_TABLE``. Exit
codes: 0 success, 2 usage/input error, 3 data/format error or out of
memory, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import detect as det
from .audio_io import (
    DATASET_SAMPLE_RATE,
    AudioClip,
    DatasetManifest,
    ManifestEntry,
    load_manifest,
    load_wav,
    mix_noise,
    read_utf8,
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
from .errors import (
    BounceError,
    DataError,
    FormatError,
    NumericError,
    ParameterError,
    ValidationError,
)
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


# --- Configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ConfigKey:
    """A --config key, the dataclass field it sets (giving its type and default), its flag."""

    name: str
    owner: type
    flag: str | None = None

    @property
    def field(self) -> str:
        return self.name.rpartition(".")[2]

    @property
    def default(self) -> int | float:
        return getattr(self.owner, self.field)

    @property
    def type(self) -> type:
        return type(self.default)

    def number(self, raw: str) -> int | float:
        """Parse a file or flag value; ValueError unless finite, and integral for an int key."""
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # reported below like any other non-finite value
        if not math.isfinite(value) or (self.type is int and not value.is_integer()):
            raise ValueError(f"{self.name} takes a finite {self.type.__name__}, got {raw!r}")
        return self.type(value)


# Every key a --config file may set. The train.* keys configure the
# classifier trainer; they share the file so one config drives a whole run.
CONFIG_TABLE = {
    k.name: k
    for k in (
        ConfigKey("frame_ms", det.DetectorConfig),
        ConfigKey("gamma", det.DetectorConfig, "--gamma"),
        ConfigKey("threshold_multiplier", det.DetectorConfig, "--threshold-multiplier"),
        ConfigKey("refractory_ms", det.DetectorConfig, "--refractory-ms"),
        ConfigKey("ema_floor", det.DetectorConfig),
        ConfigKey("filter.order", det.FilterSpec),
        ConfigKey("filter.cutoff_hz", det.FilterSpec, "--cutoff-hz"),
        ConfigKey("train.epochs", TrainConfig, "--epochs"),
        ConfigKey("train.batch_size", TrainConfig, "--batch-size"),
        ConfigKey("train.learning_rate", TrainConfig, "--learning-rate"),
        ConfigKey("train.patience", TrainConfig),
    )
}


def parse_config_file(path: str | Path) -> dict[str, int | float]:
    """Read a flat key=value config file.

    Only the keys of ``CONFIG_TABLE`` are accepted; '#' starts a comment.
    Values must be finite numbers, and integral for integer keys.
    """
    values: dict[str, int | float] = {}
    for lineno, line in enumerate(read_utf8(path, ParameterError).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_TABLE:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_TABLE[key].number(raw)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return values


def config_from(owner: type, values: dict[str, int | float], **fixed):
    """Build ``owner`` from the table keys it owns; absent keys keep their default."""
    own = {k.field: values[n] for n, k in CONFIG_TABLE.items() if k.owner is owner and n in values}
    return owner(**own, **fixed)


def _settings(*configs) -> dict:
    """Each table key the configs' types own, with the value the config holds."""
    return {
        n: getattr(c, k.field) for c in configs for n, k in CONFIG_TABLE.items() if k.owner is type(c)
    }


def _configure(
    args: argparse.Namespace, sample_rate: int = DATASET_SAMPLE_RATE, extra: dict | None = None
) -> tuple[det.DetectorConfig, det.FilterSpec]:
    """The detector configs, validated once at the command's audio rate (the dataset
    rate if it reads none); then the effective configuration goes to stderr and
    beside any --out file."""
    config = config_from(det.DetectorConfig, args.values)
    spec = config_from(det.FilterSpec, args.values)
    config.validate(sample_rate)
    spec.validate(sample_rate)
    eff = {**_settings(config, spec), **args.values, "seed": args.seed, **(extra or {})}
    text = "".join(f"{k}={v}\n" for k, v in sorted(eff.items()))
    sys.stderr.write("# effective configuration\n" + text)
    if args.out:
        Path(str(args.out) + ".config").write_text(text, encoding="utf-8")
    return config, spec


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- Subcommands ----------------------------------------------------------------


def cmd_detect(args: argparse.Namespace) -> int:
    clip = load_wav(args.audio)
    config, spec = _configure(args, clip.sample_rate)
    events = det.detect_bounces(clip, config, spec)
    import io

    buf = io.StringIO()
    det.write_events_csv(events, buf)
    _write_or_print(buf.getvalue(), args.out)
    return 0


def _decoded_files(
    manifest: DatasetManifest, name: str
) -> Iterator[tuple[Path, AudioClip, list[tuple[int, ManifestEntry]]]]:
    """Each file of a manifest, decoded once, with its rows as (row index, entry).

    Files are decoded one at a time in order of first mention, so a caller
    can drop each clip after its rows. An onset beyond its decoded clip
    raises ValidationError before the clip is yielded.
    """
    rows: dict[Path, list[tuple[int, ManifestEntry]]] = {}
    for i, entry in enumerate(manifest.entries):
        rows.setdefault(entry.path, []).append((i, entry))
    for path, file_rows in rows.items():
        clip = load_wav(path)
        for _, entry in file_rows:
            if entry.onset_ms > 1000.0 * len(clip) / clip.sample_rate:
                raise ValidationError(
                    f"{name}: onset {entry.onset_ms} ms beyond duration of {path}"
                )
        yield path, clip, file_rows


def cmd_featurize(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    # Records keep the manifest's row order.
    records: list[FeatureRecord | None] = [None] * len(manifest.entries)
    for path, clip, rows in _decoded_files(manifest, args.manifest):
        for i, entry in rows:
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
    _configure(args)  # after every file decoded, so a bad file leaves no sidecar
    write_feature_file(args.out, records)
    return 0


def _fingerprint(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_train(args: argparse.Namespace) -> int:
    records = read_feature_file(args.features)
    # Epochs default per method; every other setting is flag, then file, then default.
    values = {"train.epochs": FAMILIES[args.method].default_epochs, **args.values}
    config = config_from(TrainConfig, values, seed=args.seed, task=args.task)
    config.validate()
    _configure(args, extra={"task": args.task, "method": args.method, **_settings(config)})
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
    _configure(args)
    ds = assemble_task(records, model.task)
    indices = np.arange(len(ds))
    trained_on_this = model.meta.get("train_fingerprint") == _fingerprint(args.features)
    if trained_on_this:
        sys.stderr.write(
            "warning: this is the model's own training file; "
            "scoring the held-out validation split only\n"
        )
        _, indices = stratified_split(ds.strata, ds.labels, int(model.meta.get("seed", 0)))
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


def _load_task_model(path: str, task: str):
    """Load a ``run`` model, refusing one trained for the other task."""
    model = load_model(path)
    if model.task != task:
        raise ParameterError(f"--{task}-model {path}: a {model.task} model, not a {task} model")
    return model


def cmd_run(args: argparse.Namespace) -> int:
    clip = load_wav(args.audio)
    surface_model = _load_task_model(args.surface_model, "surface")
    spin_model = _load_task_model(args.spin_model, "spin") if args.spin_model else None
    config, spec = _configure(args, clip.sample_rate)
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
    _configure(args, extra={"snr_db": args.snr_db})
    result = mix_noise(signal, noise, args.snr_db)
    write_wav(args.out, result.clip)
    sys.stderr.write(f"noise_gain={result.noise_gain:.9g} rescale={result.rescale:.9g}\n")
    return 0


def cmd_grid_search(args: argparse.Namespace) -> int:
    fixtures = [
        DetectionFixture(str(path), clip, tuple(sorted(e.onset_ms / 1000.0 for _, e in rows)))
        for path, clip, rows in _decoded_files(load_manifest(args.manifest), args.manifest)
    ]
    gammas = [float(v) for v in args.gammas.split(",") if v]
    multipliers = [float(v) for v in args.multipliers.split(",") if v]
    # Keys valid at the lowest rate (the tightest cutoff and frame bounds)
    # are valid at every rate; each clip's filter is designed at its own.
    rate = min((f.clip.sample_rate for f in fixtures), default=DATASET_SAMPLE_RATE)
    base_config, spec = _configure(args, rate)
    noise = None
    if args.noise:
        noise = (load_wav(args.noise), args.snr_db if args.snr_db is not None else 10.0)
    try:
        best, rows = grid_search_detector(
            fixtures, gammas, multipliers, base_config=base_config, filter_spec=spec, noise=noise
        )
    except ParameterError as exc:  # name the manifest the fixtures came from
        raise ParameterError(f"{args.manifest}: {exc}") from None
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
    for name, key in CONFIG_TABLE.items():
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
        args.values = parse_config_file(args.config) if args.config else {}
        for name in CONFIG_TABLE:  # flags override the file
            if getattr(args, name, None) is not None:
                args.values[name] = getattr(args, name)
        return args.func(args)
    except MemoryError:
        sys.stderr.write(f"error: out of memory in {args.command}\n")
        return 3
    except (BounceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, NumericError):
            return 4
        return 3 if isinstance(exc, (FormatError, DataError)) else 2

if __name__ == "__main__":
    sys.exit(main())
