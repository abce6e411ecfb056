#!/usr/bin/env python3
"""Train and compare the three classifiers on the synthetic two-band fixture.

The fixture is separable by construction, so all methods should score near
1.0; the point is exercising the full train/score path for each method and
printing a method-comparison table.

Usage: python scripts/train_synthetic_baselines.py [--per-class N] [--seed S]
"""

import argparse
import time

from ttbounce.classify import (
    TrainConfig,
    assemble_task,
    features_for_model,
    stratified_split,
    train_task_model,
)
from ttbounce.evaluate import score_classifier
from ttbounce.synth import two_band_records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=12, help="CNN epochs")
    args = parser.parse_args()

    records = two_band_records(args.per_class, seed=args.seed)
    ds = assemble_task(records, "surface")
    _, val_idx = stratified_split(ds.strata, ds.labels, args.seed)

    print(f"{2 * args.per_class} records, {len(val_idx)} held out")
    print(f"{'method':<8} {'precision':>9} {'recall':>8} {'macro F1':>9} {'accuracy':>9} {'time s':>7}")
    for method in ("cnn", "svm", "gmm"):
        cfg = TrainConfig(task="surface", seed=args.seed, epochs=args.epochs)
        t0 = time.perf_counter()
        model, _ = train_task_model(records, method, cfg)
        dt = time.perf_counter() - t0
        feats = features_for_model(model, ds.cells[val_idx])
        score = score_classifier(model, feats, ds.labels[val_idx])
        print(
            f"{method:<8} {score.macro_precision:>9.3f} {score.macro_recall:>8.3f} "
            f"{score.macro_f1:>9.3f} {score.accuracy:>9.3f} {dt:>7.1f}"
        )


if __name__ == "__main__":
    main()
