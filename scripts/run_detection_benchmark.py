#!/usr/bin/env python3
"""Detector benchmark over synthetic click fixtures.

Reports precision, recall, and onset accuracy for the clean condition and
for a sweep of speech-band noise levels. Onset errors are predicted minus
true onset: the signed mean shows an early (negative) or late bias that the
mean absolute error hides. Everything is seeded, so reruns
reproduce the same table.

Usage: python scripts/run_detection_benchmark.py [--fixtures N] [--seed S]
"""

import argparse
import time

import numpy as np

from ttbounce import DetectorConfig, FilterSpec
from ttbounce.evaluate import run_detection_benchmark
from ttbounce.synth import fixture_set, speech_band_noise


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--snrs", default="20,10,5,0", help="comma-separated SNR sweep (dB)")
    args = parser.parse_args()

    fixtures = fixture_set(args.fixtures, seed=args.seed)
    config, spec = DetectorConfig(), FilterSpec()
    noise = speech_band_noise(2 * 44100, 44100, np.random.default_rng(args.seed + 1), rms=0.1)

    print(f"{args.fixtures} fixtures, {sum(len(f.onsets_s) for f in fixtures)} true onsets")
    print(
        f"{'condition':<14} {'precision':>9} {'recall':>8} {'mean|err| ms':>13} "
        f"{'median ms':>10} {'mean err ms':>12} {'time s':>7}"
    )

    def row(name, noise_arg):
        t0 = time.perf_counter()
        score = run_detection_benchmark(fixtures, config, spec, noise=noise_arg)
        dt = time.perf_counter() - t0
        bias = float(np.mean(score.onset_errors_ms)) if score.matched else float("nan")
        print(
            f"{name:<14} {score.precision:>9.3f} {score.recall:>8.3f} "
            f"{score.mean_abs_onset_error_ms:>13.3f} {score.median_abs_onset_error_ms:>10.3f} "
            f"{bias:>+12.3f} {dt:>7.2f}"
        )

    row("no noise", None)
    for snr in (float(v) for v in args.snrs.split(",") if v):
        row(f"noise {snr:g} dB", (noise, snr))


if __name__ == "__main__":
    main()
