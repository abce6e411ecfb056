#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for ttbounce.

Usage (from the repository root):

    python3 perfbench/run.py --workload rally_run --seed 1 --seconds 35 --trace 0

Every run sets up and measures all three workloads, rally_run,
live_streams and corpus_train, in one process on one thread; the named
workload gets 40% of ``--seconds`` and the other two 30% each.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, and the spans are written to ``.perfbench_out/``. See
perfbench/README.md for the workloads and the metric-to-layer map.
"""

import os

# Pin the BLAS thread pools before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("rally_run", "live_streams", "corpus_train")
FOCUS_SHARE = 0.4  # of --seconds for the named workload; the others split the rest


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time, all workloads together")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    p.add_argument("--plant-fault", choices=("onset", "label", "ttsb"), dest="plant_fault",
                   help="corrupt one output on purpose; the checks must count it")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(wls: list, focus: str, seconds: float, tracer) -> None:
    """Interleave the workloads' operations until ``seconds`` have passed.

    The machine's speed drifts over seconds, so short operations of all
    workloads alternate across the whole run instead of running one
    workload after another. The next operation goes to the workload
    furthest below its share of the measured time (checks run outside
    it); each first completes one cycle, two in a traced run.
    """
    share = {w.name: FOCUS_SHARE if w.name == focus else (1.0 - FOCUS_SHARE) / (len(wls) - 1) for w in wls}
    used = {w.name: 0.0 for w in wls}
    done = {w.name: 0 for w in wls}
    deadline = time.perf_counter() + seconds
    while True:
        pending = [w for w in wls if done[w.name] < w.min_steps(tracer is not None)]
        if not pending and time.perf_counter() >= deadline:
            break
        w = min(pending or wls, key=lambda w: used[w.name] / share[w.name])
        used[w.name] += w.step(done[w.name], tracer)
        done[w.name] += 1
    for w in wls:
        w.finish()


def run(args: argparse.Namespace, work: Path) -> int:
    import layers
    import workloads
    from tracing import Tracer

    size = workloads.SIZES[args.size]
    wls = [cls(args.seed, size, args.plant_fault) for cls in workloads.WORKLOADS]
    setup_s = []
    for r in range(size.setup_repeats):
        t0 = time.perf_counter()
        for w in wls:
            (work / f"setup{r}" / w.name).mkdir(parents=True)
            w.setup(work / f"setup{r}" / w.name)
        setup_s.append(time.perf_counter() - t0)
        if r:
            shutil.rmtree(work / f"setup{r - 1}")

    # Leave set-up garbage out of the collector's later passes.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    try:
        measure(wls, args.workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup_s), "s")}
        for w in wls:
            metrics.update(w.metrics())
    else:
        metrics = layers.metrics(tracer, *wls)
    ops = {w.name: {"ops_total": w.attempted, "ops_failed": w.failed} for w in wls}
    attempted = sum(w.attempted for w in wls)
    failed = sum(w.failed for w in wls)
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": env,
        "ops": ops,
        "digests": {w.name: w.digests for w in wls},
        "setup_runs_s": setup_s,
        "onset_bias_ms": wls[0].onset_bias_ms,
        "samples": {w.name: w.samples for w in wls},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(out / f"spans-{stem}.jsonl")

    for w in wls:
        for note in w.notes:
            print(note, file=sys.stderr)
    print("# env " + json.dumps(env))
    print("# ops " + json.dumps(ops))
    print("# digests " + json.dumps(record["digests"]))
    print(f"# onset_bias_ms = {record['onset_bias_ms']:.6g} ms (signed mean onset error)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttbounce" / "__init__.py").is_file():
        print(f"error: ttbounce sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
