"""The three closed-loop workloads: set-up, timed operations, checks.

Operations run back to back on one thread; the next starts when the
previous one returns. Outputs are checked after each operation, outside
the timed region, and every check that fails counts as a failed
operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ttbounce import cli
from ttbounce.audio_io import load_wav, write_wav
from ttbounce.classify import (
    TrainConfig,
    features_for_model,
    load_model,
    predict,
    save_model,
    train_task_model,
)
from ttbounce.detect import (
    DetectorConfig,
    FilterSpec,
    StreamingDetector,
    design_butterworth_highpass,
    detect_bounces,
    filter_zero_phase,
    frame_length,
)
from ttbounce.errors import BounceError
from ttbounce.evaluate import match_events, run_detection_benchmark
from ttbounce.features import read_feature_file
from ttbounce.synth import DetectionFixture

import inputs
from tracing import duration_ns

FAMILIES = ("cnn", "svm", "gmm")
TOLERANCE_MS = 5.0
# Causal filtering delays the streamed signal, so a streamed onset may land
# in the frame after the batch one: two frames bound the disagreement.
STREAM_BATCH_BOUND_SAMPLES = 88
WINDOW_TICKS = 1000  # live_streams: ticks per operation, 10 beyond the p99
ACCURACY_FLOOR = 0.9

# Models for rally_run are trained at set-up; corpus_train trains through
# the CLI with the same settings and patience equal to epochs, so every
# run does the same work.
EPOCHS = 4
BATCH_SIZE = 16
LEARNING_RATE = 3e-3
# The SVM trainer keeps its last iterate, which fits the training windows'
# noise as its steps add up. The rally_run SVM models mislabeled bounces
# on 1 of seeds 0-29 with 20 epochs and on 4 of seeds 0-99 with 4 epochs;
# with 5 they labeled every bounce of seeds 0-249.
SVM_EPOCHS = 5
# The program gets only the generated inputs; its training seed is fixed, so
# the workload seed moves the data alone.
TRAIN_SEED = 0
# eval, much shorter than CNN training, runs this often per corpus_train
# cycle, so its median rests on more samples.
QUICK_REPEATS = 3
CORPUS_STEPS = ("featurize", "svm", "gmm")  # per corpus, in each corpus_train cycle


@dataclass(frozen=True)
class Size:
    rally_clips: int = 3
    rally_s: float = 60.0
    train_rallies: int = 2
    train_rally_s: float = 30.0
    streams: int = 16
    stream_s: float = 2.0
    corpora: int = 4
    corpus_per_kind: int = 30
    heldout_per_kind: int = 10
    setup_repeats: int = 3  # setup_s is the median over repeats


SIZES = {
    "full": Size(),
    "tiny": Size(rally_clips=1, rally_s=4.0, stream_s=1.0,
                 corpora=1, setup_repeats=1),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call_cli(argv: list[str], tracer) -> tuple[int, float]:
    """Run ``ttbounce`` in-process; returns (exit code, wall seconds).

    The effective configuration the CLI echoes on stderr is captured so it
    does not flood the benchmark's output.
    """
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli.main", command=argv[0]):
                rc = cli.main(argv)
        return rc, time.perf_counter() - t0


def train_config(task: str) -> TrainConfig:
    return TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        learning_rate=LEARNING_RATE,
        seed=TRAIN_SEED,
        patience=EPOCHS,
        task=task,
    )


class Workload:
    """One workload: ``setup``, then one small operation per ``step``, then
    ``finish``.

    Operations repeat in cycles of ``cycle`` steps. In a traced run the
    cycles alternate untraced and traced, so the ratio of their times is the
    tracing overhead, and per-layer counts are taken over the first traced
    cycle.
    """

    name = ""
    cycle = 1

    def __init__(self, seed: int, size: Size, fault: str | None) -> None:
        self.seed = seed
        self.size = size
        self.fault = fault
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digests: dict[str, str] = {}
        self.cycle_s: dict[int, float] = {}  # per complete cycle of a traced run
        self.traced_run = False
        self._partial = 0.0  # seconds so far in the current cycle
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}  # kept in the result file

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def op(self, k: int, tracer) -> float:
        """Operation ``k``; returns its timed seconds."""
        raise NotImplementedError

    def min_steps(self, traced: bool) -> int:
        return self.cycle * (2 if traced else 1)

    def step(self, k: int, tracer) -> float:
        """Operation ``k``; returns its timed seconds."""
        c = k // self.cycle
        self.traced_run = tracer is not None
        traced = self.traced_run and c % 2 == 1
        seconds = self.op(k, tracer if traced else None)
        if self.traced_run:
            self._partial = (0.0 if k % self.cycle == 0 else self._partial) + seconds
            if (k + 1) % self.cycle == 0:
                self.cycle_s[c] = self._partial
        return seconds

    def finish(self) -> None:
        """Checks that need every operation's output."""

    def count(self, attempted: int, failed: int, why: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{self.name}: {why}")

    def tally(self, k: int, tracer, **counts) -> None:
        """Add to the per-layer counts of the first traced cycle."""
        if tracer is not None and k // self.cycle == 1:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def overhead_pct(self) -> float:
        """Median over complete (untraced, traced) cycle pairs."""
        ratios = [self.cycle_s[c + 1] / self.cycle_s[c] for c in self.cycle_s if c % 2 == 0 and c + 1 in self.cycle_s]
        if not ratios:
            return float("nan")
        return 100.0 * (float(np.median(ratios)) - 1.0)


# --- rally_run ----------------------------------------------------------------


class RallyRun(Workload):
    """``ttbounce run`` on 60 s rallies, once per model family."""

    name = "rally_run"

    def setup(self, work: Path) -> None:
        size, seed = self.size, self.seed
        self.work = work
        self.rallies = [inputs.rally((seed, 1, i), size.rally_s) for i in range(size.rally_clips)]
        self.wavs = [work / f"rally_{i}.wav" for i in range(size.rally_clips)]
        for wav, r in zip(self.wavs, self.rallies):
            write_wav(wav, r.clip)
        train = [inputs.rally((seed, 2, i), size.train_rally_s, inputs.BALANCED)
                 for i in range(size.train_rallies)]
        records = inputs.records(train, seed)
        self.models = {}
        for fam in FAMILIES:
            for task in ("surface", "spin"):
                model, _ = train_task_model(records, fam, train_config(task), svm_epochs=SVM_EPOCHS)
                if self.fault == "label" and task == "surface":
                    model = replace(model, classes=_swapped(model.classes, "table", "floor"))
                self.models[fam, task] = work / f"rally_{fam}_{task}.ttsb"
                save_model(model, self.models[fam, task])
        self.samples = {f"run_rtf_{fam}": [] for fam in FAMILIES}
        self.verified: dict[tuple[int, str], tuple[str, int, int]] = {}
        self.csv: dict[tuple[int, str], bytes] = {}
        self.scores = {}
        self.scans: list[tuple[float, int, float]] = []  # (detect ns, filter ns, audio s)
        self.clip_detect_ns: list[int] = []
        self.cycle = len(self.rallies) * len(FAMILIES)

    def op(self, k: int, tracer) -> float:
        i, f = divmod(k % self.cycle, len(FAMILIES))
        fam = FAMILIES[f]
        clip_s = self.rallies[i].clip.duration_s
        out = self.work / f"events_{fam}_{i}.csv"
        argv = ["run", str(self.wavs[i]), "--surface-model", str(self.models[fam, "surface"]),
                "--spin-model", str(self.models[fam, "spin"]), "--out", str(out)]
        lo = len(tracer.spans) if tracer is not None else 0
        rc, seconds = call_cli(argv, tracer)
        if tracer is None:
            self.samples[f"run_rtf_{fam}"].append(clip_s / seconds)
        events, matched = self._check(i, fam, rc, out)
        if tracer is not None:
            frames = len(self.rallies[i].clip) // frame_length(inputs.SAMPLE_RATE, DetectorConfig().frame_ms)
            self.tally(k, tracer, frames=frames, events=events, events_matched=matched,
                       bytes=sum(s[5]["bytes"] for s in tracer.select("audio_io.load_wav", since=lo)))
            for task in ("surface", "spin"):
                calls = len(tracer.select("classify.predict", since=lo, task=task))
                self.tally(k, tracer, **{f"predict_calls.{task}": calls})
            detect = tracer.select("detect.detect_bounces", since=lo)
            self.clip_detect_ns.append(duration_ns(detect[0]) if detect else 0)
            if fam == FAMILIES[-1]:
                self._filter_once(i, tracer)
        return seconds

    def _filter_once(self, i: int, tracer) -> None:
        """Time ``filter_zero_phase`` alone on clip ``i``; the scan is the
        mean ``detect_bounces`` time of the clip's calls minus this."""
        clip = load_wav(self.wavs[i])
        cascade = design_butterworth_highpass(FilterSpec())
        at = len(tracer.spans)
        with tracer.span("detect.filter_zero_phase", clip=i, audio_s=clip.duration_s):
            filter_zero_phase(cascade, clip)
        filter_ns = duration_ns(tracer.spans[at])
        self.scans.append((float(np.mean(self.clip_detect_ns)), filter_ns, clip.duration_s))
        self.clip_detect_ns = []

    def _check(self, i: int, fam: str, rc: int, out: Path) -> tuple[int, int]:
        """Count this call's operations; returns (events, bounces matched)."""
        truth = self.rallies[i].bounces
        where = f"run {fam} clip {i}"
        if rc != 0:
            self.count(len(truth), len(truth), f"{where}: exit code {rc}")
            return 0, 0
        data = out.read_bytes()
        if self.fault == "onset":
            data = _shift_first_onset(data, int(0.01 * inputs.SAMPLE_RATE))
        digest = sha256(data)
        if (i, fam) in self.verified:
            first, attempted, failed = self.verified[i, fam]
            if digest != first:
                self.count(len(truth), len(truth), f"{where}: events CSV changed between runs")
                return 0, 0
            self.count(attempted, failed, f"{where}: wrong events")
            return self.scores[i].matched + self.scores[i].spurious, self.scores[i].matched
        rows = [line.split(",") for line in data.decode("utf-8").splitlines()[1:]]
        onsets = np.array([int(r[0]) for r in rows], dtype=np.int64)
        score = match_events(onsets / inputs.SAMPLE_RATE, self.rallies[i].onsets_s, TOLERANCE_MS)
        # Bounces are at least 200 ms apart, so the nearest prediction within
        # the tolerance is the one match_events paired with the bounce.
        wrong = 0
        tol = TOLERANCE_MS / 1000.0 * inputs.SAMPLE_RATE
        for b in truth:
            j = int(np.argmin(np.abs(onsets - b.onset_sample))) if onsets.size else -1
            if j >= 0 and abs(onsets[j] - b.onset_sample) <= tol:
                if rows[j][2] != b.surface or (rows[j][3] or None) != b.spin:
                    wrong += 1
        attempted = len(truth) + score.spurious
        failed = score.missed + score.spurious + wrong
        self.verified[i, fam] = (digest, attempted, failed)
        self.csv[i, fam] = data
        self.scores.setdefault(i, score)
        self.count(attempted, failed, f"{where}: {score.missed} missed, {score.spurious} spurious, "
                   f"{wrong} wrong labels")
        return len(rows), score.matched

    def finish(self) -> None:
        for fam in FAMILIES:
            csvs = b"".join(self.csv.get((i, fam), b"") for i in range(len(self.rallies)))
            self.digests[f"events_csv.{fam}"] = sha256(csvs)
            for task in ("surface", "spin"):
                self.digests[f"ttsb.{fam}_{task}"] = sha256(self.models[fam, task].read_bytes())
        # Batch detection on the same decoded clips must give the onset
        # errors of the events CSVs.
        fixtures = [DetectionFixture(f"rally_{i}", load_wav(w), r.onsets_s)
                    for i, (w, r) in enumerate(zip(self.wavs, self.rallies))]
        self.batch_score = run_detection_benchmark(
            fixtures, DetectorConfig(), FilterSpec(), tolerance_ms=TOLERANCE_MS
        )
        self.onset_errors_ms = [e for i in sorted(self.scores) for e in self.scores[i].onset_errors_ms]
        self.onset_bias_ms = float(np.mean(self.batch_score.onset_errors_ms))  # signed
        agree = len(self.onset_errors_ms) == len(self.batch_score.onset_errors_ms) and np.allclose(
            self.onset_errors_ms, self.batch_score.onset_errors_ms, rtol=0.0, atol=1e-9
        )
        self.count(1, int(not agree), "batch detection disagrees with the run output")

    def metrics(self) -> dict[str, tuple[float, str]]:
        m = {key: (float(np.median(v)), "s/s") for key, v in self.samples.items()}
        m["onset_abs_err_ms"] = (float(np.mean(np.abs(self.onset_errors_ms))), "ms")
        return m


def _swapped(classes: tuple[str, ...], a: str, b: str) -> tuple[str, ...]:
    return tuple(b if c == a else a if c == b else c for c in classes)


def _shift_first_onset(csv: bytes, shift: int) -> bytes:
    lines = csv.decode("utf-8").split("\n")
    if len(lines) > 1 and lines[1]:
        fields = lines[1].split(",")
        fields[0] = str(int(fields[0]) + shift)
        lines[1] = ",".join(fields)
    return "\n".join(lines).encode("utf-8")


# --- live_streams -------------------------------------------------------------


class LiveStreams(Workload):
    """S table streams, one 1 ms frame per stream per tick.

    A cycle replays the streams once with fresh detectors; one operation
    is a window of ``WINDOW_TICKS`` ticks. Tick percentiles are taken per
    window, then the median over windows, so a burst of load from
    elsewhere on the machine moves few windows. Ticks are timed on the
    thread's CPU clock: on a shared virtual machine the host takes the CPU
    away for up to ~10 ms at a time, often enough to set a window's p99,
    and that time does not count. On an otherwise idle core the wall clock
    reads the same.
    """

    name = "live_streams"

    def setup(self, work: Path) -> None:
        size = self.size
        self.streams = [inputs.rally((self.seed, 3, s), size.stream_s) for s in range(size.streams)]
        self.frame_len = frame_length(inputs.SAMPLE_RATE, DetectorConfig().frame_ms)
        n_frames = min(len(r.clip) for r in self.streams) // self.frame_len
        self.window = min(WINDOW_TICKS, n_frames)
        self.n_frames = n_frames - n_frames % self.window
        usable = self.n_frames * self.frame_len
        self.frames = [list(r.clip.samples[:usable].reshape(self.n_frames, self.frame_len))
                       for r in self.streams]
        self.cycle = self.n_frames // self.window
        self.samples = {"live_tick_p50_us": [], "live_tick_p99_us": [], "live_streams_rt": []}
        self.verified: tuple[str, int, int, int] | None = None

    def op(self, k: int, tracer) -> float:
        w = k % self.cycle
        if w == 0:
            config, spec = DetectorConfig(), FilterSpec()
            self.detectors = [StreamingDetector(config, spec) for _ in self.streams]
            self.found: list[list] = [[] for _ in self.streams]
        detectors, found, frames = self.detectors, self.found, self.frames
        ticks = np.empty(self.window, dtype=np.int64)
        clock = time.thread_time_ns
        for t, f in enumerate(range(w * self.window, (w + 1) * self.window)):
            t0 = clock()
            if tracer is None:
                for s, det in enumerate(detectors):
                    events = det.process_frame(f, frames[s][f])
                    if events:
                        found[s].extend(events)
            else:
                # Spans share the tracer's wall clock, which orders them.
                for s, det in enumerate(detectors):
                    f0 = time.perf_counter_ns()
                    events = det.process_frame(f, frames[s][f])
                    tracer.add("detect.process_frame", f0, time.perf_counter_ns())
                    if events:
                        found[s].extend(events)
            ticks[t] = clock() - t0
        if tracer is None:
            frame_ns = 1e9 * self.frame_len / inputs.SAMPLE_RATE
            self.samples["live_tick_p50_us"].append(float(np.percentile(ticks, 50)) / 1e3)
            self.samples["live_tick_p99_us"].append(float(np.percentile(ticks, 99)) / 1e3)
            self.samples["live_streams_rt"].append(len(self.streams) * frame_ns / float(np.mean(ticks)))
        if w == self.cycle - 1:
            self._check(k, tracer)
        return float(ticks.sum()) / 1e9

    def _check(self, k: int, tracer) -> None:
        onsets = [np.array([e.onset_sample for e in evs], dtype=np.int64) for evs in self.found]
        digest = sha256(b"".join(o.tobytes() + b"|" for o in onsets))
        if self.verified is None:
            self.verified = self._verify(onsets, digest)
        first, attempted, failed, matched = self.verified
        if digest == first:
            self.count(attempted, failed, f"streamed onsets off truth or batch: {failed} of {attempted}")
        else:
            self.count(attempted, attempted, "streamed events changed between passes")
        self.tally(k, tracer, frames=self.n_frames * len(self.streams),
                   events=sum(o.size for o in onsets), events_matched=matched)

    def _verify(self, onsets: list[np.ndarray], digest: str) -> tuple[str, int, int, int]:
        attempted = failed = matched = 0
        end = self.n_frames * self.frame_len
        for r, got in zip(self.streams, onsets):
            truth = [b.onset_sample for b in r.bounces if b.onset_sample < end]
            score = match_events(got / inputs.SAMPLE_RATE, np.array(truth) / inputs.SAMPLE_RATE, TOLERANCE_MS)
            batch = np.array([e.onset_sample for e in detect_bounces(r.clip, DetectorConfig(), FilterSpec())])
            batch = batch[batch < end]
            if got.size == batch.size:
                apart = int(np.sum(np.abs(got - batch) > STREAM_BATCH_BOUND_SAMPLES))
            else:
                apart = max(got.size, batch.size)
            attempted += len(truth) + score.spurious
            failed += score.missed + score.spurious + apart
            matched += score.matched
        self.digests["stream_onsets"] = digest
        return digest, attempted, failed, matched

    def metrics(self) -> dict[str, tuple[float, str]]:
        units = {"live_tick_p50_us": "us", "live_tick_p99_us": "us", "live_streams_rt": "streams"}
        return {key: (float(np.median(self.samples[key])), unit) for key, unit in units.items()}


# --- corpus_train -------------------------------------------------------------


class CorpusTrain(Workload):
    """featurize, then train each family, then eval each on held-out clicks.

    The SVM and GMM trainers do data-dependent work (hinge violations, EM
    iterations), so they train on several corpora: a median over corpora
    varies less from seed to seed than one corpus does.
    """

    name = "corpus_train"

    def setup(self, work: Path) -> None:
        size, seed = self.size, self.seed
        self.work = work
        self.corpora = [
            inputs.write_click_corpus(work / f"train{j}", (seed, 4, j), size.corpus_per_kind)
            for j in range(size.corpora)
        ]
        self.heldout_manifest, self.n_heldout = inputs.write_click_corpus(
            work / "heldout", (seed, 5), size.heldout_per_kind
        )
        self.config = work / "train.cfg"
        self.config.write_text(f"train.patience={EPOCHS}\n", encoding="utf-8")
        self.samples = {key: [] for key in ("featurize_wps", "eval_wps", *(f"train_s_{f}" for f in FAMILIES))}
        self.first: dict[str, str] = {}
        self.cycle = len(CORPUS_STEPS) * len(self.corpora) + 1 + QUICK_REPEATS

    def op(self, k: int, tracer) -> float:
        """One CLI call (a featurize pair, a train or an eval of three).

        A cycle featurizes every corpus and trains svm and gmm on each, trains
        the CNN on one corpus, then scores that corpus's models three times.
        One call per operation lets the other workloads run between calls,
        so each metric samples many moments of the run.
        """
        w = self.work
        c, r = divmod(k, self.cycle)
        # Both cycles of a traced pair use the same corpus.
        j = (c // 2 if self.traced_run else c) % len(self.corpora)
        heldout_ttfe = w / "heldout.ttfe"
        lo = len(tracer.spans) if tracer is not None else 0
        if r < len(CORPUS_STEPS) * len(self.corpora):
            i, step = divmod(r, len(CORPUS_STEPS))
            if CORPUS_STEPS[step] == "featurize":
                return self._featurize(k, i, tracer, lo)
            return self._train(CORPUS_STEPS[step], i, tracer)
        if r == len(CORPUS_STEPS) * len(self.corpora):
            return self._train("cnn", j, tracer)
        models = {fam: w / f"{fam}{j}.ttsb" for fam in FAMILIES}
        eval_s = 0.0
        for fam, model in models.items():
            report = w / f"eval_{fam}.txt"
            rc, seconds = call_cli(["eval", str(model), str(heldout_ttfe), "--out", str(report)], tracer)
            eval_s += seconds
            self._accurate(fam, rc, report)
        if tracer is None:
            self.samples["eval_wps"].append(len(FAMILIES) * self.n_heldout / eval_s)
        if c == 0 and r == self.cycle - 1:
            self._live_matches_loaded(w / f"train{j}.ttfe", heldout_ttfe, models)
        return eval_s

    def _featurize(self, k: int, i: int, tracer, lo: int) -> float:
        w = self.work
        manifest, n_train = self.corpora[i]
        train_ttfe, heldout_ttfe = w / f"train{i}.ttfe", w / "heldout.ttfe"
        rc1, s1 = call_cli(["featurize", str(manifest), "--out", str(train_ttfe)], tracer)
        rc2, s2 = call_cli(["featurize", str(self.heldout_manifest), "--out", str(heldout_ttfe)], tracer)
        if tracer is None:
            self.samples["featurize_wps"].append((n_train + self.n_heldout) / (s1 + s2))
        else:
            loads = tracer.select("audio_io.load_wav", since=lo)
            self.tally(k, tracer, bytes=sum(s[5]["bytes"] for s in loads))
        self._same(f"ttfe.train{i}", rc1, train_ttfe, "featurize train")
        self._same("ttfe.heldout", rc2, heldout_ttfe, "featurize heldout")
        return s1 + s2

    def _train(self, fam: str, i: int, tracer) -> float:
        w = self.work
        model = w / f"{fam}{i}.ttsb"
        argv = ["train", str(w / f"train{i}.ttfe"), "--task", "surface", "--method", fam,
                "--seed", str(TRAIN_SEED), "--epochs", str(EPOCHS), "--batch-size", str(BATCH_SIZE),
                "--learning-rate", str(LEARNING_RATE), "--config", str(self.config), "--out", str(model)]
        rc, seconds = call_cli(argv, tracer)
        if tracer is None:
            self.samples[f"train_s_{fam}"].append(seconds)
        if self.fault == "ttsb" and fam == "cnn" and rc == 0:
            model.write_bytes(model.read_bytes()[:-7])
        self._same(f"ttsb.{fam}{i}", rc, model, f"train {fam}")
        return seconds

    def _same(self, key: str, rc: int, path: Path, what: str) -> None:
        """An artifact must be written, and byte-identical every time."""
        if rc != 0:
            self.count(1, 1, f"{what}: exit code {rc}")
            return
        digest = sha256(path.read_bytes())
        self.first.setdefault(key, digest)
        self.digests[key] = self.first[key]
        self.count(1, int(digest != self.first[key]), f"{what}: output changed between runs")

    def _accurate(self, fam: str, rc: int, report: Path) -> None:
        if rc != 0:
            self.count(1, 1, f"eval {fam}: exit code {rc}")
            return
        found = re.search(r"^accuracy: ([0-9.]+)$", report.read_text(encoding="utf-8"), re.M)
        accuracy = float(found.group(1)) if found else 0.0
        self.count(1, int(accuracy < ACCURACY_FLOOR),
                   f"eval {fam}: held-out accuracy {accuracy:.3f} below {ACCURACY_FLOOR}")

    def _live_matches_loaded(self, train_ttfe: Path, heldout_ttfe: Path, models: dict[str, Path]) -> None:
        """A model trained in memory and the same model saved and loaded
        predict bit-identical scores."""
        records = read_feature_file(train_ttfe)
        cells = np.stack([r.cells for r in read_feature_file(heldout_ttfe)])
        for fam in FAMILIES:
            try:
                loaded = load_model(models[fam])
            except BounceError as exc:
                self.count(1, 1, f"{fam}: saved model does not load: {exc}")
                continue
            live, _ = train_task_model(records, fam, train_config("surface"), svm_epochs=EPOCHS)
            _, live_scores = predict(live, features_for_model(live, cells))
            _, loaded_scores = predict(loaded, features_for_model(loaded, cells))
            self.digests[f"predictions.{fam}"] = sha256(loaded_scores.tobytes())
            same = live_scores.shape == loaded_scores.shape and np.array_equal(live_scores, loaded_scores)
            self.count(1, int(not same), f"{fam}: loaded and live predictions differ")

    def metrics(self) -> dict[str, tuple[float, str]]:
        m = {"featurize_wps": (float(np.median(self.samples["featurize_wps"])), "windows/s")}
        for fam in FAMILIES:
            m[f"train_s_{fam}"] = (float(np.median(self.samples[f"train_s_{fam}"])), "s")
        m["eval_wps"] = (float(np.median(self.samples["eval_wps"])), "windows/s")
        return m


WORKLOADS = (RallyRun, LiveStreams, CorpusTrain)
