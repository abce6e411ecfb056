"""Each script under scripts/ runs to completion on tiny arguments, in process."""

import runpy
import sys
from pathlib import Path

import numpy as np

from ttbounce import AudioClip, load_manifest, write_wav

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, script: str, *argv: str) -> None:
    monkeypatch.setattr(sys, "argv", [script, *argv])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)


def test_make_fixtures(monkeypatch, tmp_path):
    _run(monkeypatch, "make_fixtures.py", str(tmp_path), "--fixtures", "2")
    manifest = load_manifest(tmp_path / "manifest.csv")
    assert {e.path.name for e in manifest.entries} == {"click_0000.wav", "click_0001.wav"}


def test_run_detection_benchmark(monkeypatch, capsys):
    _run(monkeypatch, "run_detection_benchmark.py", "--fixtures", "3", "--snrs", "20")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("3 fixtures")
    assert [ln[:14].rstrip() for ln in lines[2:]] == ["no noise", "noise 20 dB"]


def test_train_synthetic_baselines(monkeypatch, capsys):
    _run(monkeypatch, "train_synthetic_baselines.py", "--per-class", "12", "--epochs", "1")
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["cnn", "svm", "gmm"]


def test_prepare_tt_dataset(monkeypatch, tmp_path):
    root = tmp_path / "dataset"
    clip = AudioClip(samples=np.zeros(4410), sample_rate=44100)
    for rel in ("racket_01/top/a.wav", "table/b.wav"):
        (root / rel).parent.mkdir(parents=True)
        write_wav(root / rel, clip)
    out = tmp_path / "manifest.csv"
    _run(monkeypatch, "prepare_tt_dataset.py", str(root), "--out", str(out))
    entries = load_manifest(out).entries
    assert [(e.path.name, e.surface.name, e.spin.name if e.spin else None) for e in entries] == [
        ("a.wav", "racket_01", "top"),
        ("b.wav", "table", None),
    ]
