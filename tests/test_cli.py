import dataclasses
import warnings

import numpy as np
import pytest

from ttbounce import AudioClip, write_wav, write_feature_file
from ttbounce.cli import main
from ttbounce.synth import click_fixture, speech_band_noise, two_band_records


@pytest.fixture
def silence_wav(tmp_path):
    p = tmp_path / "silence.wav"
    write_wav(p, AudioClip(samples=np.zeros(44100), sample_rate=44100))
    return p


@pytest.fixture
def click_wav(tmp_path):
    fx = click_fixture(seed=8, n_clicks=1)
    p = tmp_path / "click.wav"
    write_wav(p, fx.clip)
    return p


@pytest.fixture
def features_file(tmp_path):
    p = tmp_path / "synthetic.ttfe"
    write_feature_file(p, two_band_records(25, seed=2))
    return p


@pytest.fixture
def spin_features_file(tmp_path):
    p = tmp_path / "spin.ttfe"
    write_feature_file(p, two_band_records(25, seed=3, surfaces=(0, 1), spins=(0, 2)))
    return p


def test_detect_silence_header_only(silence_wav, capsys):
    assert main(["detect", str(silence_wav)]) == 0
    out = capsys.readouterr().out
    assert out == "onset_sample,onset_s,peak_energy\n"


def test_detect_click_one_row(click_wav, capsys):
    code = main(["detect", str(click_wav), "--threshold-multiplier", "8", "--gamma", "0.995"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header plus one event


def test_unknown_flag_exits_2(silence_wav):
    with pytest.raises(SystemExit) as exc:
        main(["detect", str(silence_wav), "--frobnicate"])
    assert exc.value.code == 2


def test_detect_writes_out_and_config_sidecar(click_wav, tmp_path):
    out = tmp_path / "events.csv"
    assert main(["detect", str(click_wav), "--out", str(out)]) == 0
    assert out.exists()
    sidecar = tmp_path / "events.csv.config"
    text = sidecar.read_text()
    assert "gamma=0.995" in text
    assert "threshold_multiplier=8.0" in text
    assert "filter.cutoff_hz=10000.0" in text


def test_config_file_applies_and_flags_override(click_wav, tmp_path, capsys):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("gamma=0.9\nthreshold_multiplier=5\n")
    out = tmp_path / "ev.csv"
    assert main(["detect", str(click_wav), "--config", str(cfg), "--gamma", "0.98", "--out", str(out)]) == 0
    sidecar = (tmp_path / "ev.csv.config").read_text()
    assert "gamma=0.98" in sidecar  # flag wins over file
    assert "threshold_multiplier=5.0" in sidecar  # file wins over default


def test_bad_config_key_exits_2(click_wav, tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("loudness=11\n")
    assert main(["detect", str(click_wav), "--config", str(cfg)]) == 2


def test_missing_audio_exits_2(tmp_path, capsys):
    assert main(["detect", str(tmp_path / "nope.wav")]) == 2
    assert "nope.wav" in capsys.readouterr().err


def test_featurize_decodes_each_file_once(tmp_path, monkeypatch):
    from collections import Counter
    from pathlib import Path

    import ttbounce.cli as cli
    from ttbounce import extract_window, load_wav, log_mel, read_feature_file

    fx = click_fixture(seed=5, dur_s=1.5)
    for name in ("a.wav", "b.wav"):
        write_wav(tmp_path / name, fx.clip)
    # Twelve rows over two interleaved files, each row with its own onset and surface.
    rows = [
        (("a.wav", "b.wav")[i % 3 == 2], 50.0 + 100.0 * i, ("table", "floor")[i % 2])
        for i in range(12)
    ]
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "path,onset_ms,surface,spin\n" + "".join(f"{p},{ms},{s},\n" for p, ms, s in rows)
    )
    reads, decodes = Counter(), Counter()
    read_bytes, decode = Path.read_bytes, cli.load_wav

    def counting_read(self):
        reads[self.name] += 1
        return read_bytes(self)

    def counting_decode(path):
        decodes[Path(path).name] += 1
        return decode(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read)
    monkeypatch.setattr(cli, "load_wav", counting_decode)
    out = tmp_path / "f.ttfe"
    assert main(["featurize", str(manifest), "--out", str(out)]) == 0
    assert decodes == {"a.wav": 1, "b.wav": 1}
    # The manifest check opens no WAV; the decode is the only read, and the
    # onsets are checked against the decoded clip.
    assert reads["a.wav"] == reads["b.wav"] == 1
    records = read_feature_file(out)
    assert [r.surface for r in records] == [(10, 11)[i % 2] for i in range(12)]
    clip = load_wav(tmp_path / "a.wav")
    for record, (_, ms, _) in zip(records, rows):
        window = extract_window(clip, int(round(ms / 1000.0 * clip.sample_rate)))
        assert np.array_equal(record.cells, log_mel(window).astype(np.float32))


def test_featurize_roundtrip_and_determinism(tmp_path, capsys):
    fx = click_fixture(seed=4, n_clicks=1)
    wav = tmp_path / "one.wav"
    write_wav(wav, fx.clip)
    manifest = tmp_path / "m.csv"
    onset_ms = fx.onsets_s[0] * 1000.0
    manifest.write_text(
        "path,onset_ms,surface,spin\n"
        + f"one.wav,{onset_ms},racket_02,back\n"
        + f"one.wav,{onset_ms},table,\n"
        + f"one.wav,{onset_ms},other,\n"
    )
    out1 = tmp_path / "a.ttfe"
    out2 = tmp_path / "b.ttfe"
    assert main(["featurize", str(manifest), "--out", str(out1)]) == 0
    assert main(["featurize", str(manifest), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.stat().st_size == 5 + 3 * (4 + 2 + 448 * 4)
    from ttbounce import read_feature_file

    records = read_feature_file(out1)
    assert [r.surface for r in records] == [1, 10, 12]
    assert [r.spin for r in records] == [0, -1, -1]


def test_featurize_requires_out(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,onset_ms,surface,spin\n")
    assert main(["featurize", str(manifest)]) == 2


def test_train_svm_and_eval_banner(features_file, tmp_path, capsys):
    model = tmp_path / "svm.ttsb"
    code = main(["train", str(features_file), "--task", "surface", "--method", "svm", "--out", str(model), "--seed", "5"])
    assert code == 0
    assert model.exists()
    log = (tmp_path / "svm.ttsb.log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(log) > 1
    capsys.readouterr()

    assert main(["eval", str(model), str(features_file)]) == 0
    captured = capsys.readouterr()
    assert "own training file" in captured.err  # split-hygiene banner
    assert "macro" in captured.out and "micro" in captured.out
    assert "true\\pred" in captured.out


def test_train_seed_reproducibility(features_file, tmp_path):
    m1, m2 = tmp_path / "m1.ttsb", tmp_path / "m2.ttsb"
    for out in (m1, m2):
        assert (
            main([
                "train", str(features_file), "--task", "surface", "--method", "svm",
                "--out", str(out), "--seed", "7",
            ])
            == 0
        )
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "m1.ttsb.log.csv").read_text() == (tmp_path / "m2.ttsb.log.csv").read_text()


def test_train_spin_without_spin_labels_exits_2(features_file, tmp_path, capsys):
    code = main(["train", str(features_file), "--task", "spin", "--method", "svm", "--out", str(tmp_path / "x.ttsb")])
    assert code == 2
    assert "spin" in capsys.readouterr().err


def test_train_gmm_on_spin_features(spin_features_file, tmp_path):
    model = tmp_path / "gmm.ttsb"
    code = main([
        "train", str(spin_features_file), "--task", "spin", "--method", "gmm",
        "--out", str(model), "--seed", "1",
    ])
    assert code == 0
    from ttbounce.classify import load_model
    from ttbounce.classify.gmm import GmmModel

    loaded = load_model(model)
    assert isinstance(loaded, GmmModel)
    assert loaded.task == "spin"


def test_eval_on_fresh_features_no_banner(features_file, tmp_path, capsys):
    model = tmp_path / "m.ttsb"
    main(["train", str(features_file), "--task", "surface", "--method", "svm", "--out", str(model)])
    other = tmp_path / "other.ttfe"
    write_feature_file(other, two_band_records(10, seed=9))
    capsys.readouterr()
    assert main(["eval", str(model), str(other)]) == 0
    captured = capsys.readouterr()
    assert "own training file" not in captured.err


def test_eval_report_out_files(features_file, tmp_path):
    model = tmp_path / "m.ttsb"
    main(["train", str(features_file), "--task", "surface", "--method", "svm", "--out", str(model)])
    report = tmp_path / "report.txt"
    assert main(["eval", str(model), str(features_file), "--out", str(report)]) == 0
    assert "macro" in report.read_text()
    assert (tmp_path / "report.txt.confusion.csv").read_text().startswith("true\\pred,")
    metrics = (tmp_path / "report.txt.metrics.csv").read_text().splitlines()
    assert metrics[0] == "class,precision,recall,f1,support"
    assert metrics[-1].startswith("micro,")


def test_svm_honors_epochs_flag(features_file, tmp_path):
    model = tmp_path / "m.ttsb"
    assert (
        main([
            "train", str(features_file), "--task", "surface", "--method", "svm",
            "--epochs", "2", "--out", str(model),
        ])
        == 0
    )
    log = (tmp_path / "m.ttsb.log.csv").read_text().splitlines()
    assert len(log) == 3  # header + 2 epochs


def test_detect_handles_other_sample_rates(tmp_path, capsys):
    rate = 48000
    t = np.arange(rate)
    x = np.zeros(rate)
    x[rate // 2 : rate // 2 + 150] = 0.5 * np.sin(2 * np.pi * 12000 * t[:150] / rate)
    p = tmp_path / "hi.wav"
    write_wav(p, AudioClip(samples=x, sample_rate=rate))
    assert main(["detect", str(p)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("rate", [48000, 22050])
def test_classifying_another_rate_exits_3(rate, features_file, tmp_path, capsys):
    fx = click_fixture(seed=8, n_clicks=1, sample_rate=rate)
    wav = tmp_path / "other_rate.wav"
    write_wav(wav, fx.clip)
    model = tmp_path / "m.ttsb"
    assert main([
        "train", str(features_file), "--task", "surface", "--method", "svm",
        "--epochs", "2", "--out", str(model),
    ]) == 0
    manifest = tmp_path / "m.csv"
    onset_ms = fx.onsets_s[0] * 1000.0
    manifest.write_text(f"path,onset_ms,surface,spin\nother_rate.wav,{onset_ms},table,\n")
    capsys.readouterr()
    assert main(["detect", str(wav)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2  # header + the click
    for argv in (
        ["run", str(wav), "--surface-model", str(model)],
        ["featurize", str(manifest), "--out", str(tmp_path / "f.ttfe")],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(rate) in err and "44100" in err
    assert "other_rate.wav" in err  # featurize names the file


def test_run_missing_model_exits_2(click_wav, tmp_path, capsys):
    missing = tmp_path / "no_model.ttsb"
    assert main(["run", str(click_wav), "--surface-model", str(missing)]) == 2
    assert "no_model.ttsb" in capsys.readouterr().err


def test_run_silence_empty_output(silence_wav, features_file, tmp_path, capsys):
    model = tmp_path / "m.ttsb"
    main(["train", str(features_file), "--task", "surface", "--method", "svm", "--out", str(model)])
    capsys.readouterr()
    assert main(["run", str(silence_wav), "--surface-model", str(model)]) == 0
    out = capsys.readouterr().out
    assert out == "onset_sample,onset_s,surface,spin,surface_score,spin_score\n"


def test_corrupt_model_file_exits_3(click_wav, tmp_path):
    bad = tmp_path / "bad.ttsb"
    bad.write_bytes(b"NOTAMODEL")
    assert main(["run", str(click_wav), "--surface-model", str(bad)]) == 3


def test_corrupt_features_exits_3(tmp_path):
    bad = tmp_path / "bad.ttfe"
    bad.write_bytes(b"GARBAGE")
    assert main(["train", str(bad), "--task", "surface", "--method", "svm", "--out", str(tmp_path / "m.ttsb")]) == 3


@pytest.fixture
def nan_features_file(tmp_path):
    records = two_band_records(25, seed=2)
    cells = records[1].cells.astype(np.float32)
    cells[3, 2] = np.nan
    records[1] = dataclasses.replace(records[1], cells=cells)
    p = tmp_path / "nan.ttfe"
    write_feature_file(p, records)
    return p


def test_non_finite_feature_cell_is_format_error(nan_features_file):
    from ttbounce.errors import FormatError
    from ttbounce.features import read_feature_file

    with pytest.raises(FormatError, match="record 1 .*non-finite"):
        read_feature_file(nan_features_file)


@pytest.mark.parametrize("method", ["cnn", "svm", "gmm"])
def test_train_with_an_empty_validation_split_exits_3(method, tmp_path, capsys):
    features = tmp_path / "four.ttfe"
    write_feature_file(features, two_band_records(2, seed=4))  # 2 table, 2 floor: none held out
    out = tmp_path / "m.ttsb"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", str(features), "--task", "surface", "--method", method,
                     "--out", str(out), "--epochs", "1"])
    assert code == 3 and not caught
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: validation split is empty; dataset too small"
    ]
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["cnn", "svm", "gmm"])
def test_train_on_non_finite_features_exits_3(method, nan_features_file, tmp_path, capsys):
    out = tmp_path / "m.ttsb"
    code = main(["train", str(nan_features_file), "--task", "surface", "--method", method,
                 "--out", str(out), "--epochs", "1"])
    assert code == 3
    assert "record 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["cnn", "svm", "gmm"])
def test_eval_on_non_finite_features_exits_3(method, features_file, nan_features_file, tmp_path, capsys):
    model = tmp_path / "m.ttsb"
    assert main(["train", str(features_file), "--task", "surface", "--method", method,
                 "--out", str(model), "--epochs", "2"]) == 0
    capsys.readouterr()
    assert main(["eval", str(model), str(nan_features_file)]) == 3
    captured = capsys.readouterr()
    assert "record 1" in captured.err and captured.out == ""


def test_mix_command_reports_gains(tmp_path, capsys):
    fx = click_fixture(seed=5, n_clicks=1)
    sig = tmp_path / "sig.wav"
    write_wav(sig, fx.clip)
    noise_clip = speech_band_noise(44100, 44100, np.random.default_rng(3), rms=0.05)
    noi = tmp_path / "noise.wav"
    write_wav(noi, noise_clip)
    out = tmp_path / "mixed.wav"
    assert main(["mix", str(sig), str(noi), "--snr-db", "10", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "noise_gain=" in err and "rescale=" in err
    assert out.exists()


def test_grid_search_outputs_table(tmp_path, capsys):
    fx = click_fixture(seed=12, n_clicks=2)
    wav = tmp_path / "fx.wav"
    write_wav(wav, fx.clip)
    manifest = tmp_path / "m.csv"
    rows = "".join(f"fx.wav,{o*1000.0},table,\n" for o in fx.onsets_s)
    manifest.write_text("path,onset_ms,surface,spin\n" + rows)
    assert main(["grid-search", str(manifest), "--gammas", "0.99,0.995", "--multipliers", "6,8"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("gamma,threshold_multiplier,")
    assert len(lines) == 5  # header + 2x2 grid
    assert "best:" in captured.err


def test_grid_search_on_a_manifest_without_rows_exits_2(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("path,onset_ms,surface,spin\n")
    assert main(["grid-search", str(manifest), "--gammas", "0.99,0.995", "--multipliers", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "best:" not in captured.err
    assert f"error: {manifest}: " in captured.err


def test_grid_search_scores_a_manifest_of_mixed_rates(click_wav, click_48k_wav, tmp_path, capsys,
                                                     monkeypatch):
    import ttbounce.evaluate as evaluate

    rows = ""
    for wav, rate in ((click_wav, 44100), (click_48k_wav, 48000)):
        onsets = click_fixture(seed=8, n_clicks=1, sample_rate=rate).onsets_s
        rows += "".join(f"{wav.name},{o * 1000.0},table,\n" for o in onsets)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,onset_ms,surface,spin\n" + rows)
    rates, detect = [], evaluate.detect_bounces

    def spy(clip, *rest):
        rates.append(clip.sample_rate)
        return detect(clip, *rest)

    monkeypatch.setattr(evaluate, "detect_bounces", spy)
    argv = ["grid-search", str(manifest), "--gammas", "0.99", "--multipliers", "8"]
    assert main(argv) == 0
    assert sorted(rates) == [44100, 48000]
    _, row = capsys.readouterr().out.strip().splitlines()
    # Both clicks found, each within 5 ms of its labeled onset.
    assert row.split(",")[2:5] == ["1", "1", "1"]


def test_effective_config_printed_every_run(silence_wav, capsys):
    main(["detect", str(silence_wav)])
    assert "# effective configuration" in capsys.readouterr().err


def test_train_sidecar_records_resolved_hyperparameters(features_file, tmp_path):
    model = tmp_path / "m.ttsb"
    assert (
        main([
            "train", str(features_file), "--task", "surface", "--method", "svm",
            "--epochs", "44", "--out", str(model),
        ])
        == 0
    )
    sidecar = (tmp_path / "m.ttsb.config").read_text()
    assert "train.epochs=44" in sidecar
    assert "train.batch_size=32" in sidecar
    assert "method=svm" in sidecar


def test_numeric_failure_exits_4(monkeypatch, silence_wav, capsys):
    from ttbounce import cli
    from ttbounce.errors import NumericError

    def boom(args):
        raise NumericError("non-finite activations in block 3")

    monkeypatch.setattr(cli, "cmd_detect", boom)  # bound when the parser is built
    assert main(["detect", str(silence_wav)]) == 4
    assert "block 3" in capsys.readouterr().err


def test_overflowing_model_exits_4_with_one_error_line(click_wav, tmp_path, capsys):
    from ttbounce.classify import new_cnn, save_model
    from ttbounce.classify.cnn import finalize_float32

    model = new_cnn(("a", "b"), "surface", seed=0, channels=(2,) * 6, pools=())
    for blk in model.blocks:  # finite float32 tensors whose products overflow float64
        blk.w[:] = 3e38
        blk.gamma[:] = 3e38
    path = tmp_path / "huge.ttsb"
    save_model(finalize_float32(model), path)
    argv = ["run", str(click_wav), "--surface-model", str(path), "--threshold-multiplier", "8",
            "--gamma", "0.995"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert main(argv) == 4
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: CNN model gave non-finite scores"
    ]
    assert "Warning" not in err


def test_non_utf8_config_exits_2_naming_file_and_offset(click_wav, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"gamma=0.99\xff\n")
    assert main(["detect", str(click_wav), "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 2
    assert f"error: {cfg}: not UTF-8 text (byte offset 10)" in capsys.readouterr().err


def test_non_utf8_manifest_exits_2_naming_file_and_offset(click_wav, tmp_path, capsys):
    raw = b"path,onset_ms,surface,spin\n" + click_wav.name.encode() + b",100,t\xc3ble,\n"
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(raw)
    assert main(["featurize", str(manifest), "--out", str(tmp_path / "f.ttfe")]) == 2
    err = capsys.readouterr().err
    assert f"error: {manifest}: not UTF-8 text (byte offset {raw.index(0xC3)})" in err


@pytest.mark.parametrize("line", ["filter.order=5.7", "train.epochs=2.5", "threshold_multiplier=nan", "gamma=x"])
def test_config_value_of_wrong_type_exits_2(click_wav, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["detect", str(click_wav), "--config", str(cfg)]) == 2
    assert line.partition("=")[0] in capsys.readouterr().err


def test_integral_config_value_accepted_as_int(click_wav, tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("filter.order=4.0\ntrain.epochs=3\n")
    out = tmp_path / "ev.csv"
    assert main(["detect", str(click_wav), "--config", str(cfg), "--out", str(out)]) == 0
    sidecar = (tmp_path / "ev.csv.config").read_text().splitlines()
    assert "filter.order=4" in sidecar
    assert "train.epochs=3" in sidecar


@pytest.mark.parametrize("flag", [[], ["--epochs", "2"]], ids=["file", "flag-over-file"])
def test_svm_epochs_resolved_from_config_file(features_file, tmp_path, flag):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("train.epochs=3\n")
    model = tmp_path / "m.ttsb"
    argv = ["train", str(features_file), "--task", "surface", "--method", "svm",
            "--config", str(cfg), "--out", str(model)] + flag
    assert main(argv) == 0
    epochs = int(flag[1]) if flag else 3
    log = (tmp_path / "m.ttsb.log.csv").read_text().splitlines()
    assert len(log) == 1 + epochs
    assert f"train.epochs={epochs}" in (tmp_path / "m.ttsb.config").read_text().splitlines()


def test_svm_default_epochs_recorded_in_sidecar(features_file, tmp_path):
    model = tmp_path / "m.ttsb"
    assert main(["train", str(features_file), "--task", "surface", "--method", "svm",
                 "--out", str(model)]) == 0
    assert len((tmp_path / "m.ttsb.log.csv").read_text().splitlines()) == 1 + 50
    assert "train.epochs=50" in (tmp_path / "m.ttsb.config").read_text().splitlines()


def test_methods_are_the_registry_kinds():
    from ttbounce.classify import FAMILIES, METHODS
    from ttbounce.cli import build_parser

    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    method = next(a for a in subcommands["train"]._actions if a.dest == "method")
    assert METHODS == tuple(FAMILIES) == tuple(method.choices)
    assert all(FAMILIES[kind].kind == kind for kind in FAMILIES)


def test_readme_lists_every_config_key_with_its_type_default_and_flag():
    from pathlib import Path

    from ttbounce.cli import CONFIG_TABLE

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1].split("\n## ", 1)[0]
    for name, key in CONFIG_TABLE.items():
        flag = f"`{key.flag}`" if key.flag else ""
        row = f"| `{name}` | {key.type.__name__} | {key.default!r} | {flag} |"
        assert row.replace("|  |", "| |") in section, name


@pytest.mark.parametrize("flag", [["--threshold-multiplier", "nan"], ["--gamma", "inf"], ["--epochs", "2.5"]])
def test_flag_value_of_wrong_type_exits_2(click_wav, features_file, tmp_path, flag):
    if flag[0] == "--epochs":
        argv = ["train", str(features_file), "--task", "surface", "--method", "svm",
                "--out", str(tmp_path / "m.ttsb")]
    else:
        argv = ["detect", str(click_wav)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2


@pytest.fixture
def click_48k_wav(tmp_path):
    p = tmp_path / "click48k.wav"
    write_wav(p, click_fixture(seed=8, n_clicks=1, sample_rate=48000).clip)
    return p


@pytest.mark.parametrize("how", ["flag", "config"])
def test_detect_validates_detector_keys_at_the_clip_rate(how, click_48k_wav, click_wav, tmp_path):
    # Both settings are valid at 48 kHz only: a cutoff below its 24 kHz Nyquist
    # frequency, and a frame of 8 samples (7 at 44.1 kHz).
    cfg = tmp_path / "c.cfg"
    cfg.write_text("frame_ms=0.17\n")
    extra = ["--cutoff-hz", "23000"] if how == "flag" else ["--config", str(cfg)]
    assert main(["detect", str(click_48k_wav), *extra]) == 0
    assert main(["detect", str(click_wav), *extra]) == 2


def test_bad_detector_key_exits_2_from_a_command_without_audio(features_file, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("gamma=2\n")
    argv = ["train", str(features_file), "--task", "surface", "--method", "svm",
            "--config", str(cfg), "--out", str(tmp_path / "m.ttsb")]
    assert main(argv) == 2
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "m.ttsb").exists()


def test_run_refuses_a_model_trained_for_the_other_task(
    click_wav, features_file, spin_features_file, tmp_path, capsys
):
    surface, spin = tmp_path / "surface.ttsb", tmp_path / "spin.ttsb"
    assert main(["train", str(features_file), "--task", "surface", "--method", "svm",
                 "--epochs", "2", "--out", str(surface)]) == 0
    assert main(["train", str(spin_features_file), "--task", "spin", "--method", "gmm",
                 "--out", str(spin)]) == 0
    capsys.readouterr()
    for surface_model, spin_model, error in (
        (spin, surface, f"--surface-model {spin}: a spin model, not a surface model"),
        (surface, surface, f"--spin-model {surface}: a surface model, not a spin model"),
    ):
        argv = ["run", str(click_wav), "--surface-model", str(surface_model),
                "--spin-model", str(spin_model)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]
    argv = ["run", str(click_wav), "--surface-model", str(surface), "--spin-model", str(spin)]
    assert main(argv) == 0


def test_out_of_memory_is_one_error_line_and_exit_3(monkeypatch, silence_wav, capsys):
    from ttbounce import cli

    def no_memory(path):
        raise MemoryError

    monkeypatch.setattr(cli, "load_wav", no_memory)
    assert main(["detect", str(silence_wav)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory in detect\n"
    assert captured.out == ""
