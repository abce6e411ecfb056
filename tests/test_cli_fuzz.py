"""Truncated and mutated WAV, manifest and config bytes through ``cli.main``:
every run ends in exit code 0, 2, 3 or 4 and raises nothing else."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ttbounce import write_wav
from ttbounce.cli import CONFIG_TABLE, main
from ttbounce.synth import click_fixture

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
EXIT_CODES = (0, 2, 3, 4)


@st.composite
def damaged(draw, raw: bytes, head: int) -> bytes:
    """Cut at a drawn length, then overwrite up to 8 drawn bytes. Half of the
    writes aim at the first ``head`` bytes, where a header would be."""
    data = bytearray(raw[: draw(st.integers(0, len(raw)))])
    for _ in range(draw(st.integers(0 if len(data) < len(raw) else 1, 8))):
        if not data:
            break
        top = len(data) - 1
        at = draw(st.one_of(st.integers(0, min(head, top)), st.integers(0, top)))
        data[at] = draw(st.integers(0, 255))
    return bytes(data)


@pytest.fixture
def wav(tmp_path):
    path = tmp_path / "click.wav"
    write_wav(path, click_fixture(seed=3, dur_s=0.5, n_clicks=1).clip)
    return path


@FUZZ
@given(data=st.data())
def test_damaged_wav_exits_with_a_documented_code(wav, tmp_path, data):
    path = tmp_path / "damaged.wav"
    path.write_bytes(data.draw(damaged(wav.read_bytes(), head=64)))
    assert main(["detect", str(path), "--out", str(tmp_path / "e.csv")]) in EXIT_CODES


@FUZZ
@given(data=st.data())
def test_damaged_manifest_exits_with_a_documented_code(wav, tmp_path, data):
    raw = (
        "path,onset_ms,surface,spin\n"
        f"{wav.name},120.5,racket_01,top\n"
        f"{wav.name},300,table,\n"
    ).encode()
    path = tmp_path / "m.csv"
    path.write_bytes(data.draw(damaged(raw, head=len(raw))))
    assert main(["featurize", str(path), "--out", str(tmp_path / "f.ttfe")]) in EXIT_CODES


@FUZZ
@given(data=st.data())
def test_damaged_config_exits_with_a_documented_code(wav, tmp_path, data):
    raw = ("# detector\n" + "".join(f"{k.name}={k.default}\n" for k in CONFIG_TABLE.values())).encode()
    path = tmp_path / "c.cfg"
    path.write_bytes(data.draw(damaged(raw, head=len(raw))))
    argv = ["detect", str(wav), "--config", str(path), "--out", str(tmp_path / "e.csv")]
    assert main(argv) in EXIT_CODES
