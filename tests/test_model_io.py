import json
import struct

import numpy as np
import pytest

from ttbounce.classify import gmm_train, load_model, new_cnn, save_model, svm_train
from ttbounce.classify.cnn import finalize_float32
from ttbounce.classify import FAMILIES, features_for_model, predict
from ttbounce.errors import FormatError
from ttbounce.synth import gmm_blob_dataset


def _random_models(n, seed=0):
    rng = np.random.default_rng(seed)
    models = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            m = new_cnn(
                ("a", "b", "c"),
                "spin",
                seed=int(rng.integers(1 << 30)),
                channels=(2, 3),
                pools=(2,),
                input_shape=(16, 7),
            )
            finalize_float32(m)
            # give running stats some life so inference is nontrivial
            for blk in m.blocks:
                blk.running_mean = rng.standard_normal(blk.running_mean.shape).astype(np.float32)
                blk.running_var = rng.uniform(0.5, 2.0, blk.running_var.shape).astype(np.float32)
            feats = rng.standard_normal((4, 16, 7))
        elif kind == 1:
            x = np.vstack(
                [rng.standard_normal((20, 5)) + 3, rng.standard_normal((20, 5)) - 3]
            )
            y = np.array([0] * 20 + [1] * 20)
            m, _ = svm_train(x, y, ("a", "b"), epochs=3, seed=int(rng.integers(1 << 30)))
            feats = rng.standard_normal((4, 5))
        else:
            x, y = gmm_blob_dataset(30, seed=int(rng.integers(1 << 30)), dim=6)
            m, _ = gmm_train(x, y, ("a", "b"), n_components=2, seed=0)
            feats = rng.standard_normal((4, 6))
        models.append((m, feats))
    return models


def test_roundtrip_predictions_bit_identical(tmp_path):
    for i, (model, feats) in enumerate(_random_models(15, seed=3)):
        path = tmp_path / f"m{i}.ttsb"
        save_model(model, path)
        loaded = load_model(path)
        _, before = predict(model, feats)
        _, after = predict(loaded, feats)
        assert np.array_equal(before, after)
        assert loaded.classes == model.classes
        assert loaded.task == model.task


def test_corrupt_magic_rejected(tmp_path):
    model, _ = _random_models(1, seed=4)[0]
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_model(path)


def test_truncated_tensor_rejected(tmp_path):
    model, _ = _random_models(1, seed=5)[0]
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(FormatError, match="truncated"):
        load_model(path)


def test_descriptor_mismatch_rejected(tmp_path):
    model, _ = _random_models(1, seed=6)[0]
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9 : 9 + header_len].decode())
    header["arch"]["channels"] = [7, 3]  # contradicts stored tensor shapes
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(new_header)) + new_header + raw[9 + header_len :])
    with pytest.raises(FormatError, match="shape|missing"):
        load_model(path)


def test_header_must_carry_required_fields(tmp_path):
    path = tmp_path / "m.ttsb"
    header = json.dumps({"kind": "svm"}).encode()
    path.write_bytes(b"TTSB1" + struct.pack("<I", len(header)) + header + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="missing field"):
        load_model(path)


def test_meta_preserved(tmp_path):
    model, _ = _random_models(1, seed=8)[0]
    model.meta = {"seed": 7, "train_fingerprint": "ab" * 32}
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    assert load_model(path).meta == model.meta


def test_saved_file_bytes_deterministic(tmp_path):
    model, _ = _random_models(1, seed=9)[0]
    p1, p2 = tmp_path / "a.ttsb", tmp_path / "b.ttsb"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9 : 9 + header_len].decode())
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(new_header)) + new_header + raw[9 + header_len :])


def _first_arch_key(header):
    return next(iter(FAMILIES[header["kind"]].arch_schema))


HEADER_MUTATIONS = {
    "arch_key_missing": lambda h: h["arch"].pop(_first_arch_key(h)),
    "arch_key_not_int": lambda h: h["arch"].__setitem__(_first_arch_key(h), "x"),
    "arch_not_object": lambda h: h.__setitem__("arch", [1, 2]),
    "classes_int": lambda h: h.__setitem__("classes", 5),
    "kind_unknown": lambda h: h.__setitem__("kind", "forest"),
    "task_unknown": lambda h: h.__setitem__("task", ["spin"]),
}


@pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
@pytest.mark.parametrize("family_index", [0, 1, 2], ids=["cnn", "svm", "gmm"])
def test_malformed_header_is_format_error(tmp_path, family_index, mutation):
    from ttbounce import AudioClip, write_wav
    from ttbounce.cli import main

    model, _ = _random_models(3, seed=11)[family_index]
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    _rewrite_header(path, HEADER_MUTATIONS[mutation])
    with pytest.raises(FormatError):
        load_model(path)
    wav = tmp_path / "quiet.wav"
    write_wav(wav, AudioClip(samples=np.zeros(4410), sample_rate=44100))
    assert main(["run", str(wav), "--surface-model", str(path)]) == 3


def test_negative_running_variance_rejected(tmp_path):
    model, _ = _random_models(1, seed=12)[0]
    model.blocks[-1].running_var[0] = -1.0
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    with pytest.raises(FormatError, match="negative"):
        load_model(path)


def _run_exit_code(tmp_path, model_path):
    from ttbounce import AudioClip, write_wav
    from ttbounce.cli import main

    wav = tmp_path / "quiet.wav"
    write_wav(wav, AudioClip(samples=np.zeros(4410), sample_rate=44100))
    return main(["run", str(wav), "--surface-model", str(model_path)])


GMM_TENSOR_FAULTS = {
    "variance_zero": ("variances", 0.0),
    "variance_negative": ("variances", -1.0),
    "variance_nan": ("variances", np.nan),
    "variance_inf": ("variances", np.inf),
    "prior_negative": ("priors", -0.5),
    "prior_nan": ("priors", np.nan),
    "weight_negative": ("weights", -0.1),
    "weight_inf": ("weights", np.inf),
}


@pytest.mark.parametrize("fault", sorted(GMM_TENSOR_FAULTS))
def test_gmm_bad_tensor_is_format_error(tmp_path, fault):
    attr, value = GMM_TENSOR_FAULTS[fault]
    model, _ = _random_models(3, seed=13)[2]
    getattr(model, attr).flat[0] = value
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    with pytest.raises(FormatError):
        load_model(path)
    assert _run_exit_code(tmp_path, path) == 3


def test_gmm_zero_prior_and_weight_load(tmp_path):
    # An unobserved class has prior 0; a starved component can have weight 0.
    model, feats = _random_models(3, seed=13)[2]
    model.priors[0] = 0.0
    model.weights[1, 0] = 0.0
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    _, scores = predict(load_model(path), feats)
    assert not np.any(np.isnan(scores))


def test_cnn_pools_collapsing_input_is_format_error(tmp_path):
    model = new_cnn(("a", "b"), "surface", channels=(2, 3, 3), pools=(2,), input_shape=(8, 6))
    finalize_float32(model)
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    # Pooling after each of the three blocks takes 8x6 to 4x3, 2x1, then 1x0.
    _rewrite_header(path, lambda h: h["arch"].__setitem__("pools", [1, 2, 3]))
    with pytest.raises(FormatError, match="collapses"):
        load_model(path)
    assert _run_exit_code(tmp_path, path) == 3
