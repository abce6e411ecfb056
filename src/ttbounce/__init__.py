"""Bounce-sound detection and classification for table tennis audio.

Two-stage pipeline: an energy-peak detector locates candidate bounce
onsets with sub-millisecond accuracy, then spectrogram classifiers label
each bounce by impact surface (racket id, table, floor, other) and by
applied spin (back, flat, top).
"""

from .audio_io import (
    DATASET_SAMPLE_RATE,
    AudioClip,
    DatasetManifest,
    ManifestEntry,
    MixResult,
    SpinClass,
    SurfaceClass,
    load_manifest,
    load_wav,
    mix_noise,
    write_wav,
)
from .detect import (
    BounceEvent,
    DetectorConfig,
    FilterSpec,
    StreamingDetector,
    design_butterworth_highpass,
    detect_bounces,
    extract_window,
    filter_zero_phase,
)
from .features import (
    FeatureRecord,
    hz_to_mel,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    read_feature_file,
    stft,
    write_feature_file,
)

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "BounceEvent",
    "DATASET_SAMPLE_RATE",
    "DatasetManifest",
    "DetectorConfig",
    "FeatureRecord",
    "FilterSpec",
    "ManifestEntry",
    "MixResult",
    "SpinClass",
    "StreamingDetector",
    "SurfaceClass",
    "design_butterworth_highpass",
    "detect_bounces",
    "extract_window",
    "filter_zero_phase",
    "hz_to_mel",
    "load_manifest",
    "load_wav",
    "log_mel",
    "mel_filterbank",
    "mel_to_hz",
    "mix_noise",
    "read_feature_file",
    "stft",
    "write_feature_file",
    "write_wav",
]
