"""Single-file model persistence (`.wmdl`).

Layout: magic ``WMDL`` | version u16 LE | kind u8 | header-length u32 LE |
canonical JSON header | parameter blob (float64 LE, row-major, in header
order) | CRC32 u32 LE over everything preceding the trailer. The header
stores hyperparameters, the feature config and the parameter shape table, so
load(save(m)) reproduces the model bit for bit.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..features import FeatureConfig, Scaler
from ..hashing import fnv1a64
from .mlp import MlpClassifier
from .rnn import RnnClassifier
from .svm import SvmClassifier

MAGIC = b"WMDL"
VERSION = 1

# model kind -> estimator class; the kind byte is the class's index here: svm 0, mlp 1, rnn 2
KIND_CLASSES = {cls.kind: cls for cls in (SvmClassifier, MlpClassifier, RnnClassifier)}
_KIND_CODES = {kind: code for code, kind in enumerate(KIND_CLASSES)}
_KIND_NAMES = dict(enumerate(KIND_CLASSES))


class VersionMismatch(ValueError):
    """The file's format version is not the one this build writes."""


class CorruptFile(ValueError):
    """Magic, framing or checksum failure while reading a model file."""


@dataclass
class ModelBundle:
    """A trained model with everything needed to score raw telemetry.

    ``scaler`` is None for the RNN (it consumes token sequences, not windowed
    features). ``model_id`` is the content digest, assigned on save/load.
    ``score`` is the one place a bundle's scaler is applied.
    """

    kind: str
    model: SvmClassifier | MlpClassifier | RnnClassifier
    feature_config: FeatureConfig
    scaler: Scaler | None = None
    model_id: str = ""

    def score(self, inputs) -> np.ndarray:
        """P(malicious) per input: feature rows (scaled here) or, for the RNN, token sequences."""
        if self.scaler is not None:
            inputs = self.scaler.transform(inputs)
        return self.model.proba(inputs)


def _content_bytes(bundle: ModelBundle) -> bytes:
    params = dict(bundle.model.param_arrays())
    if bundle.scaler is not None:
        params["scaler.mean"] = bundle.scaler.mean_
        params["scaler.std"] = bundle.scaler.std_
    header = {
        "hyperparams": bundle.model.get_params(),
        "feature_config": bundle.feature_config.to_dict(),
        "has_scaler": bundle.scaler is not None,
        "params": [[name, list(arr.shape)] for name, arr in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    out += struct.pack("<B", _KIND_CODES[bundle.kind])
    out += struct.pack("<I", len(header_bytes))
    out += header_bytes
    for arr in params.values():
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return bytes(out)


def save_model(bundle: ModelBundle, path) -> str:
    """Write the bundle; returns the assigned model_id."""
    if bundle.kind not in _KIND_CODES:
        raise ValueError(f"unknown model kind {bundle.kind!r}")
    if bundle.kind != bundle.model.kind:
        raise ValueError(f"bundle kind {bundle.kind!r} does not match its {bundle.model.kind} model")
    content = _content_bytes(bundle)
    bundle.model_id = f"{fnv1a64(content):016x}"
    with open(path, "wb") as fh:
        fh.write(content)
        fh.write(struct.pack("<I", zlib.crc32(content)))
    return bundle.model_id


def load_model(path) -> ModelBundle:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 2 + 1 + 4 + 4:
        raise CorruptFile(f"{path}: truncated file")
    if blob[:4] != MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    content, trailer = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", trailer)
    if zlib.crc32(content) != stored_crc:
        raise CorruptFile(f"{path}: checksum mismatch")
    (kind_code,) = struct.unpack_from("<B", blob, 6)
    if kind_code not in _KIND_NAMES:
        raise CorruptFile(f"{path}: unknown model kind byte {kind_code}")
    kind = _KIND_NAMES[kind_code]
    (header_len,) = struct.unpack_from("<I", blob, 7)
    header_start = 11
    if header_start + header_len > len(content):
        raise CorruptFile(f"{path}: header overruns file")
    try:
        header = json.loads(content[header_start : header_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"{path}: bad header: {exc}") from None

    try:
        model = KIND_CLASSES[kind](**header["hyperparams"])
    except TypeError as exc:
        raise CorruptFile(f"{path}: hyperparameters do not fit a {kind} model: {exc}") from None
    feature_config = FeatureConfig.from_dict(header["feature_config"])

    offset = header_start + header_len
    arrays: dict[str, np.ndarray] = {}
    for name, shape in header["params"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(content):
            raise CorruptFile(f"{path}: parameter blob overruns file")
        arrays[name] = np.frombuffer(content[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(content):
        raise CorruptFile(f"{path}: {len(content) - offset} trailing bytes in parameter blob")

    scaler = None
    if header["has_scaler"]:
        scaler = Scaler()
        scaler.mean_ = arrays.pop("scaler.mean")
        scaler.std_ = arrays.pop("scaler.std")
    model.set_param_arrays(arrays)
    return ModelBundle(
        kind=kind,
        model=model,
        feature_config=feature_config,
        scaler=scaler,
        model_id=f"{fnv1a64(content):016x}",
    )
