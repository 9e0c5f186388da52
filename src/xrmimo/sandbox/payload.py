"""Wire encodings of the three uplink offloading payloads.

All layouts are little-endian and fixed-size, so the bit corruption layer
can operate on raw serialized bytes:

* scenario 1: 8-bit greyscale image (row-major) then a dense 16-bit
  unsigned millimetre depth image.  Feature records are embedded in the
  greyscale image at a protocol-fixed grid of byte patches, one 48-byte
  record every 200 bytes, which lets the receiver recover features without
  a real detector while the full image surface stays exposed to bit
  errors.
* scenario 2: 1536 x 48-byte feature records then the dense depth image.
* scenario 3: 1536 x 56-byte feature records with an inline float64 depth.

A record slot is ``descriptor[32] | u f32 | v f32 | score f32 | valid u8 |
intensity u8 | reserved u16`` (+ ``depth f64`` for scenario 3); unused
slots are zero-filled and carry ``valid = 0``.  Decoding sanitises every
field into its allowed range before use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..biterrors import FieldSpec, sanitize_array
from ..exceptions import ConfigurationError, FramingError
from ..scenarios import SCENARIO_IDS
from .camera import CameraModel
from .features import MAX_FEATURES_PER_FRAME, Feature

FEATURE_SLOTS = MAX_FEATURES_PER_FRAME

_RECORD_FIELDS = [
    ("descriptor", "u1", (32,)),
    ("u", "<f4"),
    ("v", "<f4"),
    ("score", "<f4"),
    ("valid", "u1"),
    ("intensity", "u1"),
    ("reserved", "<u2"),
]
RECORD_DTYPE = np.dtype(_RECORD_FIELDS)
RECORD_WITH_DEPTH_DTYPE = np.dtype(_RECORD_FIELDS + [("depth", "<f8")])

assert RECORD_DTYPE.itemsize == 48
assert RECORD_WITH_DEPTH_DTYPE.itemsize == 56

_DEFAULT_CAMERA = CameraModel()


def payload_num_bytes(scenario: int, camera: CameraModel | None = None) -> int:
    """Exact serialized size of one uplink payload."""
    camera = camera or _DEFAULT_CAMERA
    image_bytes = camera.width * camera.height
    if scenario == 1:
        return image_bytes + 2 * image_bytes
    if scenario == 2:
        return FEATURE_SLOTS * RECORD_DTYPE.itemsize + 2 * image_bytes
    if scenario == 3:
        return FEATURE_SLOTS * RECORD_WITH_DEPTH_DTYPE.itemsize
    raise ConfigurationError(f"unknown scenario {scenario}, expected one of {SCENARIO_IDS}")


def _patch_stride(camera: CameraModel) -> int:
    stride = (camera.width * camera.height) // FEATURE_SLOTS
    if stride < RECORD_DTYPE.itemsize:
        raise ConfigurationError(
            "image too small to embed one record per feature slot"
        )
    return stride


def _field_specs(camera: CameraModel) -> dict:
    return {
        "u": FieldSpec("float", 0.0, float(camera.width - 1)),
        "v": FieldSpec("float", 0.0, float(camera.height - 1)),
        "depth": FieldSpec("float", camera.depth_min, camera.depth_max),
        "score": FieldSpec("float", 0.0, 1.0),
        "valid": FieldSpec("int", 0, 1),
    }


def _build_records(features, dtype) -> np.ndarray:
    if len(features) > FEATURE_SLOTS:
        raise FramingError(f"at most {FEATURE_SLOTS} features fit in a payload")
    records = np.zeros(FEATURE_SLOTS, dtype=dtype)
    for i, feat in enumerate(features):
        if len(feat.descriptor) != 32:
            raise FramingError("descriptors must be exactly 32 bytes")
        records["descriptor"][i] = np.frombuffer(feat.descriptor, dtype=np.uint8)
        records["u"][i] = feat.u
        records["v"][i] = feat.v
        records["score"][i] = feat.score
        records["valid"][i] = 1
        records["intensity"][i] = feat.intensity
        if "depth" in dtype.names:
            records["depth"][i] = feat.depth
    return records


def _depth_image(features, camera: CameraModel) -> np.ndarray:
    """Dense uint16 millimetre depth map carrying each feature's depth.

    Features landing on the same rounded pixel overwrite each other; the
    robust pose solver treats the loser as an outlier.
    """
    depth = np.zeros((camera.height, camera.width), dtype=np.uint16)
    for feat in features:
        px = min(max(int(round(feat.u)), 0), camera.width - 1)
        py = min(max(int(round(feat.v)), 0), camera.height - 1)
        depth[py, px] = np.uint16(min(max(round(feat.depth * 1000.0), 0), 65535))
    return depth


@lru_cache(maxsize=8)
def _background_image(camera: CameraModel) -> np.ndarray:
    """The fixed greyscale ramp of scenario 1, built once per camera; read-only."""
    xs = np.arange(camera.width, dtype=np.uint32)
    ys = np.arange(camera.height, dtype=np.uint32)
    image = ((3 * xs[None, :] + 7 * ys[:, None]) & 0xFF).astype(np.uint8)
    image.flags.writeable = False
    return image


def encode_payload(features, scenario: int, camera: CameraModel | None = None) -> bytes:
    """Serialize a frame's features into the scenario's exact wire format."""
    camera = camera or _DEFAULT_CAMERA
    if scenario == 3:
        records = _build_records(features, RECORD_WITH_DEPTH_DTYPE)
        payload = records.tobytes()
    elif scenario == 2:
        records = _build_records(features, RECORD_DTYPE)
        payload = records.tobytes() + _depth_image(features, camera).tobytes()
    elif scenario == 1:
        records = _build_records(features, RECORD_DTYPE)
        stride = _patch_stride(camera)
        image = _background_image(camera).flatten()
        record_bytes = records.view(np.uint8).reshape(FEATURE_SLOTS, RECORD_DTYPE.itemsize)
        offsets = (np.arange(FEATURE_SLOTS) * stride)[:, None] + np.arange(RECORD_DTYPE.itemsize)
        image[offsets] = record_bytes
        payload = image.tobytes() + _depth_image(features, camera).tobytes()
    else:
        raise ConfigurationError(f"unknown scenario {scenario}, expected one of {SCENARIO_IDS}")
    expected = payload_num_bytes(scenario, camera)
    if len(payload) != expected:
        raise FramingError(f"encoder produced {len(payload)} bytes, expected {expected}")
    return payload


def decode_payload(payload: bytes, scenario: int, camera: CameraModel | None = None) -> list:
    """Recover sanitised features from a (possibly corrupted) payload."""
    camera = camera or _DEFAULT_CAMERA
    expected = payload_num_bytes(scenario, camera)
    if len(payload) != expected:
        raise FramingError(
            f"scenario {scenario} payload must be {expected} bytes, got {len(payload)}"
        )
    image_bytes = camera.width * camera.height
    depth_image = None
    if scenario == 3:
        records = np.frombuffer(payload, dtype=RECORD_WITH_DEPTH_DTYPE)
    elif scenario == 2:
        split = FEATURE_SLOTS * RECORD_DTYPE.itemsize
        records = np.frombuffer(payload[:split], dtype=RECORD_DTYPE)
        depth_image = np.frombuffer(payload[split:], dtype="<u2").reshape(
            camera.height, camera.width
        )
    elif scenario == 1:
        stride = _patch_stride(camera)
        image = np.frombuffer(payload[:image_bytes], dtype=np.uint8)
        offsets = (np.arange(FEATURE_SLOTS) * stride)[:, None] + np.arange(RECORD_DTYPE.itemsize)
        records = image[offsets].reshape(-1).view(RECORD_DTYPE)
        depth_image = np.frombuffer(payload[image_bytes:], dtype="<u2").reshape(
            camera.height, camera.width
        )
    else:
        raise ConfigurationError(f"unknown scenario {scenario}, expected one of {SCENARIO_IDS}")

    specs = _field_specs(camera)
    valid = sanitize_array(records["valid"], specs["valid"]) == 1
    # Corrupted float32 bytes may hold signaling NaNs; widening them trips
    # the FPU invalid flag even though sanitisation handles them.
    with np.errstate(invalid="ignore"):
        u = sanitize_array(records["u"].astype(float), specs["u"])
        v = sanitize_array(records["v"].astype(float), specs["v"])
        score = sanitize_array(records["score"].astype(float), specs["score"])
    if scenario == 3:
        depth = sanitize_array(records["depth"], specs["depth"])
    else:
        px = np.clip(np.rint(u), 0, camera.width - 1).astype(int)
        py = np.clip(np.rint(v), 0, camera.height - 1).astype(int)
        depth = sanitize_array(depth_image[py, px] / 1000.0, specs["depth"])

    keep = np.flatnonzero(valid)
    descriptors = [row.tobytes() for row in records["descriptor"][keep]]
    return [Feature(u=fu, v=fv, depth=fd, descriptor=desc, intensity=fi, score=fs)
            for fu, fv, fd, desc, fi, fs in zip(
                u[keep].tolist(), v[keep].tolist(), depth[keep].tolist(), descriptors,
                records["intensity"][keep].tolist(), score[keep].tolist())]
