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
from .features import MAX_FEATURES_PER_FRAME, RECORD_DTYPE, RECORD_WITH_DEPTH_DTYPE

FEATURE_SLOTS = MAX_FEATURES_PER_FRAME


def payload_num_bytes(scenario: int, camera: CameraModel) -> int:
    """Exact serialized size of one uplink payload."""
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
    """All ``FEATURE_SLOTS`` slots: the feature rows first, zeros after."""
    if len(features) > FEATURE_SLOTS:
        raise FramingError(f"at most {FEATURE_SLOTS} features fit in a payload")
    records = np.zeros(FEATURE_SLOTS, dtype=dtype)
    for name in dtype.names:
        records[name][:len(features)] = features[name]
    return records


def _depth_image(features, camera: CameraModel) -> np.ndarray:
    """Dense uint16 millimetre depth map carrying each feature's depth.

    Features landing on the same rounded pixel overwrite each other and the
    later feature wins; the robust pose solver treats the loser as an
    outlier.
    """
    px = np.clip(np.rint(features["u"]), 0, camera.width - 1).astype(np.intp)
    py = np.clip(np.rint(features["v"]), 0, camera.height - 1).astype(np.intp)
    millimetres = np.clip(np.rint(features["depth"] * 1000.0), 0, 65535).astype(np.uint16)
    flat = py * camera.width + px
    # numpy leaves the winner of repeated fancy-index writes unspecified, so
    # write only the last feature on each pixel.
    _, first_from_end = np.unique(flat[::-1], return_index=True)
    last = flat.size - 1 - first_from_end
    depth = np.zeros((camera.height, camera.width), dtype=np.uint16)
    depth.flat[flat[last]] = millimetres[last]
    return depth


@lru_cache(maxsize=8)
def _background_image(camera: CameraModel) -> np.ndarray:
    """The fixed greyscale ramp of scenario 1, built once per camera; read-only."""
    xs = np.arange(camera.width, dtype=np.uint32)
    ys = np.arange(camera.height, dtype=np.uint32)
    image = ((3 * xs[None, :] + 7 * ys[:, None]) & 0xFF).astype(np.uint8)
    image.flags.writeable = False
    return image


def encode_payload(features, scenario: int, camera: CameraModel) -> bytes:
    """Serialize a frame's feature records into the scenario's exact wire format."""
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


def decode_payload(payload: bytes, scenario: int, camera: CameraModel) -> np.ndarray:
    """Sanitised valid records (``RECORD_WITH_DEPTH_DTYPE``) of a possibly corrupted payload.

    Scenarios 1 and 2 take each record's depth from the depth image at its
    rounded pixel.
    """
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
    records = records[sanitize_array(records["valid"], specs["valid"]) == 1]
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

    decoded = np.zeros(len(records), dtype=RECORD_WITH_DEPTH_DTYPE)
    decoded["descriptor"] = records["descriptor"]
    # Each sanitised value is the float32 input, a float32-exact bound or a
    # float32-exact midpoint, so narrowing back to float32 is lossless.
    decoded["u"] = u
    decoded["v"] = v
    decoded["score"] = score
    decoded["valid"] = 1
    decoded["intensity"] = records["intensity"]
    decoded["depth"] = depth
    return decoded
