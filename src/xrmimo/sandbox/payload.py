"""Wire encodings of the three uplink offloading payloads.

All layouts are little-endian and fixed-size, so the bit corruption layer
can operate on raw serialized bytes:

* scenario 1: 8-bit greyscale image (row-major) then a dense 16-bit
  unsigned millimetre depth image.  Feature records are embedded in the
  greyscale image at a protocol-fixed grid of byte patches, one 48-byte
  record every 200 bytes, which lets the receiver recover features without
  a real detector while the full image surface stays exposed to bit
  errors.  Both ends address the patches as one strided view of the image
  bytes, (slots, stride) cut to the first 48 columns.
* scenario 2: 1536 x 48-byte feature records then the dense depth image.
* scenario 3: 1536 x 56-byte feature records with an inline float64 depth.

A record slot is ``descriptor[32] | u f32 | v f32 | score f32 | valid u8 |
intensity u8 | reserved u16`` (+ ``depth f64`` for scenario 3); unused
slots are zero-filled and carry ``valid = 0``.  The receiver keeps the
slots whose ``valid`` byte is non-zero and clamps every field into its
allowed range, NaN and inf to the range's midpoint, so any byte string of
the right length decodes.

The encoders of scenarios 1 and 2 write the image or record block and the
depth image into one preallocated buffer; the decoders read every part
as a view of the received bytes, at its offset.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exceptions import ConfigurationError, FramingError
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
    raise ConfigurationError(f"unknown scenario {scenario}, expected one of (1, 2, 3)")


def _patch_stride(camera: CameraModel) -> int:
    stride = (camera.width * camera.height) // FEATURE_SLOTS
    if stride < RECORD_DTYPE.itemsize:
        raise ConfigurationError(
            "image too small to embed one record per feature slot"
        )
    return stride


def _clamp(values, lo: float, hi: float) -> np.ndarray:
    """Float copy of ``values`` clipped to [lo, hi]; NaN and inf become the midpoint."""
    arr = np.array(values, dtype=float)
    arr[~np.isfinite(arr)] = (lo + hi) / 2.0
    return np.clip(arr, lo, hi)


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


def _record_patches(image: np.ndarray, camera: CameraModel) -> np.ndarray:
    """The (FEATURE_SLOTS, 48) byte patches of the scenario-1 image, as a strided view.

    Slot i is the 48 bytes at offset ``i * stride``; a stride is at least
    one record long, so the patches are disjoint.
    """
    stride = _patch_stride(camera)
    return image[:FEATURE_SLOTS * stride].reshape(FEATURE_SLOTS, stride)[:, :RECORD_DTYPE.itemsize]


def encode_payload(features, scenario: int, camera: CameraModel) -> bytes:
    """Serialize a frame's feature records into the scenario's exact wire format."""
    size = payload_num_bytes(scenario, camera)  # rejects an unknown scenario
    if scenario == 3:
        return _build_records(features, RECORD_WITH_DEPTH_DTYPE).tobytes()
    records = _build_records(features, RECORD_DTYPE).view(np.uint8)
    wire = np.empty(size, dtype=np.uint8)
    depth_at = wire.size - 2 * camera.width * camera.height
    if scenario == 1:
        wire[:depth_at] = _background_image(camera).reshape(-1)
        _record_patches(wire[:depth_at], camera)[...] = records.reshape(FEATURE_SLOTS, -1)
    else:
        wire[:depth_at] = records
    wire[depth_at:] = _depth_image(features, camera).view(np.uint8).reshape(-1)
    return wire.tobytes()


def decode_payload(payload: bytes, scenario: int, camera: CameraModel) -> np.ndarray:
    """Clamped valid records (``RECORD_WITH_DEPTH_DTYPE``) of a possibly corrupted payload.

    Scenarios 1 and 2 take each record's depth from the depth image at its
    rounded pixel.
    """
    expected = payload_num_bytes(scenario, camera)
    if len(payload) != expected:
        raise FramingError(
            f"scenario {scenario} payload must be {expected} bytes, got {len(payload)}"
        )
    depth_at = expected - 2 * camera.width * camera.height
    if scenario == 3:
        records = np.frombuffer(payload, dtype=RECORD_WITH_DEPTH_DTYPE)
    elif scenario == 2:
        records = np.frombuffer(payload, dtype=RECORD_DTYPE, count=FEATURE_SLOTS)
    else:  # scenario 1; payload_num_bytes has rejected any other
        image = np.frombuffer(payload, dtype=np.uint8, count=depth_at)
        records = _record_patches(image, camera).view(RECORD_DTYPE)[:, 0]
    if scenario != 3:
        depth_image = np.frombuffer(payload, dtype="<u2", offset=depth_at).reshape(
            camera.height, camera.width
        )

    records = records[records["valid"] != 0]
    # Corrupted float32 bytes may hold signaling NaNs; widening them trips
    # the FPU invalid flag even though the clamp handles them.
    with np.errstate(invalid="ignore"):
        u = _clamp(records["u"], 0.0, float(camera.width - 1))
        v = _clamp(records["v"], 0.0, float(camera.height - 1))
        score = _clamp(records["score"], 0.0, 1.0)
    if scenario == 3:
        depth = _clamp(records["depth"], camera.depth_min, camera.depth_max)
    else:
        px = np.clip(np.rint(u), 0, camera.width - 1).astype(int)
        py = np.clip(np.rint(v), 0, camera.height - 1).astype(int)
        depth = _clamp(depth_image[py, px] / 1000.0, camera.depth_min, camera.depth_max)

    decoded = np.zeros(len(records), dtype=RECORD_WITH_DEPTH_DTYPE)
    decoded["descriptor"] = records["descriptor"]
    # Each clamped value is the float32 input, a float32-exact bound or a
    # float32-exact midpoint, so narrowing back to float32 is lossless.
    decoded["u"] = u
    decoded["v"] = v
    decoded["score"] = score
    decoded["valid"] = 1
    decoded["intensity"] = records["intensity"]
    decoded["depth"] = depth
    return decoded
