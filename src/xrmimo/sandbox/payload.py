"""Wire encodings of the three uplink offloading payloads.

All layouts are little-endian and fixed-size, so the bit corruption layer
can operate on raw serialized bytes.  Every payload is a record region
holding ``MAX_FEATURES_PER_FRAME`` record slots at a fixed stride,
followed by an optional dense 16-bit unsigned millimetre depth image
(row-major, one value per pixel):

* scenario 1: the region is the 8-bit greyscale image (W x H bytes) and
  the slots sit one every W*H // 1536 bytes (200 at 640 x 480), with zero
  bytes between them; then the depth image.  The sandbox has no image
  detector, so the receiver reads only the slots and the depth pixels
  they name, while the full image surface stays exposed to bit errors.
* scenario 2: 1536 contiguous 48-byte records, then the depth image.
* scenario 3: 1536 contiguous 56-byte records with an inline float64
  depth, and no depth image.

A record slot is ``descriptor[32] | u f32 | v f32 | score f32 | valid u8 |
intensity u8 | reserved u16`` (+ ``depth f64`` for scenario 3); unused
slots are zero-filled and carry ``valid = 0``.  The receiver keeps the
slots whose ``valid`` byte is non-zero and clamps every field into its
allowed range, NaN and inf to the range's midpoint, so any byte string of
the right length decodes.  Where a depth image is sent, a record's depth is
the image value at its rounded pixel.

``_layout`` is the only place that knows the scenarios: the encoder and
the decoder address the slots as one strided view of the wire bytes.
Both come in a stacked form that does the per-record arithmetic once for
many frames and leaves only byte moves per frame: ``FrameEncoder`` and
``read_slots`` then ``decode_records``.  ``encode_payload`` and
``decode_payload`` are their one-frame calls.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, FramingError
from .camera import CameraModel
from .features import MAX_FEATURES_PER_FRAME, RECORD_DTYPE, RECORD_WITH_DEPTH_DTYPE


def _layout(scenario: int, camera: CameraModel) -> tuple[np.dtype, int, int, int]:
    """(record dtype, slot stride, record-region bytes, depth-image bytes) of a scenario."""
    pixels = camera.width * camera.height
    if scenario == 1:
        stride = pixels // MAX_FEATURES_PER_FRAME
        if stride < RECORD_DTYPE.itemsize:
            raise ConfigurationError("image too small to embed one record per feature slot")
        return RECORD_DTYPE, stride, pixels, 2 * pixels
    if scenario == 2:
        size = RECORD_DTYPE.itemsize
        return RECORD_DTYPE, size, MAX_FEATURES_PER_FRAME * size, 2 * pixels
    if scenario == 3:
        size = RECORD_WITH_DEPTH_DTYPE.itemsize
        return RECORD_WITH_DEPTH_DTYPE, size, MAX_FEATURES_PER_FRAME * size, 0
    raise ConfigurationError(f"unknown scenario {scenario}, expected one of (1, 2, 3)")


def payload_num_bytes(scenario: int, camera: CameraModel) -> int:
    """Exact serialized size of one uplink payload."""
    _, _, region, depth_bytes = _layout(scenario, camera)
    return region + depth_bytes


def _slots(buffer, dtype: np.dtype, stride: int) -> np.ndarray:
    """The record slots of a wire buffer: slot i is the record at byte ``i * stride``.

    A view, writable when ``buffer`` is; a stride is at least one record
    long, so the slots are disjoint.
    """
    return np.ndarray(MAX_FEATURES_PER_FRAME, dtype=dtype, buffer=buffer, strides=(stride,))


def _depth_tail(buffer, region: int, camera: CameraModel) -> np.ndarray:
    """The flat ``<u2`` depth image that follows the record region, as a view."""
    return np.ndarray(camera.width * camera.height, dtype="<u2", buffer=buffer, offset=region)


def _pixel_index(u, v, camera: CameraModel) -> np.ndarray:
    """Flat depth-image index of each rounded pixel, clipped into the image."""
    px = np.clip(np.rint(u), 0, camera.width - 1).astype(np.intp)
    py = np.clip(np.rint(v), 0, camera.height - 1).astype(np.intp)
    return py * camera.width + px


def _clamp(values, lo: float, hi: float) -> np.ndarray:
    """Float copy of ``values`` clipped to [lo, hi]; NaN and inf become the midpoint."""
    arr = np.array(values, dtype=float)
    arr[~np.isfinite(arr)] = (lo + hi) / 2.0
    return np.clip(arr, lo, hi)


def encode_payload(features, scenario: int, camera: CameraModel) -> bytes:
    """Serialize a frame's feature records into the scenario's exact wire format."""
    wire = np.empty(payload_num_bytes(scenario, camera), dtype=np.uint8)
    FrameEncoder(features, [len(features)], scenario, camera).write(wire, 0)
    return wire.tobytes()


class FrameEncoder:
    """The wire images of a stack of frames, written one at a time into a reused array.

    ``features`` holds the frames' records back to back, ``counts`` the
    number of each frame's.  The records are converted to the wire record
    once for the stack, and each depth image's pixels and millimetres are
    found once, so ``write`` only moves bytes.  The depth image carries each
    feature's depth in millimetres at its rounded pixel.  Features of one
    frame landing on the same pixel overwrite each other and the later
    feature wins; the robust pose solver treats the loser as an outlier.

    ``clean_read`` is what ``read_slots`` makes of a frame's untouched wire,
    and it stays so until a flip hits one of the ``read_bytes`` bytes that
    ``read_slots`` reads of the frame, which ``reads`` tells.
    """

    def __init__(self, features, counts, scenario: int, camera: CameraModel):
        dtype, self._stride, self._region, depth_bytes = _layout(scenario, camera)
        self._scenario = scenario
        counts = np.asarray(counts, dtype=np.intp)
        if (counts > MAX_FEATURES_PER_FRAME).any():
            raise FramingError(f"at most {MAX_FEATURES_PER_FRAME} features fit in a payload")
        self._camera = camera
        self.n_bytes = self._region + depth_bytes
        self._starts = np.concatenate([[0], np.cumsum(counts)])
        self._records = np.zeros(len(features), dtype=dtype)
        for name in dtype.names:
            self._records[name] = features[name]
        self._itemsize = dtype.itemsize
        self._valid_offset = dtype.fields["valid"][1]
        valid = self._records["valid"] != 0
        # A field-less void view is masked ten times faster than the fields.
        raw = np.dtype((np.void, dtype.itemsize))
        self._clean = self._records.view(raw)[valid].view(dtype)
        self._clean_starts = np.concatenate([[0], np.cumsum(valid)])[self._starts]
        # A frame's slots are read whole where a record was sent, and only
        # for their ``valid`` byte where none was.
        self.read_bytes = counts * dtype.itemsize + MAX_FEATURES_PER_FRAME - counts
        self._depth, self._depth_keys = None, np.zeros(0, dtype=np.intp)
        if not depth_bytes:
            self._clean_depth = self._clean["depth"]
            return
        pixels = camera.width * camera.height
        frame = np.repeat(np.arange(counts.size), counts)
        key = frame * pixels + _pixel_index(features["u"], features["v"], camera)
        millimetres = np.clip(np.rint(features["depth"] * 1000.0), 0, 65535).astype(np.uint16)
        # numpy leaves the winner of repeated fancy-index writes unspecified,
        # so keep only the last feature on each (frame, pixel).
        _, first_from_end, winner = np.unique(key[::-1], return_index=True, return_inverse=True)
        last = len(key) - 1 - first_from_end
        # ``last`` is sorted by key, so by frame first.
        self._depth_keys = key[last]
        self._depth_starts = np.searchsorted(self._depth_keys, np.arange(counts.size + 1) * pixels)
        self._depth = (self._depth_keys % pixels, millimetres[last])
        # Each record reads the depth its pixel's last writer left there.
        self._clean_depth = millimetres[last][winner[::-1]][valid] / 1000.0
        self.read_bytes += 2 * np.diff(self._depth_starts)

    def write(self, wire: np.ndarray, frame: int) -> None:
        """Frame ``frame``'s payload into a uint8 array of ``n_bytes``."""
        if wire.shape != (self.n_bytes,):
            raise FramingError(f"scenario {self._scenario} payload must be {self.n_bytes} "
                               f"bytes, got an array of shape {wire.shape}")
        wire.fill(0)
        records = self._records[self._starts[frame]:self._starts[frame + 1]]
        _slots(wire, records.dtype, self._stride)[:len(records)] = records
        if self._depth is not None:
            lo, hi = self._depth_starts[frame], self._depth_starts[frame + 1]
            flat, millimetres = self._depth
            _depth_tail(wire, self._region, self._camera)[flat[lo:hi]] = millimetres[lo:hi]

    def clean_read(self, frame: int) -> tuple[np.ndarray, np.ndarray]:
        """``read_slots`` of frame ``frame``'s payload as ``write`` leaves it, without a wire."""
        lo, hi = self._clean_starts[frame], self._clean_starts[frame + 1]
        return self._clean[lo:hi], self._clean_depth[lo:hi]

    def reads(self, frames, flips) -> np.ndarray:
        """For each of ``frames``, whether a flip at any lane-major bit of its entry of
        ``flips`` hits a byte that ``read_slots`` reads of it."""
        owner = np.repeat(np.arange(len(frames)), [positions.size for positions in flips])
        frame = np.asarray(frames, dtype=np.intp)[owner]
        byte = np.concatenate([np.zeros(0, dtype=np.int64), *flips]) % self.n_bytes
        slot, offset = np.divmod(byte, self._stride)
        sent = self._starts[frame + 1] - self._starts[frame]
        hit = np.where(slot < sent, offset < self._itemsize, offset == self._valid_offset)
        hit &= slot < MAX_FEATURES_PER_FRAME
        keys = self._depth_keys  # of each frame's depth pixels, ascending
        if keys.size:
            depth = byte >= self._region
            flipped = frame[depth] * (self._camera.width * self._camera.height) + (
                byte[depth] - self._region) // 2
            found = keys[np.minimum(np.searchsorted(keys, flipped), keys.size - 1)]
            hit[depth] = found == flipped
        return np.bincount(owner[hit], minlength=len(frames)) > 0


def decode_payload(payload: bytes, scenario: int, camera: CameraModel) -> np.ndarray:
    """Clamped valid records (``RECORD_WITH_DEPTH_DTYPE``) of a possibly corrupted payload.

    The one-frame call of ``read_slots`` and ``decode_records``.
    """
    return decode_records(*read_slots(payload, scenario, camera), camera)


def read_slots(payload, scenario: int, camera: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """The valid slots of a payload, copied, and each one's depth in metres, unclamped.

    Where a depth image is sent, a record's depth is the image value at its
    rounded, clamped pixel.  The results of several payloads may be
    concatenated before ``decode_records``.
    """
    dtype, stride, region, depth_bytes = _layout(scenario, camera)
    if len(payload) != region + depth_bytes:
        raise FramingError(
            f"scenario {scenario} payload must be {region + depth_bytes} bytes, got {len(payload)}"
        )
    records = _slots(payload, dtype, stride)
    records = records[records["valid"] != 0]
    if not depth_bytes:
        return records, records["depth"]
    # Corrupted float32 bytes may hold signaling NaNs; widening them trips
    # the FPU invalid flag even though the clamp handles them.
    with np.errstate(invalid="ignore"):
        u = _clamp(records["u"], 0.0, float(camera.width - 1))
        v = _clamp(records["v"], 0.0, float(camera.height - 1))
    return records, _depth_tail(payload, region, camera)[_pixel_index(u, v, camera)] / 1000.0


def decode_records(records, depth, camera: CameraModel) -> np.ndarray:
    """Clamped ``RECORD_WITH_DEPTH_DTYPE`` records from ``read_slots`` output."""
    with np.errstate(invalid="ignore"):
        u = _clamp(records["u"], 0.0, float(camera.width - 1))
        v = _clamp(records["v"], 0.0, float(camera.height - 1))
        score = _clamp(records["score"], 0.0, 1.0)
    decoded = np.zeros(len(records), dtype=RECORD_WITH_DEPTH_DTYPE)
    decoded["descriptor"] = records["descriptor"]
    # Each clamped value is the float32 input, a float32-exact bound or a
    # float32-exact midpoint, so narrowing back to float32 is lossless.
    decoded["u"] = u
    decoded["v"] = v
    decoded["score"] = score
    decoded["valid"] = 1
    decoded["intensity"] = records["intensity"]
    decoded["depth"] = _clamp(depth, camera.depth_min, camera.depth_max)
    return decoded
