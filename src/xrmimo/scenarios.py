"""Offloading scenario constants.

Three device/base-station work splits are compared.  Uplink packet sizes
are those of the sandbox payload encoders at the default camera:

* scenario 1: greyscale image plus dense 16-bit depth image (900 KiB),
* scenario 2: feature records plus dense depth image (672 KiB),
* scenario 3: feature records with per-feature depths (84 KiB).
"""

from .sandbox.camera import CameraModel
from .sandbox.payload import payload_num_bytes

SCENARIO_IDS = (1, 2, 3)

SCENARIO_UL_BYTES = {sid: payload_num_bytes(sid, CameraModel()) for sid in SCENARIO_IDS}

SCENARIO_UL_BITS = {sid: 8 * nbytes for sid, nbytes in SCENARIO_UL_BYTES.items()}
