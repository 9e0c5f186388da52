"""The link-to-receiver chain checked in law: per-frame counts against their closed forms.

Bit-identity tests pin the draws; these hold whatever the draw order.  A
frame is observed, written, corrupted and read as ``run_pipeline`` does it,
and what the receiver keeps is counted here.  Each check allows 4 standard
errors and uses fixed seeds, as criterion 5 does.
"""

import math

import numpy as np
import pytest

from test_sandbox_scene import landmark_ids
from xrmimo.biterrors import corrupt_in_place
from xrmimo.sandbox import (
    DESCRIPTOR_BYTES,
    MAX_FEATURES_PER_FRAME,
    CameraModel,
    generate_scene,
    generate_trajectory,
    match_features,
)
from xrmimo.sandbox.features import observe_block
from xrmimo.sandbox.payload import FrameEncoder, _layout, _slots, decode_records, read_slots
from xrmimo.seeding import seed_sequence

CAMERA = CameraModel()
BERS = [1e-3, 1e-2, 0.05]
SCENE = generate_scene(400, rng=seed_sequence(23, 0))
# Frames per scenario: a scenario-1 frame at BER 0.05 draws about 370 000 flips.
N_FRAMES = {1: 40, 2: 40, 3: 100}
# A record this many flipped descriptor bits from its landmark is at least
# 80 - 24 = 56 from every other one, a margin of 32: the rule accepts it.
NEAR_BITS = 24


def link_counts(scenario, ber):
    """Per frame: empty slots, phantoms, still-valid sent records, those matched correctly,
    sent records, those the receiver lost, bits flipped in the slot bytes, and slot bits."""
    traj = generate_trajectory(N_FRAMES[scenario], rng=seed_sequence(23, 1, scenario))
    features, counts = observe_block(SCENE, CAMERA, traj.positions, traj.quaternions)
    own = landmark_ids(SCENE, features)
    encoder = FrameEncoder(features, counts, scenario, CAMERA)
    dtype, stride, _, _ = _layout(scenario, CAMERA)
    wire = np.empty(encoder.n_bytes, dtype=np.uint8)
    rng = np.random.default_rng(seed_sequence(23, 2, scenario, ber))
    starts = np.concatenate([[0], np.cumsum(counts)])
    rows = []
    for i, n_sent in enumerate(counts):
        encoder.write(wire, i)
        sent = _slots(wire, dtype, stride).copy()
        assert (sent["valid"][:n_sent] == 1).all()
        corrupt_in_place(wire, ber, rng)
        flips = int(np.bitwise_count(sent.view(np.uint8)
                                     ^ _slots(wire, dtype, stride).copy().view(np.uint8)).sum())
        # Sent records fill the first slots, so the receiver's records come
        # in slot order: the surviving sent records first, then phantoms.
        kept = np.flatnonzero(_slots(wire, dtype, stride)["valid"][:n_sent] != 0)
        records, depth = read_slots(wire, scenario, CAMERA)
        # The receiver's count of sent records it keeps, from the wire with
        # every empty slot cleared.
        sent_only = wire.copy()
        _slots(sent_only, dtype, stride)[n_sent:] = 0
        n_kept = len(read_slots(sent_only, scenario, CAMERA)[0])
        matches = match_features(decode_records(records, depth, CAMERA), SCENE)
        own_kept = own[starts[i] + kept]
        sent_matches = matches[matches["feature"] < kept.size]
        matched = (sent_matches["landmark"] == own_kept[sent_matches["feature"]]).sum()
        rows.append((MAX_FEATURES_PER_FRAME - n_sent, len(records) - kept.size,
                     kept.size, matched, n_sent, n_sent - n_kept, flips, 8 * sent.nbytes))
    return np.array(rows)


def binomial_cdf(k, n, p):
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1))


@pytest.fixture(scope="module", params=[(s, ber) for s in (1, 2, 3) for ber in BERS],
                ids=lambda case: f"scenario {case[0]} ber {case[1]:g}")
def counts(request):
    scenario, ber = request.param
    return ber, link_counts(scenario, ber)


def binomial_z(count, n, q):
    """Standard errors between ``count`` and the mean of Binomial(n, q)."""
    return (count - n * q) / math.sqrt(n * q * (1.0 - q))


def test_phantoms_per_frame_are_binomial(counts):
    # An empty slot is all zeros, so it decodes as valid iff any bit of its
    # ``valid`` byte flips.
    ber, rows = counts
    n_empty, phantoms = rows[:, 0].sum(), rows[:, 1].sum()
    z = binomial_z(phantoms, n_empty, 1.0 - (1.0 - ber) ** 8)
    assert abs(z) <= 4.0, (phantoms, n_empty, z)


def test_lost_records_per_frame_are_binomial(counts):
    # A sent record's ``valid`` byte is 1, so it decodes as 0, and the
    # record is lost, iff its lowest bit flips and no other bit does.
    ber, rows = counts
    n_sent, lost = rows[:, 4].sum(), rows[:, 5].sum()
    z = binomial_z(lost, n_sent, ber * (1.0 - ber) ** 7)
    assert abs(z) <= 4.0, (lost, n_sent, z)


def test_slot_byte_flips_are_binomial(counts):
    # Flips fall on distinct uniform bits of the wire, so the slot bytes,
    # wherever they sit in it, take Binomial(8 |slots|, p) flips a frame.
    ber, rows = counts
    flips, n_bits = rows[:, 6].sum(), rows[:, 7].sum()
    z = binomial_z(flips, n_bits, ber)
    assert abs(z) <= 4.0, (flips, n_bits, z)


def test_near_records_match_their_own_landmark(counts):
    # A record with at most NEAR_BITS flipped descriptor bits always matches
    # its own landmark, so at least that share of still-valid sent records does.
    ber, rows = counts
    n_kept, matched = rows[:, 2].sum(), rows[:, 3].sum()
    assert n_kept > 0
    q = binomial_cdf(NEAR_BITS, 8 * DESCRIPTOR_BYTES, ber)
    assert matched / n_kept >= q - 4.0 * math.sqrt(q * (1.0 - q) / n_kept), (matched, n_kept, q)
