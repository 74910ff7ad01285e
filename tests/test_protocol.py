import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsbb84.channel
from dsbb84.bounds import expected_observables
from dsbb84.channel import (
    BlockSource,
    ChannelModel,
    click_law,
    generator,
    sample_block,
)
from dsbb84.gf2 import BitString
from dsbb84.params import ProtocolConstants
from dsbb84.protocol import (
    AliceMachine,
    BobMachine,
    InProcessTransport,
    ProtocolError,
    run_protocol,
)
from dsbb84.wire import (
    A_WITHHELD,
    AliceBlockDisclosure,
    BobBlockDisclosure,
    PaSeed,
    SiftAnnounce,
    Syndrome,
    VerifyResult,
    WireError,
    decode_message,
    encode_message,
)

SMALL = ProtocolConstants(
    n_block=5,
    m=20000,
    p_intensity={"S": 0.4, "D": 0.5, "V": 0.1},
    mu={"S": 0.8, "D": 0.3, "V": 0.0},
    p_basis_alice=0.7,
    p_basis_bob=0.7,
    n_verify=16,
    e_bit_assumed=0.01,
    eps_secrecy=0.05,
)
CLEAN = ChannelModel(eta_ch=1.0, e_mis=0.002, p_dark=1e-6, eta_det=0.9)
# Five times the misalignment the SMALL code is provisioned for.
NOISY = ChannelModel(eta_ch=1.0, e_mis=0.01, p_dark=1e-6, eta_det=0.9)

LOSSY = ProtocolConstants(
    n_block=2,
    m=5000,
    p_intensity={"S": 0.7, "D": 0.2, "V": 0.1},
    mu={"S": 0.5, "D": 0.1, "V": 0.001},
    p_basis_alice=0.8,
    p_basis_bob=0.8,
    n_verify=32,
    e_bit_assumed=0.03,
    eps_secrecy=1e-6,
)
FIBER = ChannelModel(
    loss_db_per_km=0.2, distance_km=100.0, e_mis=0.01, p_dark=1e-6, eta_det=0.2
)


def build_machines(constants, channel, seed):
    blocks = BlockSource(constants, channel, seed)
    expected = expected_observables(constants, channel)
    alice = AliceMachine(constants, blocks, expected, generator(seed, 3))
    bob = BobMachine(constants, blocks, expected)
    return alice, bob


def pump(alice, bob, tamper=None):
    """Deliver messages by hand, optionally rewriting Alice's; keeps none."""
    while not (alice.done and bob.done):
        moved = 0
        while bob.outbox:
            alice.handle(bob.outbox.pop(0))
            moved += 1
        while alice.outbox:
            msg = alice.outbox.pop(0)
            if tamper is not None:
                msg = tamper(msg) or msg
            if not bob.done:
                bob.handle(msg)
            moved += 1
        assert moved, "deadlock"


def test_successful_run_produces_matching_keys():
    out = run_protocol(SMALL, CLEAN, seed=42)
    assert not out.aborted
    assert out.keys_match
    assert out.alice.n_fin == out.bob.n_fin == len(out.alice.key)
    assert out.alice.n_fin > 0
    assert out.alice.observables == out.bob.observables
    assert out.security.n_fin == out.alice.n_fin
    assert out.bob.ec_converged
    assert out.alice.abort_reason is None and out.bob.abort_reason is None


# SHA-256 over transcript || Alice key || Bob key of
# run_protocol(SMALL, CLEAN, seed=42), taken when sampling became
# click-only with one stream per (seed, role, block).
GOLDEN_SESSION_DIGEST = (
    "a39b738d89b6fc64bc39a816fdd4e1a11b943a5b41ebf969a8cd5e03f2d67d7d"
)


def test_seeded_session_is_byte_identical_to_golden_digest():
    """Transcript and keys of a fixed seed are pinned byte for byte.

    A refactor that is not meant to change behaviour must keep this
    digest. A deliberate change to seeded outputs, such as re-keying the
    sampling streams, updates the digest here and records the new value
    and the reason in CHANGES.md.
    """
    out = run_protocol(SMALL, CLEAN, seed=42)
    blob = out.transcript + out.alice.key.to_bytes() + out.bob.key.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SESSION_DIGEST


# The lossy-long shape (c04, 1e6 rounds over 100 km): every session aborts
# at the length judgement after a full block exchange.
LOSSY_LONG = ProtocolConstants(
    n_block=10,
    m=100_000,
    p_intensity={"S": 0.7, "D": 0.2, "V": 0.1},
    mu={"S": 0.5, "D": 0.1, "V": 0.001},
    p_basis_alice=0.8,
    p_basis_bob=0.8,
    n_verify=32,
    e_bit_assumed=0.03,
    eps_secrecy=1e-6,
)

# SHA-256 over the transcript of run_protocol(LOSSY_LONG, FIBER, seed=9),
# taken when sampling became click-only with one stream per (seed, role,
# block).
GOLDEN_ABORT_DIGEST = (
    "7bda72128b29be5157a4b8cfc10bbe5709df0e8bf872018b0fca614885280f4a"
)


def test_seeded_abort_is_byte_identical_to_golden_digest():
    """The abort path is pinned like the keyed one: no key on either side."""
    out = run_protocol(LOSSY_LONG, FIBER, seed=9)
    assert out.alice.abort_reason == "insufficient extractable length"
    assert out.alice.key is None and out.bob.key is None
    assert hashlib.sha256(out.transcript).hexdigest() == GOLDEN_ABORT_DIGEST


# The demo config at four times the block size (2e7 rounds, about 246k
# sifted bits): the FFT hashing and LDPC path at scale.
DEMO_X4 = ProtocolConstants(
    n_block=50,
    m=400_000,
    p_intensity={"S": 0.4, "D": 0.5, "V": 0.1},
    mu={"S": 0.6, "D": 0.2, "V": 0.0},
    p_basis_alice=0.7,
    p_basis_bob=0.7,
    n_verify=64,
    e_bit_assumed=0.015,
    eps_secrecy=1e-9,
)
DEMO = ChannelModel(eta_ch=0.5, e_mis=0.005, p_dark=1e-6, eta_det=0.3)

# SHA-256 over transcript || Alice key || Bob key of
# run_protocol(DEMO_X4, DEMO, seed=7), taken when sampling became
# click-only with one stream per (seed, role, block).
GOLDEN_DEMO_DIGEST = (
    "ba7996b9c68a8e2cbf86b3ebe7f9bbfbdc50800bac52db6c2d8c91c9b7d7f239"
)


def test_demo_scale_session_is_byte_identical_to_golden_digest():
    out = run_protocol(DEMO_X4, DEMO, seed=7)
    assert (out.alice.n_sift, out.alice.n_fin) == (245505, 71339)
    blob = out.transcript + out.alice.key.to_bytes() + out.bob.key.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DEMO_DIGEST


def test_run_is_deterministic_in_seed():
    a = run_protocol(SMALL, CLEAN, seed=40)
    b = run_protocol(SMALL, CLEAN, seed=40)
    c = run_protocol(SMALL, CLEAN, seed=41)
    assert a.transcript == b.transcript
    assert a.alice.key == b.alice.key
    assert a.transcript != c.transcript
    assert a.alice.key != c.alice.key


def test_transcript_is_a_parseable_frame_stream():
    out = run_protocol(SMALL, CLEAN, seed=7)
    offset = 0
    msgs = []
    while offset < len(out.transcript):
        msg, offset = decode_message(out.transcript, offset)
        msgs.append(msg)
    assert isinstance(msgs[0], BobBlockDisclosure)
    from dsbb84.wire import End

    assert isinstance(msgs[-1], End)
    assert sum(isinstance(m, BobBlockDisclosure) for m in msgs) == SMALL.n_block


def test_lossy_configuration_aborts_cleanly():
    out = run_protocol(LOSSY, FIBER, seed=9)
    assert out.aborted
    assert out.alice.key is None and out.bob.key is None
    assert out.alice.abort_reason == "insufficient extractable length"
    assert out.bob.abort_reason == "insufficient extractable length"
    assert out.alice.n_fin == 0 and out.bob.n_fin == 0
    assert out.security.abort


def test_machines_agree_with_transport_driver():
    alice, bob = build_machines(SMALL, CLEAN, seed=42)
    pump(alice, bob)
    reference = run_protocol(SMALL, CLEAN, seed=42)
    assert alice.result.key == reference.alice.key
    assert bob.result.key == reference.bob.key


def test_alice_rejects_out_of_order_messages():
    alice, _ = build_machines(SMALL, CLEAN, seed=1)
    with pytest.raises(ProtocolError):
        alice.handle(VerifyResult(ok=True))
    _, bob = build_machines(SMALL, CLEAN, seed=1)
    disclosure = bob.outbox[0]
    wrong_block = BobBlockDisclosure(
        j=3,
        clicked=disclosure.clicked,
        basis=disclosure.basis,
        x_outcomes=disclosure.x_outcomes,
    )
    alice2, _ = build_machines(SMALL, CLEAN, seed=1)
    with pytest.raises(ProtocolError):
        alice2.handle(wrong_block)


@pytest.mark.parametrize("field", ["basis", "x_outcomes"])
def test_alice_rejects_disclosure_one_bit_short(field):
    """A misshapen disclosure fails closed and leaves Alice's tally as it was."""
    alice, bob = build_machines(SMALL, CLEAN, seed=1)
    disclosure = bob.outbox.pop(0)
    short = dataclasses.replace(
        disclosure, **{field: getattr(disclosure, field)[:-1]}
    )
    with pytest.raises(ProtocolError):
        alice.handle(short)
    assert not alice.outbox
    alice.handle(disclosure)
    assert len(alice.outbox) == 1


def test_bob_rejects_out_of_order_messages():
    _, bob = build_machines(SMALL, CLEAN, seed=2)
    with pytest.raises(ProtocolError):
        bob.handle(PaSeed(seed=1, n_fin=10))
    with pytest.raises(ProtocolError):
        bob.handle(SiftAnnounce(n_sift=100, proceed=True))


def test_bob_rejects_wrong_sift_announcement():
    alice, bob = build_machines(SMALL, CLEAN, seed=3)

    def tamper(msg):
        if isinstance(msg, SiftAnnounce):
            return SiftAnnounce(msg.n_sift + 1, msg.proceed)

    with pytest.raises(ProtocolError, match="announced sift count"):
        pump(alice, bob, tamper)


def test_bob_rejects_wrong_final_length():
    alice, bob = build_machines(SMALL, CLEAN, seed=3)

    def tamper(msg):
        if isinstance(msg, PaSeed):
            return PaSeed(msg.seed, msg.n_fin + 1)

    with pytest.raises(ProtocolError, match="final length"):
        pump(alice, bob, tamper)


def test_corrupted_syndrome_fails_verification():
    alice, bob = build_machines(SMALL, CLEAN, seed=5)

    def tamper(msg):
        if isinstance(msg, Syndrome) and len(msg.bits) > 0:
            flip = BitString.from_int(1, len(msg.bits))
            return Syndrome(msg.bits ^ flip, msg.code_seed)

    pump(alice, bob, tamper)
    assert alice.result.aborted and bob.result.aborted
    assert alice.result.abort_reason == "verification mismatch"
    assert bob.result.abort_reason == "verification mismatch"
    assert alice.result.key is None and bob.result.key is None


def test_stalled_decode_ends_in_verification_abort():
    out = run_protocol(SMALL, NOISY, seed=2000)
    assert not out.security.abort
    assert out.bob.ec_converged is False
    assert out.aborted and out.bob.aborted
    assert out.alice.abort_reason == "verification mismatch"
    assert out.bob.abort_reason == "verification mismatch"
    assert out.alice.key is None and out.bob.key is None
    assert out.alice.n_fin == 0 and out.bob.n_fin == 0


def test_zero_assumed_error_rate_skips_correction():
    # A zero assumed rate discloses nothing, so Bob's key keeps its real
    # errors and verification is what catches them. The run must still
    # traverse the whole message flow, including the empty syndrome.
    constants = ProtocolConstants(
        n_block=5,
        m=20000,
        p_intensity={"S": 0.4, "D": 0.5, "V": 0.1},
        mu={"S": 0.8, "D": 0.3, "V": 0.0},
        p_basis_alice=0.7,
        p_basis_bob=0.7,
        n_verify=16,
        e_bit_assumed=0.0,
        eps_secrecy=0.05,
    )
    out = run_protocol(constants, CLEAN, seed=11)
    assert out.security.n_ec == 0
    assert not out.security.abort
    assert out.aborted
    assert out.alice.abort_reason == "verification mismatch"
    assert out.bob.abort_reason == "verification mismatch"
    assert out.bob.ec_converged and out.bob.ec_iterations == 0
    offset = 0
    syndromes = []
    while offset < len(out.transcript):
        msg, offset = decode_message(out.transcript, offset)
        if isinstance(msg, Syndrome):
            syndromes.append(msg)
    assert len(syndromes) == 1 and len(syndromes[0].bits) == 0


def test_transport_detects_deadlock():
    alice, bob = build_machines(SMALL, CLEAN, seed=6)
    bob.outbox.clear()
    transport = InProcessTransport(alice, bob)
    with pytest.raises(ProtocolError, match="deadlock"):
        transport.run()


@st.composite
def reply_mutations(draw):
    """(block, record index as a fraction, field, new value) or a drop."""
    block = draw(st.integers(0, SMALL.n_block - 1))
    where = draw(st.floats(0, 1, exclude_max=True))
    field = draw(st.sampled_from(["omega", "alpha", "value", "offset", "drop"]))
    value = {
        "omega": st.integers(0, 2),
        "alpha": st.integers(0, 1),
        "value": st.sampled_from([0, 1, A_WITHHELD]),
        "offset": st.integers(-3, 3),
        "drop": st.just(0),
    }[field]
    return block, where, field, draw(value)


def mutate_reply(msg, where, field, value):
    """Rewrite one record of Alice's reply, keeping it decodable."""
    columns = {
        name: msg.records[name].astype(np.int64)
        for name in msg.records.dtype.names
    }
    i = int(where * len(msg.records))
    if field == "drop":
        columns = {name: np.delete(col, i) for name, col in columns.items()}
    elif field == "offset":
        columns["offset"][i] += value
    else:
        columns[field][i] = value
    try:
        mutated = AliceBlockDisclosure.from_columns(msg.j, *columns.values())
        raw = encode_message(mutated)
    except WireError:
        return None
    return decode_message(raw)[0]


@settings(max_examples=30, deadline=None)
@given(reply_mutations())
def test_bob_never_accepts_a_key_from_a_mutated_reply(mutation):
    block, where, field, value = mutation
    alice, bob = build_machines(SMALL, CLEAN, seed=42)

    def tamper(msg):
        if isinstance(msg, AliceBlockDisclosure) and msg.j == block:
            return mutate_reply(msg, where, field, value)

    try:
        pump(alice, bob, tamper)
    except ProtocolError:
        return
    if bob.result.key is not None:
        assert bob.result.key == alice.result.key


class RecordingSource(BlockSource):
    """A session's block source that keeps every block it hands out."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = {}

    def __call__(self, j):
        block = super().__call__(j)
        self.seen.setdefault(j, block)
        return block


def test_block_drawn_alone_equals_block_in_session():
    blocks = RecordingSource(SMALL, CLEAN, 42)
    expected = expected_observables(SMALL, CLEAN)
    alice = AliceMachine(SMALL, blocks, expected, generator(42, 3))
    bob = BobMachine(SMALL, blocks, expected)
    pump(alice, bob)
    assert alice.result.key == run_protocol(SMALL, CLEAN, seed=42).alice.key
    assert sorted(blocks.seen) == list(range(SMALL.n_block))
    law = click_law(SMALL, CLEAN)
    for j in reversed(range(SMALL.n_block)):
        alone = sample_block(law, 42, j)
        inside = blocks.seen[j]
        for name in ("beta", "clicked", "offsets", "omega_idx", "alpha", "a", "cell", "b"):
            assert np.array_equal(getattr(alone, name), getattr(inside, name)), name
    assert not np.array_equal(blocks.seen[0].clicked, blocks.seen[1].clicked)


def test_honest_session_draws_each_block_once_and_clicks_only(monkeypatch):
    keys = []
    real = dsbb84.channel.generator

    def recording(seed, *key):
        keys.append(key)
        return real(seed, *key)

    monkeypatch.setattr(dsbb84.channel, "generator", recording)
    run_protocol(SMALL, CLEAN, seed=42)
    # Alice, Bob and channel streams once per block; never the stream of
    # Alice's settings for unclicked rounds.
    assert sorted(keys) == sorted(
        (role, j) for role in (0, 1, 2) for j in range(SMALL.n_block)
    )


def disclosure_naming(disclosure, block, extra):
    """Bob's disclosure with the unclicked rounds ``extra`` marked clicked;
    X outcomes cover every named X round, 1 for the invented ones."""
    named = np.union1d(block.offsets, extra)
    clicked = np.zeros(len(block), dtype=np.uint8)
    clicked[named] = 1
    x_named = named[block.beta[named] == 1]
    outcomes = np.ones(len(x_named), dtype=np.uint8)
    real = np.isin(x_named, block.offsets)
    outcomes[real] = disclosure.x_outcomes.to_array()
    return dataclasses.replace(
        disclosure,
        clicked=BitString.from_array(clicked),
        x_outcomes=BitString.from_array(outcomes),
    ), named


def test_reply_to_a_disclosure_naming_unclicked_rounds():
    replies = []
    for _ in range(2):
        alice, bob = build_machines(SMALL, CLEAN, seed=8)
        honest = bob.outbox.pop(0)
        block = bob.blocks(0)
        unclicked = np.flatnonzero(~block.clicked)
        extra = unclicked[[0, 7, 100, len(unclicked) - 1]]
        forged, named = disclosure_naming(honest, block, extra)
        alice.handle(forged)
        (reply,) = alice.outbox
        replies.append(encode_message(reply))
        records = reply.records
        assert np.array_equal(records["offset"], named)
        assert records["omega"].max() <= 2 and records["alpha"].max() <= 1
        beta = block.beta[named]
        matched_x = (records["alpha"] == 1) & (beta == 1)
        assert np.array_equal(records["value"] == A_WITHHELD, ~matched_x)
        real = np.isin(named, block.offsets)
        assert np.array_equal(records["omega"][real], block.omega_idx)
        assert np.array_equal(records["alpha"][real], block.alpha)
        invented = block.alice_settings(extra)
        assert np.array_equal(records["omega"][~real], invented[0])
        assert np.array_equal(records["alpha"][~real], invented[1])
    assert replies[0] == replies[1]


def test_session_memory_is_one_block():
    # A lossy-long session holds one sampled block at a time, so four
    # times the blocks must not take much more memory at peak. The
    # messages are handed over without a transcript, which is the one
    # part of run_protocol that grows with the number of rounds (its
    # m-bit bitmaps take about 25 kB per block). A one-block session runs
    # first so that one-time allocations count in neither peak.
    peaks = []
    for n_block in (1, 10, 40):
        constants = dataclasses.replace(LOSSY_LONG, n_block=n_block, n_total=0)
        tracemalloc.start()
        try:
            alice, bob = build_machines(constants, FIBER, seed=9)
            pump(alice, bob)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert alice.result.n_sift > 0
    assert peaks[2] < 1.5 * peaks[1], peaks
