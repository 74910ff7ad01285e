import dataclasses
import hashlib
import itertools
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
    ABORT_LENGTH,
    ABORT_REASONS,
    ABORT_VERIFY,
    AliceMachine,
    BobMachine,
    InProcessTransport,
    ProtocolError,
    run_protocol,
)
from dsbb84.wire import (
    AliceBlockDisclosure,
    BobBlockDisclosure,
    End,
    PaSeed,
    SiftAnnounce,
    Syndrome,
    VerifyHash,
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
    """Deliver messages by hand, optionally rewriting them; keeps none."""
    while not (alice.done and bob.done):
        moved = 0
        while bob.outbox:
            msg = bob.outbox.pop(0)
            if tamper is not None:
                msg = tamper(msg) or msg
            alice.handle(msg)
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
# run_protocol(SMALL, CLEAN, seed=42), taken when Bob's clicked set
# became one Elias-Fano form (wire version 3).
GOLDEN_SESSION_DIGEST = (
    "f7db9925d2869331b1a546f08282c8677d135c94fac58a0cd1e176f6e7f26a78"
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
# taken when Bob's clicked set became one Elias-Fano form (wire version 3).
GOLDEN_ABORT_DIGEST = (
    "a6d55717bce609ceb43b9b180d0f151425ff919a92b998096e65585d33ad76e4"
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
# run_protocol(DEMO_X4, DEMO, seed=7), taken when Bob's clicked set
# became one Elias-Fano form (wire version 3).
GOLDEN_DEMO_DIGEST = (
    "62f69b5a0623b6fd3b30d2c2645aba67207fef7127098a3cb8a08a1fc09bacfd"
)


def test_demo_scale_session_is_byte_identical_to_golden_digest():
    out = run_protocol(DEMO_X4, DEMO, seed=7)
    assert (out.alice.n_sift, out.alice.n_fin) == (245841, 73770)
    blob = out.transcript + out.alice.key.to_bytes() + out.bob.key.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DEMO_DIGEST


# SHA-256 over repr of Bob's [(ec_converged, ec_iterations, ec_error_weight)]
# for run_protocol(SMALL, CLEAN, seed) at seeds 1-4 and (SMALL, NOISY, 1),
# whose decode stalls: [(True, 3, 10), (True, 3, 17), (True, 3, 19),
# (True, 3, 16), (False, 60, 23)]. The transcript digests do not cover the
# decoder's own telemetry.
GOLDEN_DECODER_TELEMETRY_DIGEST = (
    "630fe2a53d6ff1bab867b593c2739c6ba7ae7e87d562989916a0d9d83c58810c"
)


def test_decoder_telemetry_is_pinned():
    rows = []
    for channel, seed in ((CLEAN, 1), (CLEAN, 2), (CLEAN, 3), (CLEAN, 4), (NOISY, 1)):
        bob = run_protocol(SMALL, channel, seed=seed).bob
        rows.append((bob.ec_converged, bob.ec_iterations, bob.ec_error_weight))
    assert rows[-1][:2] == (False, 60)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == GOLDEN_DECODER_TELEMETRY_DIGEST


# Every field of both parties' KeyMaterial, stored or derived.
KEY_MATERIAL_FIELDS = (
    "role", "aborted", "abort_reason", "key", "n_fin", "n_sift",
    "observables", "security", "ec_converged", "ec_iterations",
    "ec_error_weight",
)

# SHA-256 over "name=repr;" for each of KEY_MATERIAL_FIELDS of Alice, then
# Bob (the key as hex), for the keyed run (SMALL, CLEAN, 42), the length
# abort (LOSSY_LONG, FIBER, 9) and the verification abort (SMALL, NOISY,
# 2000), taken before KeyMaterial derived aborted, n_fin and n_sift.
GOLDEN_KEY_MATERIAL_DIGEST = (
    "d9202763aafd10459a3f2bef2427bd65459645de537ea3bad882bcb6923036f4"
)


def key_material_digest(outcomes) -> str:
    digest = hashlib.sha256()
    for out in outcomes:
        for party in (out.alice, out.bob):
            for name in KEY_MATERIAL_FIELDS:
                value = getattr(party, name)
                if name == "key" and value is not None:
                    value = value.to_bytes().hex()
                digest.update(f"{name}={value!r};".encode())
    return digest.hexdigest()


def test_key_material_is_pinned_on_every_end_path():
    outcomes = [
        run_protocol(SMALL, CLEAN, seed=42),
        run_protocol(LOSSY_LONG, FIBER, seed=9),
        run_protocol(SMALL, NOISY, seed=2000),
    ]
    reasons = [out.alice.abort_reason for out in outcomes]
    assert reasons == [None, ABORT_LENGTH, ABORT_VERIFY]
    for out in outcomes:
        assert out.security is out.alice.security
        for party in (out.alice, out.bob):
            assert party.aborted == (party.key is None)
            assert party.n_fin == (0 if party.key is None else len(party.key))
            assert party.n_sift == party.observables.n_sift
    assert key_material_digest(outcomes) == GOLDEN_KEY_MATERIAL_DIGEST


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
    wrong_block = dataclasses.replace(bob.outbox[0], j=3)
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


@pytest.mark.parametrize(
    "change",
    [
        {"m": SMALL.m + 1},
        {"offsets": np.array([5, 3])},
        {"offsets": np.array([SMALL.m])},
        {"offsets": np.array([-1])},
        {"offsets": np.array([[1]])},
    ],
    ids=["m", "descending", "beyond-block", "negative", "2-d"],
)
def test_alice_rejects_misshapen_clicked_set(change):
    alice, bob = build_machines(SMALL, CLEAN, seed=1)
    disclosure = bob.outbox.pop(0)
    if "offsets" in change:
        n = change["offsets"].size
        change = dict(change, basis=BitString.zeros(n), x_outcomes=BitString.zeros(0))
    with pytest.raises(ProtocolError):
        alice.handle(dataclasses.replace(disclosure, **change))
    assert not alice.outbox
    alice.handle(disclosure)
    assert len(alice.outbox) == 1


def test_bob_rejects_out_of_order_messages():
    _, bob = build_machines(SMALL, CLEAN, seed=2)
    with pytest.raises(ProtocolError):
        bob.handle(PaSeed(seed=1, n_fin=10))
    with pytest.raises(ProtocolError):
        bob.handle(SiftAnnounce(n_sift=100, proceed=True))


# The message types each state of a keyed session accepts. Bob also takes
# End wherever Alice may end the session early.
ACCEPTED = {
    ("alice", "blocks"): {BobBlockDisclosure},
    ("alice", "verify"): {VerifyResult},
    ("bob", "blocks"): {AliceBlockDisclosure},
    ("bob", "sift"): {SiftAnnounce, End},
    ("bob", "syndrome"): {Syndrome, End},
    ("bob", "verify"): {VerifyHash},
    ("bob", "pa"): {PaSeed, End},
    ("bob", "end"): {End},
}


def test_every_state_refuses_every_message_it_does_not_accept():
    """Before each delivery of a keyed session the receiver is offered one
    message of every type its state does not accept. Each is refused with
    ProtocolError and leaves the machine as it was, so the session still
    ends with the golden keys."""
    reference = run_protocol(SMALL, CLEAN, seed=42)
    samples, offset = {}, 0
    while offset < len(reference.transcript):
        msg, offset = decode_message(reference.transcript, offset)
        samples.setdefault(type(msg), msg)
    assert len(samples) == 8
    alice, bob = build_machines(SMALL, CLEAN, seed=42)
    seen = set()

    def offer_the_rest(msg):
        from_bob = isinstance(msg, (BobBlockDisclosure, VerifyResult))
        role, receiver = ("alice", alice) if from_bob else ("bob", bob)
        if receiver.done:
            return
        state = receiver._state
        seen.add((role, state))
        for kind, sample in samples.items():
            if kind in ACCEPTED[role, state]:
                continue
            outbox = list(receiver.outbox)
            with pytest.raises(ProtocolError):
                receiver.handle(sample)
            assert receiver._state == state and receiver.outbox == outbox

    pump(alice, bob, offer_the_rest)
    assert seen == set(ACCEPTED)
    blob = (
        reference.transcript
        + alice.result.key.to_bytes()
        + bob.result.key.to_bytes()
    )
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SESSION_DIGEST


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
    """(block, position as a fraction, field, new value)."""
    block = draw(st.integers(0, SMALL.n_block - 1))
    where = draw(st.floats(0, 1, exclude_max=True))
    field = draw(st.sampled_from(
        ["omega", "alpha", "value", "drop", "drop-value", "add-value"]
    ))
    value = {
        "omega": st.integers(0, 2),
        "alpha": st.integers(0, 1),
        "value": st.integers(0, 1),
        "add-value": st.integers(0, 1),
    }.get(field, st.just(0))
    return block, where, field, draw(value)


def mutate_reply(msg, where, field, value):
    """Rewrite one entry of Alice's reply, drop one record, or drop or add
    one value bit, keeping the reply decodable."""
    omega = msg.omega.astype(np.int64)
    alpha = msg.alpha.to_array().astype(np.int64)
    bits = msg.value.to_array().astype(np.int64)
    i = int(where * len(omega))
    v = int(where * len(bits))
    if field == "drop":
        omega, alpha = np.delete(omega, i), np.delete(alpha, i)
    elif field == "drop-value" and len(bits):
        bits = np.delete(bits, v)
    elif field == "add-value":
        bits = np.insert(bits, int(where * (len(bits) + 1)), value)
    elif field == "value" and len(bits):
        bits[v] = value
    elif field in ("omega", "alpha"):
        {"omega": omega, "alpha": alpha}[field][i] = value
    mutated = AliceBlockDisclosure.from_columns(msg.j, omega, alpha, bits)
    return decode_message(encode_message(mutated))[0]


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


@pytest.mark.parametrize(
    "field, match",
    [("drop", "clicked rounds"), ("drop-value", "matched X"),
     ("add-value", "matched X")],
)
def test_bob_rejects_reply_with_wrong_counts(field, match):
    alice, bob = build_machines(SMALL, CLEAN, seed=42)

    def tamper(msg):
        if isinstance(msg, AliceBlockDisclosure):
            return mutate_reply(msg, 0.5, field, 1)

    with pytest.raises(ProtocolError, match=match):
        pump(alice, bob, tamper)


@st.composite
def frame_mutations(draw):
    """(block, kind, where as a fraction, bits to flip, new u32 value)."""
    return (
        draw(st.integers(0, SMALL.n_block - 1)),
        draw(st.sampled_from(["truncate", "flip", "count"])),
        draw(st.floats(0, 1, exclude_max=True)),
        draw(st.lists(st.integers(0, 2**20), min_size=1, max_size=3)),
        draw(st.integers(0, 2**32 - 1)),
    )


def mutate_frame(raw, kind, where, flips, word):
    raw = bytearray(raw)
    if kind == "truncate":
        return bytes(raw[: int(where * len(raw))])
    if kind == "flip":
        for bit in flips:
            raw[(bit // 8) % len(raw)] ^= 1 << (bit % 8)
        return bytes(raw)
    # Rewrite the frame length, m or the clicked count.
    at = (0, 10, 15)[int(where * 3)]
    raw[at : at + 4] = word.to_bytes(4, "little")
    return bytes(raw)


@settings(max_examples=60, deadline=None)
@given(frame_mutations())
def test_alice_fails_closed_on_mutated_disclosures(mutation):
    """A mutated Bob frame is refused by the decoder or by Alice's machine,
    or is a well-formed disclosure that Alice answers; no session ends
    with different keys on the two sides."""
    block, kind, where, flips, word = mutation
    alice, bob = build_machines(SMALL, CLEAN, seed=42)

    def tamper(msg):
        if isinstance(msg, BobBlockDisclosure) and msg.j == block:
            raw = mutate_frame(encode_message(msg), kind, where, flips, word)
            return decode_message(raw)[0]

    try:
        pump(alice, bob, tamper)
    except (ProtocolError, WireError):
        return
    assert alice.result.abort_reason in ABORT_REASONS | {None}
    if bob.result.key is not None:
        assert bob.result.key == alice.result.key


def deliver_reordered(alice, bob, step, op):
    """Carry every frame over the wire in sending order, except that the
    frame in flight at delivery ``step`` is swapped with the next one,
    delivered twice or dropped."""
    in_flight = []

    def collect():
        for sender, receiver in ((bob, alice), (alice, bob)):
            while sender.outbox:
                in_flight.append((receiver, encode_message(sender.outbox.pop(0))))

    collect()
    for n in itertools.count():
        if n == step and in_flight:
            if op == "drop":
                in_flight.pop(0)
            elif op == "repeat":
                in_flight.insert(0, in_flight[0])
            elif len(in_flight) > 1:
                in_flight[0], in_flight[1] = in_flight[1], in_flight[0]
        if not in_flight:
            break
        receiver, raw = in_flight.pop(0)
        msg, _ = decode_message(raw)
        if not receiver.done:
            receiver.handle(msg)
        elif not isinstance(msg, End):
            raise ProtocolError("message to a finished party")
        collect()
    if not (alice.done and bob.done):
        raise ProtocolError("deadlock")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.sampled_from(["swap", "repeat", "drop"]),
       st.sampled_from([42, 2000]))
def test_reordered_frames_fail_closed(step, op, seed):
    """Swapping, repeating or dropping one frame ends in ProtocolError or
    in a session whose two sides hold the same key or none."""
    channel = CLEAN if seed == 42 else NOISY
    alice, bob = build_machines(SMALL, channel, seed=seed)
    try:
        deliver_reordered(alice, bob, step, op)
    except ProtocolError:
        return
    for result in (alice.result, bob.result):
        assert result.abort_reason in ABORT_REASONS | {None}
    if alice.result.key is not None and bob.result.key is not None:
        assert alice.result.key == bob.result.key


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
    """Bob's disclosure with the unclicked rounds ``extra`` named as well,
    in basis X with outcome 1; the clicked rounds keep Bob's basis and
    outcomes."""
    named = np.union1d(block.offsets, extra)
    real = np.isin(named, block.offsets)
    basis = np.ones(len(named), dtype=np.uint8)
    basis[real] = block.beta
    outcomes = np.ones(np.count_nonzero(basis), dtype=np.uint8)
    outcomes[real[basis == 1]] = disclosure.x_outcomes.to_array()
    forged = dataclasses.replace(
        disclosure,
        offsets=named,
        basis=BitString.from_array(basis),
        x_outcomes=BitString.from_array(outcomes),
    )
    return forged, named, basis


def test_reply_to_a_disclosure_naming_unclicked_rounds():
    replies = []
    for _ in range(2):
        alice, bob = build_machines(SMALL, CLEAN, seed=8)
        honest = bob.outbox.pop(0)
        block = bob.blocks(0)
        unclicked = np.flatnonzero(~block.clicked)
        extra = unclicked[[0, 7, 100, len(unclicked) - 1]]
        forged, named, basis = disclosure_naming(honest, block, extra)
        alice.handle(forged)
        (reply,) = alice.outbox
        replies.append(encode_message(reply))
        omega, alpha = reply.omega, reply.alpha.to_array()
        assert len(omega) == len(alpha) == len(named)
        assert omega.max() <= 2
        # Alice's bit goes out on exactly the matched X rounds.
        matched_x = (alpha == 1) & (basis == 1)
        _, _, a = block.alice_settings(named)
        assert np.array_equal(reply.value.to_array(), a[matched_x])
        real = np.isin(named, block.offsets)
        assert np.array_equal(omega[real], block.omega_idx)
        assert np.array_equal(alpha[real], block.alpha)
        invented = block.alice_settings(extra)
        assert np.array_equal(omega[~real], invented[0])
        assert np.array_equal(alpha[~real], invented[1])
    assert replies[0] == replies[1]


def test_session_memory_is_one_block():
    # A lossy-long session holds one sampled block at a time, so the 30
    # blocks that a 40-block session adds to a 10-block one may raise the
    # peak only by what a session keeps of every block: its sifted key
    # part, a few hundred bytes. A source that kept every block, about
    # 2 kB each at this shape, would add some 60 kB; the bound of 1 kB per
    # added block lies between the two. The messages are handed over
    # without a transcript, which is the one part of run_protocol that
    # grows faster with the number of blocks. A one-block session runs
    # first so that one-time allocations count in neither peak.
    peaks = []
    for n_block in (1, 10, 40):
        constants = dataclasses.replace(LOSSY_LONG, n_block=n_block)
        tracemalloc.start()
        try:
            alice, bob = build_machines(constants, FIBER, seed=9)
            pump(alice, bob)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert alice.result.n_sift > 0
    assert peaks[2] - peaks[1] < 30 * 1000, peaks


def test_outcome_hands_over_the_transport_buffer(monkeypatch):
    transports = []
    real_run = InProcessTransport.run

    def run(self):
        transports.append(self)
        real_run(self)

    monkeypatch.setattr(InProcessTransport, "run", run)
    out = run_protocol(SMALL, CLEAN, seed=42)
    assert out.transcript is transports[0].transcript
    raw = bytes(out.transcript)
    assert len(out.transcript) == len(raw)
    assert hashlib.sha256(out.transcript).digest() == hashlib.sha256(raw).digest()


def test_abort_reasons_form_a_closed_set():
    assert ABORT_REASONS == {ABORT_LENGTH, ABORT_VERIFY}
    length = run_protocol(LOSSY, FIBER, seed=9)
    stalled = run_protocol(SMALL, NOISY, seed=2000)
    for out, reason in ((length, ABORT_LENGTH), (stalled, ABORT_VERIFY)):
        assert out.alice.abort_reason == out.bob.abort_reason == reason
