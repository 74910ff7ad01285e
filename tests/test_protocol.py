import dataclasses
import gc
import hashlib
import itertools
import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsbb84.channel
import dsbb84.hashing
import dsbb84.protocol
import dsbb84.wire
from dsbb84.bounds import expected_observables
from dsbb84.channel import (
    BlockSource,
    BlockStreams,
    ChannelModel,
    load_channel,
    click_law,
    generator,
    sample_block,
)
from dsbb84.ecc import LdpcCode
from dsbb84.gf2 import BitString
from dsbb84.hashing import ModifiedToeplitz, toeplitz_for_seed
from dsbb84.params import ProtocolConstants, load_constants
from dsbb84.protocol import (
    ABORT_LENGTH,
    ABORT_REASONS,
    ABORT_VERIFY,
    AliceMachine,
    BobMachine,
    InProcessTransport,
    ProtocolError,
    PublicObjects,
    run_protocol,
)
from dsbb84.wire import (
    MESSAGE_TYPES,
    AliceBlockDisclosure,
    BobBlockDisclosure,
    PaSeed,
    SiftAnnounce,
    Syndrome,
    VerifyHash,
    VerifyResult,
    WireError,
    decode_message,
    encode_message,
)
import reference

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
    public = PublicObjects()
    alice = AliceMachine(constants, blocks, public, expected, generator(seed, 3))
    bob = BobMachine(constants, blocks, public, expected)
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
# run_protocol(SMALL, CLEAN, seed=42), taken when each party came to finish
# on the message that decides its outcome, with no closing frame, and each
# block drawn from its counter range on the session's per-role streams;
# re-taken for wire version 6 (Rice-coded clicked sets and V records).
GOLDEN_SESSION_DIGEST = (
    "ebfc84872d9247c336aab94cffde2d13478f5f1dfab0bc3d29f006dd4939c062"
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
# taken when each party came to finish on the message that decides its
# outcome, with per-block counter-range streams and wire version 6.
GOLDEN_ABORT_DIGEST = (
    "bad44e14f7c12cc1fa0f8ce85e508505013dc7ed6436cd0461ec51d5eaf2c7f6"
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
# run_protocol(DEMO_X4, DEMO, seed=7), taken when each party came to finish
# on the message that decides its outcome, with per-block counter-range
# streams and wire version 6.
GOLDEN_DEMO_DIGEST = (
    "939ba995c982a1585dc313fd1aa3997cf3e23411cf70a0feee260ddcff61fd57"
)


def test_demo_scale_session_is_byte_identical_to_golden_digest():
    out = run_protocol(DEMO_X4, DEMO, seed=7)
    assert (out.alice.n_sift, out.alice.n_fin) == (244553, 74531)
    blob = out.transcript + out.alice.key.to_bytes() + out.bob.key.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DEMO_DIGEST


# SHA-256 over repr of Bob's [(ec_converged, ec_iterations, ec_error_weight)]
# for run_protocol(SMALL, CLEAN, seed) at seeds 1-4 and (SMALL, NOISY, 1),
# whose decode stalls: [(True, 4, 19), (True, 3, 14), (True, 5, 24),
# (True, 3, 15), (False, 60, 14)]. The transcript digests do not cover the
# decoder's own telemetry.
GOLDEN_DECODER_TELEMETRY_DIGEST = (
    "c5e8df393f8bf3436d7518cee21717ec874531901266f15a60c0642d1d1d48a7"
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
# 2000), taken before KeyMaterial derived aborted, n_fin and n_sift, and
# re-taken with per-block counter-range streams.
GOLDEN_KEY_MATERIAL_DIGEST = (
    "b38c0dd9a13452f0a68e04d3899b4aa206a437eb5519ef08046a6de3eefee458"
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


WORKLOADS = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json")
    .read_text(encoding="utf-8")
)


def workload_law(name):
    """(constants, channel) of a benchmark workload."""
    return (load_constants(WORKLOADS[name]["constants"]),
            load_channel(WORKLOADS[name]["channel"]))


# The 181 reference sessions: the benchmark's laws at these seeds.
CHAIN_SESSIONS = (
    ("clean-short", range(150)),
    ("noisy-short", range(20)),
    ("lossy-long", range(10)),
    ("demo-x4", (7,)),
)

# SHA-256 over sha256(transcript).hexdigest() + key_material_digest([out])
# of each reference session in CHAIN_SESSIONS order, fed as one ASCII
# stream, with wire version 6; 149 of the 181 sessions key.
GOLDEN_CHAIN_DIGEST = (
    "0d85c356ab2eb110144eec1492823c1466ec76db0f14fe859a9da4fd277058d2"
)
CHAIN_KEYED = 149

# SHA-256 over message_fields of every message decoded from the reference
# sessions' transcripts, in CHAIN_SESSIONS order. It reads no byte of the
# wire layout, so a change of wire format that keeps every decoded message
# leaves it as it is; taken at wire version 5.
GOLDEN_MESSAGE_DIGEST = (
    "b95a89372b5eee1bbcbdfb5f0440365af0657e1e5d40fa9746e37e245f83bdbc"
)


def message_fields(msg) -> str:
    """The message's type and each field as "name=value;": an array as its
    list of values, a bit string as its bit count and packed bytes."""
    parts = [type(msg).__name__]
    for field in dataclasses.fields(msg):
        value = getattr(msg, field.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, BitString):
            value = (len(value), value.to_bytes().hex())
        parts.append(f"{field.name}={value!r}")
    return ";".join(parts) + "\n"


def test_reference_sessions_chain_to_golden_digest():
    """Transcripts, keys and every KeyMaterial field of 181 sessions across
    the benchmark's four laws are pinned by one chained digest, and every
    message decoded from their transcripts by a second one."""
    chain = hashlib.sha256()
    messages = hashlib.sha256()
    keyed = 0
    for name, seeds in CHAIN_SESSIONS:
        constants, channel = workload_law(name)
        expected = expected_observables(constants, channel)
        for seed in seeds:
            out = run_protocol(constants, channel, seed, expected)
            keyed += not out.aborted
            session = hashlib.sha256(out.transcript).hexdigest()
            chain.update((session + key_material_digest([out])).encode())
            offset = 0
            while offset < len(out.transcript):
                msg, offset = decode_message(out.transcript, offset)
                messages.update(message_fields(msg).encode())
    assert keyed == CHAIN_KEYED
    assert messages.hexdigest() == GOLDEN_MESSAGE_DIGEST
    assert chain.hexdigest() == GOLDEN_CHAIN_DIGEST


def test_sessions_of_interleaved_configurations_equal_sessions_alone():
    """Sessions of several configurations run in turn in one process equal
    the same sessions run alone: no click law or stream state of one
    configuration reaches another. Two of them differ only in what the
    click law does not read, so they share one law."""
    configs = [
        (SMALL, CLEAN),
        (SMALL, NOISY),
        (LOSSY, FIBER),
        (dataclasses.replace(SMALL, n_block=3, eps_secrecy=0.1), CLEAN),
    ]

    def fingerprint(out):
        return bytes(out.transcript), key_material_digest([out])

    alone = {}
    for i, (constants, channel) in enumerate(configs):
        for seed in (0, 1):
            dsbb84.channel._click_law.cache_clear()
            alone[i, seed] = fingerprint(run_protocol(constants, channel, seed))
    dsbb84.channel._click_law.cache_clear()
    for seed in (0, 1):
        for i, (constants, channel) in enumerate(configs):
            assert fingerprint(run_protocol(constants, channel, seed)) == alone[i, seed]
            # The law a session reads is the one its own configuration
            # defines, whatever ran before it.
            law = click_law(constants, channel)
            twin = reference.choice_click_law(constants, channel)
            assert (law.m, law.p_basis_alice, law.p_basis_bob, law.p_click) == (
                twin.m, twin.p_basis_alice, twin.p_basis_bob, twin.p_click
            )
            assert np.array_equal(law.cell_only0, twin.cell_cdf[:, 0])
            assert np.array_equal(law.cell_not_both, twin.cell_cdf[:, 1])
    assert dsbb84.channel._click_law.cache_info().currsize == 3


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
    # A keyed session ends on the message that decides Bob's key.
    assert isinstance(msgs[-1], PaSeed)
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
    """A misshapen disclosure cannot be built, so Alice never sees one."""
    alice, bob = build_machines(SMALL, CLEAN, seed=1)
    disclosure = bob.outbox.pop(0)
    with pytest.raises(WireError):
        dataclasses.replace(disclosure, **{field: getattr(disclosure, field)[:-1]})
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
        # The message itself cannot hold such a set; the session's m is
        # what only Alice knows.
        n = change["offsets"].size
        change = dict(change, basis=np.zeros(n, dtype=np.uint8), x_outcomes=[])
        with pytest.raises(WireError):
            dataclasses.replace(disclosure, **change)
    else:
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


def message_samples():
    """One message of each type, from the first keyed SMALL session on the
    clean channel."""
    transcript = next(
        out.transcript
        for out in (run_protocol(SMALL, CLEAN, seed) for seed in itertools.count())
        if not out.aborted
    )
    samples, offset = {}, 0
    while offset < len(transcript):
        msg, offset = decode_message(transcript, offset)
        samples.setdefault(type(msg), msg)
    return samples


def assert_refused(party, msg):
    """``party`` refuses ``msg`` with ProtocolError and stays as it was."""
    before = (party._expect, party._next_block, list(party.outbox), party.result)
    with pytest.raises(ProtocolError):
        party.handle(msg)
    assert (party._expect, party._next_block, party.outbox, party.result) == before


def test_each_party_accepts_one_message_type_at_a_time():
    """Before each delivery of a keyed session the receiver is offered one
    message of every other type, and refuses each. The types delivered are
    each party's expected sequence, and the session still ends with the
    golden keys."""
    samples = message_samples()
    assert len(samples) == 7
    alice, bob = build_machines(SMALL, CLEAN, seed=42)
    delivered = {"alice": [], "bob": []}

    def offer_the_rest(msg):
        from_bob = isinstance(msg, (BobBlockDisclosure, VerifyResult))
        receiver = alice if from_bob else bob
        delivered[receiver.role].append(type(msg))
        for kind, sample in samples.items():
            if kind is not type(msg):
                assert_refused(receiver, sample)

    pump(alice, bob, offer_the_rest)
    n = SMALL.n_block
    assert delivered == {
        "alice": [BobBlockDisclosure] * n + [VerifyResult],
        "bob": [AliceBlockDisclosure] * n + [SiftAnnounce, Syndrome, VerifyHash, PaSeed],
    }
    blob = (
        run_protocol(SMALL, CLEAN, seed=42).transcript
        + alice.result.key.to_bytes()
        + bob.result.key.to_bytes()
    )
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SESSION_DIGEST


@pytest.mark.parametrize(
    "constants, channel, seed, reason",
    [
        (SMALL, CLEAN, 42, None),
        (LOSSY, FIBER, 9, ABORT_LENGTH),
        (SMALL, NOISY, 2000, ABORT_VERIFY),
    ],
    ids=["keyed", "length-abort", "verify-abort"],
)
def test_a_finished_party_refuses_every_message(constants, channel, seed, reason):
    """Each party finishes on the message that decides its outcome, with
    nothing left to send, and refuses anything after it."""
    alice, bob = build_machines(constants, channel, seed)
    pump(alice, bob)
    samples = message_samples().values()
    for party in (alice, bob):
        assert party.done and not party.outbox
        assert party.result.abort_reason == reason
        for sample in samples:
            assert_refused(party, sample)


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
    alpha = msg.alpha.astype(np.int64)
    bits = msg.value.astype(np.int64)
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
    mutated = AliceBlockDisclosure(msg.j, omega, alpha, bits)
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
        receiver.handle(decode_message(raw)[0])
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
    public = PublicObjects()
    alice = AliceMachine(SMALL, blocks, public, expected, generator(42, 3))
    bob = BobMachine(SMALL, blocks, public, expected)
    pump(alice, bob)
    assert alice.result.key == run_protocol(SMALL, CLEAN, seed=42).alice.key
    assert sorted(blocks.seen) == list(range(SMALL.n_block))
    law = click_law(SMALL, CLEAN)
    for j in reversed(range(SMALL.n_block)):
        alone = sample_block(law, BlockStreams(42), j)
        inside = blocks.seen[j]
        for name in ("beta", "offsets", "omega_idx", "alpha", "a", "cell", "b"):
            assert np.array_equal(getattr(alone, name), getattr(inside, name)), name
    assert not np.array_equal(blocks.seen[0].offsets, blocks.seen[1].offsets)


def test_honest_session_draws_each_block_once_and_clicks_only(monkeypatch):
    keyed, positioned = [], []
    real_generator = dsbb84.channel.generator
    real_call = BlockStreams.__call__

    def keying(seed, role):
        keyed.append(role)
        return real_generator(seed, role)

    def positioning(self, role, j):
        positioned.append((role, j))
        return real_call(self, role, j)

    monkeypatch.setattr(dsbb84.channel, "generator", keying)
    monkeypatch.setattr(BlockStreams, "__call__", positioning)
    run_protocol(SMALL, CLEAN, seed=42)
    # The Alice, Bob and channel streams keyed once per session and set to
    # each block's counter range once; never the stream of Alice's settings
    # for unclicked rounds.
    assert sorted(keyed) == [0, 1, 2]
    assert sorted(positioned) == sorted(
        (role, j) for role in (0, 1, 2) for j in range(SMALL.n_block)
    )


def test_one_offset_check_per_disclosure(monkeypatch):
    calls = []
    real = dsbb84.wire.clicked_offsets

    def counting(offsets, m):
        calls.append(m)
        return real(offsets, m)

    # Every module that holds the check under its own name.
    for module in (dsbb84.wire, dsbb84.protocol):
        if hasattr(module, "clicked_offsets"):
            monkeypatch.setattr(module, "clicked_offsets", counting)
    run_protocol(SMALL, CLEAN, seed=42)
    # One when Bob builds each disclosure, one when the decoder rebuilds it.
    assert len(calls) == 2 * SMALL.n_block


def matched(basis):
    """The clicked rounds of a block where both parties chose ``basis``
    (0 for Z, 1 for X)."""
    return lambda block: (block.alpha == basis) & (block.beta == basis)


# Each flip class: the column of a block whose bit is flipped ("a" is
# Alice's, "b" Bob's) and the clicked rounds it may be flipped on.
FLIPS = {
    "alice-matched-z": ("a", matched(0)),
    "alice-matched-x-S": ("a", lambda block: matched(1)(block) & (block.omega_idx == 0)),
    "alice-matched-x-DV": ("a", lambda block: matched(1)(block) & (block.omega_idx > 0)),
    "alice-mismatched": ("a", lambda block: block.alpha != block.beta),
    "bob-matched-z": ("b", matched(0)),
}


class FlippedSource(BlockSource):
    """A session's blocks with one bit flipped: the bit in ``column`` of a
    clicked round that ``where`` selects, at (block, index) ``flip``; None,
    and no bit flipped, if no round qualifies. ``pick`` chooses one of a
    list of options: first a block among those with a qualifying round,
    then a round of that block."""

    def __init__(self, constants, channel, seed, column, where, pick):
        super().__init__(constants, channel, seed)
        self.column = column
        self.flip = None
        candidates = {}
        for j in range(constants.n_block):
            rounds = np.flatnonzero(where(super().__call__(j)))
            if len(rounds):
                candidates[j] = rounds.tolist()
        if candidates:
            j = pick(sorted(candidates))
            self.flip = (j, pick(candidates[j]))

    def __call__(self, j):
        block = super().__call__(j)
        if self.flip is None or j != self.flip[0]:
            return block
        bits = getattr(block, self.column).copy()
        bits[self.flip[1]] ^= 1
        return dataclasses.replace(block, **{self.column: bits})


def session_frames(constants, channel, seed, blocks):
    """Alice's machine after a session run on the block source ``blocks``,
    and the (message, bytes) of each transcript frame."""
    expected = expected_observables(constants, channel)
    public = PublicObjects()
    alice = AliceMachine(constants, blocks, public, expected, generator(seed, 3))
    transport = InProcessTransport(alice, BobMachine(constants, blocks, public, expected))
    transport.run()
    frames, offset = [], 0
    while offset < len(transport.transcript):
        start = offset
        msg, offset = decode_message(transport.transcript, offset)
        frames.append((msg, bytes(transport.transcript[start:offset])))
    return alice, frames


def differing(honest, flipped):
    """The indices of the frames two transcripts differ in; a frame that
    only one of them sends counts."""
    raws = [[raw for _, raw in frames] for frames in (honest, flipped)]
    n = max(map(len, raws))
    return [i for i in range(n) if raws[0][i : i + 1] != raws[1][i : i + 1]]


# Per seed 0-9 of each benchmark law: the honest session's abort reason,
# and the flip classes that find a round to flip.
NO_MATCHED_X_DV = set(FLIPS) - {"alice-matched-x-DV"}
TRANSCRIPT_SEEDS = {
    "keyed": (
        *workload_law("clean-short"),
        [None] * 5 + [ABORT_VERIFY] + [None] * 4,
        [set(FLIPS)] * 10,
    ),
    "length-abort": (
        *workload_law("lossy-long"),
        [ABORT_LENGTH] * 10,
        [NO_MATCHED_X_DV, set(FLIPS)] * 2
        + [NO_MATCHED_X_DV]
        + [set(FLIPS)] * 2
        + [NO_MATCHED_X_DV]
        + [set(FLIPS)] * 2,
    ),
}


@pytest.mark.parametrize("case", sorted(TRANSCRIPT_SEEDS))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_transcript_discloses_what_the_accounting_subtracts(case, data):
    """Two sessions whose Alice differs in one bit of her sifted key send
    the same frames up to the syndrome. The syndrome and the verification
    digest then differ only in their bits, which are the n_ec and n_verify
    bits the final length subtracts; a session that aborts at the length
    judgement sends no frame that differs but Alice's reply to a flipped
    matched-X round.

    The other flip classes: Alice's bit on a matched-X round goes out in
    her reply, and on a decoy or vacuum round it also moves the public
    error tally and so the final length and, in a keyed session, the key.
    Her bit on a mismatched round goes out nowhere. Bob's bit on a
    matched-Z round goes out nowhere unless the decoder misses it, and
    then only as a failed verification. So the reply carries intensity,
    basis and matched-X bits and nothing else.

    Each flip class flips a block and round drawn at random among those
    that qualify."""
    constants, channel, reasons, classes = TRANSCRIPT_SEEDS[case]

    def pick(options):
        return data.draw(st.sampled_from(options))

    verify_aborts = 0
    for seed in range(10):
        shape = (constants, channel, seed)
        alice, honest = session_frames(*shape, BlockSource(*shape))
        sec = alice.security
        sources = {name: FlippedSource(*shape, *FLIPS[name], pick) for name in FLIPS}
        runs = {
            name: session_frames(*shape, source)
            for name, source in sources.items()
            if source.flip is not None
        }
        assert alice.result.abort_reason == reasons[seed]
        assert set(runs) == classes[seed]

        def reply_of(name):
            """The frame index of the reply to the block flipped in ``name``."""
            return 2 * sources[name].flip[0] + 1

        def assert_value_bit_differs(name, frames):
            """The flipped reply differs from the honest one in one value
            bit, and in no intensity or basis."""
            honest_reply, flipped_reply = honest[reply_of(name)][0], frames[reply_of(name)][0]
            assert np.array_equal(flipped_reply.omega, honest_reply.omega)
            assert np.array_equal(flipped_reply.alpha, honest_reply.alpha)
            assert np.count_nonzero(flipped_reply.value != honest_reply.value) == 1

        if sec.abort:
            assert reasons[seed] == ABORT_LENGTH
            for name, (flipped_alice, frames) in runs.items():
                assert flipped_alice.result.abort_reason == ABORT_LENGTH, name
                if name.startswith("alice-matched-x"):
                    assert differing(honest, frames) == [reply_of(name)], name
                    assert_value_bit_differs(name, frames)
                else:
                    assert differing(honest, frames) == [], name
            continue
        keyed = reasons[seed] is None
        _, flipped = runs["alice-matched-z"]
        at = next(i for i, (msg, _) in enumerate(honest) if isinstance(msg, Syndrome))
        assert [raw for _, raw in flipped[:at]] == [raw for _, raw in honest[:at]]
        (syndrome, _), (digest, _) = honest[at : at + 2]
        (syndrome2, _), (digest2, _) = flipped[at : at + 2]
        assert syndrome2.code_seed == syndrome.code_seed and digest2.seed == digest.seed
        assert syndrome2.bits != syndrome.bits
        assert len(syndrome2.bits) == len(syndrome.bits) == sec.n_ec
        assert len(digest2.digest) == len(digest.digest) == constants.n_verify
        (sift,) = (msg for msg, _ in honest if isinstance(msg, SiftAnnounce))
        n_fin = sift.n_sift - sec.n_pa - len(syndrome.bits) - len(digest.digest)
        assert sec.n_fin == n_fin
        pas = [msg for msg, _ in honest if isinstance(msg, PaSeed)]
        assert len(pas) == keyed
        if keyed:
            assert pas[0].n_fin == n_fin
        else:
            (verdict,) = (msg for msg, _ in honest if isinstance(msg, VerifyResult))
            assert not verdict.ok and honest[-1][0] is verdict

        alice_s, frames = runs["alice-matched-x-S"]
        assert differing(honest, frames) == [reply_of("alice-matched-x-S")]
        assert_value_bit_differs("alice-matched-x-S", frames)
        assert alice_s.result.key == alice.result.key
        alice_dv, frames = runs["alice-matched-x-DV"]
        assert_value_bit_differs("alice-matched-x-DV", frames)
        assert alice_dv.security.n_fin != n_fin == alice.security.n_fin
        if keyed:
            assert differing(honest, frames) == [reply_of("alice-matched-x-DV"), len(honest) - 1]
            pa2 = frames[-1][0]
            assert pa2.seed == pas[0].seed and pa2.n_fin != pas[0].n_fin == alice.result.n_fin
            assert alice_dv.result.key != alice.result.key
        else:
            assert differing(honest, frames) == [reply_of("alice-matched-x-DV")]
            assert alice_dv.result.key is None and alice.result.key is None
        assert differing(honest, runs["alice-mismatched"][1]) == []
        frames = runs["bob-matched-z"][1]
        if differing(honest, frames):
            verify_aborts += 1
            at = next(i for i, (msg, _) in enumerate(honest) if isinstance(msg, VerifyResult))
            assert differing(honest, frames) == list(range(at, len(honest)))
            assert len(frames) == at + 1 and not frames[at][0].ok
    # The decoder corrects Bob's one flipped bit on every seed here.
    assert verify_aborts == 0


def disclosure_naming(disclosure, block, extra):
    """Bob's disclosure with the unclicked rounds ``extra`` named as well,
    in basis X with outcome 1; the clicked rounds keep Bob's basis and
    outcomes."""
    named = np.union1d(block.offsets, extra)
    real = np.isin(named, block.offsets)
    basis = np.ones(len(named), dtype=np.uint8)
    basis[real] = block.beta
    outcomes = np.ones(np.count_nonzero(basis), dtype=np.uint8)
    outcomes[real[basis == 1]] = disclosure.x_outcomes
    forged = dataclasses.replace(disclosure, offsets=named, basis=basis, x_outcomes=outcomes)
    return forged, named, basis


def test_reply_to_a_disclosure_naming_unclicked_rounds():
    replies = []
    for _ in range(2):
        alice, bob = build_machines(SMALL, CLEAN, seed=8)
        honest = bob.outbox.pop(0)
        block = bob.blocks(0)
        unclicked = np.setdiff1d(np.arange(len(block)), block.offsets)
        extra = unclicked[[0, 7, 100, len(unclicked) - 1]]
        forged, named, basis = disclosure_naming(honest, block, extra)
        alice.handle(forged)
        (reply,) = alice.outbox
        replies.append(encode_message(reply))
        omega, alpha = reply.omega, reply.alpha
        assert len(omega) == len(alpha) == len(named)
        assert omega.max() <= 2
        # Alice's bit goes out on exactly the matched X rounds.
        matched_x = (alpha == 1) & (basis == 1)
        _, _, a = block.alice_settings(named)
        assert np.array_equal(reply.value, a[matched_x])
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


def test_demo_session_peak_is_under_65_bytes_per_sifted_bit():
    # A keyed session of the demo config at m x 1 (about 61.5k sifted
    # bits) peaks in belief propagation. Measured at seeds 7-9: 77.2-77.6 B
    # per sifted bit while a decode held the int32 rows, an intp copy of
    # them and two float32 edge buffers; 51.1-51.3 B with the intp rows
    # held once, one edge buffer, and the block parts of the sifted key
    # dropped once it is built. A session runs first so that one-time
    # allocations do not count.
    constants = dataclasses.replace(DEMO_X4, m=100_000)
    expected = expected_observables(constants, DEMO)
    run_protocol(constants, DEMO, seed=6, expected=expected)
    for seed in (7, 8, 9):
        tracemalloc.start()
        try:
            out = run_protocol(constants, DEMO, seed=seed, expected=expected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not out.aborted and out.keys_match
        assert peak < 65 * out.alice.n_sift, (seed, peak, out.alice.n_sift)


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


@pytest.mark.parametrize("constants,channel,seed,reason", [
    (SMALL, CLEAN, 42, None),
    (LOSSY, FIBER, 9, ABORT_LENGTH),
    (SMALL, NOISY, 2000, ABORT_VERIFY),
])
def test_message_tally_is_the_transcript_read_back(constants, channel, seed, reason):
    out = run_protocol(constants, channel, seed)
    assert out.alice.abort_reason == out.bob.abort_reason == reason
    read_back = {cls.__name__: {"frames": 0, "bytes": 0} for cls in MESSAGE_TYPES.values()}
    offset = 0
    while offset < len(out.transcript):
        msg, end = decode_message(out.transcript, offset)
        counts = read_back[type(msg).__name__]
        counts["frames"] += 1
        counts["bytes"] += end - offset
        offset = end
    assert out.messages == read_back
    assert list(out.messages) == list(read_back)


def test_abort_reasons_form_a_closed_set():
    assert ABORT_REASONS == {ABORT_LENGTH, ABORT_VERIFY}
    length = run_protocol(LOSSY, FIBER, seed=9)
    stalled = run_protocol(SMALL, NOISY, seed=2000)
    for out, reason in ((length, ABORT_LENGTH), (stalled, ABORT_VERIFY)):
        assert out.alice.abort_reason == out.bob.abort_reason == reason


def track_public_objects(monkeypatch):
    """Weak references to every code and hash member built from here on."""
    refs = []
    for cls in (LdpcCode, ModifiedToeplitz):

        def init(self, *args, real_init=cls.__init__, **kwargs):
            real_init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)
    return refs


def alive(refs):
    """Codes and hash members among ``refs`` that a collection leaves alive."""
    gc.collect()
    live = [type(ref()) for ref in refs if ref() is not None]
    return live.count(LdpcCode), live.count(ModifiedToeplitz)


def test_public_objects_keep_the_latest_object_of_each_builder(monkeypatch):
    refs = track_public_objects(monkeypatch)
    public = PublicObjects()
    code = public.get(LdpcCode, 300, 60, 5)
    assert public.get(LdpcCode, 300, 60, 5) is code
    assert np.array_equal(code.rows, LdpcCode(300, 60, seed=5).rows)
    assert not code.rows.flags.writeable
    member = public.get(toeplitz_for_seed, b"pa", 9, 3000, 700)
    # Each builder keeps its own latest object.
    assert public.get(LdpcCode, 300, 60, 5) is code
    assert public.get(toeplitz_for_seed, b"pa", 9, 3000, 700) is member
    assert public.get(toeplitz_for_seed, b"verify", 9, 3000, 700) is not member
    for key in ((300, 60, 6), (300, 61, 5), (301, 60, 5)):
        other = public.get(LdpcCode, *key)
        assert (other.n_bits, other.n_rows) == key[:2]
        assert not np.array_equal(other.rows[:, :300], code.rows)
    assert public.get(LdpcCode, 300, 60, 5) is not code
    del code, member, other
    # One code and one member are held: the latest of each builder.
    assert alive(refs) == (1, 1)
    public.drop(LdpcCode)
    assert alive(refs) == (0, 1)


def test_bob_decodes_under_the_code_seed_he_received(monkeypatch):
    alice, bob = build_machines(SMALL, CLEAN, seed=42)
    codes = []
    real_correct = dsbb84.protocol.correct

    def recording(bob_key, alice_syndrome, code, e_bit):
        codes.append(code)
        return real_correct(bob_key, alice_syndrome, code, e_bit)

    monkeypatch.setattr(dsbb84.protocol, "correct", recording)
    seeds = []

    def tamper(msg):
        if isinstance(msg, Syndrome):
            seeds.append(msg.code_seed)
            return Syndrome(msg.bits, msg.code_seed ^ 1)

    pump(alice, bob, tamper)
    (sent,) = seeds
    (code,) = codes
    sec = bob.security
    assert (code.n_bits, code.n_rows) == (sec.n_sift, sec.n_ec)
    assert np.array_equal(code.rows, LdpcCode(sec.n_sift, sec.n_ec, sent ^ 1).rows)
    assert not np.array_equal(code.rows, LdpcCode(sec.n_sift, sec.n_ec, sent).rows)
    assert alice.result.abort_reason == bob.result.abort_reason == ABORT_VERIFY
    assert alice.result.key is None and bob.result.key is None


class DecoderFault(RuntimeError):
    pass


@pytest.mark.parametrize("case", ["keyed", "length abort", "raises", "hand-driven"])
def test_run_protocol_releases_the_code_and_hash_memos(case, monkeypatch):
    # A session's code and hash members live in its own store, so nothing
    # built for it outlives the session.
    refs = track_public_objects(monkeypatch)
    if case == "keyed":
        # Bob drops the code once he has decoded, so neither party's
        # privacy amplification runs while a code is alive.
        at_pa = []
        real_apply = ModifiedToeplitz.apply

        def recording(self, x):
            if self.n_out > SMALL.n_verify:
                at_pa.append(alive(refs)[0])
            return real_apply(self, x)

        monkeypatch.setattr(ModifiedToeplitz, "apply", recording)
        out = run_protocol(SMALL, CLEAN, seed=42)
        assert not out.aborted and out.security.n_fin > SMALL.n_verify
        assert at_pa == [0, 0]
        assert len(refs) == 3
    elif case == "length abort":
        out = run_protocol(LOSSY, FIBER, seed=9)
        assert out.alice.abort_reason == ABORT_LENGTH
        assert refs == []
    elif case == "raises":
        held = []

        def failing(*args):
            held.append(alive(refs))
            raise DecoderFault

        monkeypatch.setattr(dsbb84.protocol, "correct", failing)
        with pytest.raises(DecoderFault) as raised:
            run_protocol(SMALL, CLEAN, seed=42)
        # The fault came while Alice's code and verification hash were
        # held, and the exception's frames hold them still.
        assert held == [(1, 1)]
        assert alive(refs) == (1, 1)
        del raised
    else:
        alice, bob = build_machines(SMALL, CLEAN, seed=42)
        pump(alice, bob)
        assert bob.result.key == alice.result.key
        # The store keeps the privacy-amplification member until the
        # machines go.
        assert alive(refs) == (0, 1)
        del alice, bob
    assert alive(refs) == (0, 0)


def test_honest_session_builds_each_public_object_once(monkeypatch):
    builds, expansions = [], []
    real_init = LdpcCode.__init__
    real_expand = dsbb84.hashing.expand_seed

    def counting_init(self, n_bits, n_rows, seed):
        builds.append((n_bits, n_rows, seed))
        real_init(self, n_bits, n_rows, seed)

    def counting_expand(seed, label, n_bits):
        expansions.append((label, seed))
        return real_expand(seed, label, n_bits)

    monkeypatch.setattr(LdpcCode, "__init__", counting_init)
    monkeypatch.setattr(dsbb84.hashing, "expand_seed", counting_expand)
    out = run_protocol(SMALL, CLEAN, seed=42)
    assert not out.aborted and out.keys_match
    assert len(builds) == 1
    assert sorted(label for label, _ in expansions) == [b"pa", b"verify"]
    assert len(set(expansions)) == 2
