"""Post-processing state machines for both parties.

Both machines read the simulated quantum phase from one block source
(j -> BlockSample), which draws block j when Bob opens it; everything
after that is classical messages over an authenticated channel. Bob opens each
block by disclosing which rounds clicked, his basis on those rounds and his
X-basis outcomes; Alice replies with intensity and basis per clicked round
plus her bit on matched X rounds only. After the last block Alice judges
the final length from the announced counts, and on proceed runs syndrome
disclosure, verification hashing and privacy amplification.

The two machines share one skeleton, ``_Party``. A party expects one
message type at a time, ``_expect``, and the one ``handle`` passes that
type to its handler in ``HANDLERS`` (message type -> handler); any other
message, or any message once the party is done, is a ``ProtocolError``
that leaves the machine as it was. Both apply one tally rule
(``_CountAccumulator.add_block``), reach their verdict with one
``judge_length``, and end in one ``_finish`` that builds the
``KeyMaterial`` record.

A party finishes on the message that decides its outcome: Alice on
sending an aborting ``SiftAnnounce`` or ``PaSeed``, or on receiving
``VerifyResult``; Bob on receiving an aborting ``SiftAnnounce`` or
``PaSeed``, or on sending a failing ``VerifyResult``. A session that aborts
names one of ABORT_REASONS.

A message's own shape is ``wire``'s job: a malformed message can be
neither built nor decoded. A machine raises ``ProtocolError`` only for what
a message cannot know of itself: the block order, the session's ``m``, the
receiver's own counts and the type it expects next.

Both sides recompute the security accounting from the same pre-agreed
expected observables, so a disagreement on any announced quantity is a
protocol error rather than a silent divergence.

The code and the two hashes are public objects fixed by a seed Alice
announces. Both machines take them from the one ``PublicObjects`` store of
their session, which builds each once: Bob asks with his own counts and
the seeds he decoded from the wire, so a tampered seed gets him the code or
hash of the seed he received. Bob drops the code once he has decoded, so
no privacy amplification runs beside it, and the store dies with the
session's machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import (
    ExpectedObservables,
    Observables,
    SecurityResult,
    expected_observables,
    security_result,
)
from .channel import BlockSample, BlockSource, ChannelModel, StreamKey, generator
from .ecc import LdpcCode, correct, syndrome_length
from .gf2 import BitString
from .hashing import PA_LABEL, VERIFY_LABEL, toeplitz_for_seed
from .params import ProtocolConstants
from .wire import (
    MESSAGE_TYPES,
    AliceBlockDisclosure,
    BobBlockDisclosure,
    PaSeed,
    SiftAnnounce,
    Syndrome,
    VerifyHash,
    VerifyResult,
    encode_message,
    decode_message,
)

ABORT_LENGTH = "insufficient extractable length"
ABORT_VERIFY = "verification mismatch"
# Every reason a session can abort with, on both sides.
ABORT_REASONS = frozenset({ABORT_LENGTH, ABORT_VERIFY})


class ProtocolError(RuntimeError):
    """Out-of-order message, or one inconsistent with the session."""


def judge_length(
    constants: ProtocolConstants, obs: Observables, expected: ExpectedObservables
) -> SecurityResult:
    """The length judgement on a tally: the finite-size accounting with the
    syndrome length the rule discloses for ``obs.n_sift`` sifted bits."""
    n_ec = syndrome_length(obs.n_sift, constants.e_bit_assumed)
    return security_result(constants, obs, expected, n_ec)


@dataclass
class KeyMaterial:
    """What one party walks away with: a key, or None after an abort."""

    role: str
    abort_reason: Optional[str]
    key: Optional[BitString]
    observables: Observables
    security: Optional[SecurityResult]
    ec_converged: Optional[bool] = None
    ec_iterations: Optional[int] = None
    ec_error_weight: Optional[int] = None

    @property
    def aborted(self) -> bool:
        return self.key is None

    @property
    def n_fin(self) -> int:
        return 0 if self.key is None else len(self.key)

    @property
    def n_sift(self) -> int:
        return self.observables.n_sift


class PublicObjects:
    """The public objects of one session: the latest object of each
    builder, which the same arguments get again and others replace."""

    def __init__(self) -> None:
        self._held: dict = {}  # builder -> (arguments, object)

    def get(self, build: Callable, *args):
        held = self._held.get(build)
        if held is None or held[0] != args:
            self._held.pop(build, None)
            held = self._held[build] = (args, build(*args))
        return held[1]

    def drop(self, build: Callable) -> None:
        self._held.pop(build, None)


class _CountAccumulator:
    """The one tally rule both parties apply while blocks stream in.

    Each party feeds it its own columns over a block's clicked rounds, in
    ascending round order, and the other party's bits on the matched-X
    rounds among them.
    """

    def __init__(self) -> None:
        self.sift = np.zeros(3, dtype=np.int64)
        self.err = np.zeros(3, dtype=np.int64)
        self.key_parts: list = []

    def add_block(self, omega_idx, alpha, beta, bits, other_x) -> None:
        """Count matched-Z rounds per intensity and keep their ``bits``;
        count matched-X rounds per intensity where ``bits`` and ``other_x``
        differ. ``alpha`` and ``beta`` hold 0 or 1 in one byte each, so
        they are read as bool without a copy."""
        alpha, beta = alpha.view(bool), beta.view(bool)
        z = (~(alpha | beta)).nonzero()[0]
        x = (alpha & beta).nonzero()[0]
        self.sift += np.bincount(omega_idx.take(z), minlength=3)
        differ = x[bits.take(x) != other_x]
        self.err += np.bincount(omega_idx.take(differ), minlength=3)
        self.key_parts.append(bits.take(z).astype(np.uint8))

    def observables(self) -> Observables:
        """Sift counts per intensity, then the decoy and vacuum error counts."""
        return Observables(*map(int, (*self.sift, *self.err[1:])))

    def sifted_key(self) -> BitString:
        parts, self.key_parts = self.key_parts, []
        return BitString.from_array(np.concatenate(parts))


class _Party:
    """What both machines share: expected-type dispatch, the tally, the
    length judgement and the key record."""

    role: str
    # message type -> handler, in delivery order: a party starts out
    # expecting the first.
    HANDLERS: dict

    def __init__(
        self,
        constants: ProtocolConstants,
        blocks: Callable[[int], BlockSample],
        public: PublicObjects,
        expected: ExpectedObservables,
    ):
        self.constants = constants
        self.blocks = blocks
        self.public = public
        self.expected = expected
        self._acc = _CountAccumulator()
        self._next_block = 0
        # The one message type accepted next; None once the party is done.
        self._expect: Optional[type] = next(iter(self.HANDLERS))
        self.outbox: list = []
        self.result: Optional[KeyMaterial] = None
        self.security: Optional[SecurityResult] = None
        self._sifted: Optional[BitString] = None
        # Decoder telemetry, as KeyMaterial's ec_* fields; Bob's alone.
        self._ec: dict = {}

    @property
    def done(self) -> bool:
        return self._expect is None

    def handle(self, msg) -> None:
        if type(msg) is not self._expect:
            expects = getattr(self._expect, "__name__", "nothing")
            raise ProtocolError(
                f"{self.role} expects {expects}, cannot accept {type(msg).__name__}"
            )
        self.HANDLERS[self._expect](self, msg)

    def _hash(self, label: bytes, seed: int, x: BitString, n_out: int) -> BitString:
        return self.public.get(toeplitz_for_seed, label, seed, len(x), n_out).apply(x)

    def _judge_length(self) -> None:
        """Close the tally: keep the sifted key and judge its final length."""
        self._sifted = self._acc.sifted_key()
        self.security = judge_length(
            self.constants, self._acc.observables(), self.expected
        )

    def _finish(self, reason: Optional[str], key=None) -> None:
        self.result = KeyMaterial(
            self.role, reason, key, self._acc.observables(), self.security, **self._ec
        )
        self._expect = None


class AliceMachine(_Party):
    """Reference side: judges length, owns the seeds, extracts first."""

    role = "alice"
    # Each machine holds the shared dispatch under its own name, so the two
    # parties can be wrapped or timed apart.
    handle = _Party.handle

    def __init__(
        self,
        constants: ProtocolConstants,
        blocks: Callable[[int], BlockSample],
        public: PublicObjects,
        expected: ExpectedObservables,
        rng: np.random.Generator,
    ):
        super().__init__(constants, blocks, public, expected)
        self._rng = rng

    def _draw_seed(self) -> int:
        return int(self._rng.integers(0, 2**64, dtype=np.uint64))

    def _handle_block(self, msg: BobBlockDisclosure) -> None:
        if msg.j != self._next_block:
            raise ProtocolError(f"expected block {self._next_block}, got {msg.j}")
        if msg.m != self.constants.m:
            raise ProtocolError("block disclosure has wrong round count")
        # Bob's X outcomes cover his clicked X-basis rounds in order.
        bob_x = msg.basis.view(bool).nonzero()[0]
        omega_c, alpha_c, a_c = self.blocks(msg.j).alice_settings(msg.offsets)
        alice_x = alpha_c.take(bob_x).view(bool)
        self._acc.add_block(omega_c, alpha_c, msg.basis, a_c, msg.x_outcomes[alice_x])

        matched_x = bob_x[alice_x]
        self.outbox.append(
            AliceBlockDisclosure(msg.j, omega_c, alpha_c, a_c.take(matched_x))
        )
        self._next_block += 1
        if self._next_block == self.constants.n_block:
            self._judge_and_commit()

    def _judge_and_commit(self) -> None:
        self._judge_length()
        sec = self.security
        self.outbox.append(SiftAnnounce(sec.n_sift, proceed=not sec.abort))
        if sec.abort:
            self._finish(ABORT_LENGTH)
            return
        code_seed = self._draw_seed()
        if sec.n_ec == 0:
            # Zero assumed error rate discloses nothing; verification
            # still guards actual mismatches.
            syndrome = BitString.zeros(0)
        else:
            code = self.public.get(LdpcCode, sec.n_sift, sec.n_ec, code_seed)
            syndrome = code.syndrome(self._sifted)
        self.outbox.append(Syndrome(syndrome, code_seed))
        verify_seed = self._draw_seed()
        digest = self._hash(VERIFY_LABEL, verify_seed, self._sifted, self.constants.n_verify)
        self.outbox.append(VerifyHash(verify_seed, digest))
        self._expect = VerifyResult

    def _handle_verify(self, msg: VerifyResult) -> None:
        if not msg.ok:
            self._finish(ABORT_VERIFY)
            return
        pa_seed, n_fin = self._draw_seed(), self.security.n_fin
        self.outbox.append(PaSeed(pa_seed, n_fin))
        self._finish(None, self._hash(PA_LABEL, pa_seed, self._sifted, n_fin))

    HANDLERS = {
        BobBlockDisclosure: _handle_block,
        VerifyResult: _handle_verify,
    }


class BobMachine(_Party):
    """Measuring side: opens blocks, corrects, checks, extracts second."""

    role = "bob"
    handle = _Party.handle

    def __init__(
        self,
        constants: ProtocolConstants,
        blocks: Callable[[int], BlockSample],
        public: PublicObjects,
        expected: ExpectedObservables,
    ):
        super().__init__(constants, blocks, public, expected)
        self._corrected: Optional[BitString] = None
        self._emit_disclosure(0)

    def _emit_disclosure(self, j: int) -> None:
        data = self.blocks(j)
        self.outbox.append(
            BobBlockDisclosure(j, len(data), data.offsets, data.beta, data.b[data.beta.view(bool)])
        )

    def _handle_block_reply(self, msg: AliceBlockDisclosure) -> None:
        if msg.j != self._next_block:
            raise ProtocolError(f"expected reply for block {self._next_block}")
        data = self.blocks(msg.j)
        if len(msg.alpha) != len(data.offsets):
            raise ProtocolError("reply must cover exactly the clicked rounds")
        if len(msg.value) != np.count_nonzero(msg.alpha.view(bool) & data.beta.view(bool)):
            raise ProtocolError("reply must disclose the bits of the matched X rounds")
        self._acc.add_block(msg.omega, msg.alpha, data.beta, data.b, msg.value)

        self._next_block += 1
        if self._next_block < self.constants.n_block:
            self._emit_disclosure(self._next_block)
        else:
            self._expect = SiftAnnounce

    def _handle_sift(self, msg: SiftAnnounce) -> None:
        if msg.n_sift != self._acc.observables().n_sift:
            raise ProtocolError("announced sift count disagrees with own tally")
        self._judge_length()
        if msg.proceed == self.security.abort:
            raise ProtocolError("length judgement disagrees with announcement")
        if msg.proceed:
            self._expect = Syndrome
        else:
            self._finish(ABORT_LENGTH)

    def _handle_syndrome(self, msg: Syndrome) -> None:
        sec = self.security
        if len(msg.bits) != sec.n_ec:
            raise ProtocolError("syndrome length disagrees with the rule")
        if sec.n_ec == 0:
            self._corrected = self._sifted
            self._ec = {"ec_converged": True, "ec_iterations": 0}
        else:
            code = self.public.get(LdpcCode, sec.n_sift, sec.n_ec, msg.code_seed)
            self._corrected, converged, iterations = correct(
                self._sifted, msg.bits, code, self.constants.e_bit_assumed
            )
            # Bob is the code's last user: release it before the PA apply.
            self.public.drop(LdpcCode)
            self._ec = {
                "ec_converged": converged,
                "ec_iterations": iterations,
                "ec_error_weight": (self._corrected ^ self._sifted).weight(),
            }
        self._expect = VerifyHash

    def _handle_verify(self, msg: VerifyHash) -> None:
        own = self._hash(VERIFY_LABEL, msg.seed, self._corrected, self.constants.n_verify)
        ok = own == msg.digest
        self.outbox.append(VerifyResult(ok))
        if ok:
            self._expect = PaSeed
        else:
            self._finish(ABORT_VERIFY)

    def _handle_pa(self, msg: PaSeed) -> None:
        if msg.n_fin != self.security.n_fin:
            raise ProtocolError("final length disagrees with own computation")
        self._finish(None, self._hash(PA_LABEL, msg.seed, self._corrected, msg.n_fin))

    HANDLERS = {
        AliceBlockDisclosure: _handle_block_reply,
        SiftAnnounce: _handle_sift,
        Syndrome: _handle_syndrome,
        VerifyHash: _handle_verify,
        PaSeed: _handle_pa,
    }


@dataclass
class ProtocolOutcome:
    alice: KeyMaterial
    bob: KeyMaterial
    # The transport's own buffer, handed over without a copy.
    transcript: bytearray
    # Frames and bytes, frame headers included, per message type name, as
    # the transport carried them; a type not sent reads 0.
    messages: dict

    @property
    def security(self) -> Optional[SecurityResult]:
        """The session's length judgement, as Alice made it."""
        return self.alice.security

    @property
    def aborted(self) -> bool:
        return self.alice.aborted

    @property
    def keys_match(self) -> bool:
        return self.alice.key is not None and self.alice.key == self.bob.key


class InProcessTransport:
    """Shuttles encoded frames between two machines, keeping a transcript
    and a tally of the frames and bytes of each message type.

    Every message is serialized and re-decoded in transit, so each run
    exercises the wire format end to end.
    """

    def __init__(self, alice: AliceMachine, bob: BobMachine):
        self.alice = alice
        self.bob = bob
        self.transcript = bytearray()
        self.messages = {
            cls.__name__: {"frames": 0, "bytes": 0} for cls in MESSAGE_TYPES.values()
        }

    def _drain(self, sender, receiver) -> int:
        moved = 0
        while sender.outbox:
            raw = encode_message(sender.outbox.pop(0))
            self.transcript += raw
            msg, _ = decode_message(raw)
            counts = self.messages[type(msg).__name__]
            counts["frames"] += 1
            counts["bytes"] += len(raw)
            receiver.handle(msg)
            moved += 1
        return moved

    def run(self) -> None:
        while True:
            moved = self._drain(self.bob, self.alice)
            moved += self._drain(self.alice, self.bob)
            if moved == 0:
                break
        if not (self.alice.done and self.bob.done):
            raise ProtocolError("deadlock: no messages in flight, parties not done")


def run_protocol(
    constants: ProtocolConstants,
    channel: ChannelModel,
    seed: int,
    expected: ExpectedObservables | None = None,
) -> ProtocolOutcome:
    """Simulate one full session: quantum phase plus post-processing.

    Block j is drawn when Bob opens it, from block j's counter range on
    streams keyed once per (seed, role) (see channel.sample_block and
    channel.generator), and both machines read that one sample. Alice's
    post-processing seeds come from the stream
    generator(seed, StreamKey.POST_PROCESSING). Both machines share one
    ``PublicObjects`` store, which goes with them.
    """
    if expected is None:
        expected = expected_observables(constants, channel)
    blocks = BlockSource(constants, channel, seed)
    public = PublicObjects()
    rng = generator(seed, StreamKey.POST_PROCESSING)
    alice = AliceMachine(constants, blocks, public, expected, rng)
    bob = BobMachine(constants, blocks, public, expected)
    transport = InProcessTransport(alice, bob)
    transport.run()
    return ProtocolOutcome(alice.result, bob.result, transport.transcript, transport.messages)
