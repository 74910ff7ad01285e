"""Post-processing state machines for both parties.

Both machines read the simulated quantum phase from one block source
(j -> BlockSample), which draws block j when Bob opens it; everything
after that is classical messages over an authenticated channel. Bob opens each
block by disclosing which rounds clicked, his basis on those rounds and his
X-basis outcomes; Alice replies with intensity and basis per clicked round
plus her bit on matched X rounds only. After the last block Alice judges
the final length from the announced counts, and on proceed runs syndrome
disclosure, verification hashing and privacy amplification.

A session that aborts names one of ABORT_REASONS.

Both sides recompute the security accounting from the same pre-agreed
expected observables, so a disagreement on any announced quantity is a
protocol error rather than a silent divergence.
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
from .channel import BlockSample, BlockSource, ChannelModel, generator
from .ecc import LdpcCode, correct, syndrome_length
from .gf2 import BitString
from .hashing import pa_hash, verify_hash
from .params import ProtocolConstants
from .wire import (
    AliceBlockDisclosure,
    BobBlockDisclosure,
    End,
    PaSeed,
    SiftAnnounce,
    Syndrome,
    VerifyHash,
    VerifyResult,
    WireError,
    clicked_offsets,
    encode_message,
    decode_message,
)

ABORT_LENGTH = "insufficient extractable length"
ABORT_VERIFY = "verification mismatch"
# Every reason a session can abort with, on both sides.
ABORT_REASONS = frozenset({ABORT_LENGTH, ABORT_VERIFY})


class ProtocolError(RuntimeError):
    """Out-of-order, malformed or inconsistent message."""


@dataclass
class KeyMaterial:
    """What one party walks away with."""

    role: str
    aborted: bool
    abort_reason: Optional[str]
    key: Optional[BitString]
    n_fin: int
    n_sift: int
    observables: Optional[Observables]
    security: Optional[SecurityResult]
    ec_converged: Optional[bool] = None
    ec_iterations: Optional[int] = None
    ec_error_weight: Optional[int] = None


class _CountAccumulator:
    """Shared tally of sift and error counts while blocks stream in.

    Both parties feed it columns over a block's clicked rounds, in
    ascending round order.
    """

    def __init__(self) -> None:
        self.sift = np.zeros(3, dtype=np.int64)
        self.err = np.zeros(3, dtype=np.int64)
        self.key_parts: list = []

    def add_block(self, omega_idx, alpha, beta, bits) -> None:
        """Count matched-Z rounds per intensity and keep their ``bits``."""
        z = (alpha == 0) & (beta == 0)
        self.sift += np.bincount(omega_idx[z], minlength=3)
        self.key_parts.append(bits[z].astype(np.uint8))

    def add_errors(self, omega_idx, errors) -> None:
        self.err += np.bincount(omega_idx[errors], minlength=3)

    def observables(self) -> Observables:
        """Sift counts per intensity, then the decoy and vacuum error counts."""
        return Observables(*map(int, (*self.sift, *self.err[1:])))

    def sifted_key(self) -> BitString:
        return BitString.from_array(np.concatenate(self.key_parts))


class AliceMachine:
    """Reference side: judges length, owns the seeds, extracts first."""

    def __init__(
        self,
        constants: ProtocolConstants,
        blocks: Callable[[int], BlockSample],
        expected: ExpectedObservables,
        rng: np.random.Generator,
    ):
        self.constants = constants
        self.blocks = blocks
        self.expected = expected
        self._rng = rng
        self._acc = _CountAccumulator()
        self._next_block = 0
        self._state = "blocks"
        self.outbox: list = []
        self.result: Optional[KeyMaterial] = None
        self.security: Optional[SecurityResult] = None
        self._sifted: Optional[BitString] = None
        self._pa_seed: Optional[int] = None
        self._n_fin = 0

    @property
    def done(self) -> bool:
        return self._state == "done"

    def _draw_seed(self) -> int:
        return int(self._rng.integers(0, 2**64, dtype=np.uint64))

    def handle(self, msg) -> None:
        if self._state == "blocks" and isinstance(msg, BobBlockDisclosure):
            self._handle_block(msg)
        elif self._state == "verify" and isinstance(msg, VerifyResult):
            self._handle_verify(msg)
        else:
            raise ProtocolError(
                f"alice in state {self._state} cannot accept {type(msg).__name__}"
            )

    def _handle_block(self, msg: BobBlockDisclosure) -> None:
        if msg.j != self._next_block:
            raise ProtocolError(f"expected block {self._next_block}, got {msg.j}")
        if msg.m != self.constants.m:
            raise ProtocolError("block disclosure has wrong round count")
        try:
            offs = clicked_offsets(msg.offsets, msg.m)
        except WireError as exc:
            raise ProtocolError(f"block disclosure: {exc}") from None
        if len(msg.basis) != len(offs):
            raise ProtocolError("basis must cover exactly the clicked rounds")
        beta_c = msg.basis.to_array()
        # Bob's X outcomes cover his clicked X-basis rounds in order.
        bob_x = beta_c == 1
        if len(msg.x_outcomes) != np.count_nonzero(bob_x):
            raise ProtocolError("x outcome count does not match clicked X rounds")
        omega_c, alpha_c, a_c = self.blocks(msg.j).alice_settings(offs)
        self._acc.add_block(omega_c, alpha_c, beta_c, a_c)

        matched_x = (alpha_c == 1) & bob_x
        self.outbox.append(
            AliceBlockDisclosure.from_columns(msg.j, omega_c, alpha_c, a_c[matched_x])
        )

        bx = msg.x_outcomes.to_array().astype(bool)
        sel = alpha_c[bob_x] == 1
        errors = bx[sel] ^ (a_c[bob_x][sel] == 1)
        self._acc.add_errors(omega_c[bob_x][sel], errors)

        self._next_block += 1
        if self._next_block == self.constants.n_block:
            self._judge_and_commit()

    def _judge_and_commit(self) -> None:
        obs = self._acc.observables()
        self._sifted = self._acc.sifted_key()
        n_ec = syndrome_length(obs.n_sift, self.constants.e_bit_assumed)
        self.security = security_result(self.constants, obs, self.expected, n_ec)
        if self.security.abort:
            self.outbox.append(SiftAnnounce(obs.n_sift, proceed=False))
            self.outbox.append(End())
            self._finish(aborted=True, reason=ABORT_LENGTH)
            return
        self._n_fin = self.security.n_fin
        self.outbox.append(SiftAnnounce(obs.n_sift, proceed=True))
        code_seed = self._draw_seed()
        if n_ec == 0:
            # Zero assumed error rate discloses nothing; verification
            # still guards actual mismatches.
            self.outbox.append(Syndrome(BitString.zeros(0), code_seed))
        else:
            code = LdpcCode(obs.n_sift, n_ec, code_seed)
            self.outbox.append(Syndrome(code.syndrome(self._sifted), code_seed))
        verify_seed = self._draw_seed()
        digest = verify_hash(self._sifted, verify_seed, self.constants.n_verify)
        self.outbox.append(VerifyHash(verify_seed, digest))
        self._state = "verify"

    def _handle_verify(self, msg: VerifyResult) -> None:
        if not msg.ok:
            self.outbox.append(End())
            self._finish(aborted=True, reason=ABORT_VERIFY)
            return
        self._pa_seed = self._draw_seed()
        self.outbox.append(PaSeed(self._pa_seed, self._n_fin))
        self.outbox.append(End())
        key = pa_hash(self._sifted, self._pa_seed, self._n_fin)
        self._finish(aborted=False, reason=None, key=key)

    def _finish(self, aborted: bool, reason, key: Optional[BitString] = None) -> None:
        obs = self._acc.observables()
        self.result = KeyMaterial(
            role="alice",
            aborted=aborted,
            abort_reason=reason,
            key=key,
            n_fin=0 if aborted else self._n_fin,
            n_sift=obs.n_sift,
            observables=obs,
            security=self.security,
        )
        self._state = "done"


class BobMachine:
    """Measuring side: opens blocks, corrects, checks, extracts second."""

    def __init__(
        self,
        constants: ProtocolConstants,
        blocks: Callable[[int], BlockSample],
        expected: ExpectedObservables,
    ):
        self.constants = constants
        self.blocks = blocks
        self.expected = expected
        self._acc = _CountAccumulator()
        self._next_block = 0
        self._state = "blocks"
        self.outbox: list = []
        self.result: Optional[KeyMaterial] = None
        self.security: Optional[SecurityResult] = None
        self._sifted: Optional[BitString] = None
        self._corrected: Optional[BitString] = None
        self._announced_sift = 0
        self._n_ec = 0
        self._ec_converged: Optional[bool] = None
        self._ec_iterations: Optional[int] = None
        self._ec_error_weight: Optional[int] = None
        self._final_key: Optional[BitString] = None
        self._abort_reason: Optional[str] = None
        self._emit_disclosure(0)

    @property
    def done(self) -> bool:
        return self._state == "done"

    def _emit_disclosure(self, j: int) -> None:
        data = self.blocks(j)
        self.outbox.append(
            BobBlockDisclosure(
                j,
                len(data),
                data.offsets,
                BitString.from_array(data.beta),
                BitString.from_array(data.b[data.beta == 1]),
            )
        )

    def handle(self, msg) -> None:
        handlers = {
            "blocks": (AliceBlockDisclosure, self._handle_block_reply),
            "sift": (SiftAnnounce, self._handle_sift),
            "syndrome": (Syndrome, self._handle_syndrome),
            "verify": (VerifyHash, self._handle_verify),
            "pa": (PaSeed, self._handle_pa),
            "end": (End, self._handle_end),
        }
        if self._state not in handlers:
            raise ProtocolError(f"bob is done, cannot accept {type(msg).__name__}")
        expected_type, handler = handlers[self._state]
        if not isinstance(msg, expected_type):
            # After an abort announcement or a failed verification the
            # next frame is End rather than the nominal successor.
            if isinstance(msg, End) and self._state in ("sift", "pa", "syndrome"):
                self._handle_end(msg)
                return
            raise ProtocolError(
                f"bob in state {self._state} cannot accept {type(msg).__name__}"
            )
        handler(msg)

    def _handle_block_reply(self, msg: AliceBlockDisclosure) -> None:
        if msg.j != self._next_block:
            raise ProtocolError(f"expected reply for block {self._next_block}")
        data = self.blocks(msg.j)
        k = len(data.offsets)
        if len(msg.omega) != k or len(msg.alpha) != k:
            raise ProtocolError("reply must cover exactly the clicked rounds")
        omega_c = msg.omega
        alpha_c = msg.alpha.to_array()
        beta_c = data.beta
        matched_x = (alpha_c == 1) & (beta_c == 1)
        if len(msg.value) != np.count_nonzero(matched_x):
            raise ProtocolError("reply must disclose the bits of the matched X rounds")

        b_c = data.b
        self._acc.add_block(omega_c, alpha_c, beta_c, b_c)
        errors = b_c[matched_x] != msg.value.to_array()
        self._acc.add_errors(omega_c[matched_x], errors)

        self._next_block += 1
        if self._next_block < self.constants.n_block:
            self._emit_disclosure(self._next_block)
        else:
            self._state = "sift"

    def _handle_sift(self, msg: SiftAnnounce) -> None:
        obs = self._acc.observables()
        if msg.n_sift != obs.n_sift:
            raise ProtocolError("announced sift count disagrees with own tally")
        self._sifted = self._acc.sifted_key()
        self._announced_sift = obs.n_sift
        self._n_ec = syndrome_length(obs.n_sift, self.constants.e_bit_assumed)
        self.security = security_result(
            self.constants, obs, self.expected, self._n_ec
        )
        if msg.proceed == self.security.abort:
            raise ProtocolError("length judgement disagrees with announcement")
        self._state = "end" if not msg.proceed else "syndrome"

    def _handle_syndrome(self, msg: Syndrome) -> None:
        if len(msg.bits) != self._n_ec:
            raise ProtocolError("syndrome length disagrees with the rule")
        if self._n_ec == 0:
            self._corrected = self._sifted
            self._ec_converged, self._ec_iterations = True, 0
        else:
            code = LdpcCode(self._announced_sift, self._n_ec, msg.code_seed)
            self._corrected, self._ec_converged, self._ec_iterations = correct(
                self._sifted, msg.bits, code, self.constants.e_bit_assumed
            )
            self._ec_error_weight = (self._corrected ^ self._sifted).weight()
        self._state = "verify"

    def _handle_verify(self, msg: VerifyHash) -> None:
        own = verify_hash(self._corrected, msg.seed, self.constants.n_verify)
        ok = own == msg.digest
        self.outbox.append(VerifyResult(ok))
        self._state = "pa" if ok else "end"
        if not ok:
            self._abort_reason = ABORT_VERIFY

    def _handle_pa(self, msg: PaSeed) -> None:
        if msg.n_fin != self.security.n_fin:
            raise ProtocolError("final length disagrees with own computation")
        self._final_key = pa_hash(self._corrected, msg.seed, msg.n_fin)
        self._state = "end"

    def _handle_end(self, msg: End) -> None:
        obs = self._acc.observables()
        key = self._final_key
        reason = self._abort_reason
        if key is None and reason is None:
            reason = ABORT_LENGTH
        self.result = KeyMaterial(
            role="bob",
            aborted=key is None,
            abort_reason=reason if key is None else None,
            key=key,
            n_fin=len(key) if key is not None else 0,
            n_sift=obs.n_sift,
            observables=obs,
            security=self.security,
            ec_converged=self._ec_converged,
            ec_iterations=self._ec_iterations,
            ec_error_weight=self._ec_error_weight,
        )
        self._state = "done"


@dataclass
class ProtocolOutcome:
    alice: KeyMaterial
    bob: KeyMaterial
    # The transport's own buffer, handed over without a copy.
    transcript: bytearray
    security: SecurityResult

    @property
    def aborted(self) -> bool:
        return self.alice.aborted

    @property
    def keys_match(self) -> bool:
        return (
            not self.aborted
            and self.alice.key is not None
            and self.alice.key == self.bob.key
        )


class InProcessTransport:
    """Shuttles encoded frames between two machines, keeping a transcript.

    Every message is serialized and re-decoded in transit, so each run
    exercises the wire format end to end.
    """

    def __init__(self, alice: AliceMachine, bob: BobMachine):
        self.alice = alice
        self.bob = bob
        self.transcript = bytearray()

    def _drain(self, sender, receiver) -> int:
        moved = 0
        while sender.outbox:
            raw = encode_message(sender.outbox.pop(0))
            self.transcript += raw
            msg, _ = decode_message(raw)
            if not receiver.done:
                receiver.handle(msg)
            elif not isinstance(msg, End):
                raise ProtocolError("message to a finished party")
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

    Block j is drawn when Bob opens it, from streams keyed (seed, role, j)
    (see channel.sample_block), and both machines read that one sample.
    Alice's post-processing seeds come from stream key 3.
    """
    if expected is None:
        expected = expected_observables(constants, channel)
    blocks = BlockSource(constants, channel, seed)
    alice = AliceMachine(constants, blocks, expected, generator(seed, 3))
    bob = BobMachine(constants, blocks, expected)
    transport = InProcessTransport(alice, bob)
    transport.run()
    return ProtocolOutcome(
        alice=alice.result,
        bob=bob.result,
        transcript=transport.transcript,
        security=alice.security,
    )
