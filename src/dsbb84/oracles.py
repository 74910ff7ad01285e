"""Monte Carlo check of the concentration envelopes.

Nothing here feeds the bounds themselves. ``kato_tail_mc``, which
``dsbb84 verify-bounds`` runs, stress-tests both tail inequalities against
i.i.d. sampling, where the sum of conditional expectations is known
exactly. The oracles that score the assembled floor and ceiling against a
simulation's hidden per-round truth, and that attack the verification
hash, live with the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import kato_pair, kato_pair_prime
from .channel import StreamKey, generator
from .params import DomainError


@dataclass(frozen=True)
class TailTestResult:
    trials: int
    forward_violations: int
    reverse_violations: int
    eps: float

    @property
    def forward_rate(self) -> float:
        return self.forward_violations / self.trials

    @property
    def reverse_rate(self) -> float:
        return self.reverse_violations / self.trials


def kato_tail_mc(
    n: int, q: float, eps: float, trials: int, seed: int
) -> TailTestResult:
    """Empirical violation rates of both deviation envelopes.

    For i.i.d. Bernoulli(q) rounds the sum of conditional expectations is
    exactly lam = n q, so both envelope events are directly observable:

      forward:  lam >= count + (b + a (2 lam / n - 1)) sqrt(n)
      reverse:  count >= lam + (b' + a' (2 lam / n - 1)) sqrt(n)

    Each must occur with probability at most eps. The envelopes are
    centred at the true expectation, matching how the engine uses
    pre-agreed expected counts.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    lam = n * q
    a, b = kato_pair(n, lam, eps)
    ap, bp = kato_pair_prime(n, lam, eps)
    root = np.sqrt(n)
    centre = 2.0 * lam / n - 1.0
    forward_edge = lam - (b + a * centre) * root
    reverse_edge = lam + (bp + ap * centre) * root
    rng = generator(seed, StreamKey.VERIFY_BOUNDS)
    forward = 0
    reverse = 0
    block = 1_000_000
    remaining = trials
    while remaining > 0:
        k = min(block, remaining)
        counts = rng.binomial(n, q, size=k)
        forward += int(np.sum(counts <= forward_edge))
        reverse += int(np.sum(counts >= reverse_edge))
        remaining -= k
    return TailTestResult(trials, forward, reverse, eps)
