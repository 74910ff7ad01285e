"""Outside-in layer tracing for the session benchmark.

The tracer wraps the public callables each dsbb84 layer exposes, from the
benchmark's side only: nothing under ``src/`` knows it is being traced.
Every call becomes a span (name, start, end, parent, session id) kept in
memory; self time is a span's duration minus the part its child spans
cover, found with a span stack. Counts are taken from the arguments and
return values at the same boundaries.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`. A target that a later version of the program no
longer has is listed in :attr:`Tracer.absent` and reads as 0 calls; a count
that no longer fits the values it reads is listed in
:attr:`Tracer.observer_errors`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import resource
import sys
import time
import weakref
from collections import Counter

# (module, attribute path, self-time metric). Function targets are replaced
# in every dsbb84 module that imported them by name; method targets on the
# class that defines them.
TARGETS = (
    ("dsbb84.channel", "sample_block", "channel.sample_s"),
    ("dsbb84.wire", "encode_message", "wire.encode_s"),
    ("dsbb84.wire", "decode_message", "wire.decode_s"),
    ("dsbb84.protocol", "AliceMachine.handle", "protocol.alice_s"),
    ("dsbb84.protocol", "BobMachine.handle", "protocol.bob_s"),
    ("dsbb84.bounds", "security_result", "bounds.security_result_s"),
    ("dsbb84.bounds", "expected_observables", "bounds.expected_s"),
    ("dsbb84.ecc", "LdpcCode.__init__", "ecc.code_build_s"),
    ("dsbb84.ecc", "LdpcCode.syndrome", "ecc.syndrome_s"),
    ("dsbb84.ecc", "LdpcCode.decode_syndrome", "ecc.bp_s"),
    ("dsbb84.ecc", "correct", "ecc.bp_s"),
    ("dsbb84.gf2", "Gf2Solver.__init__", "gf2.solver_build_s"),
    ("dsbb84.gf2", "BitString.__init__", "gf2.pack_s"),
    ("dsbb84.hashing", "expand_seed", "hashing.expand_s"),
    ("dsbb84.hashing", "ModifiedToeplitz.apply", "hashing.apply_s"),
    ("dsbb84.hashing", "verify_hash", "hashing.hash_s"),
    ("dsbb84.hashing", "pa_hash", "hashing.hash_s"),
)

SESSION = "session"

# Per-layer metrics with their units. Times are self seconds per traced
# session, except bounds.expected_s (seconds per call; it runs at set-up).
METRIC_UNITS = {
    "channel.sample_s": "s",
    "channel.rounds": "count",
    "channel.clicks": "count",
    "channel.click_ratio": "ratio",
    "channel.sample_bytes": "B",
    "channel.rss_growth_mb": "MB",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.frames": "count",
    "wire.bytes": "B",
    "wire.bytes.bob_block": "B",
    "wire.bytes.alice_block": "B",
    "protocol.alice_s": "s",
    "protocol.bob_s": "s",
    "gf2.pack_s": "s",
    "gf2.solver_build_s": "s",
    "gf2.solver_calls": "count",
    "ecc.code_build_s": "s",
    "ecc.syndrome_s": "s",
    "ecc.bp_s": "s",
    "ecc.bp_iterations": "count",
    "ecc.converged_ratio": "ratio",
    "ecc.syndrome_bits": "bits",
    "ecc.qber_est": "ratio",
    "ecc.efficiency_f": "ratio",
    "ecc.rss_growth_mb": "MB",
    "hashing.apply_s": "s",
    "hashing.expand_s": "s",
    "hashing.hash_s": "s",
    "hashing.pa_bits_in": "bits",
    "hashing.pa_bits_out": "bits",
    "hashing.rss_growth_mb": "MB",
    "bounds.security_result_s": "s",
    "bounds.expected_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
}

RSS_LAYERS = ("channel", "ecc", "hashing")
LAYERS = ("channel", "wire", "protocol", "bounds", "ecc", "gf2", "hashing")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class _Open:
    __slots__ = ("sid", "name", "parent", "start", "rss", "child_s", "child_kb")

    def __init__(self, sid, name, parent, start, rss):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.rss = rss
        self.child_s = 0.0
        self.child_kb = 0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # (id, name, parent id, session, start, end, self seconds, self KB)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []
        self.observer_errors: Counter = Counter()
        self.session_id = None
        self._stack: list = []
        self._ids = itertools.count()
        self._originals: list = []
        self._live_bytes = 0
        self._peak_bytes = 0
        self._observers = {
            "channel.sample_block": self._observe_sample,
            "wire.encode_message": self._observe_frame,
            "ecc.correct": self._observe_correct,
            "hashing.pa_hash": self._observe_pa,
        }

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> _Open:
        parent = self._stack[-1].sid if self._stack else None
        span = _Open(next(self._ids), name, parent, time.perf_counter(), _maxrss_kb())
        self._stack.append(span)
        return span

    def _exit(self, span: _Open) -> None:
        end = time.perf_counter()
        grown = _maxrss_kb() - span.rss
        self._stack.pop()
        duration = end - span.start
        if self._stack:
            self._stack[-1].child_s += duration
            self._stack[-1].child_kb += grown
        self.spans.append((
            span.sid, span.name, span.parent, self.session_id, span.start, end,
            duration - span.child_s, grown - span.child_kb,
        ))

    def run_session(self, session_id, fn, *args):
        """Call ``fn(*args)`` under a root span for one session."""
        self.session_id = session_id
        self._peak_bytes = self._live_bytes
        span = self._enter(SESSION)
        try:
            return fn(*args)
        finally:
            self._exit(span)
            self.counts["channel.sample_bytes"] += self._peak_bytes
            self.session_id = None

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    # A changed argument or return shape loses a count,
                    # never a session.
                    self.observer_errors[name] += 1
            return result

        return traced

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module_name, path, _ in TARGETS:
            name = span_name(module_name, path)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.absent.append(name)
                    continue
                self._replace(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "dsbb84":
                    continue
                if vars(mod).get(attr) is original:
                    self._replace(mod, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- counts at layer boundaries ----------------------------------------

    def _release(self, nbytes: int) -> None:
        self._live_bytes -= nbytes

    def _observe_sample(self, args, sample) -> None:
        self.counts["channel.rounds"] += len(sample.clicked)
        self.counts["channel.clicks"] += int(sample.clicked.sum())
        # Bytes of sample arrays alive at once: each array is counted until
        # the program drops its last reference to it.
        for arr in vars(sample).values():
            nbytes = getattr(arr, "nbytes", None)
            if nbytes is None:
                continue
            self._live_bytes += nbytes
            weakref.finalize(arr, self._release, nbytes)
        self._peak_bytes = max(self._peak_bytes, self._live_bytes)

    def _observe_frame(self, args, raw) -> None:
        kind = type(args[0]).__name__
        self.counts["wire.frames"] += 1
        self.counts["wire.bytes"] += len(raw)
        if kind == "BobBlockDisclosure":
            self.counts["wire.bytes.bob_block"] += len(raw)
        elif kind == "AliceBlockDisclosure":
            self.counts["wire.bytes.alice_block"] += len(raw)

    def _observe_correct(self, args, result) -> None:
        bob_key, alice_syndrome = args[0], args[1]
        corrected, converged, iterations = result
        self.counts["decodes"] += 1
        self.counts["ecc.bp_iterations"] += iterations
        self.counts["ecc.syndrome_bits"] += len(alice_syndrome)
        if converged:
            # A stalled decode's estimate is forced, not estimated, so the
            # error-rate figures use converged decodes only.
            n_sift = len(bob_key)
            weight = (corrected ^ bob_key).weight()
            self.counts["converged"] += 1
            self.counts["converged_err_bits"] += weight
            self.counts["converged_sift_bits"] += n_sift
            self.counts["converged_ec_bits"] += len(alice_syndrome)
            self.counts["shannon_bits"] += n_sift * _entropy(weight / n_sift)

    def _observe_pa(self, args, key) -> None:
        self.counts["hashing.pa_bits_in"] += len(args[0])
        self.counts["hashing.pa_bits_out"] += len(key)

    # -- results ---------------------------------------------------------

    def session_spans(self) -> list:
        return [s for s in self.spans if s[3] is not None]

    def metrics(self, untraced_wall_s: float) -> dict:
        """Per-layer metrics; ``untraced_wall_s`` is the same sessions run
        without the tracer, for the overhead ratio."""
        metric_of = {span_name(m, p): metric for m, p, metric in TARGETS}
        times = Counter()
        rss_kb = Counter()
        calls = Counter()
        wall = unattributed = expected_s = 0.0
        for _, name, _, session, start, end, self_s, self_kb in self.spans:
            calls[name] += 1
            if name == "bounds.expected_observables":
                expected_s += self_s
            elif session is None:
                continue
            elif name == SESSION:
                wall += end - start
                unattributed += self_s
            else:
                times[metric_of[name]] += self_s
                rss_kb[name.split(".")[0]] += self_kb
        n = max(calls[SESSION], 1)
        c = self.counts
        values = {metric: times[metric] / n for metric in metric_of.values()}
        values["bounds.expected_s"] = expected_s / max(calls["bounds.expected_observables"], 1)
        for key in ("channel.rounds", "channel.clicks", "channel.sample_bytes",
                    "wire.frames", "wire.bytes", "wire.bytes.bob_block",
                    "wire.bytes.alice_block"):
            values[key] = c[key] / n
        values["ecc.syndrome_bits"] = c["ecc.syndrome_bits"] / max(c["decodes"], 1)
        for key in ("hashing.pa_bits_in", "hashing.pa_bits_out"):
            values[key] = c[key] / max(calls["hashing.pa_hash"], 1)
        values["gf2.solver_calls"] = calls["gf2.Gf2Solver.__init__"] / n
        values["channel.click_ratio"] = c["channel.clicks"] / max(c["channel.rounds"], 1)
        values["ecc.bp_iterations"] = c["ecc.bp_iterations"] / max(c["decodes"], 1)
        values["ecc.converged_ratio"] = c["converged"] / max(c["decodes"], 1)
        values["ecc.qber_est"] = (
            c["converged_err_bits"] / c["converged_sift_bits"]
            if c["converged_sift_bits"] else 0.0
        )
        values["ecc.efficiency_f"] = (
            c["converged_ec_bits"] / c["shannon_bits"] if c["shannon_bits"] else 0.0
        )
        for layer in RSS_LAYERS:
            values[f"{layer}.rss_growth_mb"] = rss_kb[layer] / 1024.0
        values["bench.unattributed_s"] = unattributed / n
        values["bench.trace_overhead_ratio"] = (
            wall / untraced_wall_s - 1.0 if untraced_wall_s > 0 else 0.0
        )
        return {metric: values[metric] for metric in METRIC_UNITS}

    def layer_shares(self) -> dict:
        """Share of traced session wall time spent in each layer's own code."""
        total = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
        wall = 0.0
        for _, name, _, session, start, end, self_s, _ in self.session_spans():
            if name == SESSION:
                wall += end - start
                total["unattributed"] += self_s
            else:
                total[name.split(".")[0]] += self_s
        return {k: v / wall for k, v in total.items()} if wall else total

    def call_counts(self) -> Counter:
        return Counter(s[1] for s in self.session_spans() if s[1] != SESSION)


def span_name(module_name: str, path: str) -> str:
    return f"{module_name.rpartition('.')[2]}.{path}"
