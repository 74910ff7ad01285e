"""Session benchmark for dsbb84.

Runs simulated key-distillation sessions through the public entry
``run_protocol(constants, channel, seed, expected)`` as a closed loop: one
process, one thread, one session at a time, each started when the last one
returned. Session seeds are derived from the workload seed, so the same
``--seed`` gives the same sessions. A run starts no session that would end
after ``--seconds``, but always runs at least one.

    python3 perfbench/run.py --workload clean-short --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
session twice, once under the layer tracer and once without it, and reports
the per-layer metrics; the two runs must give the same digest. ``all`` runs
every workload at both trace levels, each in a fresh process, one at a time.
The last line of a single-workload run is one JSON object; the lines above
it give every metric with its unit and sample count. The exit code is 0 only
when every correctness check held.
"""

from __future__ import annotations

import os

# Before numpy is imported: one thread per process keeps runs comparable.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(SRC))

import numpy as np

import dsbb84
from dsbb84 import expected_observables, load_channel, load_constants, run_protocol

import layers

if not Path(dsbb84.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"dsbb84 imported from {dsbb84.__file__}, not from {SRC}")

ABORT_REASONS = frozenset({"insufficient extractable length", "verification mismatch"})
SETUP_REPEATS = 7
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "session_p50_s": "s",
    "session_p90_s": "s",
    "rounds_per_s": "1/s",
    "sifted_bits_per_s": "1/s",
    "key_bits_per_s": "1/s",
    "key_rate_bits_per_round": "bits",
    "abort_rate": "ratio",
    "error_rate": "ratio",
    "transcript_bytes_per_session": "B",
    "peak_rss_mb": "MB",
}


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


class Workload:
    def __init__(self, name: str, spec: dict):
        self.name = name
        self.constants = load_constants(spec["constants"])
        self.channel = load_channel(spec["channel"])
        self.expected = expected_observables(self.constants, self.channel)


def session_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def check_outcome(outcome) -> str | None:
    """Name of the first broken guarantee of one session, or None."""
    alice, bob = outcome.alice, outcome.bob
    if alice.aborted != bob.aborted:
        return "abort disagreement"
    if alice.n_sift != bob.n_sift:
        return "sift disagreement"
    if alice.aborted:
        if alice.abort_reason != bob.abort_reason:
            return "abort reason disagreement"
        if alice.abort_reason not in ABORT_REASONS:
            return "unknown abort reason"
        if alice.key is not None or bob.key is not None:
            return "key after abort"
        return None
    if alice.key is None or alice.key != bob.key:
        return "key mismatch"
    if not 0 < len(alice.key) == alice.n_fin == outcome.security.n_fin:
        return "key length"
    return None


def _key_bytes(key) -> bytes:
    if key is None:
        return b"-"
    return len(key).to_bytes(8, "little") + key.to_bytes()


class Tally:
    """Outcomes of a run's sessions and the digest over all of them."""

    def __init__(self) -> None:
        self.times: list = []
        self.sifted = 0
        self.key_bits = 0
        self.aborted = 0
        self.transcript_bytes = 0
        self.failures: Counter = Counter()
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, seed: int, seconds: float, outcome=None, error=None) -> None:
        self.times.append(seconds)
        self.digest.update(seed.to_bytes(8, "little"))
        if error is not None:
            self.failures[type(error).__name__] += 1
            self.digest.update(b"error:" + type(error).__name__.encode())
            return
        problem = check_outcome(outcome)
        if problem is not None:
            self.failures[problem] += 1
        transcript = outcome.transcript
        self.digest.update(len(transcript).to_bytes(8, "little") + transcript)
        self.digest.update(_key_bytes(outcome.alice.key) + _key_bytes(outcome.bob.key))
        self.transcript_bytes += len(transcript)
        self.sifted += outcome.alice.n_sift
        if outcome.aborted:
            self.aborted += 1
        else:
            self.key_bits += outcome.alice.n_fin


def run_session(workload: Workload, index: int, seed: int, tally: Tally,
                tracer: layers.Tracer | None = None) -> None:
    args = (workload.constants, workload.channel, seed, workload.expected)
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = run_protocol(*args)
        else:
            outcome = tracer.run_session(index, run_protocol, *args)
    except Exception as exc:  # a failed session is counted; the run goes on
        seconds = time.perf_counter() - start
        if type(exc).__name__ not in tally.failures:
            traceback.print_exc(file=sys.stderr)
        tally.record(seed, seconds, error=exc)
        return
    tally.record(seed, time.perf_counter() - start, outcome)


def _out_of_time(start: float, last: float, seconds: float) -> bool:
    """True when another step as long as the last would overrun ``seconds``;
    the first step always runs, so one long session is still measured."""
    return time.perf_counter() - start + last > seconds


def measure(workload: Workload, seed: int, seconds: float) -> tuple:
    """Untraced closed loop for at most ``seconds`` (at least one session),
    and the set-up times of ``SETUP_REPEATS`` fresh processes.

    The host's speed drifts within a run, so the set-up probes are spread
    over it, one per ``seconds / SETUP_REPEATS`` of session time, rather
    than taken in one burst; the time they take is not counted.
    """
    tally, setup = Tally(), []
    start = time.perf_counter()
    index = 0
    while True:
        due = min(SETUP_REPEATS, int(sum(tally.times) * SETUP_REPEATS / seconds) + 1)
        while len(setup) < due:
            probe_start = time.perf_counter()
            setup.append(setup_probe(workload.name))
            start += time.perf_counter() - probe_start
        run_session(workload, index, session_seed(workload.name, seed, index), tally)
        index += 1
        if _out_of_time(start, tally.times[-1], seconds):
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(workload.name))
    return tally, setup


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Each session seed runs once traced and once untraced, alternating
    which goes first; the first is traced so the layer memory growth of a
    fresh process is seen."""
    plain, traced, tracer = Tally(), Tally(), layers.Tracer()
    with tracer.installed():
        # Through the package attribute, which the tracer replaces.
        dsbb84.expected_observables(workload.constants, workload.channel)
    start = time.perf_counter()
    index = 0
    while True:
        session = session_seed(workload.name, seed, index)
        pair_start = time.perf_counter()
        for use_tracer in ((True, False) if index % 2 == 0 else (False, True)):
            if use_tracer:
                with tracer.installed():
                    run_session(workload, index, session, traced, tracer)
            else:
                run_session(workload, index, session, plain)
        index += 1
        if _out_of_time(start, time.perf_counter() - pair_start, seconds):
            return plain, traced, tracer


def setup_probe(workload: str) -> float:
    """Set-up time in a fresh process: import, config load, expected counts."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def end_to_end(tally: Tally, workload: Workload, setup: list) -> dict:
    busy = sum(tally.times)
    n = tally.attempted
    rounds = workload.constants.n_total * n
    values = {
        "setup_s": statistics.median(setup),
        "session_p50_s": statistics.median(tally.times),
        "rounds_per_s": rounds / busy,
        "sifted_bits_per_s": tally.sifted / busy,
        "key_bits_per_s": tally.key_bits / busy,
        "key_rate_bits_per_round": tally.key_bits / rounds,
        "abort_rate": tally.aborted / n,
        "error_rate": tally.failed / n,
        "transcript_bytes_per_session": tally.transcript_bytes / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if n >= TAIL_SAMPLES * 10:
        values["session_p90_s"] = statistics.quantiles(tally.times, n=10)[-1]
    return values


def environment() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} loadavg={load}")


def write_spans(tracer: layers.Tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    keys = ("id", "name", "parent", "session", "start", "end", "self_s", "self_rss_kb")
    with path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def emit(values: dict, units: dict, samples: int, counts: dict | None = None) -> None:
    """One line per metric; ``counts`` overrides the sample count by name."""
    counts = counts or {}
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]} n={counts.get(name, samples)}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = load_workloads()
    reported = benchmark_metrics("per_layer" if trace else "end_to_end")
    print(f"# {environment()}")
    workload = Workload(name, workloads[name])
    if not trace:
        tally, setup = measure(workload, seed, seconds)
        values = end_to_end(tally, workload, setup)
        print(f"# workload={name} seed={seed} trace=0 sessions={tally.attempted} "
              f"digest={tally.digest.hexdigest()}")
        emit(values, END_TO_END_UNITS, tally.attempted, {"setup_s": len(setup)})
        failures, attempted, same = tally.failures, tally.attempted, True
    else:
        plain, traced, tracer = measure_traced(workload, seed, seconds)
        values = tracer.metrics(sum(plain.times))
        same = plain.digest.digest() == traced.digest.digest()
        print(f"# workload={name} seed={seed} trace=1 sessions={traced.attempted} "
              f"digest={traced.digest.hexdigest()} untraced={plain.digest.hexdigest()}")
        if tracer.absent:
            print("# absent: " + " ".join(tracer.absent))
        if tracer.observer_errors:
            print("# counts lost: " + " ".join(
                f"{k}={v}" for k, v in sorted(tracer.observer_errors.items())))
        shares = tracer.layer_shares()
        print("# self-time share: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
        print("# calls: " + " ".join(f"{k}={v}" for k, v in sorted(tracer.call_counts().items())))
        print(f"# spans: {write_spans(tracer, name, seed)}")
        emit(values, layers.METRIC_UNITS, traced.attempted)
        failures = plain.failures + traced.failures
        attempted = plain.attempted + traced.attempted
        if not same:
            print("# FAIL: traced and untraced digests differ", file=sys.stderr)
    for reason, count in sorted(failures.items()):
        print(f"# failed: {reason} x{count}", file=sys.stderr)
    correct = same and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in reported},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def benchmark_metrics(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for name in load_workloads():
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            print(f"## {name} trace={trace} exit={done.returncode}")
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
    print("all workloads correct" if status == 0 else "a correctness check failed")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(load_workloads()) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
