"""Tests of the session benchmark itself.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src first on sys.path)
import layers  # noqa: E402

import dsbb84  # noqa: E402
import dsbb84.gf2  # noqa: E402
import dsbb84.protocol  # noqa: E402
from dsbb84.wire import WireError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def clean():
    return run.Workload("clean-short", run.load_workloads()["clean-short"])


@pytest.fixture(scope="module")
def tiny():
    spec = json.loads(json.dumps(run.load_workloads()["clean-short"]))
    spec["constants"].update(n_block=2, m=5000)
    return run.Workload("tiny", spec)


def _replaced_objects() -> dict:
    """Every attribute the tracer may replace, keyed by where it lives."""
    found = {}
    for module_name, path, _ in layers.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        module = sys.modules[module_name]
        if owner_name:
            owner = getattr(module, owner_name)
            found[(owner, attr)] = vars(owner)[attr]
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("dsbb84") and attr in vars(mod):
                found[(mod, attr)] = vars(mod)[attr]
    return found


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "clean-short",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[kind]
    }
    # Every metric the benchmark knows is printed with unit and sample count.
    printed = {line.split()[0]: line.split()[2:] for line in lines[:-1]
               if not line.startswith("#")}
    units = layers.METRIC_UNITS if trace else run.END_TO_END_UNITS
    for name, unit in units.items():
        if name == "session_p90_s":
            continue  # needs at least 100 sessions
        assert printed[name][0] == unit
        assert printed[name][1].startswith("n=")


def test_self_times_fit_in_traced_wall_time(clean):
    plain, traced, tracer = run.measure_traced(clean, seed=5, seconds=0.0)
    assert traced.attempted == plain.attempted == 1
    assert plain.digest.digest() == traced.digest.digest()
    by_id = {span[0]: span for span in tracer.spans}
    roots = [s for s in tracer.session_spans() if s[1] == layers.SESSION]
    assert len(roots) == 1
    wall = roots[0][5] - roots[0][4]
    inside = sum(s[6] for s in tracer.session_spans())
    assert 0.0 < inside <= wall * (1 + 1e-9)
    for span in tracer.spans:
        assert span[6] >= 0.0
        if span[2] is not None:
            parent = by_id[span[2]]
            assert parent[4] <= span[4] <= span[5] <= parent[5]
    # The session keyed, so every layer on the path was entered.
    names = {s[1].split(".")[0] for s in tracer.session_spans()}
    assert names >= {"channel", "wire", "protocol", "bounds", "ecc", "gf2", "hashing"}


def test_wrappers_are_restored_after_the_traced_run(tiny):
    before = _replaced_objects()
    with layers.Tracer().installed():
        during = _replaced_objects()
    assert all(during[key] is not before[key] for key in before)
    run.measure_traced(tiny, seed=1, seconds=0.0)
    after = _replaced_objects()
    assert all(after[key] is before[key] for key in before)


def test_missing_target_is_reported_absent(tiny, monkeypatch):
    monkeypatch.delattr(dsbb84.gf2, "Gf2Solver")
    plain, traced, tracer = run.measure_traced(tiny, seed=1, seconds=0.0)
    assert "gf2.Gf2Solver.__init__" in tracer.absent
    assert tracer.metrics(sum(plain.times))["gf2.solver_calls"] == 0
    assert traced.failed == 0


def test_injected_frame_fault_counts_as_error_and_run_continues(tiny, monkeypatch):
    real = dsbb84.protocol.decode_message
    armed = {"now": False}

    def faulty(buf, offset=0):
        if armed["now"]:
            armed["now"] = False
            raise WireError("injected frame fault")
        return real(buf, offset)

    monkeypatch.setattr(dsbb84.protocol, "decode_message", faulty)
    tally = run.Tally()
    for index in range(3):
        armed["now"] = index == 1
        run.run_session(tiny, index, run.session_seed("tiny", 0, index), tally)
    assert tally.attempted == 3
    assert tally.failures == {"WireError": 1}
    values = run.end_to_end(tally, tiny, setup=[0.1])
    assert values["error_rate"] == pytest.approx(1 / 3)


def test_check_outcome_flags_disagreeing_keys(clean):
    outcome = run_protocol_keyed(clean)
    assert run.check_outcome(outcome) is None
    other = outcome.bob.key ^ dsbb84.BitString.from_int(1, len(outcome.bob.key))
    outcome.bob.key = other
    assert run.check_outcome(outcome) == "key mismatch"


def run_protocol_keyed(workload):
    for index in range(10):
        seed = run.session_seed(workload.name, 0, index)
        outcome = dsbb84.run_protocol(
            workload.constants, workload.channel, seed, workload.expected
        )
        if not outcome.aborted:
            return outcome
    raise AssertionError("no session produced a key")
