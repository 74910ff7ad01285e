import hashlib
import json
import math
import shlex
from types import SimpleNamespace

import numpy as np
import pytest

import dsbb84.cli
import dsbb84.protocol
from dsbb84.channel import StreamKey, generator
from dsbb84.cli import main
from dsbb84.hashing import ModifiedToeplitz
from dsbb84.wire import WireError
from scenarios import CONFIGS, REPO, SMALL


@pytest.fixture
def config_files():
    """The shipped config files by name, such as ``small_constants``."""
    return {path.stem: str(path) for path in CONFIGS.glob("*.json")}


def shipped(name):
    """The mapping the shipped config file ``name`` holds, to edit."""
    return json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


def test_keyrate_success(config_files, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "keyrate",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--json", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "n_fin=622" in out
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "keyrate"
    assert report["constants"]["mu"]["S"] == 0.8
    assert report["channel"]["eta_ch"] == 1.0
    assert report["result"]["n_fin"] == 622
    assert report["result"]["abort"] is False


def test_keyrate_abort_exit_code(config_files, capsys):
    code = main([
        "keyrate",
        "--constants", config_files["fiber_constants"],
        "--channel", config_files["fiber_channel"],
    ])
    assert code == 1
    assert "abort" in capsys.readouterr().out


def test_simulate_writes_matching_hex_keys(config_files, tmp_path, capsys):
    keys_path = tmp_path / "keys.txt"
    report_path = tmp_path / "sim.json"
    argv = [
        "simulate",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--seed", "42",
        "--keys-out", str(keys_path),
        "--json", str(report_path),
    ]
    assert main(argv) == 0
    lines = keys_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == lines[1]
    assert lines[0] == lines[0].lower()
    int(lines[0], 16)
    report = json.loads(report_path.read_text())
    assert report["seed"] == 42
    assert report["keys_match"] is True
    assert report["aborted"] is False
    n_fin = report["result"]["n_fin"]
    assert len(lines[0]) == 2 * ((n_fin + 7) // 8)

    rerun = tmp_path / "keys2.txt"
    argv[argv.index(str(keys_path))] = str(rerun)
    assert main(argv) == 0
    assert rerun.read_text() == keys_path.read_text()


def test_simulate_abort_exit_code(config_files, capsys):
    code = main([
        "simulate",
        "--constants", config_files["fiber_constants"],
        "--channel", config_files["fiber_channel"],
        "--seed", "1",
    ])
    assert code == 1
    assert "abort" in capsys.readouterr().out


def test_wire_error_during_simulate_is_internal(config_files, monkeypatch, capsys):
    def broken(raw, offset=0):
        raise WireError("truncated frame")

    monkeypatch.setattr(dsbb84.protocol, "decode_message", broken)
    code = main([
        "simulate",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--seed", "1",
    ])
    assert code == 3
    assert "WireError" in capsys.readouterr().err


def test_uncaught_error_during_simulate_is_internal(
    config_files, monkeypatch, capsys
):
    def inexact(self, x):
        raise FloatingPointError("FFT convolution is not exact enough")

    monkeypatch.setattr(ModifiedToeplitz, "apply", inexact)
    code = main([
        "simulate",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--seed", "1",
    ])
    assert code == 3
    assert "internal error: FloatingPointError" in capsys.readouterr().err


def readme_examples():
    """Each ``$ dsbb84 ...`` example in README.md with its printed lines."""
    examples = []
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ dsbb84 "):
            i += 1
            continue
        command = lines[i][len("$ dsbb84 "):]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i].strip()
        i += 1
        output = []
        while not lines[i].startswith("```"):
            output.append(lines[i])
            i += 1
        examples.append((shlex.split(command), output))
    return examples


def test_readme_examples_print_what_they_show(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == [
        "keyrate", "simulate", "scan", "verify-bounds",
    ]
    for argv, output in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == output, argv


def readme_library_blocks():
    """The Python blocks under README.md's "Library" heading, in order."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("\n```", 1)[0] for block in section.split("```python\n")[1:]]


def test_readme_library_examples_run(monkeypatch, capsys):
    # The blocks share one namespace, as a reader running them in turn
    # would: the second reuses the first's constants and channel. The first
    # prints the session of the simulate example above it; the second
    # prints what its closing comment shows.
    monkeypatch.chdir(REPO)
    blocks = readme_library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    session, engine = capsys.readouterr().out.splitlines()
    assert session == "661 key bits, 15657 transcript bytes"
    shown = blocks[1].rstrip().rsplit("# ", 1)[1].rstrip(".")
    assert shown.startswith("622 False")
    assert engine.startswith(shown)


# SHA-256 over the --json reports of the shipped small and fiber configs,
# in the order below, taken while the constants' tables were plain dicts and
# re-taken at wire version 8, which moved only the two simulate reports'
# per-message-type and transcript byte counts.
PINNED_REPORTS = "55887d890ecf38fbb4a100b143319d3ec4b5ff3c512f4140d2be156fe06cedfb"


def test_reports_are_pinned(config_files, tmp_path, capsys):
    runs = [
        ("keyrate", "small", [], 0),
        ("keyrate", "fiber", [], 1),
        ("simulate", "small", ["--seed", "7"], 0),
        ("simulate", "fiber", ["--seed", "7"], 1),
        ("scan", "small", ["--param", "p_S", "--values", "0.4,0.3"], 0),
        ("scan", "small", ["--param", "mu_V", "--values", "0.0,0.01"], 0),
    ]
    digest = hashlib.sha256()
    for command, config, extra, code in runs:
        path = tmp_path / "report.json"
        assert main([
            command, *extra, "--json", str(path),
            "--constants", config_files[f"{config}_constants"],
            "--channel", config_files[f"{config}_channel"],
        ]) == code
        digest.update(path.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == PINNED_REPORTS


def test_scan_reports_each_value(config_files, tmp_path, capsys):
    report_path = tmp_path / "scan.json"
    code = main([
        "scan",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--param", "mu_S",
        "--values", "0.5,0.8",
        "--json", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mu_S=0.5" in out and "mu_S=0.8" in out
    report = json.loads(report_path.read_text())
    assert [row["value"] for row in report["rows"]] == [0.5, 0.8]
    assert report["rows"][1]["result"]["n_fin"] == 622


def test_scan_sending_probability_rescales_the_other_two(
    config_files, tmp_path, capsys
):
    report_path = tmp_path / "scan.json"
    code = main([
        "scan",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--param", "p_S",
        "--values", "0.4,0.3",
        "--json", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["p_S=0.4", "p_S=0.3"]
    rows = json.loads(report_path.read_text())["rows"]
    assert [row["value"] for row in rows] == [0.4, 0.3]
    # The configured value reproduces keyrate; D and V keep their 5:1 ratio.
    assert rows[0]["result"]["n_fin"] == 622
    assert rows[0]["result"] != rows[1]["result"]
    small = shipped("small_constants")
    assert small["p_intensity"] == {"S": 0.4, "D": 0.5, "V": 0.1}
    swept = dsbb84.cli._swept_constants(small, "p_S", 0.3)["p_intensity"]
    assert swept["S"] == 0.3
    assert swept["D"] == pytest.approx(0.7 * 5 / 6, rel=1e-15)
    assert swept["V"] == pytest.approx(0.7 / 6, rel=1e-15)


@pytest.mark.parametrize("values", ["0.4,1.0", "0.4,0", "0.4,-0.2", "0.4,1.5"])
def test_scan_sending_probability_outside_unit_interval_prints_no_row(
    config_files, capsys, values
):
    code = main([
        "scan",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--param", "p_D",
        "--values", values,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p_D must lie in (0, 1)" in captured.err


def test_scan_unknown_parameter_is_config_error(config_files, capsys):
    code = main([
        "scan",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--param", "bogus",
        "--values", "1.0",
    ])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_scan_unparsable_value_is_config_error(config_files, capsys):
    code = main([
        "scan",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--param", "mu_S",
        "--values", "0.5,abc",
    ])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_scan_integer_fields(config_files, tmp_path, capsys):
    """Integer constants sweep as integers, and n_total follows m."""
    for param, values in (("m", [20000, 40000]), ("n_verify", [16, 32])):
        report_path = tmp_path / f"scan_{param}.json"
        code = main([
            "scan",
            "--constants", config_files["small_constants"],
            "--channel", config_files["small_channel"],
            "--param", param,
            "--values", ",".join(map(str, values)),
            "--json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        rows = json.loads(report_path.read_text())["rows"]
        assert [row["value"] for row in rows] == values
        for value, row in zip(values, rows):
            assert type(row["value"]) is int and type(row["result"]["n_fin"]) is int
            assert f"{param}={value}: n_fin={row['result']['n_fin']}" in out
    assert rows[0]["result"]["n_fin"] == 622


def test_scan_non_integer_value_of_integer_field_is_config_error(
    config_files, capsys
):
    code = main([
        "scan",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--param", "m",
        "--values", "20000,20000.5",
    ])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_zero_verification_length_is_config_error(config_files, tmp_path, capsys):
    """n_verify = 0 would make eps_correct 1 and let both sides accept
    different keys, so a config file or a sweep that sets it exits 2."""
    path = tmp_path / "no_verify.json"
    path.write_text(json.dumps(dict(shipped("small_constants"), n_verify=0)))
    channel = ["--channel", config_files["small_channel"]]
    for argv in (
        ["keyrate", "--constants", str(path)],
        ["simulate", "--constants", str(path), "--seed", "1"],
        ["scan", "--constants", config_files["small_constants"],
         "--param", "n_verify", "--values", "0,16"],
    ):
        assert main(argv + channel) == 2
        captured = capsys.readouterr()
        assert "configuration error: n_verify must be at least 1" in captured.err
        assert "n_fin" not in captured.out


def test_keyrate_computes_expected_observables_once(
    config_files, monkeypatch, capsys
):
    calls = []
    original = dsbb84.cli.expected_observables

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dsbb84.cli, "expected_observables", counted)
    code = main([
        "keyrate",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
    ])
    assert code == 0
    assert len(calls) == 1


def test_verify_bounds_passes(capsys):
    code = main([
        "verify-bounds",
        "--n", "10000",
        "--q", "0.25",
        "--eps", "0.01",
        "--trials", "20000",
        "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "forward" in out and "reverse" in out


@pytest.mark.parametrize(
    "flag, value",
    [("--q", "0"), ("--q", "1"), ("--q", "1.5"), ("--q", "-0.1"),
     ("--trials", "0"), ("--trials", "-5")],
)
def test_verify_bounds_argument_outside_its_domain_is_config_error(
    flag, value, capsys
):
    code = main(["verify-bounds", "--n", "100", "--trials", "10", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "forward" not in captured.out


def test_missing_file_is_config_error(config_files, capsys):
    code = main([
        "keyrate",
        "--constants", "/nonexistent/c.json",
        "--channel", config_files["small_channel"],
    ])
    assert code == 2


def test_malformed_json_is_config_error(tmp_path, config_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main([
        "keyrate",
        "--constants", str(bad),
        "--channel", config_files["small_channel"],
    ])
    assert code == 2


def test_invalid_constants_is_config_error(tmp_path, config_files, capsys):
    small, small_channel = shipped("small_constants"), shipped("small_channel")
    wrong = dict(small, mu={"S": 0.1, "D": 0.3, "V": 0.0})
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong))
    code = main([
        "keyrate",
        "--constants", str(path),
        "--channel", config_files["small_channel"],
    ])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    # A real-valued field that is not a number is a configuration error
    # too, in the constants and in the channel.
    for constants, channel in (
        (dict(small, p_basis_alice="0.5"), small_channel),
        (dict(small, p_intensity={"S": "0.4", "D": 0.5, "V": 0.1}), small_channel),
        (dict(small, eps_secrecy=None), small_channel),
        (dict(small, mu={"S": "abc", "D": 0.3, "V": 0.0}), small_channel),
        (small, dict(small_channel, e_mis="0.01")),
    ):
        paths = []
        for name, obj in (("c", constants), ("ch", channel)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(obj))
        code = main(["keyrate", "--constants", str(paths[0]),
                     "--channel", str(paths[1])])
        assert code == 2
        assert "must be a real number" in capsys.readouterr().err

@pytest.mark.parametrize(
    "field, value",
    [("n_verify", 16.0), ("m", 20000.5), ("n_block", True), ("n_verify", "16")],
)
def test_non_integer_field_in_config_file_is_config_error(
    tmp_path, config_files, capsys, field, value
):
    wrong = dict(shipped("small_constants"), **{field: value})
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong))
    for command in ("keyrate", "simulate"):
        argv = [
            command,
            "--constants", str(path),
            "--channel", config_files["small_channel"],
        ]
        if command == "simulate":
            argv += ["--seed", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {field} must be an integer" in err


def test_simulate_report_carries_decoder_telemetry(config_files, tmp_path, capsys):
    keyed, aborted = tmp_path / "keyed.json", tmp_path / "aborted.json"
    assert main([
        "simulate",
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
        "--seed", "42",
        "--json", str(keyed),
    ]) == 0
    report = json.loads(keyed.read_text())
    assert report["schema_version"] == 1
    assert report["ec_converged"] is True
    assert type(report["ec_iterations"]) is int and report["ec_iterations"] > 0
    assert f"ec_iterations={report['ec_iterations']}" in capsys.readouterr().out
    # A length abort never reaches error correction.
    assert main([
        "simulate",
        "--constants", config_files["fiber_constants"],
        "--channel", config_files["fiber_channel"],
        "--seed", "1",
        "--json", str(aborted),
    ]) == 1
    report = json.loads(aborted.read_text())
    assert report["ec_converged"] is None and report["ec_iterations"] is None


def simulate_report(config, seed, tmp_path):
    """The exit code and report of ``simulate`` on the shipped ``config``."""
    report_path = tmp_path / "report.json"
    code = main([
        "simulate",
        "--constants", str(CONFIGS / f"{config}_constants.json"),
        "--channel", str(CONFIGS / f"{config}_channel.json"),
        "--seed", str(seed), "--json", str(report_path),
    ])
    return code, json.loads(report_path.read_text())


def test_simulate_report_carries_reconciliation_estimates(tmp_path):
    code, report = simulate_report("small", 42, tmp_path)
    assert code == 0 and report["schema_version"] == 1
    n_sift, n_ec = report["result"]["n_sift"], report["result"]["n_ec"]
    qber = report["qber_est"]
    assert 0.0 < qber < 0.01
    assert (qber * n_sift) == pytest.approx(round(qber * n_sift))
    h = -qber * math.log2(qber) - (1 - qber) * math.log2(1 - qber)
    assert report["ec_efficiency"] == pytest.approx(n_ec / (n_sift * h), rel=1e-12)
    # No error correction: both null.
    code, report = simulate_report("fiber", 1, tmp_path)
    assert code == 1
    assert report["qber_est"] is None and report["ec_efficiency"] is None
    # A decode that finds no errors: an estimate of 0 and no efficiency.
    clean = SimpleNamespace(
        bob=SimpleNamespace(ec_error_weight=0, n_sift=9000),
        security=SimpleNamespace(n_ec=843),
    )
    assert dsbb84.cli._reconciliation_report(clean) == {
        "qber_est": 0.0, "ec_efficiency": None,
    }


def test_simulate_report_counts_frames_and_bytes_per_message_type(tmp_path):
    code, report = simulate_report("small", 42, tmp_path)
    assert code == 0
    messages = report["messages"]
    assert {name: counts["frames"] for name, counts in messages.items()} == {
        "BobBlockDisclosure": 5, "AliceBlockDisclosure": 5, "SiftAnnounce": 1,
        "Syndrome": 1, "VerifyHash": 1, "VerifyResult": 1, "PaSeed": 1,
    }
    assert sum(counts["bytes"] for counts in messages.values()) == report["transcript_bytes"]
    # A frame is its byte count (a varint), one header byte, then the
    # payload: one varint per field, a bit string's being its bit count,
    # then the bit strings packed. Alice draws the code, verify and PA
    # seeds in that order from the session's post-processing stream.
    def varint(value):
        return max(1, -(-value.bit_length() // 7))

    def frame(payload):
        return varint(payload + 1) + 1 + payload

    rng = generator(42, StreamKey.POST_PROCESSING)
    code_seed, verify_seed, pa_seed = (
        int(rng.integers(0, 2**64, dtype=np.uint64)) for _ in range(3)
    )
    result = report["result"]
    n_ec, n_verify = result["n_ec"], SMALL.n_verify
    assert [messages[name]["bytes"] for name in (
        "SiftAnnounce", "VerifyResult", "PaSeed", "VerifyHash", "Syndrome"
    )] == [
        frame(varint(result["n_sift"]) + 1),
        frame(1),
        frame(varint(pa_seed) + varint(result["n_fin"])),
        frame(varint(verify_seed) + varint(n_verify) + (n_verify + 7) // 8),
        frame(varint(n_ec) + varint(code_seed) + (n_ec + 7) // 8),
    ]
    # A length abort sends the block exchange and the sift announcement.
    code, report = simulate_report("fiber", 1, tmp_path)
    assert code == 1
    messages = report["messages"]
    assert {name: counts["frames"] for name, counts in messages.items()} == {
        "BobBlockDisclosure": 10, "AliceBlockDisclosure": 10, "SiftAnnounce": 1,
        "Syndrome": 0, "VerifyHash": 0, "VerifyResult": 0, "PaSeed": 0,
    }
    assert sum(counts["bytes"] for counts in messages.values()) == report["transcript_bytes"]
    assert all(counts["bytes"] == 0 for counts in messages.values() if not counts["frames"])


def test_simulate_refuses_an_abort_reason_outside_the_closed_set(
    config_files, monkeypatch, capsys
):
    real = dsbb84.cli.run_protocol

    def odd_reason(*args):
        outcome = real(*args)
        outcome.alice.abort_reason = "gave up"
        return outcome

    monkeypatch.setattr(dsbb84.cli, "run_protocol", odd_reason)
    code = main([
        "simulate",
        "--constants", config_files["fiber_constants"],
        "--channel", config_files["fiber_channel"],
        "--seed", "1",
    ])
    assert code == 3
    assert "unknown abort reason" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["e_mis", "p_dark", "eta_det"])
def test_channel_file_missing_a_key_is_config_error(tmp_path, config_files, capsys, key):
    channel = shipped("small_channel")
    del channel[key]
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel))
    code = main([
        "keyrate",
        "--constants", config_files["small_constants"],
        "--channel", str(path),
    ])
    assert code == 2
    assert f"missing channel keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["constants", "channel"])
@pytest.mark.parametrize(
    "content, message",
    [(b"[0.5, 0.1, 0.0]", "must hold a JSON object"),
     (b"\xff\xfe{}", "is not UTF-8 text")],
    ids=["json-array", "not-utf8"],
)
def test_unreadable_config_file_is_config_error(
    tmp_path, config_files, capsys, which, content, message
):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    files = {
        "constants": config_files["small_constants"],
        "channel": config_files["small_channel"],
        which: str(path),
    }
    code = main([
        "keyrate", "--constants", files["constants"], "--channel", files["channel"],
    ])
    assert code == 2
    assert f"configuration error: {which} file {message}" in capsys.readouterr().err


# The key paths of each command's --json report; a list element is "[]".
# Keys may be added to a report, never dropped or renamed.
CONSTANTS_KEYS = {
    "constants", "constants.e_bit_assumed", "constants.eps_secrecy",
    "constants.m", "constants.mu", "constants.mu.D", "constants.mu.S",
    "constants.mu.V", "constants.n_block", "constants.n_total",
    "constants.n_verify", "constants.p_basis_alice", "constants.p_basis_bob",
    "constants.p_intensity", "constants.p_intensity.D",
    "constants.p_intensity.S", "constants.p_intensity.V",
}
CHANNEL_KEYS = {
    "channel", "channel.e_mis", "channel.eta_ch", "channel.eta_det",
    "channel.p_dark",
}
RESULT_KEYS = {
    "abort", "budget", "eps_correct", "eps_secrecy", "eps_total",
    "intermediates", "n1z_floor", "n1z_real", "n_ec", "n_fin", "n_pa",
    "n_sift", "n_verify", "nph_ceil", "nph_real",
} | {
    f"intermediates.{name}"
    for name in (
        "n1z_dev", "n1z_inner", "n1z_pref", "n1z_term_d", "n1z_term_s",
        "n1z_term_v", "n1z_value", "n_pa_value", "nph_dev", "nph_inner",
        "nph_pref", "nph_term_dx", "nph_term_vx", "nph_value",
    )
}
REPORT_KEYS = {
    "keyrate": {"schema_version", "command", "result"}
    | CONSTANTS_KEYS | CHANNEL_KEYS | {f"result.{k}" for k in RESULT_KEYS},
    "simulate": {
        "schema_version", "command", "seed", "result", "aborted",
        "abort_reason", "keys_match", "transcript_bytes", "ec_converged",
        "ec_iterations", "qber_est", "ec_efficiency", "messages",
    } | CONSTANTS_KEYS | CHANNEL_KEYS | {f"result.{k}" for k in RESULT_KEYS}
    | {
        f"messages.{name}{field}"
        for name in (
            "AliceBlockDisclosure", "BobBlockDisclosure", "PaSeed",
            "SiftAnnounce", "Syndrome", "VerifyHash", "VerifyResult",
        )
        for field in ("", ".bytes", ".frames")
    },
    "scan": {"schema_version", "command", "param", "rows", "rows[].value",
             "rows[].result"}
    | CONSTANTS_KEYS | CHANNEL_KEYS | {f"rows[].result.{k}" for k in RESULT_KEYS},
    "verify-bounds": {
        "schema_version", "command", "seed", "params", "params.eps",
        "params.n", "params.q", "params.trials", "result", "result.eps",
        "result.forward_violations", "result.reverse_violations",
        "result.trials", "forward_rate", "reverse_rate",
    },
}


def key_paths(obj, prefix=""):
    if isinstance(obj, dict):
        out = set()
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            out |= {path} | key_paths(value, path)
        return out
    if isinstance(obj, list):
        return set().union(*(key_paths(value, prefix + "[]") for value in obj))
    return set()


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_key_paths_are_pinned(config_files, tmp_path, command):
    config = [
        "--constants", config_files["small_constants"],
        "--channel", config_files["small_channel"],
    ]
    extra = {
        "keyrate": config,
        "simulate": config + ["--seed", "7"],
        "scan": config + ["--param", "mu_S", "--values", "0.6,0.8"],
        "verify-bounds": ["--n", "1000", "--trials", "2000"],
    }[command]
    path = tmp_path / "report.json"
    assert main([command, *extra, "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["schema_version"] == 1
    assert key_paths(report) == REPORT_KEYS[command]


@pytest.mark.parametrize(
    "command, config, extra, code",
    [
        ("keyrate", "small", [], 0),
        ("keyrate", "fiber", [], 1),
        ("simulate", "small", ["--seed", "7"], 0),
        ("simulate", "fiber", ["--seed", "7"], 1),
        ("scan", "small", ["--param", "mu_S", "--values", "0.6,0.8"], 0),
        ("verify-bounds", None, ["--n", "1000", "--trials", "2000"], 0),
    ],
    ids=["keyrate", "keyrate-abort", "simulate", "simulate-abort", "scan",
         "verify-bounds"],
)
def test_json_to_stdout_leaves_stdout_to_the_report(
    config_files, capsys, command, config, extra, code
):
    # With --json - the report is all of stdout, so that it parses as one
    # JSON document; the lines for a reader go to stderr instead.
    if config is not None:
        extra = extra + [
            "--constants", config_files[f"{config}_constants"],
            "--channel", config_files[f"{config}_channel"],
        ]
    assert main([command, *extra, "--json", "-"]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == command
    assert captured.err.strip()
