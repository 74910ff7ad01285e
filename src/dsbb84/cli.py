"""Command-line interface.

Four subcommands:

* ``keyrate``: analytic finite-size length for a configuration, using
  expected counts projected to integers. No sampling involved.
* ``simulate``: one full simulated session including post-processing;
  optionally writes both final keys as lowercase hex, one per line.
* ``scan``: repeat the analytic keyrate over a swept parameter.
* ``verify-bounds``: Monte Carlo attack on the two tail envelopes.

Exit codes: 0 on success, 1 when the protocol aborts or a checked bound
is exceeded, 2 when the configuration or arguments cannot be read or are
invalid, 3 for any other error raised inside a command (an internal fault,
such as a protocol or wire error during a simulated session).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from .bounds import Observables, expected_observables
from .channel import load_channel
from .oracles import kato_tail_mc
from .params import ConfigurationError, DomainError, entropy_h, load_constants
from .protocol import ABORT_REASONS, ProtocolError, judge_length, run_protocol

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _human(args):
    """Where the human-readable lines go: stderr when the JSON report
    takes stdout, so that stdout holds the report alone."""
    return sys.stderr if getattr(args, "json", None) == "-" else sys.stdout


def _write_report(path: str, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_skeleton(command: str, args, constants=None, channel=None) -> dict:
    report = {"schema_version": SCHEMA_VERSION, "command": command}
    if getattr(args, "seed", None) is not None:
        report["seed"] = args.seed
    if constants is not None:
        report["constants"] = constants.as_dict()
        report["channel"] = channel.as_dict()
    return report


def _load_config(args) -> tuple:
    return load_constants(args.constants), load_channel(args.channel)


def _rounded_observables(exp) -> Observables:
    names = (f.name for f in dataclasses.fields(Observables))
    return Observables(*(round(getattr(exp, name)) for name in names))


def _analytic_result(constants, channel):
    exp = expected_observables(constants, channel)
    return judge_length(constants, _rounded_observables(exp), exp)


def cmd_keyrate(args) -> int:
    constants, channel = _load_config(args)
    result = _analytic_result(constants, channel)
    report = _report_skeleton("keyrate", args, constants, channel)
    report["result"] = result.as_dict()
    if args.json:
        _write_report(args.json, report)
    print(
        f"n_sift={result.n_sift} n1z_floor={result.n1z_floor} "
        f"nph_ceil={result.nph_ceil} n_pa={result.n_pa} n_ec={result.n_ec} "
        f"n_fin={result.n_fin} eps_total={result.eps_total:.3e}",
        file=_human(args),
    )
    if result.abort:
        print("abort: no extractable key at this configuration", file=_human(args))
        return EXIT_ABORT
    return EXIT_OK


def _reconciliation_report(outcome) -> dict:
    """Estimated QBER, weight(e_hat) / n_sift, and the reconciliation
    efficiency n_ec / (n_sift h(QBER)); null without error correction, and
    the efficiency also when the estimate is 0."""
    weight = outcome.bob.ec_error_weight
    n_sift = outcome.bob.n_sift
    if weight is None or n_sift == 0:
        return {"qber_est": None, "ec_efficiency": None}
    qber = weight / n_sift
    shannon = n_sift * entropy_h(qber)
    return {
        "qber_est": qber,
        "ec_efficiency": outcome.security.n_ec / shannon if shannon > 0 else None,
    }


def cmd_simulate(args) -> int:
    constants, channel = _load_config(args)
    outcome = run_protocol(constants, channel, args.seed)
    if outcome.aborted and outcome.alice.abort_reason not in ABORT_REASONS:
        raise ProtocolError(f"unknown abort reason {outcome.alice.abort_reason!r}")
    report = _report_skeleton("simulate", args, constants, channel)
    report["result"] = outcome.security.as_dict()
    report["aborted"] = outcome.aborted
    report["abort_reason"] = outcome.alice.abort_reason
    report["keys_match"] = outcome.keys_match
    report["transcript_bytes"] = len(outcome.transcript)
    report["messages"] = outcome.messages
    report["ec_converged"] = outcome.bob.ec_converged
    report["ec_iterations"] = outcome.bob.ec_iterations
    report.update(_reconciliation_report(outcome))
    if args.json:
        _write_report(args.json, report)
    if outcome.aborted:
        print(f"abort: {outcome.alice.abort_reason}", file=_human(args))
        return EXIT_ABORT
    if not outcome.keys_match:
        print("internal error: both sides accepted but keys differ", file=_human(args))
        return EXIT_INTERNAL
    if args.keys_out:
        with open(args.keys_out, "w", encoding="utf-8") as fh:
            for key in (outcome.alice.key, outcome.bob.key):
                fh.write(key.to_bytes().hex() + "\n")
    print(
        f"n_sift={outcome.alice.n_sift} n_fin={outcome.alice.n_fin} "
        f"ec_iterations={outcome.bob.ec_iterations} "
        f"transcript={len(outcome.transcript)} bytes",
        file=_human(args),
    )
    return EXIT_OK


def _swept_constants(base: dict, param: str, value) -> dict:
    """The constants ``base`` with ``param`` set to ``value``.

    A sending probability ``p_S``, ``p_D`` or ``p_V`` must lie in (0, 1);
    the other two are rescaled in their configured ratio to sum to
    ``1 - value``.
    """
    override = dict(base)
    if param in ("mu_S", "mu_D", "mu_V"):
        override["mu"] = dict(override["mu"])
        override["mu"][param[-1]] = value
    elif param in ("p_S", "p_D", "p_V"):
        if not 0.0 < value < 1.0:
            raise ConfigurationError(f"{param} must lie in (0, 1), got {value}")
        label = param[-1]
        probs = override["p_intensity"]
        scale = (1.0 - value) / sum(p for w, p in probs.items() if w != label)
        override["p_intensity"] = {
            w: value if w == label else p * scale for w, p in probs.items()
        }
    elif param in base:
        override[param] = value
    else:
        raise ConfigurationError(f"unknown scan parameter {param}")
    return override


def cmd_scan(args) -> int:
    constants, channel = _load_config(args)
    base = constants.as_dict()
    # n_total is derived: a swept n_block or m must not be checked against it.
    del base["n_total"]
    parse = int if args.param in ("n_block", "m", "n_verify") else float
    try:
        values = [parse(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"bad --values: {exc}") from None
    # Every value is checked before the first row is printed.
    sweep = [load_constants(_swept_constants(base, args.param, v)) for v in values]
    rows = []
    any_key = False
    for value, swept in zip(values, sweep):
        result = _analytic_result(swept, channel)
        rows.append({"value": value, "result": result.as_dict()})
        any_key = any_key or not result.abort
        shown = value if parse is int else f"{value:g}"
        print(
            f"{args.param}={shown}: n_fin={result.n_fin}"
            + (" (abort)" if result.abort else ""),
            file=_human(args),
        )
    report = _report_skeleton("scan", args, constants, channel)
    report["param"] = args.param
    report["rows"] = rows
    if args.json:
        _write_report(args.json, report)
    return EXIT_OK if any_key else EXIT_ABORT


def cmd_verify_bounds(args) -> int:
    result = kato_tail_mc(args.n, args.q, args.eps, args.trials, args.seed)
    report = _report_skeleton("verify-bounds", args)
    report["params"] = {
        "n": args.n,
        "q": args.q,
        "eps": args.eps,
        "trials": args.trials,
    }
    report["result"] = dataclasses.asdict(result)
    report["forward_rate"] = result.forward_rate
    report["reverse_rate"] = result.reverse_rate
    if args.json:
        _write_report(args.json, report)
    ok = result.forward_rate <= args.eps and result.reverse_rate <= args.eps
    print(
        f"forward {result.forward_violations}/{result.trials} "
        f"({result.forward_rate:.3e}), reverse {result.reverse_violations}/"
        f"{result.trials} ({result.reverse_rate:.3e}), budget {args.eps:.3e}",
        file=_human(args),
    )
    return EXIT_OK if ok else EXIT_ABORT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsbb84",
        description="Decoy-state BB84 finite-size key engine and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--constants", required=True, help="constants JSON file")
    common.add_argument("--channel", required=True, help="channel JSON file")
    common.add_argument("--json", help="write a JSON report here ('-' for stdout)")

    p = sub.add_parser("keyrate", parents=[common], help="analytic key length")
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("simulate", parents=[common], help="one simulated session")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--keys-out", help="write both final keys as hex lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", parents=[common], help="sweep one parameter")
    p.add_argument("--param", required=True, help="e.g. mu_S, p_D, eps_secrecy")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-bounds", help="Monte Carlo tail check")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--q", type=float, default=0.3)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", help="write a JSON report here ('-' for stdout)")
    p.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # Any other fault inside a command, such as a protocol or wire error
        # or the hashing exactness guard, is ours, not the caller's: report
        # it with its traceback.
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
