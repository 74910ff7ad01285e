"""The scenarios the suite runs, each read from the one file that states it.

The shipped configs (``configs/<stem>_constants.json`` and
``configs/<stem>_channel.json``) and the benchmark's workload table
(``perfbench/workloads.json``) are the only statement of every session
shape the tests run. This module reads them and never writes either, so a
test that needs a shape imports it from here under one name for the whole
suite.
"""

import dataclasses
import json
import pathlib

from dsbb84.channel import load_channel
from dsbb84.params import load_constants

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
WORKLOADS = json.loads(
    (REPO / "perfbench" / "workloads.json").read_text(encoding="utf-8")
)


def config(stem):
    """(constants, channel) of the shipped config ``stem``."""
    return (load_constants(CONFIGS / f"{stem}_constants.json"),
            load_channel(CONFIGS / f"{stem}_channel.json"))


def workload_law(name):
    """(constants, channel) of a benchmark workload."""
    spec = WORKLOADS[name]
    return load_constants(spec["constants"]), load_channel(spec["channel"])


# The c08 shape: 1e5 rounds over a short, clean link where a session
# reliably keys (clean-short).
SMALL, CLEAN = config("small")
# Five times the misalignment SMALL's code is provisioned for (noisy-short).
NOISY = workload_law("noisy-short")[1]
# The c04 shape: 1e6 rounds over 100 km of fibre, where every session
# aborts at the length judgement after a full block exchange (lossy-long).
LOSSY_LONG, FIBER = config("fiber")
# The same law on two blocks of 5000 rounds.
LOSSY = dataclasses.replace(LOSSY_LONG, n_block=2, m=5000)
# The demo config at m x 1 (5e6 rounds) and at m x 4 (demo-x4).
DEMO, DEMO_CHANNEL = config("demo")
DEMO_X4 = dataclasses.replace(DEMO, m=400_000)
