"""README's lists of config keys, output columns, controllers and
trajectories match the code."""

import pathlib
import re

from slungsim.cli import RUN_FIELDS, SWEEP_COLUMNS
from slungsim.config import KEYS
from slungsim.simloop import CONTROLLERS
from slungsim.trajectory import TRAJECTORIES

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _table(header: str) -> dict:
    """The README table under this header line: first cell -> the
    backticked names of the second cell."""
    lines = README.read_text(encoding="utf-8").splitlines()
    k = lines.index(header) + 2         # past the header and its rule
    table = {}
    while k < len(lines) and lines[k].startswith("|"):
        first, second = lines[k].strip("|").split("|")
        table[first.strip().strip("`")] = re.findall(r"`([^`]+)`", second)
        k += 1
    return table


def test_config_keys_listed():
    keys = {section or "top level": list(names)
            for section, names in KEYS.items()}
    assert _table("| section | keys |") == keys


def test_output_columns_listed():
    assert _table("| file | columns |") == {
        "metrics.csv": [*RUN_FIELDS, "failure_reason"],
        "sweep.csv": list(SWEEP_COLUMNS)}


def test_controller_and_trajectory_names_listed():
    text = README.read_text(encoding="utf-8")
    names = {"controller": list(CONTROLLERS),
             "trajectory": list(TRAJECTORIES)}
    # the example config's comments: "controller = MPC  # PD | SMC | MPC"
    for key, want in names.items():
        comment = re.search(rf"^{key} = \S+ +# (.*)$", text, re.M)
        assert comment.group(1).split(" | ") == want
    # the prose under the keys table, which may wrap
    prose = re.search(r"`controller` is one of ([^;]*?) and `trajectory` "
                      r"one of ([^;]*);", " ".join(text.split()))
    assert [prose.group(k).split(", ") for k in (1, 2)] == list(
        names.values())
