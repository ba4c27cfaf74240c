"""Golden-report gate: the bundled run specs still write the committed reports.

``tests/golden/<command>/`` holds ``report.{json,csv,txt}`` of each bundled
run spec, and ``tests/golden/shrink-16/`` those of a depth-16 shrink run,
with its run config and experiment beside them.  A report matches when its
text, with every number taken out, is identical, its integers are
identical, and its floats agree within GOLDEN_REL_TOL, relative or
absolute.  README gives the commands that regenerate the files; a change
that moves a report says why in CHANGES.md.
"""

import math
import re
from pathlib import Path

import pytest

from symptower.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SPECS = TESTS.parent / "specs"
REPORTS = ("report.json", "report.csv", "report.txt")
# Another numpy or BLAS build may move floats in their last bits.  The
# reports' residuals are near the unit scale or below it, and some are zero
# or roundoff-sized, so the same value also serves as the absolute floor.
GOLDEN_REL_TOL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
TOWER_SPECS = {
    "check-tower": "check_tower.json",
    "loop-check": "loop_check.json",
    "product-control": "product_control.json",
}


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def _mismatches(golden: str, fresh: str) -> list:
    """Where ``fresh`` departs from ``golden``; empty when they match."""
    if NUMBER.split(golden) != NUMBER.split(fresh):
        return ["text outside the numbers differs"]
    problems = []
    for want, got in zip(NUMBER.findall(golden), NUMBER.findall(fresh)):
        if _is_float(want) and _is_float(got):
            same = math.isclose(
                float(want), float(got), rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_REL_TOL
            )
        else:
            same = want == got
        if not same:
            problems.append("%s != %s" % (got, want))
    return problems


def _assert_matches_golden(command: str, out: Path) -> None:
    for name in REPORTS:
        golden = (GOLDEN / command / name).read_text()
        problems = _mismatches(golden, (out / name).read_text())
        assert not problems, "%s/%s: %s" % (command, name, problems)


@pytest.mark.parametrize("command", sorted(TOWER_SPECS))
def test_tower_reports_match_golden(command, tmp_path):
    # Two runs, byte-identical, as the moser and shrink runs of criterion 8.
    outs = [tmp_path / tag for tag in "ab"]
    for out in outs:
        main([command, "--config", str(SPECS / TOWER_SPECS[command]), "--output", str(out)])
    for name in REPORTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    _assert_matches_golden(command, outs[0])


def test_moser_reports_match_golden(moser_runs):
    _assert_matches_golden("moser", moser_runs.dirs[0])


def test_shrink_reports_match_golden(shrink_runs):
    _assert_matches_golden("shrink", shrink_runs.dirs[0])


def test_depth_16_shrink_reports_match_golden(tmp_path):
    # Deeper than the bundled depth-10 spec: from level 9 on the certificate
    # skips bisections that could not lower a level's radius.
    config = GOLDEN / "shrink-16" / "run.json"
    assert main(["shrink", "--config", str(config), "--output", str(tmp_path)]) == 0
    _assert_matches_golden("shrink-16", tmp_path)


@pytest.mark.parametrize(
    "golden, fresh, same",
    [
        ('{"a": 1.0, "b": [2, "x"]}', '{"a": 1.0000000000001, "b": [2, "x"]}', True),
        ('{"a": 1.0}', '{"a": 1.00000000001}', False),
        ('{"a": 1.0}', '{"a": 1}', False),
        ('{"a": 2}', '{"a": 3}', False),
        ('{"a": true}', '{"a": false}', False),
        ('{"a": 1.0}', '{"b": 1.0}', False),
        ("n,r\n1,0.5\n", "n,r\n1,0.5\n2,0.25\n", False),
        ("x: 0.0", "x: 1e-17", True),
        ("x: 2.2e-16", "x: 4.4e-16", True),
        ("x: 0.0", "x: 1e-11", False),
        ("r: 1e-05 (tol 0.5)", "r: 1.0000000000000001e-05 (tol 0.5)", True),
    ],
)
def test_comparator(golden, fresh, same):
    assert (not _mismatches(golden, fresh)) == same
