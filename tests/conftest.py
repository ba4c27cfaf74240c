"""The bundled moser and shrink runs, made once per session.

Each runs twice into separate directories, so tests can compare the trees;
the acceptance criteria and the golden-report gate share them.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from symptower.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _run_twice(tmp_path_factory, command: str, spec: str) -> SimpleNamespace:
    dirs = [tmp_path_factory.mktemp("%s_%s" % (command, tag)) for tag in "ab"]
    durations = []
    codes = []
    for out in dirs:
        start = time.perf_counter()
        codes.append(main([command, "--config", str(SPECS / spec), "--output", str(out)]))
        durations.append(time.perf_counter() - start)
    return SimpleNamespace(dirs=dirs, codes=codes, durations=durations)


@pytest.fixture(scope="session")
def moser_runs(tmp_path_factory):
    return _run_twice(tmp_path_factory, "moser", "moser.json")


@pytest.fixture(scope="session")
def shrink_runs(tmp_path_factory):
    return _run_twice(tmp_path_factory, "shrink", "shrink.json")
