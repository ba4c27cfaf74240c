"""What importing the package costs: lazy exports, a validate without numpy,
and runs without numpy.random."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symptower

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter in which importing numpy fails.  After each
# step it records which of numpy and the numerical modules are loaded.
_VALIDATE_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
LIBRARY = ("numpy", "symptower.linalg", "symptower.tower", "symptower.moser", "symptower.models")
specs, non_skew_run, bad_run = sys.argv[1:]

def loaded():
    return [name for name in LIBRARY if sys.modules.get(name) is not None]

steps = {}
from symptower import cli
steps["import"] = loaded()
errors = {spec: list(cli.validate_spec(spec).errors) for spec in sorted(specs.split(","))}
steps["bundled specs"] = loaded()
non_skew = list(cli.validate_spec(non_skew_run).errors)
steps["non-skew input"] = loaded()
codes = [cli.main(["validate", "--config", doc]) for doc in (specs.split(",")[0], bad_run)]
steps["main"] = loaded()
print(json.dumps({"steps": steps, "errors": errors, "non_skew": non_skew, "codes": codes}))
"""


# Run in a fresh interpreter in which importing numpy.random fails: each
# bundled run spec through main, with its exit code.
_RUN_WITHOUT_NUMPY_RANDOM = """
import json, sys
sys.modules["numpy.random"] = None
from symptower import cli
out, *runs = sys.argv[1:]
codes = {}
for run in runs:
    command, spec = run.split("=", 1)
    codes[command] = cli.main([command, "--config", spec, "--output", out + "/" + command])
print(json.dumps(codes))
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_validate_imports_no_numpy(tmp_path):
    specs = sorted(str(p) for p in (ROOT / "specs").glob("*.json"))
    (tmp_path / "tower.json").write_text(json.dumps({
        "tower": {
            "kind": "explicit",
            "levels": [{"dim": 2}],
            "bondings": [],
            "forms": [[[0.0, 1.0], [1.0, 0.0]]],
        }
    }))
    non_skew_run = tmp_path / "non_skew_run.json"
    non_skew_run.write_text(json.dumps({"command": "check-tower", "input": "tower.json"}))
    bad_run = tmp_path / "missing_input_run.json"
    bad_run.write_text(json.dumps({"command": "shrink", "input": "absent.json"}))

    proc = _run(_VALIDATE_WITHOUT_NUMPY, ",".join(specs), str(non_skew_run), str(bad_run))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["steps"] == {
        "import": [], "bundled specs": [], "non-skew input": [], "main": [],
    }
    assert result["errors"] == {spec: [] for spec in specs}
    assert len(result["non_skew"]) == 1
    assert "tower.forms[0]: matrix is not skew (symmetry defect" in result["non_skew"][0]
    assert result["codes"] == [0, 2]


def test_run_commands_never_load_numpy_random(tmp_path):
    # Older numpy, such as the 1.24 floor, imports numpy.random with numpy.
    probe = _run("import sys, numpy; print('numpy.random' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    if probe.stdout.strip() == "True":
        pytest.skip("importing this numpy loads numpy.random")
    runs = {}
    for spec in sorted((ROOT / "specs").glob("*.json")):
        command = json.loads(spec.read_text()).get("command")
        if command is not None:
            runs[command] = "%s=%s" % (command, spec)
    assert sorted(runs) == ["check-tower", "loop-check", "moser", "product-control", "shrink"]

    proc = _run(_RUN_WITHOUT_NUMPY_RANDOM, str(tmp_path), *runs.values())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {command: 0 for command in runs}


def test_exports_are_their_modules_objects():
    assert symptower.__all__
    for name in symptower.__all__:
        value = getattr(symptower, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__.startswith("symptower."), name


def test_dir_lists_every_export():
    assert set(symptower.__all__) <= set(dir(symptower))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symptower.no_such_name  # noqa: B018
    assert not hasattr(symptower, "no_such_name")


def test_submodules_import_from_the_package_in_a_fresh_interpreter():
    proc = _run(
        "import sys\n"
        "from symptower import moser, models\n"
        "import symptower\n"
        "assert moser is sys.modules['symptower.moser'], moser\n"
        "assert models is sys.modules['symptower.models'], models\n"
        "assert symptower.validity_radius is moser.validity_radius\n"
        "assert symptower.SKEW_TOL is sys.modules['symptower.linalg'].SKEW_TOL\n"
    )
    assert proc.returncode == 0, proc.stderr
