"""Tests of the benchmark's own code.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import CHECKS, SHRINK_GAP_MAX  # noqa: E402
from tracing import Span, self_times, span_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _generated(tmp_path, workload, seed, name):
    work = tmp_path / name
    work.mkdir()
    paths, calls = generate(workload, seed, ROOT, work)
    return {p.name: p.read_bytes() for p in paths}, calls


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first, _ = _generated(tmp_path, workload, 7, "a")
    again, _ = _generated(tmp_path, workload, 7, "b")
    other, _ = _generated(tmp_path, workload, 8, "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_documents_validate(tmp_path, workload):
    from symptower.cli import validate_spec

    work = tmp_path / "w"
    work.mkdir()
    paths, passes = generate(workload, 3, ROOT, work)
    for path in paths:
        assert validate_spec(path).errors == ()
    assert passes and all(calls for calls in passes)
    for calls in passes:
        for call in calls:
            assert call.check in CHECKS


def test_unknown_workload_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        generate("no-such-workload", 0, ROOT, tmp_path)


def _spans():
    # run 0:  call [0, 10] -> run [1, 9] -> a [2, 5] -> a [3, 4]
    #                                    -> b [6, 8]
    #         setup [10, 12] -> validate [10.5, 11.5]
    return [
        Span("call:x", 0.0, 10.0, None, 0),
        Span("cli.run", 1.0, 9.0, 0, 0),
        Span("moser.moser_flow", 2.0, 5.0, 1, 0),
        Span("moser.moser_flow", 3.0, 4.0, 2, 0),
        Span("moser.validity_radius", 6.0, 8.0, 1, 0),
        Span("setup", 10.0, 12.0, None, 0),
        Span("cli.validate_spec", 10.5, 11.5, 5, 0),
        Span("moser.validity_radius", 0.0, 100.0, None, 1),
    ]


def test_self_time_subtracts_children():
    selfs = self_times(_spans())
    assert selfs[0] == pytest.approx(2.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", 0.0, 10.0, None, 0),
        Span("c", 1.0, 6.0, 0, 0),
        Span("c", 4.0, 8.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_span_metrics_per_run():
    m = span_metrics(_spans(), run=0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    # The nested moser_flow span is not counted twice in the total.
    assert m["moser.moser_flow_s"] == pytest.approx(3.0)
    assert m["moser.moser_flow.self_s"] == pytest.approx(3.0)
    assert m["moser.validity_radius_calls"] == 1
    assert m["moser.validity_radius_s"] == pytest.approx(2.0)
    assert m["cli.validate_spec_s"] == pytest.approx(1.0)
    assert m["linalg.check_weak_isometry_calls"] == 0
    assert span_metrics(_spans(), run=1)["moser.validity_radius_s"] == pytest.approx(100.0)


# -- output checks -----------------------------------------------------------


def _envelope(command, body):
    return {"schema_version": "1", "command": command, "seed": 1, "passed": True, "report": body}


GOOD = {
    "shrink": (
        {"a_norm": 1.0, "levels": 3},
        _envelope("shrink", {
            "uniform_radius_ok": False,
            "fitted_exponent": -1.003,
            "rows": [{"n": n, "r_validity": 0.995 / n} for n in (1, 2, 3)],
        }),
        "shrink: PASS\n",
    ),
    "moser": (
        {"r_start": 0.5, "residual_tol": 1e-5},
        _envelope("moser", {
            "pullback_residual": 3e-11, "fixed_point_error": 0.0, "chart_radius": 0.5,
        }),
        "moser: PASS\n",
    ),
    "check-tower": (
        {"levels": 2},
        _envelope("check-tower", {
            "compatible": True, "failed_composites": [], "levels": [{}, {}],
        }),
        "check-tower: PASS\n",
    ),
    "product-control": (
        {"levels": 2},
        _envelope("product-control", {
            "uniform_radius_ok": True, "assembly": {"ok": True}, "rows": [{}, {}],
        }),
        "product-control: PASS\n",
    ),
    "loop-check": (
        {},
        _envelope("loop-check", {"exact_compatibility": True}),
        "loop-check: PASS\n",
    ),
}

CORRUPTIONS = {
    "shrink": [
        lambda r: r["report"].update(uniform_radius_ok=True),
        lambda r: r["report"].update(fitted_exponent=-0.6),
        lambda r: r["report"]["rows"].pop(),
        lambda r: r["report"]["rows"][1].update(r_validity=0.51),
        lambda r: r["report"]["rows"][2].update(r_validity=(1 - 2 * SHRINK_GAP_MAX) / 3),
        lambda r: r["report"]["rows"][0].update(r_validity=0.0),
    ],
    "moser": [
        lambda r: r["report"].update(pullback_residual=2e-5),
        lambda r: r["report"].update(fixed_point_error=1e-6),
        lambda r: r["report"].update(chart_radius=0.375),
    ],
    "check-tower": [
        lambda r: r["report"].update(compatible=False),
        lambda r: r["report"].update(failed_composites=[[0, 2]]),
        lambda r: r["report"]["levels"].pop(),
    ],
    "product-control": [
        lambda r: r["report"].update(uniform_radius_ok=False),
        lambda r: r["report"]["assembly"].update(ok=False),
    ],
    "loop-check": [
        lambda r: r["report"].update(exact_compatibility=False),
    ],
}
ENVELOPE_CORRUPTIONS = [
    lambda r: r.update(passed=False),
    lambda r: r.update(command="other"),
    lambda r: r.update(report={"error": {"type": "ValueError", "message": "boom"}}),
]


@pytest.mark.parametrize("check", sorted(GOOD))
def test_check_accepts_good_report(check):
    expect, report, stdout = GOOD[check]
    assert CHECKS[check](expect, 0, report, stdout) == []


@pytest.mark.parametrize(
    "check,index",
    [(c, i) for c in sorted(CORRUPTIONS) for i in range(len(CORRUPTIONS[c]))],
)
def test_check_rejects_corrupted_report(check, index):
    expect, report, stdout = GOOD[check]
    bad = copy.deepcopy(report)
    CORRUPTIONS[check][index](bad)
    assert CHECKS[check](expect, 0, bad, stdout)


@pytest.mark.parametrize("check", sorted(GOOD))
def test_check_rejects_bad_envelope(check):
    expect, report, stdout = GOOD[check]
    assert CHECKS[check](expect, 1, report, stdout)
    assert CHECKS[check](expect, 0, None, stdout)
    for corrupt in ENVELOPE_CORRUPTIONS:
        bad = copy.deepcopy(report)
        corrupt(bad)
        assert CHECKS[check](expect, 0, bad, stdout)


def test_validate_check():
    assert CHECKS["validate"]({}, 0, None, "0 errors\n") == []
    assert CHECKS["validate"]({}, 2, None, "tower: bad\n1 errors\n")
    assert CHECKS["validate"]({}, 0, None, "")



def test_loop_flags_a_rerun_that_changes_the_report(tmp_path):
    import json

    from worker import Loop

    runs = []

    def fake_main(argv):
        out = Path(argv[argv.index("--output") + 1])
        out.mkdir(parents=True)
        runs.append(argv)
        body = {"uniform_radius_ok": True, "assembly": {"ok": True}, "rows": [{}] * len(runs)}
        (out / "report.json").write_text(json.dumps(_envelope("product-control", body)))
        print("product-control: PASS")
        return 0

    call = {"name": "pc", "argv": ["product-control", "--output", str(tmp_path / "pc")],
            "check": "product-control", "expect": {"output": str(tmp_path / "pc")}}
    loop = Loop(fake_main)
    elapsed, written = loop.one_pass([call])
    assert elapsed >= 0.0 and written > 0
    assert (loop.attempted, loop.failed, loop.reruns) == (1, 0, 0)
    loop.one_pass([call])
    assert (loop.attempted, loop.failed, loop.reruns) == (2, 1, 1)
    assert "rerun" in loop.problems[0]


def test_tracer_counts_layers_and_restores_the_program():
    import numpy as np

    from symptower import linalg, models, tower
    from tracing import Tracer

    originals = (np.linalg.svd, tower.check_compatible_sequence, tower.Tower.composite)
    tracer = Tracer()
    tracer.begin_run(0)
    tracer.install()
    try:
        _, fs = models.make_product_tower([linalg.darboux_constant_form(1)] * 4)
        assert tower.check_compatible_sequence(fs).ok
    finally:
        tracer.uninstall()
    assert (np.linalg.svd, tower.check_compatible_sequence, tower.Tower.composite) == originals

    m = tracer.run_metrics(0)
    # Depth 3: three bondings plus the composites (0, 2), (0, 3), (1, 3).
    assert m["linalg.check_weak_isometry_calls"] == 6
    assert m["tower.composite_calls"] == 3
    assert m["kernel.svd_calls.check_weak_isometry"] > 0
    assert m["kernel.svd_calls.validity_radius"] == 0
    assert m["models.make_product_tower_s"] > 0.0
    assert m["tower.check_compatible_sequence_s"] >= m["linalg.check_weak_isometry_s"] > 0.0
