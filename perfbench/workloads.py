"""Seeded inputs for the benchmark workloads.

A workload is a list of passes, and a pass a list of ``Call``s: one
``symptower`` command line each.  ``generate(workload, seed, root, work)``
writes the JSON documents and run configs the calls read into ``work`` and
returns the passes.  The same seed always gives byte-identical documents;
only the standard library is used, so the generator does not depend on the
numpy version under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("shrink-counterexample", "moser-chart", "tower-product")

# shrink-counterexample: d=4 factors at depth 2 (about 1 s a call on 2
# cores).  The time of one call varies with the direction of ``a`` and the
# run seed by about 40% (quartile distance over median), so every pass runs
# a different input and a 55 s run reports the median over some 50 of them.
SHRINK_D = 4
SHRINK_DEPTH = 2
SHRINK_COND_CAP = 1e6
SHRINK_INPUTS = 60

# moser-chart: the fixed chart problem; only the field seed varies.
MOSER_L = 2
MOSER_EPSILON = 0.05
MOSER_R_START = 0.5
MOSER_DT = 1e-3
MOSER_RESIDUAL_TOL = 1e-5

# tower-product: 32 factors (31 bondings, 496 weak-isometry checks) of
# dimensions 2, 4, 6, 8 repeated (top dimension 160).  Even-numbered factors
# carry a seeded skew matrix and SPD gram, odd ones the canonical form, so
# every level has a gram and the work is the same for every seed; the seed
# moves only the numbers.
TOWER_FACTOR_DIMS = (2, 4, 6, 8) * 8
CONTROL_FACTOR_DIM = 2
CONTROL_LEVELS = 28

# Bundled specs run on every tower-product pass, as shipped in specs/.
BUNDLED_RUNS = (
    ("check-tower", "check_tower.json"),
    ("product-control", "product_control.json"),
    ("loop-check", "loop_check.json"),
)
BUNDLED_DOCUMENTS = (
    "check_tower.json",
    "experiment_counterexample.json",
    "experiment_product.json",
    "field_quadratic.json",
    "loop_check.json",
    "moser.json",
    "product_control.json",
    "shrink.json",
    "tower_loop.json",
    "tower_product.json",
)

FORMATS = ["csv", "json", "text"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output is checked against.

    ``check`` names a function in ``checks.CHECKS``; ``expect`` carries the
    generated parameters the check needs.
    """

    name: str
    argv: tuple
    check: str
    expect: dict


def _write(work: Path, name: str, doc) -> Path:
    path = work / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _run_call(name: str, command: str, config: Path, work: Path, check: str, expect: dict) -> Call:
    out = work / "out" / name
    argv = (command, "--config", str(config), "--output", str(out))
    return Call(name, argv, check, dict(expect, output=str(out)))


def _unit_vector(rng: random.Random, dim: int) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def shrink_documents(seed: int) -> dict:
    rng = random.Random(seed)
    docs = {}
    for i in range(SHRINK_INPUTS):
        docs["shrink_experiment_%02d.json" % i] = {
            "experiment": {"kind": "counterexample", "d": SHRINK_D, "a": _unit_vector(rng, SHRINK_D)},
            "n_max": SHRINK_DEPTH,
            "expect_uniform": False,
        }
        docs["shrink_run_%02d.json" % i] = {
            "command": "shrink",
            "input": "shrink_experiment_%02d.json" % i,
            "tolerances": {"cond_cap": SHRINK_COND_CAP},
            "seed": rng.randrange(1_000_000),
            "formats": FORMATS,
        }
    return docs


def moser_documents(seed: int) -> dict:
    rng = random.Random(seed)
    field = {
        "field": {
            "kind": "quadratic",
            "l": MOSER_L,
            "epsilon": MOSER_EPSILON,
            "seed": rng.randrange(1_000_000),
            "radius": 1.0,
        },
        "base_point": [0.0] * (2 * MOSER_L),
        "r_start": MOSER_R_START,
        "residual_tol": MOSER_RESIDUAL_TOL,
    }
    run = {
        "command": "moser",
        "input": "moser_field.json",
        "tolerances": {"dt": MOSER_DT},
        "seed": rng.randrange(1_000_000),
        "formats": FORMATS,
    }
    return {"moser_field.json": field, "moser_run.json": run}


def _explicit_factor(rng: random.Random, dim: int) -> dict:
    """Canonical block plus a seeded skew perturbation, with an SPD gram."""
    half = dim // 2
    matrix = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if j == i + half:
                value = round(1.0 + 0.25 * abs(rng.gauss(0.0, 1.0)), 6)
            else:
                value = round(0.25 * rng.gauss(0.0, 1.0), 6)
            matrix[i][j] = value
            matrix[j][i] = -value
    b = [[round(rng.gauss(0.0, 1.0), 6) for _ in range(dim)] for _ in range(dim)]
    gram = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = sum(b[i][k] * b[j][k] for k in range(dim)) / dim
            if i == j:
                value += 1.0
            gram[i][j] = gram[j][i] = round(value, 9)
    return {"matrix": matrix, "gram": gram}


def tower_documents(seed: int) -> dict:
    rng = random.Random(seed)
    factors = [
        _explicit_factor(rng, dim) if k % 2 == 0 else {"l": dim // 2}
        for k, dim in enumerate(TOWER_FACTOR_DIMS)
    ]
    tower = {"tower": {"kind": "product", "factors": factors}}
    experiment = {
        "experiment": {
            "kind": "product",
            "factor_dim": CONTROL_FACTOR_DIM,
            "radius": round(rng.uniform(0.5, 2.0), 6),
        },
        "n_max": CONTROL_LEVELS,
    }
    check_run = {
        "command": "check-tower",
        "input": "product_tower.json",
        "seed": rng.randrange(1_000_000),
        "formats": FORMATS,
    }
    control_run = {
        "command": "product-control",
        "input": "product_experiment.json",
        "seed": rng.randrange(1_000_000),
        "formats": FORMATS,
    }
    return {
        "product_tower.json": tower,
        "product_experiment.json": experiment,
        "check_tower_run.json": check_run,
        "product_control_run.json": control_run,
    }


DOCUMENTS = {
    "shrink-counterexample": shrink_documents,
    "moser-chart": moser_documents,
    "tower-product": tower_documents,
}


def generate(workload: str, seed: int, root: Path, work: Path):
    """Write the workload's documents into ``work``.

    Returns ``(documents, passes)``: the paths of every generated document
    (the set-up validates each) and the calls of each pass.  Passes repeat
    cyclically for as long as a run lasts.
    """
    if workload not in DOCUMENTS:
        raise ValueError("unknown workload %r; expected one of %s" % (workload, ", ".join(WORKLOADS)))
    docs = DOCUMENTS[workload](seed)
    paths = [_write(work, name, doc) for name, doc in docs.items()]
    if workload == "shrink-counterexample":
        return paths, [
            [
                _run_call(
                    "shrink-%02d" % i, "shrink", work / ("shrink_run_%02d.json" % i), work,
                    "shrink", {"a_norm": 1.0, "levels": SHRINK_DEPTH},
                )
            ]
            for i in range(SHRINK_INPUTS)
        ]
    if workload == "moser-chart":
        return paths, [[
            _run_call(
                "moser", "moser", work / "moser_run.json", work, "moser",
                {"r_start": MOSER_R_START, "residual_tol": MOSER_RESIDUAL_TOL},
            )
        ]]
    specs = root / "specs"
    calls = [
        _run_call(
            "check-tower", "check-tower", work / "check_tower_run.json", work,
            "check-tower", {"levels": len(TOWER_FACTOR_DIMS)},
        ),
        _run_call(
            "product-control", "product-control", work / "product_control_run.json",
            work, "product-control", {"levels": CONTROL_LEVELS},
        ),
    ]
    for command, spec in BUNDLED_RUNS:
        calls.append(_run_call("bundled-" + command, command, specs / spec, work, command, {}))
    for spec in BUNDLED_DOCUMENTS:
        calls.append(
            Call("validate-" + spec, ("validate", "--config", str(specs / spec)), "validate", {})
        )
    return paths, [calls]
