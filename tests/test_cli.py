"""Config loading, document validation, and end-to-end runner behavior."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symptower import cli
from symptower.cli import ConfigError, load_run_config, main, validate_spec
from symptower.linalg import ModelSpace, SkewForm, darboux_constant_form
from symptower.moser import FormField, LeftValidityRegionError, MoserFamily, moser_flow

SPECS = Path(__file__).resolve().parent.parent / "specs"


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def quick_moser_config(tmp_path: Path, **doc_overrides) -> Path:
    field_doc = {
        "field": {"kind": "quadratic", "l": 1, "epsilon": 0.05, "seed": 11, "radius": 1.0},
        "base_point": [0.0, 0.0],
        "r_start": 0.4,
        "residual_tol": 1e-3,
    }
    field_doc.update(doc_overrides)
    write_json(tmp_path / "field.json", field_doc)
    return write_json(
        tmp_path / "run.json",
        {
            "command": "moser",
            "input": "field.json",
            "tolerances": {"dt": 0.02},
            "seed": 3,
            "formats": ["csv", "json", "text"],
        },
    )


# Numbers a float cannot hold finitely, with the command that reads each
# document and its one diagnostic: JSON's 1e400 parses to inf, and a
# 401-digit integer overflows a float.
NON_FINITE = [
    pytest.param(
        "check-tower",
        {"tower": {"kind": "explicit", "levels": [{"dim": 2}], "bondings": [],
                   "forms": [[[0, float("inf")], [-float("inf"), 0]]]}},
        "tower.forms[0]: must be a rectangular matrix of numbers",
        id="explicit-form-inf",
    ),
    pytest.param(
        "check-tower",
        {"tower": {"kind": "product", "factors": [{"matrix": [[0, 10**400], [-10**400, 0]]}]}},
        "tower.factors[0].matrix: must be a rectangular matrix of numbers",
        id="product-factor-401-digits",
    ),
    pytest.param(
        "check-tower",
        {"tower": {"kind": "counterexample", "d": 1, "depth": 1,
                   "thread_top": [-float("inf"), 0.0]}},
        "tower.thread_top: must be a list of numbers",
        id="thread-top-inf",
    ),
    pytest.param(
        "moser",
        {"field": {"kind": "quadratic", "l": 1, "epsilon": float("nan")}, "r_start": 0.5},
        "field.epsilon: must be a number",
        id="epsilon-nan",
    ),
]

# Malformed documents of every section, kind and run-config key, with the
# exact diagnostics each must produce (compared as sorted lists).
MALFORMED = [
    pytest.param(
        {"command": "frobnicate", "input": "x.json", "verbose": True},
        [
            "command must be one of check-tower, moser, shrink, product-control, loop-check, "
            "got 'frobnicate'",
            "unknown config key 'verbose'",
        ],
        id="config-unknown-key-bad-command",
    ),
    pytest.param(
        {"input": ""},
        [
            "input: required path string",
            "no command given",
        ],
        id="config-empty-input-no-command",
    ),
    pytest.param(
        {"command": "moser", "input": "x.json", "tolerances": [1]},
        ["tolerances: must be an object"],
        id="config-tolerances-not-object",
    ),
    pytest.param(
        {
            "command": "moser",
            "input": "x.json",
            "tolerances": {
                "quad_nodes": 0,
                "dt": 1.5,
                "closed_tol": "tight",
                "rank_tol": -1,
                "bogus": 1,
            },
        },
        [
            "tolerances.closed_tol: must be strictly positive",
            "tolerances.dt: must lie in (0, 1]",
            "tolerances.rank_tol: must be strictly positive",
            "tolerances: unknown key 'bogus'",
            "tolerances: unknown key 'quad_nodes'",
        ],
        id="config-tolerance-values",
    ),
    pytest.param(
        {
            "command": "shrink",
            "input": "x.json",
            "tolerances": {"quad_nodes": 2.0, "sing_tol": True, "cond_cap": 0},
        },
        [
            "tolerances.cond_cap: must be strictly positive",
            "tolerances.sing_tol: must be strictly positive",
            "tolerances: unknown key 'quad_nodes'",
        ],
        id="config-tolerance-types",
    ),
    pytest.param(
        {
            "command": "shrink",
            "input": "x.json",
            "seed": -1,
            "output": "",
            "formats": ["csv", "csv"],
        },
        [
            "formats: must be a non-empty subset of csv, json, text",
            "output: must be a path string",
            "seed: must be a non-negative integer",
        ],
        id="config-seed-output-formats",
    ),
    pytest.param(
        {"command": "loop-check", "input": 5, "seed": True, "output": 3, "formats": []},
        [
            "formats: must be a non-empty subset of csv, json, text",
            "input: required path string",
            "output: must be a path string",
            "seed: must be a non-negative integer",
        ],
        id="config-bool-seed-empty-formats",
    ),
    pytest.param(
        {"command": None, "input": "x.json", "formats": "csv", "tolerances": None},
        [
            "formats: must be a non-empty subset of csv, json, text",
            "no command given",
            "tolerances: must be an object",
        ],
        id="config-formats-not-list-null-command",
    ),
    pytest.param(
        {"tower": 3},
        ["tower: must be an object"],
        id="tower-not-object",
    ),
    pytest.param(
        {"tower": {"kind": "spiral", "extra": 1}},
        ["tower.kind: must be one of product, loop, counterexample, explicit; got 'spiral'"],
        id="tower-unknown-kind",
    ),
    pytest.param(
        {"tower": {"factors": []}, "field": {}},
        [
            "tower.kind: must be one of product, loop, counterexample, explicit; got None",
            "unknown key 'field'",
        ],
        id="tower-missing-kind-and-extra-key",
    ),
    pytest.param(
        {"tower": {"kind": "product", "factors": [], "extra": 1}},
        [
            "tower.factors: must be a non-empty list",
            "tower: unknown key 'extra'",
        ],
        id="product-empty-factors",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "product",
                "factors": [
                    3,
                    {},
                    {"l": 0},
                    {"l": 1, "gram": [[0.0, -1.0], [1.0, 0.0]]},
                    {"l": 1, "matrix": [[0.0, -1.0], [1.0, 0.0]]},
                    {"matrix": [[0.0, -1.0], [1.0, 0.0]], "gram": [[1.0]]},
                    {"matrix": [[0.0, 1.0, 2.0]], "gram": "x"},
                    {"matrix": [[1.0, "a"]]},
                    {
                        "matrix": [[0.0, 1.0], [1.0, 0.0]],
                        "gram": [[1.0, 0.0], [0.0]],
                        "z": 0,
                    },
                ],
            },
        },
        [
            "tower.factors[0]: must be an object",
            "tower.factors[1]: provide exactly one of 'l' or 'matrix'",
            "tower.factors[2].l: must be a positive integer",
            "tower.factors[3]: unknown key 'gram'",
            "tower.factors[4]: provide exactly one of 'l' or 'matrix'",
            "tower.factors[5].gram: shape does not match the matrix",
            "tower.factors[6].matrix: must be square",
            "tower.factors[7].matrix: must be a rectangular matrix of numbers",
            "tower.factors[8].gram: must be a rectangular matrix of numbers",
            "tower.factors[8].matrix: matrix is not skew (symmetry defect 2.000e+00)",
            "tower.factors[8]: unknown key 'z'",
        ],
        id="product-bad-factors",
    ),
    pytest.param(
        {"tower": {"kind": "loop", "m": 0, "modes": -1, "orders": [2, 1], "z": 1}},
        [
            "tower.m: must be a positive integer",
            "tower.modes: must be a non-negative integer",
            "tower.orders: must be strictly increasing",
            "tower: unknown key 'z'",
        ],
        id="loop-tower-values",
    ),
    pytest.param(
        {"tower": {"kind": "loop", "m": 1.5, "modes": True, "orders": "x"}},
        [
            "tower.m: must be a positive integer",
            "tower.modes: must be a non-negative integer",
            "tower.orders: must be a non-empty list of non-negative integers",
        ],
        id="loop-tower-types",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "counterexample",
                "d": 2,
                "depth": 2,
                "a": [1.0],
                "s_eigs": [1.0, "x"],
                "region_radius": 0,
                "thread_top": [0.0, 0.0, 0.0],
                "foo": 1,
            },
        },
        [
            "tower.a: expected 2 entries, got 1",
            "tower.region_radius: must be strictly positive",
            "tower.s_eigs: must be a list of numbers",
            "tower.thread_top: expected 8 entries, got 3",
            "tower: unknown key 'foo'",
        ],
        id="counterexample-tower-vectors",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "counterexample",
                "d": 0,
                "depth": "x",
                "a": [1.0],
                "thread_top": [1.0],
            },
        },
        [
            "tower.d: must be a positive integer",
            "tower.depth: must be a positive integer",
        ],
        id="counterexample-tower-bad-d",
    ),
    pytest.param(
        {"tower": {"kind": "counterexample", "d": 1, "thread_top": [1.0], "s_eigs": 2}},
        [
            "tower.depth: must be a positive integer",
            "tower.s_eigs: must be a list of numbers",
        ],
        id="counterexample-tower-missing-depth",
    ),
    pytest.param(
        {"tower": {"kind": "explicit", "levels": [], "bondings": 1, "forms": 2, "q": 0}},
        [
            "tower.levels: must be a non-empty list",
            "tower: unknown key 'q'",
        ],
        id="explicit-empty-levels",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "explicit",
                "levels": [
                    {
                        "dim": 2,
                        "gram": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                        "label": "a",
                        "q": 1,
                    },
                    {"dim": 0, "q": 1},
                    5,
                    {"dim": 1, "gram": [[1, "x"]]},
                ],
                "bondings": "x",
                "forms": [[[0.0, -1.0], [1.0, 0.0]]],
            },
        },
        [
            "tower.bondings: need 3 matrices, got none",
            "tower.forms: need 4 matrices, got 1",
            "tower.levels[0].gram: expected shape (2, 2)",
            "tower.levels[0]: unknown key 'q'",
            "tower.levels[1].dim: must be a positive integer",
            "tower.levels[2].dim: must be a positive integer",
            "tower.levels[3].gram: must be a rectangular matrix of numbers",
        ],
        id="explicit-bad-levels",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 2}, {"dim": 4}],
                "bondings": [[[1.0, 0.0]], "x"],
                "forms": [[[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0]]],
            },
        },
        [
            "tower.bondings[0]: expected shape (2, 2) mapping level 1 -> level 0, got (1, 2)",
            "tower.bondings[1]: must be a rectangular matrix of numbers",
            "tower.forms[1]: matrix is not skew (symmetry defect 2.000e+00)",
            "tower.forms[2]: expected shape (4, 4), got (1, 1)",
        ],
        id="explicit-shapes",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"label": "x"}],
                "bondings": [[[1.0, 0.0], [0.0, 1.0]]],
                "forms": [[[0.0]], "x"],
            },
        },
        [
            "tower.forms[0]: expected shape (2, 2), got (1, 1)",
            "tower.forms[1]: must be a rectangular matrix of numbers",
            "tower.levels[1].dim: must be a positive integer",
        ],
        id="explicit-missing-forms",
    ),
    pytest.param(
        {"field": [], "base_point": [0.0, "x"], "q": 1},
        [
            "base_point: must be a list of numbers",
            "field: must be an object",
            "r_start: must be strictly positive",
            "unknown key 'q'",
        ],
        id="field-not-object",
    ),
    pytest.param(
        {"field": {"kind": "cubic"}, "r_start": 1.0, "base_point": "x"},
        [
            "base_point: must be a list of numbers",
            "field.kind: must be one of quadratic, constant, marsden; got 'cubic'",
        ],
        id="field-unknown-kind",
    ),
    pytest.param(
        {
            "field": {"kind": "quadratic", "l": 0, "epsilon": "x", "q": 1},
            "r_start": 0.5,
            "residual_tol": 0,
            "verify_samples": 0,
            "base_point": [0.0, 0.0, 0.0],
        },
        [
            "field.l: must be a positive integer",
            "field: unknown key 'q'",
            "residual_tol: must be strictly positive",
            "verify_samples: must be a positive integer",
        ],
        id="quadratic-bad-l",
    ),
    pytest.param(
        {
            "field": {
                "kind": "quadratic",
                "l": 1,
                "epsilon": "x",
                "seed": 1.5,
                "radius": -1,
                "foo": 1,
            },
            "base_point": [0.0, 0.0, 0.0],
            "r_start": 0,
            "verify_samples": 2.0,
        },
        [
            "base_point: expected 2 entries, got 3",
            "field.epsilon: must be a number",
            "field.radius: must be strictly positive",
            "field.seed: must be an integer",
            "field: unknown key 'foo'",
            "r_start: must be strictly positive",
            "verify_samples: must be a positive integer",
        ],
        id="quadratic-values",
    ),
    pytest.param(
        {
            "field": {"kind": "quadratic", "l": 2, "seed": True},
            "base_point": [0.0, 0.0, 0.0, 0.0],
            "r_start": "x",
            "residual_tol": None,
        },
        [
            "field.epsilon: must be a number",
            "field.seed: must be an integer",
            "r_start: must be strictly positive",
            "residual_tol: must be strictly positive",
        ],
        id="quadratic-missing-epsilon",
    ),
    pytest.param(
        {
            "field": {
                "kind": "constant",
                "matrix": [[0.0, 1.0], [1.0, 0.0]],
                "gram": [[1.0]],
                "radius": 0,
                "center": [0.0],
                "x": 1,
            },
            "r_start": 1.0,
            "base_point": [0.0],
        },
        [
            "base_point: expected 2 entries, got 1",
            "field.center: expected 2 entries, got 1",
            "field.gram: shape does not match the matrix",
            "field.matrix: matrix is not skew (symmetry defect 2.000e+00)",
            "field.radius: must be strictly positive",
            "field: unknown key 'x'",
        ],
        id="constant-values",
    ),
    pytest.param(
        {
            "field": {
                "kind": "constant",
                "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]],
                "gram": "x",
                "center": "y",
            },
            "r_start": 1.0,
            "base_point": [0.0],
        },
        ["field.matrix: must be square"],
        id="constant-not-square",
    ),
    pytest.param(
        {"field": {"kind": "constant", "radius": "x"}, "r_start": 1.0},
        ["field.matrix: must be a rectangular matrix of numbers"],
        id="constant-missing-matrix",
    ),
    pytest.param(
        {
            "field": {
                "kind": "marsden",
                "d": 2,
                "a": [0.0, 0.0],
                "shift_k": 0,
                "s_eigs": [1.0],
                "radius": "r",
                "k": 1,
            },
            "r_start": 0.1,
            "base_point": [0.0, 0.0, 0.0, 0.0, 0.0],
        },
        [
            "base_point: expected 4 entries, got 5",
            "field.a: must be nonzero",
            "field.radius: must be strictly positive",
            "field.s_eigs: expected 2 entries, got 1",
            "field.shift_k: must be a positive integer",
            "field: unknown key 'k'",
        ],
        id="marsden-values",
    ),
    pytest.param(
        {
            "field": {"kind": "marsden", "d": -1, "a": "x", "radius": 0},
            "r_start": 0.1,
            "base_point": [0.0],
        },
        ["field.d: must be a positive integer"],
        id="marsden-bad-d",
    ),
    pytest.param(
        {
            "field": {"kind": "marsden", "d": 2, "a": [1.0], "s_eigs": "x", "shift_k": 1.0},
            "r_start": 0.1,
        },
        [
            "field.a: expected 2 entries, got 1",
            "field.s_eigs: must be a list of numbers",
            "field.shift_k: must be a positive integer",
        ],
        id="marsden-short-a",
    ),
    pytest.param(
        {
            "field": {"kind": "marsden", "d": 2, "a": [1.0, 0.0], "s_eigs": [1e-8, 1.0]},
            "r_start": 0.1,
        },
        ["field.s_eigs: must be non-increasing"],
        id="marsden-increasing-s-eigs",
    ),
    pytest.param(
        {
            "field": {"kind": "marsden", "d": 2, "a": [1.0, 0.0], "s_eigs": [1.0, 0.0]},
            "r_start": 0.1,
        },
        ["field.s_eigs: must be strictly positive"],
        id="marsden-zero-s-eig",
    ),
    pytest.param(
        {
            "tower": {
                "kind": "counterexample",
                "d": 2,
                "depth": 2,
                "a": [0.0, 0.0],
                "s_eigs": [0.5, 1.0],
            },
        },
        [
            "tower.a: must be nonzero",
            "tower.s_eigs: must be non-increasing",
        ],
        id="counterexample-tower-zero-a-increasing-s-eigs",
    ),
    pytest.param(
        {"experiment": {"d": 2, "a": [0, 0], "s_eigs": [-1.0, -2.0]}, "n_max": 2},
        [
            "experiment.a: must be nonzero",
            "experiment.s_eigs: must be strictly positive",
        ],
        id="experiment-zero-a-negative-s-eigs",
    ),
    pytest.param(
        {"field": {"kind": "marsden", "d": 1}, "r_start": 0.1},
        ["field.a: must be a list of numbers"],
        id="marsden-missing-a",
    ),
    pytest.param(
        {"experiment": 1, "n_max": 0, "expect_uniform": 1, "zz": 1},
        [
            "experiment: must be an object",
            "unknown key 'zz'",
        ],
        id="experiment-not-object",
    ),
    pytest.param(
        {
            "experiment": {"d": 0, "a": [1.0], "q": 1},
            "n_max": 1.5,
            "expect_uniform": "yes",
            "zz": 1,
        },
        [
            "expect_uniform: must be a boolean",
            "experiment.d: must be a positive integer",
            "experiment: unknown key 'q'",
            "n_max: must be a positive integer",
            "unknown key 'zz'",
        ],
        id="experiment-defaults",
    ),
    pytest.param(
        {
            "experiment": {
                "kind": "counterexample",
                "a": [1.0, 2.0],
                "s_eigs": [1.0, 2.0, 3.0, 4.0, 5.0],
                "region_radius": 0,
                "q": 1,
            },
            "n_max": 2,
        },
        [
            "experiment.a: expected 4 entries, got 2",
            "experiment.region_radius: must be strictly positive",
            "experiment.s_eigs: expected 4 entries, got 5",
            "experiment: unknown key 'q'",
        ],
        id="experiment-default-d",
    ),
    pytest.param(
        {
            "experiment": {"kind": "product", "factor_dim": 0, "radius": 0, "d": 1},
            "n_max": True,
        },
        [
            "experiment.factor_dim: must be a positive integer",
            "experiment.radius: must be strictly positive",
            "experiment: unknown key 'd'",
            "n_max: must be a positive integer",
        ],
        id="experiment-product",
    ),
    pytest.param(
        {"experiment": {"kind": "torus", "q": 1}},
        [
            "experiment.kind: must be counterexample or product, got 'torus'",
            "n_max: must be a positive integer",
        ],
        id="experiment-unknown-kind",
    ),
    pytest.param(
        {"experiment": {"kind": None}, "n_max": 3},
        ["experiment.kind: must be counterexample or product, got None"],
        id="experiment-null-kind",
    ),
    pytest.param(
        {"loop": "x", "r_start": 0, "zz": 1},
        [
            "loop: must be an object",
            "unknown key 'zz'",
        ],
        id="loop-not-object",
    ),
    pytest.param(
        {
            "loop": {"m": 1, "modes": 0, "orders": [0, 0], "k": 1},
            "r_start": -1,
            "kappa_rel_tol": 0,
            "zz": 1,
        },
        [
            "kappa_rel_tol: must be strictly positive",
            "loop.orders: must be strictly increasing",
            "loop: unknown key 'k'",
            "r_start: must be strictly positive",
            "unknown key 'zz'",
        ],
        id="loop-values",
    ),
    pytest.param(
        {"loop": {"orders": [-1]}, "kappa_rel_tol": "x"},
        [
            "kappa_rel_tol: must be strictly positive",
            "loop.m: must be a positive integer",
            "loop.modes: must be a non-negative integer",
            "loop.orders: must be a non-empty list of non-negative integers",
        ],
        id="loop-missing-keys",
    ),
    pytest.param(
        {"loop": {"m": 2, "modes": 1, "orders": []}},
        ["loop.orders: must be a non-empty list of non-negative integers"],
        id="loop-empty-orders",
    ),
    pytest.param(
        {"widget": 1},
        [
            "unrecognized document: expected a 'tower', 'field', 'experiment', or 'loop' "
            "section, or a run config with 'input'",
        ],
        id="unrecognized",
    ),
    pytest.param(
        [1, 2],
        ["document must be a JSON object"],
        id="not-an-object",
    ),
    pytest.param(
        {"field": {"kind": "quadratic", "l": 1, "epsilon": 0.1}, "loop": {}, "r_start": 1.0},
        ["unknown key 'loop'"],
        id="field-and-loop",
    ),
    *(pytest.param(p.values[1], [p.values[2]], id=p.id) for p in NON_FINITE),
]


class TestLoadRunConfig:
    def test_bundled_shrink_config(self):
        cfg = load_run_config(SPECS / "shrink.json")
        assert cfg.command == "shrink"
        assert cfg.input == (SPECS / "experiment_counterexample.json").resolve()
        assert cfg.tolerances == {"cond_cap": 1000000.0}
        assert cfg.seed == 0
        assert cfg.formats == ("csv", "json", "text")

    def test_cli_arguments_win(self, tmp_path):
        cfg = load_run_config(
            SPECS / "shrink.json",
            seed=9,
            output=str(tmp_path),
            formats=["json"],
        )
        assert cfg.seed == 9
        assert cfg.output == tmp_path
        assert cfg.formats == ("json",)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json", "verbose": True})
        with pytest.raises(ConfigError, match="unknown config key 'verbose'"):
            load_run_config(path, command="shrink")

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"input": "x.json", "tolerances": {"cond_cap": 0.0}},
        )
        with pytest.raises(ConfigError, match="cond_cap: must be strictly positive"):
            load_run_config(path, command="shrink")

    def test_dt_capped_at_one(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json", "tolerances": {"dt": 2.0}})
        with pytest.raises(ConfigError, match="dt"):
            load_run_config(path, command="moser")

    def test_command_mismatch(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"command": "moser", "input": "x.json"})
        with pytest.raises(ConfigError, match="names command 'moser'"):
            load_run_config(path, command="shrink")

    def test_missing_input(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"seed": 1})
        with pytest.raises(ConfigError, match="input: required"):
            load_run_config(path, command="shrink")

    def test_negative_cli_seed(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json"})
        with pytest.raises(ConfigError, match="seed"):
            load_run_config(path, command="shrink", seed=-1)

    def test_trajectories_only_for_moser(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json"})
        with pytest.raises(ConfigError, match="dump-trajectories"):
            load_run_config(path, command="shrink", dump_trajectories=True)

    def test_all_errors_reported_at_once(self, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"input": "x.json", "seed": -4, "formats": ["yaml"]},
        )
        with pytest.raises(ConfigError) as exc:
            load_run_config(path, command="shrink")
        assert len(exc.value.errors) == 2


class TestValidateSpec:
    @pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
    def test_bundled_specs_are_clean(self, name):
        report = validate_spec(SPECS / name)
        assert report.ok, report.errors

    @pytest.mark.parametrize("doc, errors", MALFORMED)
    def test_malformed_documents(self, tmp_path, doc, errors):
        report = validate_spec(write_json(tmp_path / "doc.json", doc))
        assert sorted(report.errors) == errors

    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"tower": \n nope}')
        report = validate_spec(path)
        assert not report.ok
        assert "line 2" in report.errors[0]

    def test_non_skew_form_named_with_defect(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 2}],
                "bondings": [[[1.0, 0.0], [0.0, 1.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [[0.0, 1.0], [1.0, 0.0]],
                ],
            }
        }
        report = validate_spec(write_json(tmp_path / "t.json", doc))
        assert any("tower.forms[1]" in e and "symmetry defect" in e for e in report.errors)

    def test_bonding_shape_names_level_pair(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 4}],
                "bondings": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [
                        [0.0, -1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -1.0],
                        [0.0, 0.0, 1.0, 0.0],
                    ],
                ],
            }
        }
        report = validate_spec(write_json(tmp_path / "t.json", doc))
        assert any("mapping level 1 -> level 0" in e for e in report.errors)

    def test_unrecognized_document(self, tmp_path):
        report = validate_spec(write_json(tmp_path / "t.json", {"widget": 1}))
        assert any("unrecognized document" in e for e in report.errors)

    def test_unreadable_file(self, tmp_path):
        report = validate_spec(tmp_path / "absent.json")
        assert not report.ok
        assert "cannot read" in report.errors[0]

    def test_runconfig_documents_validate_too(self, tmp_path):
        doc = {"command": "moser", "input": "x.json", "tolerances": {"dt": -1}}
        report = validate_spec(write_json(tmp_path / "c.json", doc))
        assert any("dt" in e for e in report.errors)

    def test_runconfig_with_a_missing_input_fails(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", {"command": "shrink", "input": "absent.json"})
        report = validate_spec(cfg)
        assert len(report.errors) == 1
        assert report.errors[0].startswith("cannot read %s" % (tmp_path / "absent.json"))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "1 errors" in capsys.readouterr().out

    @pytest.mark.parametrize("command, doc, error", [
        ("shrink",
         {"experiment": {"kind": "counterexample", "d": 2, "s_eigs": [0.5, 1.0]}, "n_max": 2},
         "experiment.s_eigs: must be non-increasing"),
        ("moser", {"loop": {"m": 1, "modes": 1, "orders": [0]}},
         "document for moser must have a 'field' section"),
    ], ids=["increasing-spectrum", "wrong-section"])
    def test_runconfig_input_is_checked_as_the_run_reads_it(self, tmp_path, command, doc, error):
        inp = write_json(tmp_path / "input.json", doc)
        cfg = write_json(tmp_path / "run.json", {"command": command, "input": "input.json"})
        assert validate_spec(cfg).errors == ("%s: %s" % (inp.resolve(), error),)
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("a, errors", [
        ([1e-200, 0, 0, 0], ["experiment.a: must be nonzero"]),
        ([1e-150, 0, 0, 0], []),
    ], ids=["square-underflows", "square-normal"])
    def test_nonzero_direction_is_judged_by_its_float_squares(self, tmp_path, a, errors):
        doc = {"experiment": {"kind": "counterexample", "d": 4, "a": a}, "n_max": 2}
        assert list(validate_spec(write_json(tmp_path / "e.json", doc)).errors) == errors


    @pytest.mark.parametrize("label", [5, [1, 2], None, {"a": 1}],
                             ids=["number", "list", "null", "object"])
    def test_an_explicit_level_label_must_be_a_string(self, tmp_path, capsys, label):
        doc = {"tower": {"kind": "explicit", "levels": [{"dim": 2, "label": label}],
                         "bondings": [], "forms": [[[0.0, -1.0], [1.0, 0.0]]]}}
        inp = write_json(tmp_path / "tower.json", doc)
        error = "tower.levels[0].label: must be a string"
        assert validate_spec(inp).errors == (error,)
        assert main(["validate", "--config", str(inp)]) == 2
        cfg = write_json(tmp_path / "run.json", {"command": "check-tower", "input": "tower.json"})
        assert main(["check-tower", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert "%s: %s" % (inp.resolve(), error) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, error", [
        ({"loop": {"m": 1, "modes": 500, "orders": [0]}},
         "loop: level 0: dimension 2002 exceeds cap 512"),
        ({"loop": {"m": 1, "modes": 0, "orders": list(range(34))}},
         "loop: tower depth 33 exceeds cap 32"),
        ({"tower": {"kind": "loop", "m": 86, "modes": 1, "orders": [0, 1]}},
         "tower: level 0: dimension 516 exceeds cap 512"),
        ({"tower": {"kind": "counterexample", "d": 4, "depth": 34}},
         "tower: tower depth 33 exceeds cap 32"),
        ({"tower": {"kind": "counterexample", "d": 9, "depth": 30}},
         "tower: level 28: dimension 522 exceeds cap 512"),
        ({"tower": {"kind": "product", "factors": [{"l": 200}, {"matrix": [[0, 1], [-1, 0]]},
                                                     {"l": 56}]}},
         "tower: level 2: dimension 514 exceeds cap 512"),
        ({"tower": {"kind": "product", "factors": [{"l": 1}] * 34}},
         "tower: tower depth 33 exceeds cap 32"),
        ({"tower": {"kind": "explicit", "levels": [{"dim": 2}] * 34,
                    "bondings": [[[1, 0], [0, 1]]] * 33, "forms": [[[0, -1], [1, 0]]] * 34}},
         "tower: tower depth 33 exceeds cap 32"),
        ({"experiment": {"kind": "counterexample"}, "n_max": 65},
         "experiment: tower depth 64 exceeds cap 32"),
        ({"experiment": {"kind": "counterexample", "d": 8}, "n_max": 33},
         "experiment: level 32: dimension 528 exceeds cap 512"),
        ({"experiment": {"kind": "product", "factor_dim": 9}, "n_max": 30},
         "experiment: level 28: dimension 522 exceeds cap 512"),
    ], ids=["loop-dim", "loop-depth", "tower-loop-dim", "counterexample-depth",
            "counterexample-dim", "product-dim", "product-depth", "explicit-depth",
            "experiment-depth", "experiment-dim", "product-experiment-dim"])
    def test_a_document_past_the_tower_caps_is_refused_where_it_says_so(
        self, tmp_path, doc, error
    ):
        assert validate_spec(write_json(tmp_path / "doc.json", doc)).errors == (error,)

    @pytest.mark.parametrize("doc", [
        {"loop": {"m": 85, "modes": 1, "orders": list(range(32))}},
        {"tower": {"kind": "product", "factors": [{"l": 8}] * 32}},
        {"tower": {"kind": "counterexample", "d": 4, "depth": 33}},
        {"experiment": {"kind": "counterexample", "d": 4}, "n_max": 32},
        {"experiment": {"kind": "product", "factor_dim": 8}, "n_max": 32},
    ], ids=["loop", "product", "counterexample", "experiment", "product-experiment"])
    def test_a_document_at_the_tower_caps_validates(self, tmp_path, doc):
        assert validate_spec(write_json(tmp_path / "doc.json", doc)).ok

    def test_an_over_cap_loop_run_builds_nothing(self, tmp_path, monkeypatch, capsys):
        from symptower import models

        def building(*args):
            raise AssertionError("the loop tower is built")

        monkeypatch.setattr(models, "make_loop_tower", building)
        write_json(tmp_path / "loop.json", {"loop": {"m": 1, "modes": 500, "orders": [0]}})
        cfg = write_json(tmp_path / "run.json", {"command": "loop-check", "input": "loop.json"})
        assert main(["loop-check", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        assert "dimension 2002 exceeds cap 512" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["random", "skew", "near-threshold"]),
    st.floats(min_value=-8.0, max_value=8.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_schema_skew_defect_matches_numpy(n, kind, log_scale, entropy):
    rng = np.random.default_rng(entropy)
    m = rng.standard_normal((n, n)) * 10.0**log_scale
    if kind != "random":
        m = m - m.T
    if kind == "near-threshold":
        sym = rng.standard_normal((n, n))
        sym = sym + sym.T
        target = cli.SKEW_TOL * (1.0 + rng.uniform(-1e-6, 1e-6)) * max(1.0, np.linalg.norm(m))
        m = m + sym * (target / np.linalg.norm(2 * sym))
    expect = float(np.linalg.norm(m + m.T) / max(1.0, np.linalg.norm(m)))
    assert cli._skew_defect(m.tolist()) == pytest.approx(expect, rel=1e-15, abs=0.0)


class TestRunner:
    def test_check_tower_bundled(self, tmp_path):
        rc = main(
            ["check-tower", "--config", str(SPECS / "check_tower.json"), "--output", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == "2"
        assert report["passed"] is True
        assert report["report"]["compatible"] is True
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "bonding,ok,ker_dim,pullback_residual,transversality_defect,dense_range"

    def test_incompatible_tower_fails(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 4}],
                "bondings": [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [
                        [0.0, -2.0, 0.0, 0.0],
                        [2.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -1.0],
                        [0.0, 0.0, 1.0, 0.0],
                    ],
                ],
            }
        }
        write_json(tmp_path / "t.json", doc)
        cfg = write_json(tmp_path / "run.json", {"command": "check-tower", "input": "t.json"})
        rc = main(["check-tower", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False

    def test_moser_quick_run(self, tmp_path):
        cfg = quick_moser_config(tmp_path)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        body = report["report"]
        assert body["pullback_residual"] <= 1e-3
        assert body["fixed_point_error"] <= 1e-8
        assert body["steps"] == 50

    def test_moser_residual_gate_fails(self, tmp_path):
        cfg = quick_moser_config(tmp_path, residual_tol=1e-30)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1

    def test_moser_trajectory_dump(self, tmp_path):
        cfg = quick_moser_config(tmp_path)
        rc = main(
            [
                "moser",
                "--config",
                str(cfg),
                "--output",
                str(tmp_path / "out"),
                "--dump-trajectories",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "seed,step,x0,x1"
        # Every recorded trajectory spans all integration steps.
        assert (len(lines) - 1) % 51 == 0

    def test_moser_pipeline_error_serialized(self, tmp_path):
        write_json(
            tmp_path / "field.json",
            {
                "field": {"kind": "marsden", "d": 2, "a": [1.0, 0.0], "s_eigs": [1.0, 1e-8]},
                "base_point": [1.0, 0.0, 0.0, 0.0],
                "r_start": 0.1,
            },
        )
        cfg = write_json(tmp_path / "run.json", {"command": "moser", "input": "field.json"})
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "exceeds the validity radius" in report["report"]["error"]["message"]

    def test_moser_zero_field_of_a_degenerate_form_fails(self, tmp_path, capsys):
        # The field is zero, so omega0 = 0 and every flat is singular.
        write_json(
            tmp_path / "f.json",
            {"field": {"kind": "constant", "matrix": [[0, 0], [0, 0]]}, "r_start": 0.5},
        )
        cfg = write_json(tmp_path / "run.json", {"command": "moser", "input": "f.json"})
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "moser: PASS" not in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        assert report["report"]["error"] == {
            "type": "ValueError",
            "message": "r_start 0.5 exceeds the validity radius 0",
        }

    def test_moser_zero_field_keeps_to_its_region(self, tmp_path, capsys):
        # The difference field is zero, but the region ends at 0.2.
        write_json(
            tmp_path / "f.json",
            {"field": {"kind": "constant", "matrix": [[0, 1], [-1, 0]], "radius": 0.2},
             "r_start": 0.5},
        )
        cfg = write_json(tmp_path / "run.json", {"command": "moser", "input": "f.json"})
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "moser: PASS" not in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["report"]["error"] == {
            "type": "ValueError",
            "message": "r_start 0.5 exceeds the validity radius 0.2",
        }

    def test_left_validity_region_fields_serialized(self, tmp_path, monkeypatch):
        def leaves_region(doc, cfg):
            raise LeftValidityRegionError(0.5, [1.0, -2.0], 3e-9)

        monkeypatch.setitem(cli._PIPELINES, "moser", leaves_region)
        cfg = quick_moser_config(tmp_path)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        error = report["report"]["error"]
        assert error == {
            "type": "LeftValidityRegionError",
            "message": "left validity region at t=0.5 (sigma_min=3.000e-09)",
            "t": 0.5,
            "x": [1.0, -2.0],
            "sigma_min": 3e-9,
        }

    def test_chart_construction_error_points_serialized(self, tmp_path, monkeypatch):
        # The primitive is anchored at the region center, so an off-center
        # base point drifts; this family carries it out through the boundary.
        omega0 = darboux_constant_form(1)
        field = FormField.constant(SkewForm(ModelSpace(2), -0.5 * omega0.matrix), np.zeros(2), 1.0)
        family = MoserFamily(omega0, field)

        def base_escapes(doc, cfg):
            return moser_flow(family, np.array([0.9, 0.0]), 0.05, dt=0.02)

        monkeypatch.setitem(cli._PIPELINES, "moser", base_escapes)
        cfg = quick_moser_config(tmp_path)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        error = json.loads((tmp_path / "out" / "report.json").read_text())["report"]["error"]
        assert set(error) == {"type", "message", "x0", "frozen_at"}
        assert error["type"] == "ChartConstructionError"
        assert error["message"] == "no chart: the base point's trajectory left the validity region"
        assert error["x0"] == [0.9, 0.0]
        # frozen on its last step inside the unit region, pushed outward
        assert 0.9 < np.linalg.norm(error["frozen_at"]) <= 1.0

    def test_stability_error_fields_serialized(self, tmp_path):
        write_json(
            tmp_path / "field.json",
            {"field": {"kind": "quadratic", "l": 2, "epsilon": 1.0, "seed": 7}, "r_start": 0.3},
        )
        cfg = write_json(
            tmp_path / "run.json",
            {"command": "moser", "input": "field.json", "tolerances": {"dt": 1.0}},
        )
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        error = json.loads((tmp_path / "out" / "report.json").read_text())["report"]["error"]
        assert set(error) == {"type", "message", "lipschitz", "dt", "cap"}
        assert error["type"] == "StabilityError"
        assert error["dt"] == 1.0 and error["cap"] == 0.5
        assert error["lipschitz"] * error["dt"] > error["cap"]

    @pytest.mark.parametrize("rank_tol", [None, 1e-3])
    def test_check_tower_reads_surjective_from_dense_range_at_every_rank_tol(
        self, tmp_path, monkeypatch, rank_tol
    ):
        from symptower import tower

        def refactoring(*args, **kwargs):
            raise AssertionError("classify_tower factors the bondings again")

        monkeypatch.setattr(tower, "classify_tower", refactoring)
        run_doc = json.loads((SPECS / "check_tower.json").read_text())
        run_doc["input"] = str(SPECS / run_doc["input"])
        if rank_tol is not None:
            run_doc["tolerances"] = {"rank_tol": rank_tol}
        cfg = write_json(tmp_path / "run.json", run_doc)
        out = tmp_path / "out"
        assert main(["check-tower", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["surjective"] is True
        assert report["surjective"] == all(row["dense_range"] for row in report["bondings"])

    def test_check_tower_classification_honours_rank_tol(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 4}],
                "bondings": [[[1.0, 0.0, 0.0, 0.0], [0.0, 1e-6, 0.0, 0.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [
                        [0.0, -1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -1.0],
                        [0.0, 0.0, 1.0, 0.0],
                    ],
                ],
            }
        }
        write_json(tmp_path / "t.json", doc)
        surjective = {}
        for rank_tol in (1e-10, 1e-3):
            run_doc = {"command": "check-tower", "input": "t.json"}
            run_doc["tolerances"] = {"rank_tol": rank_tol}
            cfg = write_json(tmp_path / "run.json", run_doc)
            out = tmp_path / ("out-%g" % rank_tol)
            main(["check-tower", "--config", str(cfg), "--output", str(out)])
            report = json.loads((out / "report.json").read_text())["report"]
            surjective[rank_tol] = report["surjective"]
            # The compatibility check cuts the rank at rank_tol too.
            assert report["bondings"][0]["dense_range"] is report["surjective"]
        # The bonding's second singular value, 1e-6, counts only above rank_tol.
        assert surjective == {1e-10: True, 1e-3: False}

    def test_check_tower_accepts_a_tiny_well_conditioned_factor(self, tmp_path):
        # 1e-11 J has condition number 1: nondegenerate under the relative
        # rank rule, which an absolute floor of 1e-10 refused.
        tiny = [[0.0, -1e-11], [1e-11, 0.0]]
        write_json(tmp_path / "t.json",
                   {"tower": {"kind": "product", "factors": [{"matrix": tiny}, {"l": 1}]}})
        cfg = write_json(tmp_path / "run.json", {"command": "check-tower", "input": "t.json"})
        out = tmp_path / "out"
        assert main(["check-tower", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["compatible"] is True and report["surjective"] is True

    def test_shrink_honours_sing_tol(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2,
             "expect_uniform": False},
        )
        radii = {}
        for sing_tol in (1e-8, 1e-3):
            cfg = write_json(
                tmp_path / "run.json",
                {"command": "shrink", "input": "exp.json", "tolerances": {"sing_tol": sing_tol}},
            )
            out = tmp_path / ("out-%g" % sing_tol)
            assert main(["shrink", "--config", str(cfg), "--output", str(out)]) == 0
            rows = json.loads((out / "report.json").read_text())["report"]["rows"]
            radii[sing_tol] = [row["r_validity"] for row in rows]
        # The relative floor 1e-3 binds before the condition cap 1e6 does.
        assert all(lo < hi for lo, hi in zip(radii[1e-3], radii[1e-8]))

    def test_shrink_small_is_deterministic(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2,
             "expect_uniform": False},
        )
        cfg = write_json(tmp_path / "run.json", {"command": "shrink", "input": "exp.json"})
        rc_a = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "a")])
        rc_b = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "b")])
        assert rc_a == rc_b == 0
        for name in ("report.json", "report.csv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        lines = (tmp_path / "a" / "report.csv").read_text().splitlines()
        assert lines[0] == "n,dim,r_validity,bound,cond_at_base"
        assert len(lines) == 3

    def test_shrink_expectation_can_fail(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2,
             "expect_uniform": True},
        )
        cfg = write_json(tmp_path / "run.json", {"command": "shrink", "input": "exp.json"})
        rc = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1

    def test_shrink_of_an_increasing_spectrum_is_an_input_error(self, tmp_path, capsys):
        doc = {"experiment": {"kind": "counterexample", "d": 2, "s_eigs": [0.5, 1.0]},
               "n_max": 2}
        write_json(tmp_path / "exp.json", doc)
        cfg = write_json(tmp_path / "run.json", {"command": "shrink", "input": "exp.json"})
        rc = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 2
        assert "experiment.s_eigs: must be non-increasing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["validate", "--config", str(tmp_path / "exp.json")]) == 2

    @pytest.mark.parametrize("command, doc, error", NON_FINITE)
    def test_a_non_finite_number_is_an_input_error(self, tmp_path, capsys, command, doc, error):
        inp = write_json(tmp_path / "input.json", doc)
        cfg = write_json(tmp_path / "run.json", {"command": command, "input": "input.json"})
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "%s: %s" % (inp.resolve(), error) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("form, code, error", [
        ([[1e308, 1e308], [1e308, 0.0]], 2,
         "tower.forms[0]: matrix is not skew (symmetry defect 2.000e+00)"),
        ([[0.0, 1e308], [-1e308, 0.0]], 0, None),
    ], ids=["non-skew", "skew"])
    def test_a_form_whose_sums_overflow_keeps_its_skew_verdict(
        self, tmp_path, capsys, form, code, error
    ):
        doc = {"tower": {"kind": "explicit", "levels": [{"dim": 2}], "bondings": [],
                         "forms": [form]}}
        inp = write_json(tmp_path / "tower.json", doc)
        cfg = write_json(tmp_path / "run.json", {"command": "check-tower", "input": "tower.json"})
        assert main(["validate", "--config", str(inp)]) == code
        out = capsys.readouterr().out
        assert main(["check-tower", "--config", str(cfg), "--output", str(tmp_path / "out")]) == code
        captured = capsys.readouterr()
        if error is None:
            assert "0 errors" in out and "check-tower: PASS" in captured.out
        else:
            assert error in out and "%s: %s" % (inp.resolve(), error) in captured.err

    def test_product_control_requires_product(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2},
        )
        cfg = write_json(
            tmp_path / "run.json", {"command": "product-control", "input": "exp.json"}
        )
        error = "%s: experiment.kind: product-control requires kind 'product'" % inp.resolve()
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.splitlines() == [error, "1 errors"]
        rc = main(["product-control", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["input error: " + error]
        assert not (tmp_path / "out").exists()

    def test_loop_check_small(self, tmp_path):
        write_json(tmp_path / "loop.json", {"loop": {"m": 1, "modes": 2, "orders": [0, 2]}})
        cfg = write_json(tmp_path / "run.json", {"command": "loop-check", "input": "loop.json"})
        rc = main(["loop-check", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "level,order,kappa,pullback_residual"

    def test_wrong_document_for_command(self, tmp_path):
        write_json(tmp_path / "loop.json", {"loop": {"m": 1, "modes": 1, "orders": [0]}})
        cfg = write_json(tmp_path / "run.json", {"command": "moser", "input": "loop.json"})
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["shrink", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_format_subset(self, tmp_path):
        cfg = quick_moser_config(tmp_path)
        rc = main(
            [
                "moser",
                "--config",
                str(cfg),
                "--output",
                str(tmp_path / "out"),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_validate_subcommand(self, capsys):
        rc = main(["validate", "--config", str(SPECS / "tower_loop.json")])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().out

    def test_validate_subcommand_rejects(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"widget": 1})
        rc = main(["validate", "--config", str(path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "unrecognized document" in out
        assert "1 errors" in out
