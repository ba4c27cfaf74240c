"""Config-driven command line runner.

``symptower <command> --config <file>`` reads a small JSON run config
(pointing at an input spec document, with optional tolerance overrides),
executes one pipeline, and writes CSV/JSON/text reports into the output
directory.  Exit codes: 0 when the pipeline's assertion passes, 1 when a
check fails or a pipeline raises one of the library's numerical errors,
2 for unreadable or invalid input.  All outputs are byte-reproducible
for a fixed seed and tolerance set.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .linalg import (
    RANK_TOL,
    SKEW_TOL,
    LinearMap,
    ModelSpace,
    SkewForm,
    darboux_constant_form,
    weakness_conditioning,
)
from .models import (
    MarsdenSpec,
    field_sequence_at,
    make_counterexample_tower,
    make_loop_tower,
    make_marsden_field,
    make_product_tower,
    make_quadratic_field,
    shrink_experiment,
)
from .moser import (
    COND_CAP,
    QUAD_NODES,
    SING_TOL,
    FormField,
    IntegratorConfig,
    LeftValidityRegionError,
    MoserFamily,
    moser_flow,
)
from .tower import (
    FormSequence,
    Thread,
    build_tower,
    check_compatible_sequence,
    classify_tower,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
SCHEMA_VERSION = "1"
COMMANDS = ("check-tower", "moser", "shrink", "product-control", "loop-check")
FORMATS = ("csv", "json", "text")
TOLERANCE_KEYS = ("rank_tol", "closed_tol", "sing_tol", "cond_cap", "dt", "quad_nodes")


class ConfigError(ValueError):
    """Invalid run config or input document; carries all diagnostics."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ParseReport:
    path: str
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Path
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    output: Path = Path(".")
    formats: tuple[str, ...] = FORMATS
    dump_trajectories: bool = False


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(["cannot read %s: %s" % (path, exc)])
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            ["%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)]
        )


def load_run_config(
    path: Path,
    command: str | None = None,
    output: str | None = None,
    seed: int | None = None,
    formats=None,
    dump_trajectories: bool = False,
) -> RunConfig:
    """Parse and validate a run config file; CLI arguments win over the file."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(["%s: run config must be a JSON object" % path])
    return _parse_runconfig(
        doc,
        base_dir=path.parent,
        command=command,
        output=output,
        seed=seed,
        formats=formats,
        dump_trajectories=dump_trajectories,
    )


def _parse_runconfig(
    doc: dict,
    base_dir: Path,
    command: str | None = None,
    output: str | None = None,
    seed: int | None = None,
    formats=None,
    dump_trajectories: bool = False,
) -> RunConfig:
    errors = []
    allowed = {"command", "input", "tolerances", "seed", "output", "formats"}
    for key in sorted(set(doc) - allowed):
        errors.append("unknown config key %r" % key)

    doc_command = doc.get("command")
    if doc_command is not None and doc_command not in COMMANDS:
        errors.append("command must be one of %s, got %r" % (", ".join(COMMANDS), doc_command))
    if command is not None and doc_command is not None and command != doc_command:
        errors.append(
            "config names command %r but %r was invoked" % (doc_command, command)
        )
    final_command = command or doc_command
    if final_command is None:
        errors.append("no command given")

    input_value = doc.get("input")
    if not isinstance(input_value, str) or not input_value:
        errors.append("input: required path string")
        input_path = Path(".")
    else:
        input_path = (base_dir / input_value).resolve()

    tolerances = {}
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        errors.append("tolerances: must be an object")
    else:
        for key in sorted(set(tol_doc) - set(TOLERANCE_KEYS)):
            errors.append("tolerances: unknown key %r" % key)
        for key in TOLERANCE_KEYS:
            if key not in tol_doc:
                continue
            value = tol_doc[key]
            if key == "quad_nodes":
                if not _is_int(value) or value < 1:
                    errors.append("tolerances.quad_nodes: must be a positive integer")
                    continue
            elif not _is_number(value) or value <= 0:
                errors.append("tolerances.%s: must be strictly positive" % key)
                continue
            if key == "dt" and value > 1.0:
                errors.append("tolerances.dt: must lie in (0, 1]")
                continue
            tolerances[key] = value

    seed_value = doc.get("seed", 0)
    if not _is_int(seed_value) or seed_value < 0:
        errors.append("seed: must be a non-negative integer")
        seed_value = 0
    if seed is not None:
        if seed < 0:
            errors.append("seed: must be a non-negative integer")
        else:
            seed_value = seed

    output_value = doc.get("output", ".")
    if not isinstance(output_value, str) or not output_value:
        errors.append("output: must be a path string")
        output_value = "."
    if output is not None:
        output_value = output

    formats_value = doc.get("formats", list(FORMATS))
    if formats is not None:
        formats_value = list(formats)
    if (
        not isinstance(formats_value, list)
        or not formats_value
        or len(set(formats_value)) != len(formats_value)
        or any(f not in FORMATS for f in formats_value)
    ):
        errors.append("formats: must be a non-empty subset of %s" % (", ".join(FORMATS)))
        formats_value = list(FORMATS)

    if dump_trajectories and final_command != "moser":
        errors.append("--dump-trajectories only applies to the moser command")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        command=final_command,
        input=input_path,
        tolerances=tolerances,
        seed=int(seed_value),
        output=Path(output_value),
        formats=tuple(formats_value),
        dump_trajectories=dump_trajectories,
    )


def _matrix_at(obj, where: str, errors: list) -> np.ndarray | None:
    if (
        not isinstance(obj, list)
        or not obj
        or any(not isinstance(row, list) for row in obj)
        or len({len(row) for row in obj}) != 1
        or any(not _is_number(v) for row in obj for v in row)
    ):
        errors.append("%s: must be a rectangular matrix of numbers" % where)
        return None
    return np.array(obj, dtype=float)


def _vector_at(obj, where: str, errors: list, length: int | None = None) -> np.ndarray | None:
    if not isinstance(obj, list) or any(not _is_number(v) for v in obj):
        errors.append("%s: must be a list of numbers" % where)
        return None
    if length is not None and len(obj) != length:
        errors.append("%s: expected %d entries, got %d" % (where, length, len(obj)))
        return None
    return np.array(obj, dtype=float)


def _skew_defect(m: np.ndarray) -> float:
    return float(np.linalg.norm(m + m.T) / max(1.0, np.linalg.norm(m)))


def _check_skew(m: np.ndarray, where: str, errors: list) -> None:
    defect = _skew_defect(m)
    if defect > SKEW_TOL:
        errors.append("%s: matrix is not skew (symmetry defect %.3e)" % (where, defect))


def _validate_factor(factor, where: str, errors: list) -> int | None:
    """Returns the factor dimension when determinable."""
    if not isinstance(factor, dict):
        errors.append("%s: must be an object" % where)
        return None
    if ("l" in factor) == ("matrix" in factor):
        errors.append("%s: provide exactly one of 'l' or 'matrix'" % where)
        return None
    if "l" in factor:
        for key in sorted(set(factor) - {"l"}):
            errors.append("%s: unknown key %r" % (where, key))
        if not _is_int(factor["l"]) or factor["l"] < 1:
            errors.append("%s.l: must be a positive integer" % where)
            return None
        return 2 * factor["l"]
    for key in sorted(set(factor) - {"matrix", "gram"}):
        errors.append("%s: unknown key %r" % (where, key))
    m = _matrix_at(factor["matrix"], where + ".matrix", errors)
    if m is None:
        return None
    if m.shape[0] != m.shape[1]:
        errors.append("%s.matrix: must be square" % where)
        return None
    _check_skew(m, where + ".matrix", errors)
    if "gram" in factor:
        g = _matrix_at(factor["gram"], where + ".gram", errors)
        if g is not None and g.shape != m.shape:
            errors.append("%s.gram: shape does not match the matrix" % where)
    return m.shape[0]


def _validate_tower_section(tower, errors: list) -> None:
    if not isinstance(tower, dict):
        errors.append("tower: must be an object")
        return
    kind = tower.get("kind")
    if kind == "product":
        for key in sorted(set(tower) - {"kind", "factors"}):
            errors.append("tower: unknown key %r" % key)
        factors = tower.get("factors")
        if not isinstance(factors, list) or not factors:
            errors.append("tower.factors: must be a non-empty list")
            return
        for i, factor in enumerate(factors):
            _validate_factor(factor, "tower.factors[%d]" % i, errors)
    elif kind == "loop":
        for key in sorted(set(tower) - {"kind", "m", "modes", "orders"}):
            errors.append("tower: unknown key %r" % key)
        _validate_loop_section(tower, "tower", errors)
    elif kind == "counterexample":
        allowed = {"kind", "d", "depth", "a", "s_eigs", "region_radius", "thread_top"}
        for key in sorted(set(tower) - allowed):
            errors.append("tower: unknown key %r" % key)
        d = tower.get("d")
        depth = tower.get("depth")
        if not _is_int(d) or d < 1:
            errors.append("tower.d: must be a positive integer")
            d = None
        if not _is_int(depth) or depth < 1:
            errors.append("tower.depth: must be a positive integer")
            depth = None
        if "a" in tower and d is not None:
            _vector_at(tower["a"], "tower.a", errors, length=d)
        if "s_eigs" in tower and d is not None:
            _vector_at(tower["s_eigs"], "tower.s_eigs", errors, length=d)
        if "region_radius" in tower and (
            not _is_number(tower["region_radius"]) or tower["region_radius"] <= 0
        ):
            errors.append("tower.region_radius: must be strictly positive")
        if "thread_top" in tower and d is not None and depth is not None:
            _vector_at(tower["thread_top"], "tower.thread_top", errors, length=2 * d * depth)
    elif kind == "explicit":
        for key in sorted(set(tower) - {"kind", "levels", "bondings", "forms"}):
            errors.append("tower: unknown key %r" % key)
        _validate_explicit_tower(tower, errors)
    else:
        errors.append(
            "tower.kind: must be one of product, loop, counterexample, explicit; got %r"
            % (kind,)
        )


def _validate_explicit_tower(tower, errors: list) -> None:
    levels = tower.get("levels")
    dims = []
    if not isinstance(levels, list) or not levels:
        errors.append("tower.levels: must be a non-empty list")
        return
    for i, lv in enumerate(levels):
        where = "tower.levels[%d]" % i
        if not isinstance(lv, dict) or not _is_int(lv.get("dim")) or lv.get("dim", 0) < 1:
            errors.append("%s.dim: must be a positive integer" % where)
            dims.append(None)
            continue
        dims.append(lv["dim"])
        for key in sorted(set(lv) - {"dim", "gram", "label"}):
            errors.append("%s: unknown key %r" % (where, key))
        if "gram" in lv:
            g = _matrix_at(lv["gram"], where + ".gram", errors)
            if g is not None and g.shape != (lv["dim"], lv["dim"]):
                errors.append("%s.gram: expected shape (%d, %d)" % (where, lv["dim"], lv["dim"]))

    bondings = tower.get("bondings")
    if not isinstance(bondings, list) or len(bondings) != len(levels) - 1:
        errors.append(
            "tower.bondings: need %d matrices, got %s"
            % (len(levels) - 1, len(bondings) if isinstance(bondings, list) else "none")
        )
    else:
        for i, b in enumerate(bondings):
            m = _matrix_at(b, "tower.bondings[%d]" % i, errors)
            if m is None or dims[i] is None or dims[i + 1] is None:
                continue
            if m.shape != (dims[i], dims[i + 1]):
                errors.append(
                    "tower.bondings[%d]: expected shape (%d, %d) mapping level %d -> level %d, got (%d, %d)"
                    % (i, dims[i], dims[i + 1], i + 1, i, m.shape[0], m.shape[1])
                )

    forms = tower.get("forms")
    if not isinstance(forms, list) or len(forms) != len(levels):
        errors.append(
            "tower.forms: need %d matrices, got %s"
            % (len(levels), len(forms) if isinstance(forms, list) else "none")
        )
    else:
        for i, f in enumerate(forms):
            m = _matrix_at(f, "tower.forms[%d]" % i, errors)
            if m is None:
                continue
            if dims[i] is not None and m.shape != (dims[i], dims[i]):
                errors.append(
                    "tower.forms[%d]: expected shape (%d, %d), got (%d, %d)"
                    % (i, dims[i], dims[i], m.shape[0], m.shape[1])
                )
                continue
            _check_skew(m, "tower.forms[%d]" % i, errors)


def _validate_loop_section(loop, where: str, errors: list) -> None:
    if not _is_int(loop.get("m")) or loop.get("m", 0) < 1:
        errors.append("%s.m: must be a positive integer" % where)
    if not _is_int(loop.get("modes")) or loop.get("modes", -1) < 0:
        errors.append("%s.modes: must be a non-negative integer" % where)
    orders = loop.get("orders")
    if (
        not isinstance(orders, list)
        or not orders
        or any(not _is_int(k) or k < 0 for k in orders)
    ):
        errors.append("%s.orders: must be a non-empty list of non-negative integers" % where)
    elif any(b <= a for a, b in zip(orders, orders[1:])):
        errors.append("%s.orders: must be strictly increasing" % where)


def _validate_field_section(fobj, errors: list) -> int | None:
    """Returns the phase dimension when determinable."""
    if not isinstance(fobj, dict):
        errors.append("field: must be an object")
        return None
    kind = fobj.get("kind")
    if kind == "quadratic":
        allowed = {"kind", "l", "epsilon", "seed", "radius"}
        for key in sorted(set(fobj) - allowed):
            errors.append("field: unknown key %r" % key)
        if not _is_int(fobj.get("l")) or fobj.get("l", 0) < 1:
            errors.append("field.l: must be a positive integer")
            return None
        if not _is_number(fobj.get("epsilon")):
            errors.append("field.epsilon: must be a number")
        if "seed" in fobj and not _is_int(fobj["seed"]):
            errors.append("field.seed: must be an integer")
        if "radius" in fobj and (not _is_number(fobj["radius"]) or fobj["radius"] <= 0):
            errors.append("field.radius: must be strictly positive")
        return 2 * fobj["l"]
    if kind == "constant":
        allowed = {"kind", "matrix", "gram", "radius", "center"}
        for key in sorted(set(fobj) - allowed):
            errors.append("field: unknown key %r" % key)
        m = _matrix_at(fobj.get("matrix"), "field.matrix", errors)
        if m is None:
            return None
        if m.shape[0] != m.shape[1]:
            errors.append("field.matrix: must be square")
            return None
        _check_skew(m, "field.matrix", errors)
        if "gram" in fobj:
            g = _matrix_at(fobj["gram"], "field.gram", errors)
            if g is not None and g.shape != m.shape:
                errors.append("field.gram: shape does not match the matrix")
        if "radius" in fobj and (not _is_number(fobj["radius"]) or fobj["radius"] <= 0):
            errors.append("field.radius: must be strictly positive")
        if "center" in fobj:
            _vector_at(fobj["center"], "field.center", errors, length=m.shape[0])
        return m.shape[0]
    if kind == "marsden":
        allowed = {"kind", "d", "a", "shift_k", "s_eigs", "radius"}
        for key in sorted(set(fobj) - allowed):
            errors.append("field: unknown key %r" % key)
        d = fobj.get("d")
        if not _is_int(d) or d < 1:
            errors.append("field.d: must be a positive integer")
            return None
        a = _vector_at(fobj.get("a"), "field.a", errors, length=d)
        if a is not None and not np.linalg.norm(a) > 0:
            errors.append("field.a: must be nonzero")
        if "shift_k" in fobj and (not _is_int(fobj["shift_k"]) or fobj["shift_k"] < 1):
            errors.append("field.shift_k: must be a positive integer")
        if "s_eigs" in fobj:
            _vector_at(fobj["s_eigs"], "field.s_eigs", errors, length=d)
        if "radius" in fobj and (not _is_number(fobj["radius"]) or fobj["radius"] <= 0):
            errors.append("field.radius: must be strictly positive")
        return 2 * d
    errors.append(
        "field.kind: must be one of quadratic, constant, marsden; got %r" % (kind,)
    )
    return None


def _validate_experiment_doc(doc, errors: list) -> None:
    for key in sorted(set(doc) - {"experiment", "n_max", "expect_uniform"}):
        errors.append("unknown key %r" % key)
    exp = doc.get("experiment")
    if not isinstance(exp, dict):
        errors.append("experiment: must be an object")
        return
    kind = exp.get("kind", "counterexample")
    if kind == "counterexample":
        allowed = {"kind", "d", "a", "s_eigs", "region_radius"}
        for key in sorted(set(exp) - allowed):
            errors.append("experiment: unknown key %r" % key)
        d = exp.get("d", 4)
        if not _is_int(d) or d < 1:
            errors.append("experiment.d: must be a positive integer")
            d = None
        if "a" in exp and d is not None:
            _vector_at(exp["a"], "experiment.a", errors, length=d)
        if "s_eigs" in exp and d is not None:
            _vector_at(exp["s_eigs"], "experiment.s_eigs", errors, length=d)
        if "region_radius" in exp and (
            not _is_number(exp["region_radius"]) or exp["region_radius"] <= 0
        ):
            errors.append("experiment.region_radius: must be strictly positive")
    elif kind == "product":
        for key in sorted(set(exp) - {"kind", "factor_dim", "radius"}):
            errors.append("experiment: unknown key %r" % key)
        if "factor_dim" in exp and (not _is_int(exp["factor_dim"]) or exp["factor_dim"] < 1):
            errors.append("experiment.factor_dim: must be a positive integer")
        if "radius" in exp and (not _is_number(exp["radius"]) or exp["radius"] <= 0):
            errors.append("experiment.radius: must be strictly positive")
    else:
        errors.append("experiment.kind: must be counterexample or product, got %r" % (kind,))
    n_max = doc.get("n_max")
    if not _is_int(n_max) or n_max < 1:
        errors.append("n_max: must be a positive integer")
    if "expect_uniform" in doc and not isinstance(doc["expect_uniform"], bool):
        errors.append("expect_uniform: must be a boolean")


def _validate_moser_doc(doc, errors: list) -> None:
    allowed = {"field", "base_point", "r_start", "residual_tol", "verify_samples"}
    for key in sorted(set(doc) - allowed):
        errors.append("unknown key %r" % key)
    dim = _validate_field_section(doc.get("field"), errors)
    if "base_point" in doc:
        _vector_at(doc["base_point"], "base_point", errors, length=dim)
    if not _is_number(doc.get("r_start")) or doc.get("r_start", 0) <= 0:
        errors.append("r_start: must be strictly positive")
    if "residual_tol" in doc and (
        not _is_number(doc["residual_tol"]) or doc["residual_tol"] <= 0
    ):
        errors.append("residual_tol: must be strictly positive")
    if "verify_samples" in doc and (
        not _is_int(doc["verify_samples"]) or doc["verify_samples"] < 1
    ):
        errors.append("verify_samples: must be a positive integer")


def _validate_loop_doc(doc, errors: list) -> None:
    for key in sorted(set(doc) - {"loop", "r_start", "kappa_rel_tol"}):
        errors.append("unknown key %r" % key)
    loop = doc.get("loop")
    if not isinstance(loop, dict):
        errors.append("loop: must be an object")
        return
    for key in sorted(set(loop) - {"m", "modes", "orders"}):
        errors.append("loop: unknown key %r" % key)
    _validate_loop_section(loop, "loop", errors)
    if "r_start" in doc and (not _is_number(doc["r_start"]) or doc["r_start"] <= 0):
        errors.append("r_start: must be strictly positive")
    if "kappa_rel_tol" in doc and (
        not _is_number(doc["kappa_rel_tol"]) or doc["kappa_rel_tol"] <= 0
    ):
        errors.append("kappa_rel_tol: must be strictly positive")


def _validate_tower_doc(doc, errors: list) -> None:
    for key in sorted(set(doc) - {"tower"}):
        errors.append("unknown key %r" % key)
    _validate_tower_section(doc.get("tower"), errors)


_DOC_VALIDATORS = {
    "tower": _validate_tower_doc,
    "field": _validate_moser_doc,
    "experiment": _validate_experiment_doc,
    "loop": _validate_loop_doc,
}

_COMMAND_DOC_KEY = {
    "check-tower": "tower",
    "moser": "field",
    "shrink": "experiment",
    "product-control": "experiment",
    "loop-check": "loop",
}


def _document_errors(doc) -> list:
    """Validate any input document, inferring its type from its keys."""
    errors: list = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if "input" in doc or "command" in doc:
        # Run configs are validated by load_run_config; re-run its checks.
        try:
            _validate_runconfig_dict(doc)
        except ConfigError as exc:
            errors.extend(exc.errors)
        return errors
    for key, validator in _DOC_VALIDATORS.items():
        if key in doc:
            validator(doc, errors)
            return errors
    return [
        "unrecognized document: expected a 'tower', 'field', 'experiment', or 'loop' "
        "section, or a run config with 'input'"
    ]


def _validate_runconfig_dict(doc) -> None:
    _parse_runconfig(doc, base_dir=Path("."))


def validate_spec(path) -> ParseReport:
    """Schema-check a document, listing every violation with its location."""
    path = Path(path)
    try:
        doc = _load_json(path)
    except ConfigError as exc:
        return ParseReport(path=str(path), errors=exc.errors)
    return ParseReport(path=str(path), errors=tuple(_document_errors(doc)))


# ---------------------------------------------------------------------------
# Builders: validated documents to library objects.


def _build_checked(builder, *args, **kwargs):
    """Constructor failures are input problems, not pipeline failures."""
    try:
        return builder(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError([str(exc)])


def _build_factor(factor) -> SkewForm:
    if "l" in factor:
        return darboux_constant_form(factor["l"])
    matrix = np.array(factor["matrix"], dtype=float)
    gram = np.array(factor["gram"], dtype=float) if "gram" in factor else None
    return SkewForm(ModelSpace(matrix.shape[0], gram), matrix)


def _build_tower_doc(tower):
    kind = tower["kind"]
    if kind == "product":
        return make_product_tower([_build_factor(f) for f in tower["factors"]])
    if kind == "loop":
        return make_loop_tower(tower["m"], tower["modes"], tower["orders"])
    if kind == "counterexample":
        built, fields = make_counterexample_tower(
            tower["d"],
            tower["depth"],
            a=tower.get("a"),
            s_eigs=tower.get("s_eigs"),
            region_radius=tower.get("region_radius"),
        )
        top = tower.get("thread_top")
        if top is None:
            top = np.zeros(built.levels[-1].dim)
        thread = Thread.from_top(built, np.asarray(top, dtype=float))
        return built, field_sequence_at(built, fields, thread)
    levels = [
        ModelSpace(lv["dim"], np.array(lv["gram"], dtype=float) if "gram" in lv else None,
                   label=lv.get("label", ""))
        for lv in tower["levels"]
    ]
    bondings = [
        LinearMap(levels[i + 1], levels[i], np.array(b, dtype=float))
        for i, b in enumerate(tower["bondings"])
    ]
    built = build_tower(levels, bondings)
    forms = tuple(
        SkewForm(levels[i], np.array(f, dtype=float)) for i, f in enumerate(tower["forms"])
    )
    return built, FormSequence(built, forms)


def _build_field(fobj) -> FormField:
    kind = fobj["kind"]
    if kind == "quadratic":
        return make_quadratic_field(
            fobj["l"],
            fobj["epsilon"],
            seed=fobj.get("seed", 0),
            radius=fobj.get("radius", 1.0),
        )
    if kind == "constant":
        matrix = np.array(fobj["matrix"], dtype=float)
        gram = np.array(fobj["gram"], dtype=float) if "gram" in fobj else None
        space = ModelSpace(matrix.shape[0], gram)
        center = np.array(fobj.get("center", np.zeros(space.dim)), dtype=float)
        return FormField.constant(SkewForm(space, matrix), center, fobj.get("radius", 1.0))
    spec = MarsdenSpec(
        d=fobj["d"],
        a=np.array(fobj["a"], dtype=float),
        shift_k=fobj.get("shift_k", 1),
        s_eigs=np.array(fobj["s_eigs"], dtype=float) if "s_eigs" in fobj else None,
    )
    return make_marsden_field(spec, radius=fobj.get("radius"))


# ---------------------------------------------------------------------------
# Pipelines: (doc, config) -> (passed, payload, csv table or None, text lines).


def _pipeline_check_tower(doc, cfg: RunConfig):
    tower, fs = _build_checked(_build_tower_doc, doc["tower"])
    tol = float(cfg.tolerances.get("rank_tol", RANK_TOL))
    comp = check_compatible_sequence(fs, tol=tol)
    cls = classify_tower(tower)
    bonding_rows = []
    for i, per in enumerate(comp.per_level):
        bonding_rows.append(
            {
                "bonding": i,
                "ok": per.ok,
                "ker_dim": per.ker_dim,
                "pullback_residual": per.pullback_residual,
                "transversality_defect": per.transversality_defect,
                "dense_range": per.dense_range,
                "direct_sum_defect": per.direct_sum_defect,
            }
        )
    payload = {
        "levels": [
            {"level": i, "dim": lv.dim, "label": lv.label}
            for i, lv in enumerate(tower.levels)
        ],
        "bondings": bonding_rows,
        "failed_composites": [list(pair) for pair in comp.failed_composites],
        "compatible": comp.ok,
        "classification": asdict(cls),
    }
    table = (
        "bonding,ok,ker_dim,pullback_residual,transversality_defect,dense_range",
        [
            (r["bonding"], r["ok"], r["ker_dim"], r["pullback_residual"],
             r["transversality_defect"], r["dense_range"])
            for r in bonding_rows
        ],
    )
    text = [
        "levels: %d (top dim %d)" % (len(tower.levels), tower.levels[-1].dim),
        "compatible: %s" % comp.ok,
        "reduced: %s  surjective: %s" % (cls.reduced, cls.surjective),
    ]
    return comp.ok, payload, table, text


def _pipeline_moser(doc, cfg: RunConfig):
    field_obj = _build_checked(_build_field, doc["field"])
    base = np.asarray(doc.get("base_point", np.zeros(field_obj.space.dim)), dtype=float)
    family = _build_checked(MoserFamily.darboux_target, field_obj, base)
    integrator = IntegratorConfig(
        dt=float(cfg.tolerances.get("dt", 1e-3)),
        record_trajectories=cfg.dump_trajectories,
    )
    report = moser_flow(
        family,
        base,
        float(doc["r_start"]),
        integrator,
        quad_nodes=int(cfg.tolerances.get("quad_nodes", QUAD_NODES)),
        seed=cfg.seed,
        verify_samples=int(doc.get("verify_samples", 12)),
        closed_tol=float(cfg.tolerances.get("closed_tol", 1e-6)),
        cond_cap=float(cfg.tolerances.get("cond_cap", COND_CAP)),
        sing_tol=float(cfg.tolerances.get("sing_tol", SING_TOL)),
    )
    tol = float(doc.get("residual_tol", 1e-5))
    passed = report.pullback_residual <= tol and report.fixed_point_error <= 1e-8
    payload = {
        "base_point": list(report.base_point),
        "validity_radius": report.validity_radius,
        "chart_radius": report.chart_radius,
        "pullback_residual": report.pullback_residual,
        "residual_tol": tol,
        "steps": report.steps,
        "step_size": report.step_size,
        "fixed_point_error": report.fixed_point_error,
        "lipschitz_estimate": report.lipschitz_estimate,
    }
    table = (
        "validity_radius,chart_radius,pullback_residual,steps,step_size,"
        "fixed_point_error,lipschitz_estimate",
        [
            (
                report.validity_radius,
                report.chart_radius,
                report.pullback_residual,
                report.steps,
                report.step_size,
                report.fixed_point_error,
                report.lipschitz_estimate,
            )
        ],
    )
    text = [
        "validity_radius: %s" % repr(float(report.validity_radius)),
        "chart_radius: %s" % repr(float(report.chart_radius)),
        "pullback_residual: %s (tol %s)" % (repr(float(report.pullback_residual)), repr(tol)),
        "fixed_point_error: %s" % repr(float(report.fixed_point_error)),
        "steps: %d at dt %s" % (report.steps, repr(float(report.step_size))),
    ]
    trajectories = report.trajectories if cfg.dump_trajectories else None
    return passed, payload, table, text, trajectories


def _run_shrink(doc, cfg: RunConfig):
    result = shrink_experiment(
        doc["experiment"],
        int(doc["n_max"]),
        cond_cap=float(cfg.tolerances.get("cond_cap", COND_CAP)),
        sing_tol=float(cfg.tolerances.get("sing_tol", SING_TOL)),
        seed=cfg.seed,
    )
    payload = {
        "rows": [asdict(row) for row in result.rows],
        "level1_radii": list(result.level1_radii),
        "fitted_exponent": result.fitted_exponent,
        "uniform_radius_ok": result.uniform_radius_ok,
        "diagnosis": result.diagnosis,
        "assembly": asdict(result.assembly),
        "bounds": asdict(result.bounds),
    }
    table = (
        "n,dim,r_validity,bound,cond_at_base",
        [(row.n, row.dim, row.r_validity, row.bound, row.cond_at_base) for row in result.rows],
    )
    text = [
        "levels: %d" % len(result.rows),
        "fitted_exponent: %s"
        % ("none" if result.fitted_exponent is None else repr(float(result.fitted_exponent))),
        "uniform_radius_ok: %s" % result.uniform_radius_ok,
        "assembly_ok: %s" % result.assembly.ok,
        "diagnosis: %s" % result.diagnosis,
    ]
    return result, payload, table, text


def _pipeline_shrink(doc, cfg: RunConfig):
    result, payload, table, text = _run_shrink(doc, cfg)
    expect = doc.get("expect_uniform")
    passed = True if expect is None else result.uniform_radius_ok == expect
    return passed, payload, table, text


def _pipeline_product_control(doc, cfg: RunConfig):
    if doc["experiment"].get("kind", "counterexample") != "product":
        raise ConfigError(["experiment.kind: product-control requires kind 'product'"])
    result, payload, table, text = _run_shrink(doc, cfg)
    passed = result.uniform_radius_ok and result.assembly.ok
    return passed, payload, table, text


def _pipeline_loop_check(doc, cfg: RunConfig):
    loop = doc["loop"]
    tower, fs = _build_checked(make_loop_tower, loop["m"], loop["modes"], loop["orders"])
    tol = float(cfg.tolerances.get("rank_tol", RANK_TOL))
    comp = check_compatible_sequence(fs, tol=tol)
    residuals = [per.pullback_residual for per in comp.per_level]
    exact_ok = comp.ok and all(r <= 1e-12 for r in residuals)

    kappas = [weakness_conditioning(form).kappa for form in fs.forms]
    law = [(1.0 + loop["modes"] ** 2) ** k for k in loop["orders"]]
    rel = max(abs(k - expect) / expect for k, expect in zip(kappas, law))
    kappa_ok = rel <= float(doc.get("kappa_rel_tol", 1e-9))

    r_start = float(doc.get("r_start", 1.0))
    identity_ok = True
    chart_rows = []
    for i, form in enumerate(fs.forms):
        family = MoserFamily.darboux_target(
            FormField.constant(form, np.zeros(form.space.dim), r_start),
            np.zeros(form.space.dim),
        )
        rep = moser_flow(family, np.zeros(form.space.dim), r_start, seed=cfg.seed)
        good = rep.steps == 0 and rep.pullback_residual == 0.0 and rep.chart_radius == r_start
        identity_ok = identity_ok and good
        chart_rows.append({"level": i, "identity_chart": good})

    passed = exact_ok and kappa_ok and identity_ok
    payload = {
        "orders": list(loop["orders"]),
        "kappas": kappas,
        "kappa_law": law,
        "kappa_max_rel_error": rel,
        "pullback_residuals": residuals,
        "compatible": comp.ok,
        "exact_compatibility": exact_ok,
        "identity_charts": chart_rows,
    }
    rows = []
    for i, k in enumerate(loop["orders"]):
        residual = residuals[i - 1] if i >= 1 else 0.0
        rows.append((i, k, kappas[i], residual))
    table = ("level,order,kappa,pullback_residual", rows)
    text = [
        "orders: %s" % (list(loop["orders"]),),
        "exact_compatibility: %s" % exact_ok,
        "kappa_max_rel_error: %s" % repr(float(rel)),
        "identity_charts: %s" % identity_ok,
    ]
    return passed, payload, table, text


# ---------------------------------------------------------------------------
# Serialization.


def _json_safe(value):
    # Non-finite floats become strings so strict JSON stays loadable.
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return value


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_reports(cfg: RunConfig, passed: bool, payload, table, text, trajectories=None):
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.formats:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": cfg.command,
            "seed": cfg.seed,
            "passed": bool(passed),
            "report": _json_safe(payload),
        }
        (out / "report.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    if "csv" in cfg.formats and table is not None:
        header, rows = table
        lines = [header]
        lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
        (out / "report.csv").write_text("\n".join(lines) + "\n")
    if "text" in cfg.formats:
        lines = ["%s: %s" % (cfg.command, "PASS" if passed else "FAIL")]
        lines.extend(text)
        (out / "report.txt").write_text("\n".join(lines) + "\n")
    if trajectories is not None:
        dim = trajectories.shape[-1]
        lines = ["seed,step," + ",".join("x%d" % i for i in range(dim))]
        for s in range(trajectories.shape[0]):
            for step in range(trajectories.shape[1]):
                coords = ",".join(repr(float(v)) for v in trajectories[s, step])
                lines.append("%d,%d,%s" % (s, step, coords))
        (out / "trajectories.csv").write_text("\n".join(lines) + "\n")


_PIPELINES = {
    "check-tower": _pipeline_check_tower,
    "moser": _pipeline_moser,
    "shrink": _pipeline_shrink,
    "product-control": _pipeline_product_control,
    "loop-check": _pipeline_loop_check,
}


def run(config: RunConfig) -> int:
    """Execute one pipeline and write its reports; returns the exit status."""
    try:
        doc = _load_json(config.input)
    except ConfigError as exc:
        for line in exc.errors:
            print("input error: %s" % line, file=sys.stderr)
        return EXIT_INPUT

    errors: list = []
    if not isinstance(doc, dict):
        errors = ["document must be a JSON object"]
    else:
        key = _COMMAND_DOC_KEY[config.command]
        if key not in doc:
            errors = [
                "document for %s must have a %r section" % (config.command, key)
            ]
        else:
            _DOC_VALIDATORS[key](doc, errors)
    if errors:
        for line in errors:
            print("input error: %s: %s" % (config.input, line), file=sys.stderr)
        return EXIT_INPUT

    try:
        outcome = _PIPELINES[config.command](doc, config)
    except ConfigError as exc:
        for line in exc.errors:
            print("input error: %s" % line, file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, LeftValidityRegionError):
            payload.update(t=exc.t, x=exc.x, sigma_min=exc.sigma_min)
        # The error payload must land on disk even if only csv was asked for.
        error_formats = [f for f in config.formats if f != "csv"]
        if "json" not in error_formats:
            error_formats.append("json")
        _write_reports(
            replace(config, formats=tuple(error_formats)),
            False,
            {"error": payload},
            None,
            ["error: %s" % exc],
        )
        print("pipeline error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL

    if len(outcome) == 5:
        passed, payload, table, text, trajectories = outcome
    else:
        passed, payload, table, text = outcome
        trajectories = None
    _write_reports(config, passed, payload, table, text, trajectories)
    status = "PASS" if passed else "FAIL"
    print("%s: %s" % (config.command, status))
    return EXIT_PASS if passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symptower",
        description="Run tower compatibility checks, chart constructions, and "
        "shrinking-radius experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help="run the %s pipeline" % name)
        p.add_argument("--config", required=True, help="run config JSON file")
        p.add_argument("--output", help="report directory (overrides the config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides the config)")
        p.add_argument(
            "--format",
            help="comma-separated subset of csv,json,text (overrides the config)",
        )
        p.add_argument(
            "--dump-trajectories",
            action="store_true",
            help="write integration trajectories (moser only)",
        )
    v = sub.add_parser("validate", help="schema-check a spec or run config file")
    v.add_argument("--config", required=True, help="file to validate")

    args = parser.parse_args(argv)
    if args.command == "validate":
        report = validate_spec(Path(args.config))
        for line in report.errors:
            print(line)
        print("%d errors" % len(report.errors))
        return EXIT_PASS if report.ok else EXIT_INPUT

    formats = None
    if args.format is not None:
        formats = [f.strip() for f in args.format.split(",") if f.strip()]
    try:
        config = load_run_config(
            Path(args.config),
            command=args.command,
            output=args.output,
            seed=args.seed,
            formats=formats,
            dump_trajectories=args.dump_trajectories,
        )
    except ConfigError as exc:
        for line in exc.errors:
            print("config error: %s" % line, file=sys.stderr)
        return EXIT_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
