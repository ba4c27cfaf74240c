"""Config-driven command line runner.

``symptower <command> --config <file>`` reads a small JSON run config
(pointing at an input spec document, with optional tolerance overrides),
executes one pipeline, and writes CSV/JSON/text reports into the output
directory.  Exit codes: 0 when the pipeline's assertion passes, 1 when a
check fails or a pipeline raises one of the library's numerical errors,
2 for unreadable or invalid input.  All outputs are byte-reproducible
for a fixed seed and tolerance set.

Inputs are checked against one schema table: ``_DOCUMENTS`` holds the
input documents by the section that names them, ``_RUN_CONFIG`` the run
config.  Each section lists its allowed keys, which are required, their
defaults and one rule per key (positive integer, strictly positive
number, a vector whose length a sibling key fixes, a nested section, and
so on); a section with a ``kind`` lists the keys of each kind.
``_Section.walk`` checks a document against the table and reports every
violation with its location.  Only relations the per-key rules cannot
express are code: the explicit tower's shapes, the product experiment
that ``product-control`` needs and the run config's command-line
overrides.

Validation uses the standard library alone, so ``symptower validate``
never imports numpy.  ``run`` imports the library before it reads the
input, and the builders, pipelines and serializers import the names they
use when they are called.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import SKEW_TOL

if TYPE_CHECKING:
    import numpy as np

    from .linalg import SkewForm
    from .moser import FormField

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
# Bumped when a report key is removed or changes meaning (see README).
SCHEMA_VERSION = "2"
# Each command, with the section of the input document it reads.
COMMANDS = {
    "check-tower": "tower",
    "moser": "field",
    "shrink": "experiment",
    "product-control": "experiment",
    "loop-check": "loop",
}
FORMATS = ("csv", "json", "text")
TOLERANCE_KEYS = ("rank_tol", "closed_tol", "sing_tol", "cond_cap", "dt")
# The moser command passes only when the chart fixes its base point this well.
_FIXED_POINT_TOL = 1e-8


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


def _numbers(values) -> bool:
    """Whether every entry is an int or float that is finite as a float.

    The types are tested together, and ``math.isfinite`` over the list: it
    rejects JSON's ``1e400`` and ``NaN``, and overflows on an integer past
    the largest float.
    """
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:
        return False


def _is_number(v) -> bool:
    return _numbers((v,))


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


# ---------------------------------------------------------------------------
# Input schema: the tables _DOCUMENTS and _RUN_CONFIG, walked by _Section.walk.


class _Invalid(ValueError):
    """A rule's verdict on one value; ``kept`` still serves the sibling rules."""

    def __init__(self, message: str, kept=None):
        super().__init__(message)
        self.kept = kept


@dataclass(frozen=True)
class _Key:
    """An allowed key of a section.

    An absent required key is checked as null, so it fails with its rule's
    message; ``default`` stands in for an absent value.  When a ``stop`` key
    fails, the rest of its section is not checked.
    """

    rule: object
    required: bool = False
    default: object = None
    stop: bool = False


def _apply(rule, value, ok: dict, where: str, errors: list):
    """The value ``rule`` keeps, or None once the reason is in ``errors``.

    A plain rule is ``rule(value, ok) -> kept`` and raises ``_Invalid``; ``ok``
    holds the kept values of the section's earlier keys, and a rule that reads
    one which was not kept (a KeyError) is skipped.
    """
    try:
        if isinstance(rule, (_Section, _Choice, _ListOf)):
            return rule.walk(value, where, errors)
        try:
            return rule(value, ok)
        except KeyError:
            return None
    except _Invalid as bad:
        errors.append("%s: %s" % (where, bad))
        return bad.kept


@dataclass(frozen=True)
class _Section:
    """A JSON object with a fixed set of keys, checked in table order.

    ``check(ok, where, errors)``, if given, adds the relations between keys
    that no single rule sees.
    """

    keys: dict
    check: object = None
    unknown: str = "unknown key %r"

    def walk(self, value, where: str, errors: list, extra=()) -> dict:
        if not isinstance(value, dict):
            raise _Invalid("must be an object")
        prefix = where + ": " if where else ""
        for key in sorted(set(value) - set(self.keys) - set(extra)):
            errors.append(prefix + self.unknown % key)
        ok = {}
        for key, spec in self.keys.items():
            if key in value or spec.required or spec.default is not None:
                at = "%s.%s" % (where, key) if where else key
                kept = _apply(spec.rule, value.get(key, spec.default), ok, at, errors)
                if kept is not None:
                    ok[key] = kept
                elif spec.stop:
                    break
        if self.check is not None:
            self.check(ok, where, errors)
        return ok


@dataclass(frozen=True)
class _Choice:
    """A section whose keys depend on its ``kind``.

    With ``tag=None`` they depend instead on which one of the variant names
    the section has as a key.
    """

    variants: dict
    tag: str | None = "kind"
    default: str | None = None
    message: str = ""

    def walk(self, value, where: str, errors: list) -> dict:
        if not isinstance(value, dict):
            raise _Invalid("must be an object")
        if self.tag is None:
            present = [name for name in self.variants if name in value]
            if len(present) != 1:
                raise _Invalid("provide exactly one of %s" % " or ".join(map(repr, self.variants)))
            return self.variants[present[0]].walk(value, where, errors)
        kind = value.get(self.tag, self.default)
        if not isinstance(kind, str) or kind not in self.variants:
            message = self.message or "must be one of %s; got %%r" % ", ".join(self.variants)
            errors.append("%s.%s: %s" % (where, self.tag, message % (kind,)))
            return {}
        return self.variants[kind].walk(value, where, errors, extra=(self.tag,))


@dataclass(frozen=True)
class _ListOf:
    """A non-empty JSON list whose entries all follow ``item``."""

    item: object

    def walk(self, value, where: str, errors: list) -> list:
        if not isinstance(value, list) or not value:
            raise _Invalid("must be a non-empty list")
        return [_apply(self.item, v, {}, "%s[%d]" % (where, i), errors)
                for i, v in enumerate(value)]


def _rule(message: str, test):
    def rule(value, ok):
        if not test(value):
            raise _Invalid(message)
        return value

    return rule


_POSITIVE_INT = _rule("must be a positive integer", lambda v: _is_int(v) and v >= 1)
_NON_NEGATIVE_INT = _rule("must be a non-negative integer", lambda v: _is_int(v) and v >= 0)
_INTEGER = _rule("must be an integer", _is_int)
_NUMBER = _rule("must be a number", _is_number)
_POSITIVE = _rule("must be strictly positive", lambda v: _is_number(v) and v > 0)
_BOOLEAN = _rule("must be a boolean", lambda v: isinstance(v, bool))
_PATH = _rule("must be a path string", lambda v: isinstance(v, str) and v != "")
_INPUT = _rule("required path string", lambda v: isinstance(v, str) and v != "")
_ANY = _rule("", lambda v: True)
_FORMATS = _rule(
    "must be a non-empty subset of %s" % ", ".join(FORMATS),
    lambda v: isinstance(v, list) and v and all(f in FORMATS for f in v)
    and len(set(v)) == len(v),
)


def _step(value, ok):
    if _POSITIVE(value, ok) > 1.0:
        raise _Invalid("must lie in (0, 1]")
    return value


def _orders(value, ok):
    if not isinstance(value, list) or not value or any(not _is_int(k) or k < 0 for k in value):
        raise _Invalid("must be a non-empty list of non-negative integers")
    if any(b <= a for a, b in zip(value, value[1:])):
        raise _Invalid("must be strictly increasing")
    return value


def _vector(length=None, nonzero: bool = False):
    """A list of numbers; ``length(ok)`` reads the siblings that fix its size."""

    def rule(value, ok):
        n = None if length is None else length(ok)
        if not isinstance(value, list) or not _numbers(value):
            raise _Invalid("must be a list of numbers")
        if n is not None and len(value) != n:
            raise _Invalid("expected %d entries, got %d" % (n, len(value)))
        if nonzero and not _norm(value) > 0:
            raise _Invalid("must be nonzero")
        return value

    return rule


def _norm(values: list) -> float:
    """The Euclidean norm of numbers, with np.linalg.norm's verdicts.

    The squares are summed exactly, but each square underflows and
    overflows as a float, as numpy's do: [1e-200] has norm 0.
    """
    try:
        return math.sqrt(math.fsum(map(operator.mul, values, values)))
    except OverflowError:  # the squares sum past the largest float
        return math.inf


def _matrix(value, ok=None) -> list:
    if (
        not isinstance(value, list)
        or not value
        or any(not isinstance(row, list) for row in value)
        or len({len(row) for row in value}) != 1
        or not all(map(_numbers, value))
    ):
        raise _Invalid("must be a rectangular matrix of numbers")
    return value


def _shape(m: list) -> tuple[int, int]:
    """The (rows, columns) of a checked matrix."""
    return len(m), len(m[0])


def _skew_defect(m: list) -> float:
    """``|m + m.T| / max(1, |m|)`` of a square matrix, in Frobenius norms.

    A matrix whose largest entry is 1 or more is scaled first by the power
    of two ``unit`` that brings that entry below 1, which keeps every bit of
    the quotient and lets no sum overflow.
    """
    top = max(map(abs, chain.from_iterable(m)), default=0.0)
    unit = math.ldexp(1.0, -max(math.frexp(top)[1], 0))
    m = [[v * unit for v in row] for row in m]
    entries = list(chain.from_iterable(m))
    sums = list(map(operator.add, entries, chain.from_iterable(zip(*m))))
    return _norm(sums) / max(unit, _norm(entries))


def _skew(m: list, ok=None) -> list:
    defect = _skew_defect(m)
    if defect > SKEW_TOL:
        # Kept anyway: its shape still sizes the sibling keys.
        raise _Invalid("matrix is not skew (symmetry defect %.3e)" % defect, kept=m)
    return m


def _skew_matrix(value, ok) -> list:
    m = _matrix(value)
    rows, columns = _shape(m)
    if rows != columns:
        raise _Invalid("must be square")
    return _skew(m)


def _gram(value, ok) -> list:
    if _shape(_matrix(value)) != _shape(ok["matrix"]):
        raise _Invalid("shape does not match the matrix")
    return value


def _phase_dim(field: dict) -> int | None:
    """The phase dimension a checked field section fixes, if it fixes one."""
    if "matrix" in field:  # constant
        return len(field["matrix"])
    for key in ("l", "d"):  # quadratic, marsden
        if key in field:
            return 2 * field[key]
    return None


def _explicit_tower(ok: dict, where: str, errors: list) -> None:
    """Level dimensions, then the bonding and form shapes they fix."""
    levels = ok.get("levels")
    if not isinstance(levels, list) or not levels:
        errors.append(where + ".levels: must be a non-empty list")
        return
    dims = []
    for i, level in enumerate(levels):
        at = "%s.levels[%d]" % (where, i)
        dim = level.get("dim") if isinstance(level, dict) else None
        dims.append(dim if _is_int(dim) and dim >= 1 else None)
        if dims[-1] is None:
            errors.append(at + ".dim: must be a positive integer")
            continue
        for key in sorted(set(level) - {"dim", "gram", "label"}):
            errors.append("%s: unknown key %r" % (at, key))
        if "gram" in level:
            gram = _apply(_matrix, level["gram"], ok, at + ".gram", errors)
            if gram is not None and _shape(gram) != (dim, dim):
                errors.append("%s.gram: expected shape (%d, %d)" % (at, dim, dim))
    for key, count in (("bondings", len(dims) - 1), ("forms", len(dims))):
        items = ok.get(key)
        if not isinstance(items, list) or len(items) != count:
            got = len(items) if isinstance(items, list) else "none"
            errors.append("%s.%s: need %d matrices, got %s" % (where, key, count, got))
            continue
        for i, item in enumerate(items):
            at = "%s.%s[%d]" % (where, key, i)
            m = _apply(_matrix, item, ok, at, errors)
            if m is None:
                continue
            if key == "bondings":
                if None not in dims[i : i + 2] and _shape(m) != (dims[i], dims[i + 1]):
                    errors.append(
                        "%s: expected shape (%d, %d) mapping level %d -> level %d, got (%d, %d)"
                        % (at, dims[i], dims[i + 1], i + 1, i, *_shape(m))
                    )
            elif dims[i] is not None and _shape(m) != (dims[i], dims[i]):
                errors.append(
                    "%s: expected shape (%d, %d), got (%d, %d)" % (at, dims[i], dims[i], *_shape(m))
                )
            else:
                _apply(_skew, m, ok, at, errors)


def _s_eigs(value, ok):
    """The metric spectrum: d strictly positive, non-increasing numbers."""
    _vector(lambda ok: ok["d"])(value, ok)
    if not all(v > 0 for v in value):
        raise _Invalid("must be strictly positive")
    if any(b > a for a, b in zip(value, value[1:])):
        raise _Invalid("must be non-increasing")
    return value


_LOOP = {
    "m": _Key(_POSITIVE_INT, required=True),
    "modes": _Key(_NON_NEGATIVE_INT, required=True),
    "orders": _Key(_orders, required=True),
}
# Shared by the counterexample tower and experiment; both declare "d" first.
_COUNTEREXAMPLE = {
    "a": _Key(_vector(lambda ok: ok["d"], nonzero=True)),
    "s_eigs": _Key(_s_eigs),
    "region_radius": _Key(_POSITIVE),
}
_FACTOR = _Choice({
    "l": _Section({"l": _Key(_POSITIVE_INT, required=True)}),
    "matrix": _Section({
        "matrix": _Key(_skew_matrix, required=True, stop=True), "gram": _Key(_gram),
    }),
}, tag=None)
_TOWER = _Choice({
    "product": _Section({"factors": _Key(_ListOf(_FACTOR), required=True)}),
    "loop": _Section(_LOOP),
    "counterexample": _Section({
        "d": _Key(_POSITIVE_INT, required=True),
        "depth": _Key(_POSITIVE_INT, required=True),
        **_COUNTEREXAMPLE,
        "thread_top": _Key(_vector(lambda ok: 2 * ok["d"] * ok["depth"])),
    }),
    "explicit": _Section(
        dict.fromkeys(("levels", "bondings", "forms"), _Key(_ANY, required=True)),
        check=_explicit_tower,
    ),
})
_FIELD = _Choice({
    "quadratic": _Section({
        "l": _Key(_POSITIVE_INT, required=True, stop=True),
        "epsilon": _Key(_NUMBER, required=True),
        "seed": _Key(_INTEGER),
        "radius": _Key(_POSITIVE),
    }),
    "constant": _Section({
        "matrix": _Key(_skew_matrix, required=True, stop=True),
        "gram": _Key(_gram),
        "radius": _Key(_POSITIVE),
        "center": _Key(_vector(lambda ok: len(ok["matrix"]))),
    }),
    "marsden": _Section({
        "d": _Key(_POSITIVE_INT, required=True, stop=True),
        "a": _Key(_vector(lambda ok: ok["d"], nonzero=True), required=True),
        "shift_k": _Key(_POSITIVE_INT),
        "s_eigs": _Key(_s_eigs),
        "radius": _Key(_POSITIVE),
    }),
})
_EXPERIMENT = _Choice(
    {
        "counterexample": _Section({"d": _Key(_POSITIVE_INT, default=4), **_COUNTEREXAMPLE}),
        "product": _Section({"factor_dim": _Key(_POSITIVE_INT), "radius": _Key(_POSITIVE)}),
    },
    default="counterexample",
    message="must be counterexample or product, got %r",
)
# Input documents by the section that names them; a document without a
# command is read as the first of these sections it has.
_DOCUMENTS = {
    "tower": _Section({"tower": _Key(_TOWER, required=True)}),
    "field": _Section({
        "field": _Key(_FIELD, required=True),
        "base_point": _Key(_vector(lambda ok: _phase_dim(ok.get("field", {})))),
        "r_start": _Key(_POSITIVE, required=True),
        "residual_tol": _Key(_POSITIVE),
        "verify_samples": _Key(_POSITIVE_INT),
    }),
    "experiment": _Section({
        "experiment": _Key(_EXPERIMENT, required=True, stop=True),
        "n_max": _Key(_POSITIVE_INT, required=True),
        "expect_uniform": _Key(_BOOLEAN),
    }),
    "loop": _Section({
        "loop": _Key(_Section(_LOOP), required=True, stop=True),
        "r_start": _Key(_POSITIVE),
        "kappa_rel_tol": _Key(_POSITIVE),
    }),
}
_TOLERANCE_RULES = {"dt": _step}
_RUN_CONFIG = _Section(
    {
        "command": _Key(_ANY),
        "input": _Key(_INPUT, required=True),
        "tolerances": _Key(_Section({
            key: _Key(_TOLERANCE_RULES.get(key, _POSITIVE)) for key in TOLERANCE_KEYS
        })),
        "seed": _Key(_NON_NEGATIVE_INT),
        "output": _Key(_PATH),
        "formats": _Key(_FORMATS),
    },
    unknown="unknown config key %r",
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
    if formats is not None:
        doc = dict(doc, formats=list(formats))
    errors: list = []
    ok = _RUN_CONFIG.walk(doc, "", errors)

    doc_command = doc.get("command")
    if doc_command is not None and doc_command not in COMMANDS:
        errors.append("command must be one of %s, got %r" % (", ".join(COMMANDS), doc_command))
    if command is not None and doc_command is not None and command != doc_command:
        errors.append("config names command %r but %r was invoked" % (doc_command, command))
    command = command or doc_command
    if command is None:
        errors.append("no command given")
    if seed is not None and seed < 0:
        errors.append("seed: must be a non-negative integer")
    if dump_trajectories and command != "moser":
        errors.append("--dump-trajectories only applies to the moser command")
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        command=command,
        input=(path.parent / ok["input"]).resolve(),
        tolerances=ok.get("tolerances", {}),
        seed=ok.get("seed", 0) if seed is None else seed,
        output=Path(ok.get("output", ".") if output is None else output),
        formats=tuple(ok.get("formats", FORMATS)),
        dump_trajectories=dump_trajectories,
    )


def _document_errors(doc, command: str | None = None) -> list:
    """Every schema violation of an input document, each with its location.

    ``command`` names the pipeline that will read the document; without it
    the document's section is inferred from its keys.
    """
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    section = COMMANDS.get(command) or next((key for key in _DOCUMENTS if key in doc), None)
    if command is not None and section not in doc:
        return ["document for %s must have a %r section" % (command, section)]
    if section is None:
        return [
            "unrecognized document: expected a 'tower', 'field', 'experiment', or "
            "'loop' section, or a run config with 'input'"
        ]
    errors: list = []
    _DOCUMENTS[section].walk(doc, "", errors)
    experiment = doc.get("experiment")
    if (command == "product-control" and isinstance(experiment, dict)
            and experiment.get("kind", "counterexample") == "counterexample"):
        errors.append("experiment.kind: product-control requires kind 'product'")
    return errors


def _load_input(config: RunConfig):
    """The input document a run config names, schema-checked for its command."""
    doc = _load_json(config.input)
    errors = _document_errors(doc, config.command)
    if errors:
        raise ConfigError(["%s: %s" % (config.input, line) for line in errors])
    return doc


def validate_spec(path) -> ParseReport:
    """Schema-check a document or run config, listing every violation with its location.

    A run config is checked together with the input document it names, as
    ``run`` reads it.
    """
    path = Path(path)
    try:
        doc = _load_json(path)
        if isinstance(doc, dict) and ("input" in doc or "command" in doc):
            _load_input(load_run_config(path))
            return ParseReport(path=str(path), errors=())
    except ConfigError as exc:
        return ParseReport(path=str(path), errors=exc.errors)
    return ParseReport(path=str(path), errors=tuple(_document_errors(doc)))


# ---------------------------------------------------------------------------
# Builders: validated documents to library objects.


def _build_checked(builder, *args, **kwargs):
    """Constructor failures are input problems, not pipeline failures."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError([str(exc)])


def _skew_form(section) -> SkewForm:
    """The form of a section with a 'matrix' and an optional 'gram'."""
    from .linalg import ModelSpace, SkewForm

    matrix = section["matrix"]
    return SkewForm(ModelSpace(len(matrix), section.get("gram")), matrix)


def _build_tower_doc(tower):
    import numpy as np

    from .linalg import LinearMap, ModelSpace, SkewForm, darboux_constant_form
    from .models import (
        field_sequence_at, make_counterexample_tower, make_loop_tower, make_product_tower,
    )
    from .tower import FormSequence, Thread, build_tower

    kind = tower["kind"]
    if kind == "product":
        return make_product_tower([
            darboux_constant_form(f["l"]) if "l" in f else _skew_form(f) for f in tower["factors"]
        ])
    if kind == "loop":
        return make_loop_tower(tower["m"], tower["modes"], tower["orders"])
    if kind == "counterexample":
        built, fields = make_counterexample_tower(
            tower["d"], tower["depth"], a=tower.get("a"), s_eigs=tower.get("s_eigs"),
            region_radius=tower.get("region_radius"),
        )
        thread = Thread.from_top(built, tower.get("thread_top", np.zeros(built.levels[-1].dim)))
        return built, field_sequence_at(built, fields, thread)
    levels = [
        ModelSpace(lv["dim"], lv.get("gram"), label=lv.get("label", "")) for lv in tower["levels"]
    ]
    bondings = [LinearMap(levels[i + 1], levels[i], b) for i, b in enumerate(tower["bondings"])]
    built = build_tower(levels, bondings)
    forms = tuple(SkewForm(levels[i], f) for i, f in enumerate(tower["forms"]))
    return built, FormSequence(built, forms)


def _build_field(fobj) -> FormField:
    import numpy as np

    from .models import MarsdenSpec, make_marsden_field, make_quadratic_field
    from .moser import FormField

    kind = fobj["kind"]
    if kind == "quadratic":
        return make_quadratic_field(
            fobj["l"], fobj["epsilon"], seed=fobj.get("seed", 0), radius=fobj.get("radius", 1.0)
        )
    if kind == "constant":
        form = _skew_form(fobj)
        center = fobj.get("center", np.zeros(form.space.dim))
        return FormField.constant(form, center, fobj.get("radius", 1.0))
    spec = MarsdenSpec(
        d=fobj["d"], a=fobj["a"], shift_k=fobj.get("shift_k", 1), s_eigs=fobj.get("s_eigs"),
    )
    return make_marsden_field(spec, radius=fobj.get("radius"))


# ---------------------------------------------------------------------------
# Pipelines: (doc, config) -> _Result.


@dataclass(frozen=True)
class _Result:
    """What a pipeline hands to the report writers."""

    passed: bool
    payload: dict
    table: tuple | None  # (csv header, rows)
    text: list
    trajectories: np.ndarray | None = None


def _table(columns: str, records) -> tuple:
    """A csv table: the header, and each record's values in column order."""
    keys = columns.split(",")
    return columns, [tuple(record[key] for key in keys) for record in records]


def _pipeline_check_tower(doc, cfg: RunConfig):
    from .linalg import RANK_TOL
    from .tower import check_compatible_sequence, classify_tower

    tower, fs = _build_checked(_build_tower_doc, doc["tower"])
    tol = float(cfg.tolerances.get("rank_tol", RANK_TOL))
    comp = check_compatible_sequence(fs, tol=tol)
    # The compatibility check decides each bonding's rank at RANK_TOL, so
    # at that cut-off its dense_range flags are the classification.
    if tol == RANK_TOL:
        surjective = all(per.dense_range for per in comp.per_level)
    else:
        surjective = classify_tower(tower, rank_tol=tol)
    bonding_rows = [dict(bonding=i, **asdict(per)) for i, per in enumerate(comp.per_level)]
    payload = {
        "levels": [
            {"level": i, "dim": lv.dim, "label": lv.label} for i, lv in enumerate(tower.levels)
        ],
        "bondings": bonding_rows,
        "failed_composites": [list(pair) for pair in comp.failed_composites],
        "compatible": comp.ok,
        "surjective": surjective,
    }
    table = _table(
        "bonding,ok,ker_dim,pullback_residual,transversality_defect,dense_range", bonding_rows
    )
    text = [
        "levels: %d (top dim %d)" % (len(tower.levels), tower.levels[-1].dim),
        "compatible: %s" % comp.ok,
        "surjective: %s" % surjective,
    ]
    return _Result(comp.ok, payload, table, text)


def _pipeline_moser(doc, cfg: RunConfig):
    import numpy as np

    from .moser import COND_CAP, DT, SING_TOL, MoserFamily, moser_flow

    field_obj = _build_checked(_build_field, doc["field"])
    base = np.asarray(doc.get("base_point", np.zeros(field_obj.space.dim)), dtype=float)
    family = _build_checked(MoserFamily.darboux_target, field_obj, base)
    report = moser_flow(
        family,
        base,
        float(doc["r_start"]),
        dt=float(cfg.tolerances.get("dt", DT)),
        record_trajectories=cfg.dump_trajectories,
        seed=cfg.seed,
        verify_samples=int(doc.get("verify_samples", 12)),
        closed_tol=float(cfg.tolerances.get("closed_tol", 1e-6)),
        cond_cap=float(cfg.tolerances.get("cond_cap", COND_CAP)),
        sing_tol=float(cfg.tolerances.get("sing_tol", SING_TOL)),
    )
    tol = float(doc.get("residual_tol", 1e-5))
    passed = report.pullback_residual <= tol and report.fixed_point_error <= _FIXED_POINT_TOL
    columns = (
        "validity_radius,chart_radius,pullback_residual,steps,step_size,"
        "fixed_point_error,lipschitz_estimate"
    )
    payload = {key: getattr(report, key) for key in columns.split(",")}
    payload.update(base_point=list(report.base_point), residual_tol=tol)
    table = _table(columns, [payload])
    text = [
        "validity_radius: %s" % repr(float(report.validity_radius)),
        "chart_radius: %s" % repr(float(report.chart_radius)),
        "pullback_residual: %s (tol %s)" % (repr(float(report.pullback_residual)), repr(tol)),
        "fixed_point_error: %s" % repr(float(report.fixed_point_error)),
        "steps: %d at dt %s" % (report.steps, repr(float(report.step_size))),
    ]
    return _Result(passed, payload, table, text, report.trajectories)


def _pipeline_shrink(doc, cfg: RunConfig):
    """shrink and product-control: one experiment, judged two ways."""
    from .models import shrink_experiment
    from .moser import COND_CAP, SING_TOL

    control = cfg.command == "product-control"
    result = shrink_experiment(
        doc["experiment"],
        int(doc["n_max"]),
        cond_cap=float(cfg.tolerances.get("cond_cap", COND_CAP)),
        sing_tol=float(cfg.tolerances.get("sing_tol", SING_TOL)),
        seed=cfg.seed,
    )
    payload = asdict(result)
    table = _table("n,dim,r_validity,bound,cond_at_base", payload["rows"])
    text = [
        "levels: %d" % len(result.rows),
        "fitted_exponent: %s"
        % ("none" if result.fitted_exponent is None else repr(float(result.fitted_exponent))),
        "uniform_radius_ok: %s" % result.uniform_radius_ok,
        "assembly_ok: %s" % result.assembly.ok,
        "diagnosis: %s" % result.diagnosis,
    ]
    if control:
        passed = result.uniform_radius_ok and result.assembly.ok
    else:
        expect = doc.get("expect_uniform")
        passed = expect is None or result.uniform_radius_ok == expect
    return _Result(passed, payload, table, text)


def _pipeline_loop_check(doc, cfg: RunConfig):
    import numpy as np

    from .linalg import RANK_TOL, weakness_conditioning
    from .models import make_loop_tower
    from .moser import FormField, MoserFamily, moser_flow
    from .tower import check_compatible_sequence

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
    return _Result(passed, payload, table, text)


# ---------------------------------------------------------------------------
# Serialization.


def _json_safe(value):
    """A payload as plain JSON values.

    Non-finite floats become strings so strict JSON stays loadable.
    """
    import numpy as np

    def safe(value):
        if isinstance(value, dict):
            return {str(k): safe(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [safe(v) for v in value]
        if isinstance(value, np.ndarray):
            return safe(value.tolist())
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            value = float(value)
        if isinstance(value, float):
            return value if math.isfinite(value) else repr(value)
        return value

    return safe(value)


def _csv_lines(header: str, rows) -> list:
    """The csv table's lines: the header, then one line per row."""
    import numpy as np

    def cell(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    return [header] + [",".join(cell(v) for v in row) for row in rows]


def _write_reports(cfg: RunConfig, result: _Result):
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.formats:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": cfg.command,
            "seed": cfg.seed,
            "passed": bool(result.passed),
            "report": _json_safe(result.payload),
        }
        (out / "report.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    if "csv" in cfg.formats and result.table is not None:
        lines = _csv_lines(*result.table)
        (out / "report.csv").write_text("\n".join(lines) + "\n")
    if "text" in cfg.formats:
        lines = ["%s: %s" % (cfg.command, "PASS" if result.passed else "FAIL")]
        lines.extend(result.text)
        (out / "report.txt").write_text("\n".join(lines) + "\n")
    trajectories = result.trajectories
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
    "product-control": _pipeline_shrink,
    "loop-check": _pipeline_loop_check,
}


def run(config: RunConfig) -> int:
    """Execute one pipeline and write its reports; returns the exit status."""
    # The library loads before the document is read: loaded after it, its
    # modules raised the process's peak RSS by about 1 MiB.
    from . import linalg, models, moser, tower  # noqa: F401

    try:
        result = _PIPELINES[config.command](_load_input(config), config)
    except ConfigError as exc:
        for line in exc.errors:
            print("input error: %s" % line, file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # A library error's own attributes (t, x, sigma_min, ...) are its data.
        payload = {**vars(exc), "type": type(exc).__name__, "message": str(exc)}
        # The error payload must land on disk even if only csv was asked for.
        error_formats = tuple(f for f in config.formats if f == "text") + ("json",)
        _write_reports(
            replace(config, formats=error_formats),
            _Result(False, {"error": payload}, None, ["error: %s" % exc]),
        )
        print("pipeline error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL

    _write_reports(config, result)
    print("%s: %s" % (config.command, "PASS" if result.passed else "FAIL"))
    return EXIT_PASS if result.passed else EXIT_FAIL


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "validate":
        report = validate_spec(Path(args.config))
        for line in report.errors:
            print(line)
        print("%d errors" % len(report.errors))
        return EXIT_PASS if report.ok else EXIT_INPUT

    formats = None if args.format is None else [
        f.strip() for f in args.format.split(",") if f.strip()
    ]
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
