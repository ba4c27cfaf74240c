"""Weak symplectic towers: finite-dimensional checks, Moser charts, experiments.

The public names are exported lazily (PEP 562): ``import symptower`` loads
neither numpy nor a submodule, and ``symptower.X`` imports X's module on
first use.  ``symptower validate`` relies on this to check documents with
the standard library alone.
"""

import importlib

__version__ = "0.1.0"

# Relative antisymmetry tolerance enforced by the SkewForm constructor and
# by the schema check of every matrix a document calls skew.  Defined here
# so that the schema reads it without importing numpy.
SKEW_TOL = 1e-12
# Desk-scale caps on a tower: build_tower refuses more than MAX_DEPTH
# bondings or a level above MAX_DIM, and the schema refuses a document
# that implies either before anything is built.
MAX_DEPTH = 32
MAX_DIM = 512

# Each public name, with the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "LinearMap",
        "ModelSpace",
        "SkewForm",
        "Subspace",
        "check_weak_isometry",
        "check_weak_nondegenerate",
        "darboux_constant_form",
        "pullback_form",
        "restrict_form",
        "symplectic_orthogonal",
        "weakness_conditioning",
    ), "linalg"),
    **dict.fromkeys((
        "FormSequence",
        "Thread",
        "Tower",
        "block_decompose",
        "build_tower",
        "check_compatible_sequence",
        "check_symplectic_submersion",
        "classify_tower",
        "induce_level_form",
        "limit_form_eval",
    ), "tower"),
    **dict.fromkeys((
        "FormField",
        "MoserFamily",
        "MoserReport",
        "assemble_projective_darboux",
        "moser_flow",
        "radial_primitive",
        "uniform_bound_check",
        "validity_radius",
        "verify_darboux_chart",
    ), "moser"),
    **dict.fromkeys((
        "MarsdenSpec",
        "make_counterexample_tower",
        "make_loop_tower",
        "make_marsden_field",
        "make_product_tower",
        "make_quadratic_field",
        "shrink_experiment",
    ), "models"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Not cached in the package namespace: a name rebound in its module
    # (a test's monkeypatch, a tracer's wrapper) is what the package returns.
    if name in _EXPORTS:
        return getattr(importlib.import_module("symptower." + _EXPORTS[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
