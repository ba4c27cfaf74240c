"""Concrete towers and form fields, plus the shrinking-radius experiment.

Three families of worked examples back the rest of the package: phase
spaces over a shifted conformal metric whose form degenerates along a
hyperplane, finite products of canonical blocks (the well-behaved
control), and Fourier truncations of Sobolev loop spaces.  The
:func:`shrink_experiment` driver measures chart radii across tower levels
and reports whether a uniform radius survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import (
    LinearMap,
    ModelSpace,
    SkewForm,
    check_weak_nondegenerate,
    count,
    darboux_constant_form,
    frozen,
    weakness_conditioning,
)
from .moser import (
    COND_CAP,
    SING_TOL,
    AssemblyReport,
    FormField,
    MoserFamily,
    UniformBoundReport,
    _Draws,
    _power_law_exponent,
    assemble_projective_darboux,
    uniform_bound_check,
    validity_radius,
)
from .tower import FormSequence, Thread, Tower, build_tower

__all__ = [
    "MarsdenSpec",
    "ShrinkRow",
    "ShrinkResult",
    "make_marsden_field",
    "make_quadratic_field",
    "make_product_tower",
    "make_counterexample_tower",
    "make_loop_tower",
    "field_sequence_at",
    "shrink_experiment",
]

# Spectrum used by the shrinking-chart tower: a wide spread pushes the
# conditioning at the degeneracy hyperplanes past any reasonable cap.
SHRINK_EIGS_DECADES = 8.0
# The K that shrink_experiment's uniform operator-norm bounds are held to.
BOUND_K = 4.0


@dataclass(frozen=True)
class MarsdenSpec:
    """Parameters of the metric phase space on R^d x R^d.

    The base metric at x is ``<A_x u, v>`` with ``A_x = |x - a/shift_k|^2 I
    + diag(s_eigs)``, so the induced form degenerates in conditioning as x
    approaches the shifted point ``a / shift_k``.  ``s_eigs`` must be
    strictly positive and non-increasing; it defaults to the harmonic
    sequence ``1, 1/2, ..., 1/d``.
    """

    d: int
    a: np.ndarray
    shift_k: int = 1
    s_eigs: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", count(self.d, "d"))
        a = frozen(self.a)
        if a.shape != (self.d,):
            raise ValueError("a must have shape (%d,), got %r" % (self.d, a.shape))
        if not np.linalg.norm(a) > 0.0:
            raise ValueError("a must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "shift_k", count(self.shift_k, "shift_k"))
        s = frozen(1.0 / np.arange(1, self.d + 1, dtype=float)
                   if self.s_eigs is None else self.s_eigs)
        if s.shape != (self.d,):
            raise ValueError("s_eigs must have shape (%d,), got %r" % (self.d, s.shape))
        if not np.all(s > 0.0):
            raise ValueError("s_eigs must be strictly positive")
        if np.any(np.diff(s) > 0.0):
            raise ValueError("s_eigs must be non-increasing")
        object.__setattr__(self, "s_eigs", s)

    @property
    def a_norm(self) -> float:
        return float(np.linalg.norm(self.a))

    @property
    def shift(self) -> np.ndarray:
        return self.a / self.shift_k

    @property
    def phase_dim(self) -> int:
        return 2 * self.d


def _slot_field(space: ModelSpace, shifts: np.ndarray, s_eigs: np.ndarray,
                center: np.ndarray, radius: float) -> FormField:
    """Field 0.5 [[Gamma_k, A_k], [-A_k, 0]] blockwise over n factor slots.

    Points are laid out base-first: ``(x_1 .. x_n, e_1 .. e_n)`` with
    ``w_k = x_k - shifts[k]``, ``A_k = |w_k|^2 I + diag(s_eigs)`` and
    ``Gamma_k = 2 (e_k w_k^T - w_k e_k^T)``.  With more than one slot the
    field declares one block per slot, the coordinates ``(x_k, e_k)``.
    """
    n, d = shifts.shape
    eye = np.eye(d)
    s_diag = np.diag(s_eigs)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        lead = pts.shape[:-1]
        xs = pts[..., : n * d].reshape(lead + (n, d))
        es = pts[..., n * d :].reshape(lead + (n, d))
        ws = xs - shifts
        wn2 = np.einsum("...ki,...ki->...k", ws, ws)
        a_blk = wn2[..., None, None] * eye + s_diag
        gamma = 2.0 * (
            es[..., :, None] * ws[..., None, :] - ws[..., :, None] * es[..., None, :]
        )
        out = np.zeros(lead + (2 * n * d, 2 * n * d))
        for k in range(n):
            base = slice(k * d, (k + 1) * d)
            fib = slice((n + k) * d, (n + k + 1) * d)
            out[..., base, base] = gamma[..., k, :, :]
            out[..., base, fib] = a_blk[..., k, :, :]
            out[..., fib, base] = -a_blk[..., k, :, :]
        out *= 0.5
        return out

    blocks = None
    if n > 1:
        slot = np.arange(d)
        blocks = [np.concatenate([k * d + slot, (n + k) * d + slot]) for k in range(n)]
    return FormField(space, center, radius, eval_fn=evaluate, blocks=blocks, degree=2)


def make_marsden_field(
    spec: MarsdenSpec,
    center=None,
    radius: float | None = None,
) -> FormField:
    """Closed form field of the metric phase space described by ``spec``.

    The matrix at ``(x, e)`` is ``0.5 [[Gamma, A_x], [-A_x, 0]]``, of
    degree 2 in the point.  The region defaults
    to a ball around the phase origin wide enough to reach past the
    degeneracy point at distance ``|a| / shift_k``.
    """
    space = ModelSpace(spec.phase_dim, label="marsden-d%d" % spec.d)
    if center is None:
        center = np.zeros(spec.phase_dim)
    if radius is None:
        radius = 2.0 * max(1.0, float(np.linalg.norm(spec.shift)))
    return _slot_field(space, spec.shift[None, :], spec.s_eigs, np.asarray(center, float), radius)


def make_quadratic_field(
    l_dim: int,
    epsilon: float,
    seed: int = 0,
    radius: float = 1.0,
    center=None,
) -> FormField:
    """Canonical block plus ``epsilon`` times a seeded closed quadratic term.

    The perturbation is the exterior derivative of a random one-form with
    quadratic coefficients, so the total field stays closed for any
    ``epsilon`` and degenerates only far from the origin once ``epsilon``
    is small.
    """
    base = darboux_constant_form(l_dim)
    dim = 2 * l_dim
    rng = _Draws(seed)
    q = rng.standard_normal((dim, dim, dim))
    # Symmetry in the last two slots makes the cyclic sums cancel exactly.
    q = 0.5 * (q + np.swapaxes(q, 1, 2))
    if center is None:
        center = np.zeros(dim)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        j = np.einsum("ijk,...k->...ij", q, pts)
        return base.matrix + epsilon * (np.swapaxes(j, -1, -2) - j)

    return FormField(base.space, center, radius, eval_fn=evaluate, degree=1)


def _frozen_block_diag(mats: Sequence[np.ndarray]) -> np.ndarray:
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total))
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at : at + k, at : at + k] = m
        at += k
    out.flags.writeable = False
    return out


def make_product_tower(factor_forms) -> tuple[Tower, FormSequence]:
    """Tower of partial products of the given symplectic factors.

    Level i carries the direct sum of the first i+1 factors with the block
    diagonal form; bondings project away the last factor.  Every factor
    must be nondegenerate (the error names the offender).

    Each matrix is held once: level i's form and gram are the leading
    d_i x d_i views of the top level's, frozen, and every bonding is a view
    of one frozen identity of the top dimension, so the linalg
    constructors keep them without a copy (and still check each level).
    """
    factors = list(factor_forms)
    if not factors:
        raise ValueError("need at least one factor")
    for idx, form in enumerate(factors):
        if not check_weak_nondegenerate(form).nondegenerate:
            raise ValueError("factor %d carries a degenerate form" % idx)

    top_form = _frozen_block_diag([f.matrix for f in factors])
    top_gram = None
    if not all(f.space.has_identity_gram for f in factors):
        top_gram = _frozen_block_diag([f.space.gram_matrix for f in factors])
    levels = []
    forms = []
    dim = 0
    identity_gram = True
    for i, factor in enumerate(factors):
        dim += factor.space.dim
        identity_gram = identity_gram and factor.space.has_identity_gram
        gram = None if identity_gram else top_gram[:dim, :dim]
        space = ModelSpace(dim, gram, label="product-%d" % (i + 1))
        levels.append(space)
        forms.append(SkewForm(space, top_form[:dim, :dim]))

    eye = np.eye(top_form.shape[0])
    eye.flags.writeable = False
    bondings = [
        LinearMap(src, tgt, eye[: tgt.dim, : src.dim])
        for tgt, src in zip(levels, levels[1:])
    ]
    tower = build_tower(levels, bondings)
    return tower, FormSequence(tower, tuple(forms))


def _drop_last_slot(n: int, d: int) -> np.ndarray:
    # Base-first layout: keep x_1..x_{n-1} and e_1..e_{n-1} out of level n.
    keep = list(range((n - 1) * d)) + list(range(n * d, (2 * n - 1) * d))
    m = np.zeros((2 * (n - 1) * d, 2 * n * d))
    m[np.arange(len(keep)), keep] = 1.0
    return m


def make_counterexample_tower(
    d: int,
    depth: int,
    a=None,
    s_eigs=None,
    region_radius: float | None = None,
) -> tuple[Tower, tuple[FormField, ...]]:
    """Tower whose chart radii provably shrink to zero, with its form fields.

    Level n (1-based; tower index n-1) is the phase space of the product of
    n metric factors, where factor k is shifted to degenerate on the
    hyperplane ``x_k = a/k`` at distance ``|a|/k`` from the origin.  The
    default spectrum spans eight decades so the conditioning blows past
    any practical cap on those hyperplanes.  Bondings drop the last factor
    in both base and fiber coordinates.
    """
    depth = count(depth, "depth")
    if a is None:
        a = np.zeros(d)
        a[0] = 1.0
    if s_eigs is None:
        s_eigs = np.logspace(0.0, -SHRINK_EIGS_DECADES, d)
    base_spec = MarsdenSpec(d=d, a=a, shift_k=1, s_eigs=s_eigs)
    a_vec = base_spec.a
    if region_radius is None:
        region_radius = 2.0 * max(1.0, base_spec.a_norm)

    levels = []
    fields = []
    for n in range(1, depth + 1):
        space = ModelSpace(2 * n * d, label="shrink-%d" % n)
        shifts = np.stack([a_vec / k for k in range(1, n + 1)])
        levels.append(space)
        fields.append(
            _slot_field(space, shifts, base_spec.s_eigs, np.zeros(space.dim), region_radius)
        )
    bondings = [
        LinearMap(levels[i + 1], levels[i], _drop_last_slot(i + 2, d))
        for i in range(depth - 1)
    ]
    tower = build_tower(levels, bondings)
    return tower, tuple(fields)


def field_sequence_at(tower: Tower, fields, thread: Thread) -> FormSequence:
    """Snapshot of per-level fields along a thread, as a form sequence."""
    fields = list(fields)
    if len(fields) != tower.depth + 1:
        raise ValueError(
            "need %d fields, got %d" % (tower.depth + 1, len(fields))
        )
    forms = tuple(
        SkewForm(tower.levels[i], fields[i].omega(thread.component(i)))
        for i in range(tower.depth + 1)
    )
    return FormSequence(tower, forms)


def make_loop_tower(m: int, modes: int, orders) -> tuple[Tower, FormSequence]:
    """Fourier-truncated Sobolev loop spaces with the mode-wise pairing.

    Coordinates are grouped by Fourier slot (constant, then cos/sin per
    frequency), each slot holding R^(2m).  Level i uses the order
    ``orders[i]`` gram ``diag((1 + j^2)^k)`` per slot coordinate, while the
    form is the same block Darboux matrix at every level, so bondings are
    identity inclusions and the pullback identity holds exactly.

    The form and the identity are each held once, frozen, and shared by
    every level and bonding; each level's gram is frozen where it is built,
    so no constructor copies it again.
    """
    m, modes = count(m, "m"), count(modes, "modes", least=0)
    orders = [count(k, "order", least=0) for k in orders]
    if not orders:
        raise ValueError("need at least one order")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError("orders must be strictly increasing")

    freqs = [0] + [j for j in range(1, modes + 1) for _ in range(2)]
    dim = len(freqs) * 2 * m
    # np.kron's result is a view of a writeable array: frozen copies it once.
    form_matrix = frozen(np.kron(np.eye(len(freqs)), darboux_constant_form(m).matrix))
    eye = np.eye(dim)
    eye.flags.writeable = False

    levels = []
    forms = []
    for k in orders:
        gram = None
        if k:
            gram = np.diag(np.repeat([(1.0 + j * j) ** k for j in freqs], 2 * m))
            gram.flags.writeable = False
        space = ModelSpace(dim, gram, label="loops-h%d" % k)
        levels.append(space)
        forms.append(SkewForm(space, form_matrix))
    bondings = [LinearMap(levels[i + 1], levels[i], eye) for i in range(len(orders) - 1)]
    tower = build_tower(levels, bondings)
    return tower, FormSequence(tower, tuple(forms))


@dataclass(frozen=True)
class ShrinkRow:
    """One tower level of the shrink experiment.

    ``r_validity`` is measured at the level itself; ``r_witness`` is the
    distance from the base point to the witness of that measurement, a
    failing point at most BISECT_REL relative past it (None when no
    failure lowered the radius); ``bound`` is the distance from the base
    point to the nearest degeneracy (the region radius when there is none).
    """

    n: int
    dim: int
    r_validity: float
    r_witness: float | None
    bound: float
    cond_at_base: float


@dataclass(frozen=True)
class ShrinkResult:
    rows: tuple[ShrinkRow, ...]
    level1_radii: tuple[float, ...]
    fitted_exponent: float | None
    uniform_radius_ok: bool
    diagnosis: str
    assembly: AssemblyReport
    bounds: UniformBoundReport


def _shrink_levels(tower_spec: Mapping, n_max: int):
    """Materialize (tower, families, bounds, kind) from a spec mapping."""
    spec = dict(tower_spec)
    kind = spec.pop("kind", "counterexample")
    if kind == "counterexample":
        d = count(spec.pop("d", 4), "d")
        a = spec.pop("a", None)
        s_eigs = spec.pop("s_eigs", None)
        region_radius = spec.pop("region_radius", None)
        if spec:
            raise ValueError("unknown tower_spec fields: %s" % sorted(spec))
        tower, fields = make_counterexample_tower(
            d, n_max, a=a, s_eigs=s_eigs, region_radius=region_radius
        )
        a_vec = np.eye(d)[0] if a is None else np.asarray(a, dtype=float)
        a_norm = float(np.linalg.norm(a_vec))
        unit = a_vec / a_norm
        families = [
            MoserFamily.darboux_target(f, np.zeros(f.space.dim)) for f in fields
        ]
        bounds = [a_norm / n for n in range(1, n_max + 1)]
        # One ray per factor slot, aimed straight at its degeneracy point.
        ray_sets = []
        for i, f in enumerate(fields):
            rays = []
            for k in range(i + 1):
                v = np.zeros(f.space.dim)
                v[k * d : (k + 1) * d] = unit
                rays.append(v)
            # Nearest shell first: slot k's shell lies at |a|/k, so slot n
            # sets the radius at once and the later slot rays' crossings,
            # which lie past it, are never bisected.
            ray_sets.append(rays[::-1])
        return tower, families, bounds, ray_sets
    if kind == "product":
        factor_dim = count(spec.pop("factor_dim", 1), "factor_dim")
        radius = spec.pop("radius", 1.0)
        if spec:
            raise ValueError("unknown tower_spec fields: %s" % sorted(spec))
        factors = [darboux_constant_form(factor_dim) for _ in range(n_max)]
        tower, fs = make_product_tower(factors)
        families = [
            MoserFamily.darboux_target(
                FormField.constant(form, np.zeros(form.space.dim), radius),
                np.zeros(form.space.dim),
            )
            for form in fs.forms
        ]
        bounds = [radius] * n_max
        return tower, families, bounds, [[] for _ in range(n_max)]
    raise ValueError("unknown tower kind %r" % (kind,))


def shrink_experiment(
    tower_spec: Mapping,
    n_max: int,
    cond_cap: float = COND_CAP,
    seed: int = 0,
    sing_tol: float = SING_TOL,
) -> ShrinkResult:
    """Measure per-level chart radii and decide whether a uniform one survives.

    For each level the validity radius around the phase origin is measured
    (slot-directed rays make the degeneracy hyperplanes unmissable) and goes
    to the chart assembly, with half the first projected radius as its
    floor.  A power law is fitted to the radii projected down to the first
    level; the experiment reports failure when that exponent is at most
    -0.5 and the projected radii strictly decrease.  Operator norm bounds
    (against BOUND_K) ride along; each level's validity witness goes to
    ``uniform_bound_check``, whose kumar is inf once that failing point
    lies in its sampled ball, without sampling the ball.
    """
    n_max = count(n_max, "n_max")
    tower, families, bounds, ray_sets = _shrink_levels(tower_spec, n_max)

    rows = []
    witnesses = []
    for i, family in enumerate(families):
        r, witness = validity_radius(
            family,
            family.base_point,
            cond_cap=cond_cap,
            sing_tol=sing_tol,
            seed=seed + i,
            extra_rays=ray_sets[i] or None,
            return_witness=True,
        )
        witnesses.append(witness)
        kappa = weakness_conditioning(family.omega0).kappa
        rows.append(
            ShrinkRow(
                n=i + 1,
                dim=family.space.dim,
                r_validity=float(r),
                r_witness=None if witness is None
                else float(family.space.norm(witness - family.base_point)),
                bound=float(bounds[i]),
                cond_at_base=float(kappa),
            )
        )

    radii = [row.r_validity for row in rows]
    projected = [r * shrink for r, shrink in zip(radii, tower.radius_shrinks(0))]
    floor = 0.5 * projected[0] if projected[0] > 0.0 else 1e-12
    assembly = assemble_projective_darboux(radii, tower, min_radius=floor)
    fitted = _power_law_exponent(range(1, n_max + 1), projected)
    decreasing = all(b < a for a, b in zip(projected, projected[1:]))
    failing = fitted is not None and fitted <= -0.5 and decreasing
    if failing:
        diagnosis = (
            "chart radii projected to the first level shrink like n^%.2f; "
            "no uniform radius survives across levels" % fitted
        )
    elif fitted is None:
        diagnosis = "too few usable levels to fit a radius trend"
    else:
        diagnosis = (
            "a uniform chart radius persists across levels "
            "(fitted exponent %.2f)" % fitted
        )

    bounds_report = uniform_bound_check(
        families, K=BOUND_K, seed=seed, sing_tol=sing_tol, cond_cap=cond_cap,
        witnesses=witnesses,
    )
    return ShrinkResult(
        rows=tuple(rows),
        level1_radii=tuple(projected),
        fitted_exponent=fitted,
        uniform_radius_ok=not failing,
        diagnosis=diagnosis,
        assembly=assembly,
        bounds=bounds_report,
    )
