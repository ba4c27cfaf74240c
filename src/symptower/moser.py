"""Moser-style Darboux charts for pointwise-varying skew form fields.

The machinery follows the classical path: given a field omega(x) and the
constant form omega0 frozen at the base point, the affine family
``omega_t = omega0 + t * (omega - omega0)`` is transported back to omega0 by
the flow of ``X_t(x) = -flat(omega_t at x)^{-1} alpha_x``, where alpha is the
radial primitive of the difference field.  Everything here works on a ball
inside a model space; the infinite-dimensional story is probed through
per-level conditioning diagnostics rather than actual limits.

Conventions:

* flats follow the linalg module (matrix = omega.T);
* a point is valid for the family at time t when the flat at (t, x) has
  sigma_min > sing_tol * sigma_max and condition number < cond_cap (by
  default SING_TOL and COND_CAP).  ``_margins`` > 0 is the one test, fed by
  ``_sigma_range`` from the singular values of the flat's diagonal blocks;
  ``_block_sigma_range`` is the one factorization of those blocks, and
  factors a block that repeats along the point axis once;
* a constant field is a ``FormField`` of degree 0; ``validity_radius``
  alone gives a zero difference field (``is_zero``) its radius;
* ``validity_radius`` skips the rays that ``_certified_clear`` proves
  valid, in one batch, from a field's declared polynomial ``degree``, by
  Weyl's inequality in the spectral norm, and the bisections and dip
  chases that the same certificate proves cannot lower the radius, and
  can return its witness, the failing end of the bisection that set the
  radius, which ``uniform_bound_check`` tests first as a kumar sample;
* ``_field_batch`` is the one Moser-velocity solve, at one time or a grid of
  times: the integrator ``_integrate``, the Lipschitz probe and the kumar
  bound of ``uniform_bound_check`` all call it;
* ``_alpha_batch`` is the one radial primitive, exact for a field of
  declared ``degree`` and QUAD_NODES-point Gauss-Legendre for any other;
* ``FormField.directional_derivative``, which feeds the closedness check
  ``exterior_derivative_residual``, interpolates a field of declared
  ``degree`` along a line at the nodes of ``_line_basis``, as
  ``_certified_clear`` does, and takes FD_H central differences of any other;
* charts map forward: F = time-1 flow, with F^* omega = omega0 on the
  reported domain ball;
* every seeded draw comes from ``_Draws``, the standard library's
  ``random``, so no run loads ``numpy.random``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from symptower.linalg import DimensionMismatchError, ModelSpace, SkewForm, count, frozen
from symptower.tower import Tower

# Relative floor for flat invertibility: singular below SING_TOL * sigma_max.
SING_TOL = 1e-8
# Condition-number cap defining the validity region.
COND_CAP = 1e6
# Gauss-Legendre nodes of the radial primitive of a field with no declared degree.
QUAD_NODES = 16
# Reject integration when measured_lipschitz * dt exceeds this.
LIPSCHITZ_CAP = 0.5
# Default RK4 step of moser_flow.
DT = 1e-3
# Central-difference step of FormField.directional_derivative without a
# declared degree.
FD_H = 1e-6
# Random unit triples per point in exterior_derivative_residual.
TRIPLES = 4
# Times in [0, 1] at which validity_radius and uniform_bound_check test the flats.
T_GRID = 11
# Seeded random rays of validity_radius, and the march steps along each ray.
RAY_COUNT = 16
MARCH_STEPS = 96
# A march evaluates this many radii at a time, a quarter of its grid, and
# stops after the chunk that holds its first failure.
MARCH_CHUNK = math.ceil((MARCH_STEPS + 1) / 4)
# Relative width to which validity_radius bisects a crossing.
BISECT_REL = 1e-3
# Seed shells of moser_flow, as fractions of r_start, and the seeded random
# directions added to the 2 * dim axis directions on every shell.
SHELL_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
EXTRA_DIRECTIONS = 4
# Sample points of moser_flow's closedness check.
CLOSED_SAMPLES = 32
# Central-difference step of verify_darboux_chart's chart Jacobian.
FD_STEP = 1e-4
# uniform_bound_check samples kumar on a ball of KUMAR_RADIUS_FACTOR times
# the room left around the base point, with KUMAR_SAMPLES points.
KUMAR_RADIUS_FACTOR = 0.5
KUMAR_SAMPLES = 32

_EPS = np.finfo(float).tiny


class LeftValidityRegionError(ValueError):
    """The flat became (near-)singular at some (t, x)."""

    def __init__(self, t: float, x: np.ndarray, sigma_min: float):
        self.t = float(t)
        self.x = np.asarray(x, dtype=float)
        self.sigma_min = float(sigma_min)
        super().__init__(
            "left validity region at t=%.6g (sigma_min=%.3e)" % (t, sigma_min)
        )


class StabilityError(ValueError):
    """Step size too large for the measured Lipschitz constant."""

    def __init__(self, lipschitz: float, dt: float, cap: float):
        self.lipschitz = float(lipschitz)
        self.dt = float(dt)
        self.cap = float(cap)
        super().__init__(
            "measured Lipschitz constant %.3g times dt %.3g exceeds %.2g; "
            "shrink the step" % (lipschitz, dt, cap)
        )


class ChartConstructionError(ValueError):
    """The base point's own trajectory failed; no chart exists.

    ``x0`` is the base point and ``frozen_at`` the point where its
    trajectory stopped, on its last valid step.
    """

    def __init__(self, x0: np.ndarray, frozen_at: np.ndarray):
        self.x0 = np.asarray(x0, dtype=float)
        self.frozen_at = np.asarray(frozen_at, dtype=float)
        super().__init__("no chart: the base point's trajectory left the validity region")


@lru_cache(maxsize=8)
def _line_basis(p: int) -> tuple[np.ndarray, np.ndarray]:
    """p + 1 Chebyshev-Lobatto nodes on [0, 1] and the inverse of their
    Vandermonde matrix, whose row k maps a degree-p polynomial's values at
    the nodes to its k-th coefficient."""
    nodes = 0.5 - 0.5 * np.cos(np.pi * np.arange(p + 1) / max(p, 1))
    inv = np.linalg.inv(np.vander(nodes, increasing=True))
    nodes.flags.writeable = False
    inv.flags.writeable = False
    return nodes, inv


@lru_cache(maxsize=8)
def _unit_interval_quadrature(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (xs + 1.0), 0.5 * ws


@dataclass(frozen=True, eq=False)
class FormField:
    """Skew-matrix field on a ball (in the gram norm) of a model space.

    ``eval_fn``, the field's one representation, must map an array of
    points with shape (..., dim) to skew matrices of shape (..., dim, dim),
    checked at the region center.  The formulas should tolerate points
    slightly outside the declared region: region membership gates validity
    decisions, not evaluation.

    ``blocks``, when given, partitions ``range(dim)`` into index groups of
    equal size (one row each of a (count, size) integer array) and declares
    the field zero off the diagonal blocks they pick out, so its singular
    values are those of the blocks; every validity test then factors the
    small blocks instead of the whole matrix.  The declaration is checked
    at the region center only.

    ``degree``, when given, declares the field a polynomial of that degree
    in x, so along any line it is a matrix polynomial recovered exactly from
    ``degree + 1`` evaluations; ``validity_radius`` uses it to certify whole
    rays, the radial primitive takes its quadrature node count from it, and
    ``directional_derivative`` its interpolation nodes.  ``constant`` builds
    a field of degree 0, which ``is_zero`` when it vanishes at its center;
    any other ``eval_fn`` declares no degree (None) unless told, and the
    declaration is not checked: a wrong one makes the certificate, the
    primitive and the derivative wrong.
    """

    space: ModelSpace
    center: np.ndarray
    radius: float
    eval_fn: object
    blocks: np.ndarray | None = None
    degree: int | None = None

    def __post_init__(self) -> None:
        c = frozen(self.center)
        if c.shape != (self.space.dim,):
            raise DimensionMismatchError(
                "center must have shape (%d,)" % self.space.dim
            )
        object.__setattr__(self, "center", c)
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.degree is not None:
            object.__setattr__(self, "degree", count(self.degree, "degree", least=0))
        if self.blocks is not None:
            try:
                blocks = np.array(self.blocks, dtype=int)
            except ValueError:
                blocks = None
            if blocks is None or blocks.ndim != 2 or not np.array_equal(
                np.sort(blocks, axis=None), np.arange(self.space.dim)
            ):
                raise ValueError("blocks must partition range(dim) into groups of equal size")
            blocks.flags.writeable = False
            object.__setattr__(self, "blocks", blocks)
        probe = self.omega(self.center)
        shape = (self.space.dim, self.space.dim)
        if probe.shape != shape:
            raise DimensionMismatchError("field values must have shape %r" % (shape,))
        defect = np.linalg.norm(probe + probe.T)
        if not np.all(np.isfinite(probe)):
            raise ValueError("field is not finite at the region center")
        if defect > 1e-10 * max(1.0, np.linalg.norm(probe)):
            raise ValueError("field is not skew at the region center")
        if self.blocks is not None and not _vanishes_off_blocks(probe, self.blocks):
            raise ValueError("field is not zero off its blocks at the region center")

    @classmethod
    def constant(cls, form: SkewForm, center, radius: float) -> "FormField":
        return _constant_field(form.space, center, radius, form.matrix)

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and not np.any(self.omega(self.center))

    def omega(self, x) -> np.ndarray:
        return self.omega_many(np.asarray(x, dtype=float)[None, :])[0]

    def omega_many(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(pts, dtype=float)), dtype=float)

    def directional_derivative(self, x, h) -> np.ndarray:
        """D omega(x)[h]: for a declared degree p, the slope at s = 0 of the
        matrix polynomial omega(x + s * h) from its values at the p + 1 nodes
        of ``_line_basis``, exactly zero for p = 0; undeclared, FD_H central
        differences."""
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        p = self.degree
        if p is None:
            return (self.omega(x + FD_H * h) - self.omega(x - FD_H * h)) / (2.0 * FD_H)
        if p == 0:
            return np.zeros((self.space.dim, self.space.dim))
        nodes, inv = _line_basis(p)
        return np.tensordot(inv[1], self.omega_many(x + nodes[:, None] * h), axes=1)

    def distance_from_center(self, x) -> float:
        return self.space.norm(np.asarray(x, dtype=float) - self.center)

    def contains(self, x, slack: float = 1e-12) -> bool:
        return self.distance_from_center(x) <= self.radius * (1.0 + slack)

    def contains_many(self, pts: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        diffs = np.asarray(pts, dtype=float) - self.center
        if self.space.has_identity_gram:
            d = np.linalg.norm(diffs, axis=-1)
        else:
            d = np.sqrt(np.einsum("...i,ij,...j->...", diffs, self.space.gram_matrix, diffs))
        return d <= self.radius * (1.0 + slack)

    def shifted(self, new_center, offset_matrix: np.ndarray) -> "FormField":
        """Field minus a constant matrix, on the largest ball around new_center."""
        new_center = np.asarray(new_center, dtype=float)
        remaining = self.radius - self.distance_from_center(new_center)
        if remaining <= 0.0:
            raise ValueError("new center lies outside the region")
        offset = frozen(offset_matrix)
        blocks = _blocks_kept(self.blocks, offset)
        if self.degree == 0:
            # Folded, so the shifted field keeps one matrix, not two.
            return _constant_field(self.space, new_center, remaining,
                                   self.omega(self.center) - offset, blocks)
        inner = self

        def shifted_eval(pts):
            return inner.omega_many(pts) - offset

        return FormField(
            self.space,
            new_center,
            remaining,
            eval_fn=shifted_eval,
            blocks=blocks,
            degree=self.degree,
        )


def _constant_field(space: ModelSpace, center, radius: float, value: np.ndarray,
                    blocks: np.ndarray | None = None) -> FormField:
    """The degree-0 field of ``value``.  Unlike a ``SkewForm``, it accepts
    the roundoff of a near-zero difference such as ``shifted``'s.

    A value that is +0.0 everywhere, as the difference x - x of any finite
    matrix is, is held as one broadcast zero instead of a dim x dim matrix;
    a -0.0 entry keeps the matrix, so every bit of the value survives.
    """
    value = np.asarray(value, dtype=float)
    if np.any(value) or np.any(np.signbit(value)):
        value = frozen(value)
    else:
        value = np.broadcast_to(0.0, value.shape)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[:-1] + value.shape)
        out[...] = value
        return out

    return FormField(space, center, radius, eval_fn=evaluate, blocks=blocks, degree=0)


def _vanishes_off_blocks(matrix: np.ndarray, blocks: np.ndarray) -> bool:
    off = np.ones(matrix.shape, dtype=bool)
    off[blocks[:, :, None], blocks[:, None, :]] = False
    return not np.any(matrix[off])


def _blocks_kept(blocks: np.ndarray | None, offset: np.ndarray) -> np.ndarray | None:
    """``blocks`` when a constant ``offset`` added to the field vanishes off them, else None."""
    if blocks is None or not _vanishes_off_blocks(offset, blocks):
        return None
    return blocks


@dataclass(frozen=True, eq=False)
class MoserFamily:
    """Affine family omega_t = omega0 + t * omega_bar on omega_bar's region."""

    omega0: SkewForm
    omega_bar: FormField

    def __post_init__(self) -> None:
        if not self.omega0.space.compatible_with(self.omega_bar.space):
            raise DimensionMismatchError("omega0 and omega_bar live on different spaces")

    @classmethod
    def darboux_target(cls, field: FormField, base_point) -> "MoserFamily":
        """Family joining a field to its own constant value at the base point."""
        base = np.asarray(base_point, dtype=float)
        at_base = field.omega(base)
        skew = 0.5 * (at_base - at_base.T)
        skew.flags.writeable = False
        omega0 = SkewForm(field.space, skew)
        return cls(omega0, field.shifted(base, omega0.matrix))

    @property
    def space(self) -> ModelSpace:
        return self.omega_bar.space

    @property
    def base_point(self) -> np.ndarray:
        return self.omega_bar.center

    @cached_property
    def blocks(self) -> np.ndarray | None:
        """omega_bar's blocks when omega0 also vanishes off them, else None.

        Every omega_t is then zero off the blocks.
        """
        return _blocks_kept(self.omega_bar.blocks, self.omega0.matrix)

    @cached_property
    def omega0_sigma_range(self) -> tuple[float, float]:
        """(sigma_max, sigma_min) of omega0, the flat at t = 0 at every point."""
        smax, smin = _sigma_range(_diagonal_blocks(self.omega0.matrix, self.blocks))
        return float(smax), float(smin)

    @cached_property
    def total_field(self) -> FormField:
        """The endpoint field omega = omega0 + omega_bar, on omega_bar's region."""
        return self.omega_bar.shifted(self.omega_bar.center, -self.omega0.matrix)


def exterior_derivative_residual(field: FormField, samples: int, seed: int = 0) -> float:
    """Max |d omega(X, Y, Z)| over sampled points and TRIPLES random unit triples each.

    Constant argument fields make the bracket terms vanish, so the cyclic
    sum of directional derivatives is the whole exterior derivative.  Points
    are drawn inside a slightly shrunken ball so the difference stencils of
    a field of undeclared degree never leave the region.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = _Draws(seed)
    dim = field.space.dim
    margin = FD_H if field.degree is None else 0.0
    pts = _sample_ball(rng, field.space, field.center,
                       max(field.radius - 2.0 * margin, 0.5 * field.radius), samples)
    worst = 0.0
    for x in pts:
        for _ in range(TRIPLES):
            xs = rng.standard_normal((3, dim))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            dx, dy, dz = (field.directional_derivative(x, h) for h in xs)
            value = (
                xs[1] @ dx @ xs[2]
                + xs[2] @ dy @ xs[0]
                + xs[0] @ dz @ xs[1]
            )
            worst = max(worst, abs(float(value)))
    return worst


def radial_primitive(field_bar: FormField, x) -> np.ndarray:
    """The covector alpha_x = integral_0^1 s * flat(omega_bar at c+s(x-c))(x-c) ds.

    The segment from the region center to x must stay inside the region,
    which for a ball only fails when x itself is outside.  Exact for a field
    of declared ``degree``.
    """
    x = np.asarray(x, dtype=float)
    if not field_bar.contains(x, slack=1e-9):
        raise ValueError("not star-shaped reachable: point leaves the region")
    return _alpha_batch(field_bar, x[None, :])[0]


def _alpha_batch(field_bar: FormField, pts: np.ndarray) -> np.ndarray:
    """Gauss-Legendre in s: the integrand of a degree-p field has degree p + 1,
    which 1 + ceil(p/2) nodes integrate exactly; undeclared, QUAD_NODES."""
    p = field_bar.degree
    count = QUAD_NODES if p is None else 1 + (p + 1) // 2
    nodes, weights = _unit_interval_quadrature(count)
    diffs = pts - field_bar.center
    segs = field_bar.center + nodes[:, None, None] * diffs[None, :, :]
    dim = field_bar.space.dim
    oms = field_bar.omega_many(segs.reshape(-1, dim)).reshape(count, pts.shape[0], dim, dim)
    covs = np.einsum("qnji,nj->qni", oms, diffs)
    return np.einsum("q,qni->ni", weights * nodes, covs)


class _Draws:
    """Seeded draws with the two numpy ``Generator`` methods the sampling calls.

    Uniforms are ``random.Random(seed).random()``, the one stream Python
    keeps the same across versions.  Normals are Box-Muller pairs of those
    uniforms, computed with ``math`` in Python floats.  A run that draws
    only through this class never loads ``numpy.random``.
    """

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be non-negative, got %d" % seed)
        self._uniform = random.Random(seed).random

    def random(self, count: int) -> np.ndarray:
        """``count`` uniforms in [0, 1)."""
        uniform = self._uniform
        return np.array([uniform() for _ in range(count)])

    def standard_normal(self, shape: tuple) -> np.ndarray:
        """Standard normals of ``shape``, a pair per two uniforms; an odd
        count drops the last pair's second."""
        count = math.prod(shape)
        uniform = self._uniform
        out = []
        for _ in range((count + 1) // 2):
            radius = math.sqrt(-2.0 * math.log(1.0 - uniform()))
            angle = math.tau * uniform()
            out += (radius * math.cos(angle), radius * math.sin(angle))
        return np.array(out[:count]).reshape(shape)


def _sample_ball(rng, space: ModelSpace, center: np.ndarray, radius: float,
                 count: int) -> np.ndarray:
    """Uniform-ish samples in the gram-norm ball (exact for identity gram)."""
    dim = space.dim
    g = rng.standard_normal((count, dim))
    if not space.has_identity_gram:
        g = g @ space.gram_inv_sqrt
    norms = np.sqrt(np.einsum("ni,ij,nj->n", g, space.gram_matrix, g))
    u = g / np.maximum(norms, _EPS)[:, None]
    rho = radius * rng.random(count) ** (1.0 / dim)
    return center + rho[:, None] * u


def _diagonal_blocks(m: np.ndarray, blocks: np.ndarray | None) -> np.ndarray:
    """(..., dim, dim) -> (count, ..., size, size): the diagonal blocks of each
    matrix, or the whole matrix as the one block when ``blocks`` is None."""
    if blocks is None:
        return m[None]
    return np.moveaxis(m[..., blocks[:, :, None], blocks[:, None, :]], -3, 0)


def _sigma_range(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(count, ..., size, size) diagonal blocks -> (sigma_max, sigma_min) of
    each flat: the singular values of the blocks together are the flat's.
    Each block's come from ``_block_sigma_range``."""
    smax, smin = _block_sigma_range(blocks)
    return smax.max(axis=0), smin.min(axis=0)


def _block_sigma_range(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(count, ..., size, size) -> (sigma_max, sigma_min) of every matrix,
    each of shape (count, ...): the one factorization behind every validity
    test of this module.

    In a (count, ..., N, size, size) stack, axis -3 is the point axis.  A
    block whose matrices are byte-identical along it, such as a block that a
    marched ray leaves unchanged, is factored at its first point only, and
    its values are repeated.  Bytes are compared, so 0.0 and -0.0 never
    merge.  Such blocks are factored in one call and every other block in
    one call of its own, so the stack is never copied; each matrix is
    factored by itself either way, so the values are those of one
    ``np.linalg.svd`` call on the whole stack.  A stack in which no block
    repeats is that call, and a (count, size, size) stack has no point axis.
    """
    once = np.zeros(len(blocks), dtype=bool)
    if blocks.ndim > 3 and blocks.shape[-3] > 1:
        bits = blocks.view(np.uint64)
        once = (bits == bits[..., :1, :, :]).reshape(len(blocks), -1).all(axis=1)
    if not once.any():
        s = np.linalg.svd(blocks, compute_uv=False)
        return s[..., 0], s[..., -1]
    smax, smin = np.empty(blocks.shape[:-2]), np.empty(blocks.shape[:-2])
    s = np.linalg.svd(blocks[once, ..., :1, :, :], compute_uv=False)
    smax[once], smin[once] = s[..., 0], s[..., -1]
    for b in np.flatnonzero(~once):
        s = np.linalg.svd(blocks[b], compute_uv=False)
        smax[b], smin[b] = s[..., 0], s[..., -1]
    return smax, smin


def _margins(smax, smin, sing_tol: float, cond_cap: float):
    """The validity rule: positive iff sigma_min > sing_tol * sigma_max and kappa < cond_cap."""
    m1 = smin / np.maximum(sing_tol * smax, _EPS) - 1.0
    m2 = 1.0 - (smax / np.maximum(smin, _EPS)) / cond_cap
    return np.minimum(m1, m2)


def _validity_margins(family: MoserFamily, pts: np.ndarray, ts: np.ndarray,
                      sing_tol: float, cond_cap: float) -> np.ndarray:
    """min-over-t margin per point; positive means valid at every time.

    Only the diagonal blocks of the flats (``MoserFamily.blocks``) are
    formed and factored, stacked as (count, T, N, size, size).  A leading
    t = 0, where every flat is omega0, is served from the family's cached
    factorization.
    """
    at_zero = ts[0] == 0.0
    if at_zero:
        ts = ts[1:]
    bar = _diagonal_blocks(family.omega_bar.omega_many(pts), family.blocks)
    omega0 = _diagonal_blocks(family.omega0.matrix, family.blocks)
    oms = omega0[:, None, None] + ts[:, None, None, None] * bar[:, None]
    margins = _margins(*_sigma_range(oms), sing_tol, cond_cap).min(axis=0)
    if at_zero:
        margins = np.minimum(margins, _margins(*family.omega0_sigma_range, sing_tol, cond_cap))
    return margins


def validity_radius(
    family: MoserFamily,
    x0,
    cond_cap: float = COND_CAP,
    sing_tol: float = SING_TOL,
    seed: int = 0,
    extra_rays=None,
    return_witness: bool = False,
):
    """Largest ball radius around x0 on which the family's flats stay usable.

    The flats are tested at T_GRID times.  The rays are marched in this
    order: the ``extra_rays`` first, else the coordinate axes, then
    RAY_COUNT seeded random rays.  Each march evaluates the fixed grid of
    MARCH_STEPS + 1 radii from 0 to the room left around x0, but only up to
    two grid points past the smallest radius found so far: the first
    failure or a dip beyond that point cannot lower the answer, and the
    second point lets the first grid point past it count as an interior
    dip.  It evaluates them MARCH_CHUNK at a time, a one-radius tail with
    the chunk before it, and stops after the chunk that holds the first
    failure: past it, only that failure's bracket is used, and a point's
    margin does not depend on the points evaluated with it, so the answer
    is the same float.  The first sign change of the margin is bisected to
    BISECT_REL relative.
    Thin degeneracy shells are narrower than the march step, so the four
    deepest local margin minima of a ray that never fails are refined by a
    golden-section search (``_golden_min``), which stops at the first
    failing point.  A bisection or dip chase whose lower end is already at
    or above the smallest radius found is skipped.  When the family
    declares blocks (``MoserFamily.blocks``) the margins come from the
    singular values of the diagonal blocks, and omega0, the flat at t = 0,
    is factored once per family.  Returns 0.0 when x0 itself fails.

    The ``extra_rays``, which are aimed at a degeneracy, are always
    marched, first.  Every other non-zero ray then goes to one batched
    ``_certified_clear`` call, on the segment a march would cover at the
    smallest radius found by then; that radius only decreases, so every
    later march lies inside the certified segment.  A certified ray is
    skipped: there the march, its bisection and its dip chases could not
    lower the answer, which is the same float either way.  The certificate
    needs the difference field's declared ``degree``; a refused ray, and
    every ray of a field of undeclared degree, is marched in turn.  On a
    marched ray, a bisection or dip chase that starts below the smallest
    radius found goes to the same certificate first, from its lower end to
    just past that radius (``_first_crossing``); a certified one is skipped,
    because it could not lower the answer either.

    A zero difference field (``FormField.is_zero``) makes every flat omega0:
    the answer is then the room left in the region if omega0's cached
    ``omega0_sigma_range`` passes ``_margins``, else 0.0.

    With ``return_witness`` the result is ``(radius, witness)``.  The
    witness is a point that fails the rule: the invalid end of the
    bisection that set the radius, so its distance from x0 exceeds the
    radius by at most BISECT_REL relative.  It is None when no failure
    lowered the radius: the room left, a failing x0, and a zero field.
    """
    radius, witness = _validity_search(family, np.asarray(x0, dtype=float), cond_cap,
                                       sing_tol, seed, extra_rays)
    return (radius, witness) if return_witness else radius


def _validity_search(family: MoserFamily, x0: np.ndarray, cond_cap: float, sing_tol: float,
                     seed: int, extra_rays) -> tuple[float, np.ndarray | None]:
    """``validity_radius``'s search: the radius and the witness."""
    if cond_cap <= 1.0:
        raise ValueError("cond_cap must exceed 1")
    space = family.space
    field = family.omega_bar
    available = field.radius - field.distance_from_center(x0)
    if available <= 0.0:
        return 0.0, None
    if field.is_zero:
        valid = _margins(*family.omega0_sigma_range, sing_tol, cond_cap) > 0
        return (available if valid else 0.0), None
    ts = np.linspace(0.0, 1.0, T_GRID)

    def margin_at(radii: np.ndarray, direction: np.ndarray) -> np.ndarray:
        pts = x0 + radii[:, None] * direction
        return _validity_margins(family, pts, ts, sing_tol, cond_cap)

    if margin_at(np.array([0.0]), np.zeros(space.dim))[0] <= 0.0:
        return 0.0, None

    rng = _Draws(seed)
    if extra_rays is None:
        aimed = []
        rays = [sign * axis for axis in np.eye(space.dim) for sign in (1.0, -1.0)]
    else:
        aimed = [np.asarray(r, dtype=float) for r in extra_rays]
        rays = []
    rays.extend(rng.standard_normal((RAY_COUNT, space.dim)))
    grid = np.linspace(0.0, available, MARCH_STEPS + 1)

    def march_radii(best: float) -> np.ndarray:
        return grid[:np.searchsorted(grid, best, "right") + 2]

    def march(direction: np.ndarray, best: float) -> tuple[float, np.ndarray | None]:
        radii = march_radii(best)
        margins = np.empty(len(radii))
        # A one-radius tail joins the chunk before it.
        start = 0
        for stop in [*range(MARCH_CHUNK, len(radii) - 1, MARCH_CHUNK), len(radii)]:
            margins[start:stop] = margin_at(radii[start:stop], direction)
            if np.any(margins[start:stop] <= 0.0):
                radii, margins = radii[:stop], margins[:stop]
                break
            start = stop

        # A bracket's certificate takes no step finer than the bisection it replaces.
        def clear(lo: float, end: float) -> bool:
            return _certified_clear(family, x0 + lo * direction, direction[None], end - lo,
                                    BISECT_REL * end, ts, sing_tol, cond_cap)[0]

        best, hi = _first_crossing(lambda r: margin_at(np.array([r]), direction)[0],
                                   radii, margins, best, clear)
        return best, None if hi is None else x0 + hi * direction

    def units(vectors) -> np.ndarray:
        norms = [space.norm(v) for v in vectors]
        kept = [v / n for v, n in zip(vectors, norms) if n != 0.0]
        return np.array(kept).reshape(len(kept), space.dim)

    best, witness = available, None
    for direction in units(aimed):
        best, found = march(direction, best)
        witness = witness if found is None else found
        if best == 0.0:
            return 0.0, witness
    rest = units(rays)
    cleared = _certified_clear(family, x0, rest, march_radii(best)[-1], grid[1],
                               ts, sing_tol, cond_cap)
    for direction in rest[~cleared]:
        best, found = march(direction, best)
        witness = witness if found is None else found
        if best == 0.0:
            break
    return best, witness


# The certificate of _certified_clear holds the condition cap and the
# singular-value floor with this relative room, and widens every Weyl bound
# by _CERT_ROUNDOFF times a bound on the flats' norms, far above the
# rounding of the marched field values and of their SVDs.
_CERT_SLACK = 1e-6
_CERT_ROUNDOFF = 1e-10


def _certified_clear(family: MoserFamily, x0: np.ndarray, directions: np.ndarray,
                     end: float, min_step: float, ts: np.ndarray,
                     sing_tol: float, cond_cap: float) -> np.ndarray:
    """(R,) verdicts for an (R, dim) stack of directions: True where every
    flat on the segment x0 + r * direction, r in [0, end], passes
    ``_margins`` at every time of ``ts``.

    Needs the difference field's declared ``degree`` p: along each segment
    it is a matrix polynomial P(s) in s = r / end, recovered from its values
    at the p + 1 nodes of ``_line_basis``.  The segment is covered by Taylor
    steps.  At a step's start s0 the diagonal blocks of the flats
    omega0 + t * P(s0) are factored.  By Weyl's inequality,
    |sigma_i(A + E) - sigma_i(A)| <= |E|_2, the singular values of block b
    move by at most t * sum_k |D_bk|_2 h^k up to s0 + h, where D_bk is
    block b of P's k-th Taylor coefficient at s0; |D_bk|_2, its largest
    singular value, comes from one values-only SVD of every (block, k, ray)
    coefficient per step.  That SVD errs by a few units of roundoff times
    |D_bk|, at most 2^p times the coefficients' norms at s = 0 for s0 <= 1,
    so the absolute slack, _CERT_ROUNDOFF times those norms and omega0's,
    covers it as it covers the rounding of the field values and of the
    flats' SVDs.  The flats' sigma_max is held below a common ceiling, the
    geometric mean of the largest block sigma_max and the largest value the
    smallest sigma_min allows; each block's room below it and above the
    floor it implies sets its step, and h is the smallest, in closed form.
    Refuses (False) every ray of a field of undeclared degree, a ray that
    meets a non-finite value, and a ray as soon as a step would end short
    of both ``min_step`` (in r) and the segment's end.

    Each ray keeps its own s0 and h, and leaves the loop at its verdict.
    The flats of up to MARCH_STEPS + 1 rays still running are laid out
    (block, t, ray, size, size) for ``_block_sigma_range``, so the first
    step, where every ray starts at s0 = 0 from the same flats, factors each
    block once per time.  A ray's arithmetic does not depend on the other
    rays in the stack.  The field is evaluated at all R * (p + 1) nodes in
    one call.
    """
    directions = np.asarray(directions, dtype=float)
    verdicts = np.zeros(len(directions), dtype=bool)
    p = family.omega_bar.degree
    if p is None or not len(directions):
        return verdicts
    dim = family.space.dim
    nodes, inv = _line_basis(p)
    pts = x0 + (end * nodes)[:, None, None] * directions
    values = _diagonal_blocks(family.omega_bar.omega_many(pts.reshape(-1, dim)).reshape(
        pts.shape + (dim,)), family.blocks)
    live = np.nonzero(np.isfinite(values).all(axis=(0, 1, 3, 4)))[0]
    # Sums over nodes and coefficients run in a fixed order, ray by ray.
    coef = np.zeros(values.shape[:2] + (len(live),) + values.shape[3:])
    for j in range(p + 1):
        coef += inv[:, j, None, None, None] * values[:, j, live][:, None]
    omega0 = _diagonal_blocks(family.omega0.matrix, family.blocks)
    slack = _CERT_ROUNDOFF * (np.linalg.norm(omega0, axis=(-2, -1)).max()
                              + np.linalg.norm(coef, axis=(-2, -1)).max(axis=0).sum(axis=0))
    # sigma_min >= q * sigma_max keeps both tests of _margins with room.
    q = max(sing_tol * (1.0 + _CERT_SLACK), 1.0 / (cond_cap * (1.0 - _CERT_SLACK)))
    ts = ts[ts > 0.0]
    tcol = ts[:, None]
    k = np.arange(p + 1)
    binom = np.array([[math.comb(j, i) for j in k] for i in k], dtype=float)
    power = np.maximum(k - k[:, None], 0)
    s0, h_min = np.zeros(len(live)), min_step / end
    waiting = np.arange(len(live))
    while waiting.size:
        # At most MARCH_STEPS + 1 rays a step, so the flats take no more
        # memory than one march's.
        run, waiting = waiting[:MARCH_STEPS + 1], waiting[MARCH_STEPS + 1:]
        weights = binom * s0[run, None, None] ** power
        taylor = np.zeros(coef.shape[:2] + (run.size,) + coef.shape[3:])
        for j in range(p + 1):
            taylor += weights[:, :, j].T[..., None, None] * coef[:, j, run][:, None]
        flats = ts[:, None, None, None] * taylor[:, 0][:, None]
        flats += omega0[:, None, None]
        smax, smin = _block_sigma_range(flats)
        cut = slack[run]
        lowest = smax.max(axis=0) + cut
        highest = (smin.min(axis=0) - cut) / q
        # For h <= 1, sum_k |D_bk|_2 h^k <= n1 h + n2 h^2; solve that for the room.
        norms = np.linalg.svd(taylor[:, 1:], compute_uv=False)[..., 0]
        n1, n2 = norms[:, :1].sum(axis=1), norms[:, 1:].sum(axis=1)
        # A ray whose flats already fail (highest <= lowest) gets a meaningless
        # step here; it is refused all the same.
        with np.errstate(divide="ignore", invalid="ignore"):
            ceiling = np.sqrt(lowest * highest)
            room = (np.minimum(ceiling - cut - smax, smin - cut - q * ceiling) / tcol).min(axis=1)
            h = np.min(2.0 * room / (n1 + np.sqrt(n1 * n1 + 4.0 * n2 * room)), axis=0)
            last = h >= 1.0 - s0[run]
            h = np.minimum(h, 1.0 - s0[run])
            # The step is accepted by the validity rule itself, on the Weyl bounds.
            moved = tcol * (n1 * h + n2 * h * h)[:, None]
            kept = (np.all(highest > lowest, axis=0) & (last | (h >= h_min))
                    & np.all(_margins((smax + moved).max(axis=0) + cut,
                                      (smin - moved).min(axis=0) - cut,
                                      sing_tol, cond_cap) > 0.0, axis=0))
        verdicts[live[run[kept & last]]] = True
        s0[run] += h
        waiting = np.concatenate([run[kept & ~last], waiting])
    return verdicts


def _first_crossing(margin_fn, radii: np.ndarray, margins: np.ndarray,
                    best: float, clear_fn) -> tuple[float, float | None]:
    """``best`` lowered to the smallest radius where the margin turns
    non-positive, with the invalid end of the bisection that lowered it
    (None when none did).

    The first marched failure is refined by bisection; without one, the
    four deepest interior dips are chased.  A bracket whose lower end is
    at or above the running best is skipped: its crossing cannot lower it.
    Any other bracket [lo, hi] is skipped when ``clear_fn(lo, end)``
    certifies every margin on [lo, end] positive, where c =
    ``_bisection_reach(best)`` and end = c for a failure's bracket that
    ends past c (a failure's bracket ending at or below c is bisected) and
    end = min(hi, c) for a dip's.  Every point a bisection then finds
    invalid lies past c, so it would return a valid end at or above the
    best; a dip's search could only find a crossing past c, whose
    bisection is the same.  Such brackets arise only on deep towers, where
    a later ray's crossing lies within one march step past the best: in
    the counterexample from level 9 on, never at depth 2.
    """
    bad = np.nonzero(margins <= 0.0)[0]
    if bad.size:
        first = int(bad[0])
        if first == 0:
            return 0.0, None
        lo, hi = radii[first - 1], radii[first]
        reach = _bisection_reach(best)
        if lo >= best or (hi > reach and clear_fn(lo, reach)):
            return best, None
        lo, hi = _bisect_crossing(margin_fn, lo, hi)
        return (lo, hi) if lo < best else (best, None)
    # No marched failure: chase interior dips the grid may have stepped over.
    # A tie on the left still counts, since a shell halfway between two
    # march points leaves equal margins on both.
    interior = np.arange(1, len(radii) - 1)
    dips = interior[(margins[interior] <= margins[interior - 1])
                    & (margins[interior] < margins[interior + 1])]
    candidates = sorted(dips, key=lambda i: margins[i])[:4]
    witness = None
    for i in candidates:
        lo, hi = radii[i - 1], radii[i + 1]
        if lo >= best or clear_fn(lo, min(hi, _bisection_reach(best))):
            continue
        r_min, m_min = _golden_min(margin_fn, lo, hi)
        if m_min <= 0.0:
            lo, hi = _bisect_crossing(margin_fn, lo, r_min)
            if lo < best:
                best, witness = lo, hi
    return best, witness


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
# Evaluations after which a golden-section bracket is no wider than 50
# ternary-search rounds leave it, (2/3)^50 of the start: every evaluation
# after the first shrinks the bracket by _INV_PHI.
GOLDEN_EVALS = 1 + int(np.ceil(50.0 * np.log(2.0 / 3.0) / np.log(_INV_PHI)))


def _golden_min(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search for a minimum of f on [lo, hi].

    Returns ``(r, f(r))`` for the lowest point evaluated, or for the first
    point where f is non-positive, at which the search stops.
    """
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc = f(c)
    fd = f(d) if fc > 0.0 else np.inf
    for _ in range(GOLDEN_EVALS - 2):
        if min(fc, fd) <= 0.0:
            break
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _bisection_reach(best: float) -> float:
    """A radius c past ``best``: a bisection whose invalid end stays above c
    returns a valid end at or above ``best``.

    ``_bisect_crossing`` stops once fl(hi - lo) <= fl(rel * hi), with
    rel = BISECT_REL.  Then
    lo > hi / 2, else fl(hi - lo) >= hi / 2 > fl(rel * hi), so hi - lo is
    exact (Sterbenz) and, with u = 2**-53, hi - lo <= rel * hi * (1 + u):
    lo >= hi * (1 - rel * (1 + u)) > c * (1 - rel * (1 + u)).  That is at
    least ``best`` when c >= best / (1 - rel * (1 + u)), which exceeds
    best / (1 - rel) by less than u relative.  Computing best / (1 - rel)
    rounds three times, so it is widened by 8 ulps (16 u).
    """
    return best / (1.0 - BISECT_REL) * (1.0 + 8.0 * np.finfo(float).eps)


def _bisect_crossing(f, lo: float, hi: float) -> tuple[float, float]:
    """lo valid, hi invalid; shrink the bracket to BISECT_REL and return its (valid, invalid) ends."""
    while hi - lo > BISECT_REL * max(hi, _EPS):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _steps(dt: float) -> int:
    """Fixed RK4 steps over [0, 1] for the step dt; the step used is 1 / steps."""
    if not 0.0 < dt <= 1.0:
        raise ValueError("dt must lie in (0, 1]")
    return max(1, int(round(1.0 / dt)))


@dataclass(frozen=True, eq=False)
class ChartMap:
    """Time-1 Moser flow, evaluated by re-integration.

    Every point re-runs the construction's fixed-step integration, with its
    validity test, so evaluations are exactly reproducible.
    """

    family: MoserFamily
    base_point: np.ndarray
    domain_radius: float
    steps: int
    cond_cap: float
    sing_tol: float

    def map_points(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out, alive, _ = _integrate(self.family, np.asarray(pts, dtype=float), self.steps,
                                   0.0, 1.0, self.cond_cap, self.sing_tol)
        return out, alive

    def __call__(self, x) -> np.ndarray:
        out, alive = self.map_points(np.asarray(x, dtype=float)[None, :])
        if not alive[0]:
            raise LeftValidityRegionError(1.0, np.asarray(x, dtype=float), 0.0)
        return out[0]


@dataclass(frozen=True, eq=False)
class MoserReport:
    """Chart construction record."""

    base_point: np.ndarray
    chart: ChartMap
    validity_radius: float
    chart_radius: float
    pullback_residual: float
    steps: int
    step_size: float
    fixed_point_error: float
    lipschitz_estimate: float
    seed_points: np.ndarray | None = None
    trajectories: np.ndarray | None = None


def _field_batch(family: MoserFamily, t, pts: np.ndarray,
                 cond_cap: float, sing_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Moser velocities and validity flags of the points at one time or a grid.

    ``t`` is a float or a 1-d array of times; an array adds a leading time
    axis to ``vel`` (T, N, dim) and ``ok`` (T, N).  The difference field and
    its radial primitive (``_alpha_batch``) are evaluated once per point
    whatever the times.  The flags come from the singular values of the
    flats' diagonal blocks (``MoserFamily.blocks``); at a leading t = 0,
    where every flat is omega0, from the family's cached
    ``omega0_sigma_range``, as in ``_validity_margins``.  Each flat then
    gets one dense solve, the only Moser-velocity solve of this module; a
    failing flat is swapped for the identity first, so its velocity is
    meaningless but finite.
    """
    alpha = _alpha_batch(family.omega_bar, pts)
    ts = np.asarray(t, dtype=float)
    oms = ts[..., None, None, None] * family.omega_bar.omega_many(pts)
    oms += family.omega0.matrix
    ok = np.empty(oms.shape[:-2], dtype=bool)
    first = 1 if ts.ndim and ts[0] == 0.0 else 0
    if first:
        ok[0] = _margins(*family.omega0_sigma_range, sing_tol, cond_cap) > 0.0
    ok[first:] = _margins(*_sigma_range(_diagonal_blocks(oms[first:], family.blocks)),
                          sing_tol, cond_cap) > 0.0
    oms[~ok] = np.eye(pts.shape[-1])
    # alpha gets the matrices' ndim, which numpy 1.x needs to read it as a stack of columns.
    rhs = np.broadcast_to(alpha, oms.shape[:-1])[..., None]
    vel = -np.linalg.solve(np.swapaxes(oms, -1, -2), rhs)[..., 0]
    return vel, ok


def _integrate(
    family: MoserFamily,
    pts: np.ndarray,
    steps: int,
    t_start: float,
    t_end: float,
    cond_cap: float,
    sing_tol: float,
    record: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Fixed-step RK4 for the whole batch; dead points freeze in place."""
    pts = np.array(pts, dtype=float)
    n = pts.shape[0]
    alive = family.omega_bar.contains_many(pts)
    if steps <= 0:
        trail = pts[:, None, :].copy() if record else None
        return pts, alive, trail
    h = (t_end - t_start) / steps
    trail = np.empty((n, steps + 1, pts.shape[1])) if record else None
    if record:
        trail[:, 0] = pts
    field_args = (cond_cap, sing_tol)
    for k in range(steps):
        t = t_start + k * h
        k1, ok1 = _field_batch(family, t, pts, *field_args)
        k2, ok2 = _field_batch(family, t + 0.5 * h, pts + 0.5 * h * k1, *field_args)
        k3, ok3 = _field_batch(family, t + 0.5 * h, pts + 0.5 * h * k2, *field_args)
        k4, ok4 = _field_batch(family, t + h, pts + h * k3, *field_args)
        proposal = pts + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step_ok = ok1 & ok2 & ok3 & ok4 & family.omega_bar.contains_many(proposal)
        alive &= step_ok
        pts = np.where(alive[:, None], proposal, pts)
        if record:
            trail[:, k + 1] = pts
    return pts, alive, trail


def _lipschitz_estimate(family: MoserFamily, pts: np.ndarray, scale: float,
                        cond_cap: float, sing_tol: float, rng) -> float:
    """Empirical Lipschitz constant of the velocity field near the seeds, at t = 0, 0.5, 1."""
    offsets = rng.standard_normal(pts.shape)
    offsets *= scale / np.maximum(np.linalg.norm(offsets, axis=1, keepdims=True), _EPS)
    ts = np.array([0.0, 0.5, 1.0])
    v0, ok0 = _field_batch(family, ts, pts, cond_cap, sing_tol)
    v1, ok1 = _field_batch(family, ts, pts + offsets, cond_cap, sing_tol)
    use = ok0 & ok1
    if not np.any(use):
        return 0.0
    num = np.linalg.norm(v1 - v0, axis=-1)
    den = np.maximum(np.linalg.norm(offsets, axis=1), _EPS)
    return float(np.max((num / den)[use]))


def moser_flow(
    family: MoserFamily,
    x0,
    r_start: float,
    dt: float = DT,
    record_trajectories: bool = False,
    seed: int = 0,
    verify_samples: int = 12,
    closed_tol: float = 1e-6,
    cond_cap: float = COND_CAP,
    sing_tol: float = SING_TOL,
) -> MoserReport:
    """Build the Darboux chart around x0 on the ball of radius r_start.

    r_start must not exceed ``validity_radius``.  Seeds on the
    SHELL_FRACTIONS shells are flowed from t=0 to 1 in RK4 steps of about
    dt; the chart domain is the largest shell whose seeds all stayed valid.
    A zero difference field skips the closedness check and short-circuits
    to the identity chart, once ``validity_radius`` admits r_start.  The
    pullback residual is measured by verify_darboux_chart on fresh samples.
    """
    steps = _steps(dt)
    dt = 1.0 / steps
    x0 = np.asarray(x0, dtype=float)
    space = family.space
    if not r_start > 0.0:
        raise ValueError("r_start must be positive")

    zero_field = family.omega_bar.is_zero
    if not zero_field:
        closed = exterior_derivative_residual(family.omega_bar, CLOSED_SAMPLES, seed=seed)
        if closed > closed_tol:
            raise ValueError("family is not closed: exterior derivative residual %.3e" % closed)

    vr = validity_radius(family, x0, cond_cap=cond_cap, sing_tol=sing_tol, seed=seed)
    if r_start > vr * (1.0 + 1e-9):
        raise ValueError("r_start %.6g exceeds the validity radius %.6g" % (r_start, vr))

    if zero_field:
        return MoserReport(
            base_point=x0,
            chart=ChartMap(family, x0, r_start, 0, cond_cap, sing_tol),
            validity_radius=vr,
            chart_radius=r_start,
            pullback_residual=0.0,
            steps=0,
            step_size=dt,
            fixed_point_error=0.0,
            lipschitz_estimate=0.0,
        )

    rng = _Draws(seed)
    eye = np.eye(space.dim)
    dirs = [eye[k] for k in range(space.dim)] + [-eye[k] for k in range(space.dim)]
    dirs.extend(rng.standard_normal((EXTRA_DIRECTIONS, space.dim)))
    dirs = [d / space.norm(d) for d in dirs]
    seeds = [x0]
    shell_of = [0.0]
    for f in SHELL_FRACTIONS:
        for d in dirs:
            seeds.append(x0 + f * r_start * d)
            shell_of.append(f)
    seeds = np.array(seeds)
    shell_of = np.array(shell_of)

    lip = _lipschitz_estimate(family, seeds, 1e-4 * r_start, cond_cap, sing_tol, rng)
    if lip * dt > LIPSCHITZ_CAP:
        raise StabilityError(lip, dt, LIPSCHITZ_CAP)

    out, alive, trail = _integrate(
        family, seeds, steps, 0.0, 1.0, cond_cap, sing_tol, record=record_trajectories,
    )
    if not alive[0]:
        raise ChartConstructionError(x0, out[0])
    chart_radius = 0.0
    for f in SHELL_FRACTIONS:
        if np.all(alive[shell_of <= f]):
            chart_radius = f * r_start
        else:
            break

    fixed_point_error = space.norm(out[0] - x0)
    chart = ChartMap(family, x0, chart_radius, steps, cond_cap, sing_tol)

    if chart_radius > 0.0 and verify_samples > 0:
        check = verify_darboux_chart(
            chart, family.total_field, family.omega0,
            samples=verify_samples, tol=np.inf, seed=seed,
        )
        residual = check.residual
    else:
        residual = fixed_point_error
    return MoserReport(
        base_point=x0,
        chart=chart,
        validity_radius=vr,
        chart_radius=chart_radius,
        pullback_residual=residual,
        steps=steps,
        step_size=dt,
        fixed_point_error=fixed_point_error,
        lipschitz_estimate=lip,
        seed_points=seeds if record_trajectories else None,
        trajectories=trail,
    )


@dataclass(frozen=True)
class VerifyReport:
    residual: float
    ok: bool
    used: int
    skipped: int


def verify_darboux_chart(
    chart: ChartMap,
    omega_field: FormField,
    omega0: SkewForm,
    samples: int = 50,
    tol: float = 1e-5,
    seed: int = 0,
) -> VerifyReport:
    """Independent pullback check: max_x || DF^T omega(F(x)) DF - omega0 ||_2.

    DF comes from central differences (step FD_STEP) on the chart evaluator
    itself, so the check does not reuse any quantity from the construction.
    The samples are drawn in the chart's domain ball around its base point.
    Samples whose stencil or image leaves the usable region are skipped and
    counted.
    """
    space = omega0.space
    dim = space.dim
    radius = chart.domain_radius
    if radius <= 0.0:
        raise ValueError("verification radius must be positive")

    rng = _Draws(seed)
    sample_radius = max(radius - 2.0 * FD_STEP, 0.25 * radius)
    base_pts = _sample_ball(rng, space, chart.base_point, sample_radius, samples)

    eye = np.eye(dim)
    stencil = [base_pts]
    for k in range(dim):
        stencil.append(base_pts + FD_STEP * eye[k])
        stencil.append(base_pts - FD_STEP * eye[k])
    batch = np.concatenate(stencil, axis=0)

    out, alive = chart.map_points(batch)
    out = out.reshape(2 * dim + 1, samples, dim)
    alive = alive.reshape(2 * dim + 1, samples)
    usable = alive.all(axis=0)

    worst = 0.0
    used = 0
    skipped = int(np.count_nonzero(~usable))
    for j in range(samples):
        if not usable[j]:
            continue
        image = out[0, j]
        if not omega_field.contains(image, slack=1e-6):
            skipped += 1
            continue
        df = np.empty((dim, dim))
        for k in range(dim):
            df[:, k] = (out[2 * k + 1, j] - out[2 * k + 2, j]) / (2.0 * FD_STEP)
        mismatch = df.T @ omega_field.omega(image) @ df - omega0.matrix
        worst = max(worst, float(np.linalg.svd(mismatch, compute_uv=False)[0]))
        used += 1
    if used == 0:
        return VerifyReport(residual=float("inf"), ok=False, used=0, skipped=skipped)
    return VerifyReport(residual=worst, ok=worst <= tol, used=used, skipped=skipped)


@dataclass(frozen=True)
class LevelBounds:
    level: int
    forward: float
    inverse: float
    kumar: float


@dataclass(frozen=True)
class UniformBoundReport:
    forward_ok: bool
    inverse_ok: bool
    kumar_ok: bool
    per_level: tuple[LevelBounds, ...]


def uniform_bound_check(
    per_level_families,
    K: float,
    seed: int = 0,
    sing_tol: float = SING_TOL,
    cond_cap: float = COND_CAP,
    witnesses=None,
) -> UniformBoundReport:
    """Per-level operator norms of the family flats and their inverses.

    ``forward`` and ``inverse`` are gram-normalized operator norms of the
    flat at the family's base point, maximized over T_GRID times; ``kumar``
    is the norm of the flat-inverse applied to the radial primitive,
    maximized over time and KUMAR_SAMPLES points sampled around the base
    point, and is infinite once a sampled flat fails the validity test.
    That test is the one ``validity_radius`` and the integrator use:
    ``_margins`` > 0 with ``sing_tol`` and ``cond_cap``, on the singular
    values of the family's diagonal blocks.  The velocities come from one
    ``_field_batch`` call over the whole time grid, and the base-point
    flats of every time are factored as one stack.  The per-level table makes
    growth across levels visible; the three flags compare against K.

    ``witnesses``, when given, holds one point or None per level, such as
    the witnesses of ``validity_radius``.  A witness inside the kumar ball
    (KUMAR_RADIUS_FACTOR times the room left, in the gram norm) is one more
    sample, tested first, with the same rule, by ``_validity_margins`` at
    the T_GRID times; no velocity is solved for there.  If one of its flats
    fails, kumar is inf, the maximum, and the ball is not sampled.
    Otherwise the ball is sampled as without it, so a point from the caller
    can make kumar inf only where a flat fails and never moves a finite
    kumar.

    A level whose difference field is zero (``FormField.is_zero``) is
    evaluated at the first time only.  There omega_t = omega0 at every time
    and point and the radial primitive vanishes, so the grid and the ball
    would repeat the same matrices: ``forward`` and ``inverse`` come from
    omega0 at the base point, and ``kumar`` is 0.0, or inf when omega0's
    cached ``omega0_sigma_range`` fails the rule ``validity_radius`` applies.
    Its witness would meet the same omega0 and is not read.
    """
    ts = np.linspace(0.0, 1.0, T_GRID)
    rows = []
    for level, family in enumerate(per_level_families):
        base = family.base_point
        space = family.space
        zero_field = family.omega_bar.is_zero
        times = ts[:1] if zero_field else ts
        oms = family.omega0.matrix + times[:, None, None] * family.omega_bar.omega(base)
        flats = np.swapaxes(oms, -1, -2)
        # Multiplying by an identity gram_inv_sqrt is exact, so it is skipped.
        if not space.has_identity_gram:
            flats = space.gram_inv_sqrt @ flats @ space.gram_inv_sqrt
        s = np.linalg.svd(flats, compute_uv=False)
        forward = float(s[:, 0].max())
        smin = float(s[:, -1].min())
        inverse = float("inf") if smin <= _EPS else 1.0 / smin

        if zero_field:
            ok = _margins(*family.omega0_sigma_range, sing_tol, cond_cap) > 0.0
            rows.append(LevelBounds(level, forward, inverse, 0.0 if ok else float("inf")))
            continue
        avail = family.omega_bar.radius - family.omega_bar.distance_from_center(base)
        reach = KUMAR_RADIUS_FACTOR * max(avail, 0.0)
        witness = None if witnesses is None else witnesses[level]
        if witness is not None:
            witness = np.asarray(witness, dtype=float)
            if (space.norm(witness - base) <= reach
                    and not _validity_margins(family, witness[None, :], ts,
                                              sing_tol, cond_cap)[0] > 0.0):
                rows.append(LevelBounds(level, forward, inverse, float("inf")))
                continue
        rng = _Draws(seed + level)
        ball = _sample_ball(rng, space, base, reach, KUMAR_SAMPLES)
        pts = np.vstack([base[None, :], ball])
        vel, ok = _field_batch(family, ts, pts, cond_cap, sing_tol)
        if not np.all(ok):
            kumar = float("inf")
        elif space.has_identity_gram:
            kumar = float(np.max(np.linalg.norm(vel, axis=-1)))
        else:
            kumar = float(np.max(np.sqrt(
                np.einsum("...i,ij,...j->...", vel, space.gram_matrix, vel))))
        rows.append(LevelBounds(level=level, forward=forward, inverse=inverse, kumar=kumar))
    return UniformBoundReport(
        forward_ok=all(r.forward <= K for r in rows),
        inverse_ok=all(r.inverse <= K for r in rows),
        kumar_ok=all(r.kumar <= K for r in rows),
        per_level=tuple(rows),
    )


@dataclass(frozen=True)
class AssemblyReport:
    ok: bool
    limiting_radius_by_level: tuple[float, ...]
    diagnosis: str
    fitted_exponent: float | None


def _power_law_exponent(xs, radii) -> float | None:
    """Slope of log(radius) on log(x) over the positive radii; None below two."""
    points = [(x, r) for x, r in zip(xs, radii) if r > 0.0]
    if len(points) < 2:
        return None
    return float(np.polyfit(np.log([x for x, _ in points]), np.log([r for _, r in points]), 1)[0])


def assemble_projective_darboux(
    per_level_radii,
    tower: Tower,
    min_radius: float,
    first_row: list[float] | None = None,
) -> AssemblyReport:
    """Chart ball radii pushed down the tower, with a decay diagnosis.

    ``per_level_radii[j]`` is the chart radius at level j.  For each base
    level the limiting radius is the smallest ball guaranteed inside every
    projected higher-level chart domain (``Tower.radius_shrinks``, which
    holds one composite at a time).  A caller that has walked row 0
    already hands its ``tower.radius_shrinks(0)`` as ``first_row``, so the
    row is not walked again.  A power-law fit of the radii against
    n = j + 1 feeds the diagnosis when the floor is missed.
    """
    radii = [float(r) for r in per_level_radii]
    if len(radii) != tower.depth + 1:
        raise ValueError(
            "missing level radius: need %d, got %d" % (tower.depth + 1, len(radii))
        )

    if first_row is None:
        first_row = tower.radius_shrinks(0)
    limiting = [
        min(r * shrink for r, shrink in zip(radii[i:], tower.radius_shrinks(i) if i else first_row))
        for i in range(tower.depth + 1)
    ]
    ok = all(v >= min_radius for v in limiting)

    fitted = _power_law_exponent(range(1, tower.depth + 2), radii)

    if ok:
        diagnosis = "all levels retain a chart ball of radius >= %g" % min_radius
    elif any(r == 0.0 for r in radii):
        dead = [j for j, r in enumerate(radii) if r == 0.0]
        diagnosis = "levels %s produced no chart ball" % dead
    elif fitted is not None and fitted <= -0.3:
        diagnosis = (
            "chart radii decay like a power law with fitted exponent %.2f; "
            "no common radius survives deeper levels" % fitted
        )
    else:
        bad = [i for i, v in enumerate(limiting) if v < min_radius]
        diagnosis = "radius floor %g not met at levels %s" % (min_radius, bad)
    return AssemblyReport(
        ok=ok,
        limiting_radius_by_level=tuple(limiting),
        diagnosis=diagnosis,
        fitted_exponent=fitted,
    )
