"""Finite-depth projective towers of model spaces.

A tower is a chain ``levels[N] -> ... -> levels[1] -> levels[0]`` of model
spaces connected by bonding maps.  Composites come from one row walk,
``Tower._row(i)``, which multiplies ``bondings[i] @ ... @ bondings[j - 1]``
from the left and keeps only the current product: ``composite``,
``radius_shrinks`` and the compatibility check read it, so every composite
is the same float whoever asks, and the tower holds none.  Rows that start
at or above the tower's selection floor, from which every bonding up only
selects coordinates between identity-gram levels, are not walked by
``radius_shrinks``: every shrink factor there is exactly 1.  Threads are
per-level vectors consistent with the bondings, pushed down them one bonding
at a time; form sequences attach one skew form per level.

The checks in this module decide whether the bondings respect the forms
(compatibility), split the levels into canonical blocks coming from the
kernel chain, and transport forms downward through submersions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from symptower.linalg import (
    RANK_TOL,
    DimensionMismatchError,
    LinearMap,
    ModelSpace,
    SkewForm,
    Subspace,
    WeakIsometryReport,
    check_weak_isometry,
    check_weak_nondegenerate,
    frozen,
    kernel_split,
    matrix_rank,
    orthonormal_columns,
    restrict_form,
)

# Consistency tolerance for thread components, relative to component size.
THREAD_TOL = 1e-10
# Stabilization tolerance for per-level value sequences.
STAB_TOL = 1e-8
# Desk-scale caps.
MAX_DEPTH = 32
MAX_DIM = 512


class PreconditionError(ValueError):
    """A documented precondition of the operation does not hold."""


@dataclass(frozen=True, eq=False)
class Tower:
    """Chain of model spaces with bondings[i]: levels[i+1] -> levels[i]."""

    levels: tuple[ModelSpace, ...]
    bondings: tuple[LinearMap, ...]

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        bondings = tuple(self.bondings)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "bondings", bondings)
        if not levels:
            raise ValueError("a tower needs at least one level")
        if len(bondings) != len(levels) - 1:
            raise ValueError(
                "expected %d bondings for %d levels, got %d"
                % (len(levels) - 1, len(levels), len(bondings))
            )
        for i, bonding in enumerate(bondings):
            if not bonding.source.compatible_with(levels[i + 1]):
                raise DimensionMismatchError(
                    "bonding %d: source does not match level %d" % (i, i + 1)
                )
            if not bonding.target.compatible_with(levels[i]):
                raise DimensionMismatchError(
                    "bonding %d: target does not match level %d" % (i, i)
                )

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def _row(self, i: int):
        """Yield ``(j, composite(i, j) matrix)`` for j = i..depth.

        Each matrix is the previous one times ``bondings[j - 1].matrix``,
        starting from the identity; only the current one is kept.  Each is
        frozen in place, so a ``LinearMap`` keeps it without a copy.
        """
        m = np.eye(self.levels[i].dim)
        for j in range(i, self.depth + 1):
            if j > i:
                m = m @ self.bondings[j - 1].matrix
            m.flags.writeable = False
            yield j, m

    def composite(self, i: int, j: int) -> LinearMap:
        """The map levels[j] -> levels[i] obtained by chaining bondings."""
        if not 0 <= i <= j <= self.depth:
            raise ValueError("need 0 <= i <= j <= depth, got (%d, %d)" % (i, j))
        m = next(m for k, m in self._row(i) if k == j)
        return LinearMap(self.levels[j], self.levels[i], m)

    @cached_property
    def _selection_floor(self) -> int:
        """The lowest level k such that levels k..depth have identity grams
        and every bonding between them is a selection (``_is_selection``)."""
        k = self.depth
        while (k > 0 and self.levels[k].has_identity_gram
               and self.levels[k - 1].has_identity_gram
               and _is_selection(self.bondings[k - 1].matrix)):
            k -= 1
        return k

    def radius_shrinks(self, i: int) -> list[float]:
        """Factors by which the composites levels[j] -> levels[i] shrink a ball, j = i..depth.

        A ball of radius r in levels[j] maps onto a set containing the ball
        of radius r times factor j - i: the smallest singular value of the
        gram-normalized composite, or 0.0 when the composite is not onto.

        From the selection floor up (``i >= _selection_floor``) every factor
        is exactly 1.0, so the row is not walked and nothing is factored:
        - a product of selections is a selection: row a of p @ q is row
          sigma(a) of q, a unit row e_tau(sigma(a)), and distinct rows pick
          distinct columns; each entry is a sum with at most one nonzero
          term 1.0 * 1.0, so the float product is that selection exactly;
        - a selection m has m @ m.T = I exactly, so all its singular values
          are 1 and it is onto;
        - with identity grams at both ends the gram-normalized composite is
          m itself.
        Below the floor the row is walked and each composite factored.
        """
        if not 0 <= i <= self.depth:
            raise ValueError("need 0 <= i <= depth, got %d" % i)
        if i >= self._selection_floor:
            return [1.0] * (self.depth - i + 1)
        tgt = self.levels[i]
        shrinks = [1.0]
        for j, m in islice(self._row(i), 1, None):
            src = self.levels[j]
            normalized = m if src.has_identity_gram else m @ src.gram_inv_sqrt
            if not tgt.has_identity_gram:
                normalized = tgt.gram_sqrt @ normalized
            s = np.linalg.svd(normalized, compute_uv=False)
            if len(s) < tgt.dim or s[tgt.dim - 1] <= 1e-14 * s[0]:
                shrinks.append(0.0)
            else:
                shrinks.append(float(s[tgt.dim - 1]))
        return shrinks


def _is_selection(m: np.ndarray) -> bool:
    """Whether every entry is exactly 0.0 (either sign) or 1.0, with exactly
    one 1.0 per row and at most one per column."""
    ones = m == 1.0
    return bool(np.all(ones | (m == 0.0))
                and np.all(ones.sum(axis=1) == 1)
                and np.all(ones.sum(axis=0) <= 1))


def build_tower(levels, consecutive_bondings) -> Tower:
    """Validate shapes and caps, then assemble the tower.

    Errors name the offending level or bonding index.
    """
    levels = tuple(levels)
    bondings = tuple(consecutive_bondings)
    if len(levels) - 1 > MAX_DEPTH:
        raise ValueError("tower depth %d exceeds cap %d" % (len(levels) - 1, MAX_DEPTH))
    for i, space in enumerate(levels):
        if space.dim > MAX_DIM:
            raise ValueError("level %d: dimension %d exceeds cap %d" % (i, space.dim, MAX_DIM))
    return Tower(levels, bondings)


@dataclass(frozen=True, eq=False)
class Thread:
    """Per-level components consistent with the bondings.

    Component ``i`` must agree with the bonding image of component ``i+1``
    to within THREAD_TOL relative to the component sizes.
    """

    tower: Tower
    components: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        comps = []
        if len(self.components) != self.tower.depth + 1:
            raise ValueError(
                "thread needs %d components, got %d"
                % (self.tower.depth + 1, len(self.components))
            )
        for i, (c, space) in enumerate(zip(self.components, self.tower.levels)):
            v = frozen(c)
            if v.shape != (space.dim,):
                raise DimensionMismatchError(
                    "component %d must have shape (%d,), got %r" % (i, space.dim, v.shape)
                )
            comps.append(v)
        for i in range(self.tower.depth):
            pushed = self.tower.bondings[i].matrix @ comps[i + 1]
            scale = max(1.0, float(np.linalg.norm(comps[i])), float(np.linalg.norm(comps[i + 1])))
            if float(np.linalg.norm(comps[i] - pushed)) > THREAD_TOL * scale:
                raise ValueError("thread breaks at bonding %d" % i)
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def from_top(cls, tower: Tower, x_top) -> "Thread":
        """Thread obtained by pushing a top-level vector down the bondings."""
        comps = [np.asarray(x_top, dtype=float)]
        for bonding in reversed(tower.bondings):
            comps.append(bonding.matrix @ comps[-1])
        return cls(tower, tuple(reversed(comps)))

    def component(self, i: int) -> np.ndarray:
        return self.components[i]


@dataclass(frozen=True, eq=False)
class FormSequence:
    """A tower together with one skew form per level."""

    tower: Tower
    forms: tuple[SkewForm, ...]

    def __post_init__(self) -> None:
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        if len(forms) != self.tower.depth + 1:
            raise ValueError(
                "form sequence needs %d forms, got %d" % (self.tower.depth + 1, len(forms))
            )
        for i, (form, space) in enumerate(zip(forms, self.tower.levels)):
            if not form.space.compatible_with(space):
                raise DimensionMismatchError("form %d does not live on level %d" % (i, i))


@dataclass(frozen=True)
class CompatibilityReport:
    """Per-bonding weak-isometry results plus the anchored composite check.

    ``per_level[i]`` covers the bonding levels[i+1] -> levels[i].
    ``failed_composites`` lists the pairs (0, j) whose composite fails; one
    failing while all consecutive bondings pass points at accumulated
    tolerance trouble.  Drift between two levels above 0 is not checked.
    """

    ok: bool
    per_level: tuple[WeakIsometryReport, ...]
    failed_composites: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LimitFormReport:
    values: tuple[float, ...]
    stabilized: bool
    final: float


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Splitting of a level into the kernel-chain blocks above a base level.

    ``blocks[h]`` for h < level - base is the lift of the base-side block,
    the last entry is the kernel of the topmost bonding; blocks may have
    dimension zero when bondings are injective.
    """

    base: int
    level: int
    blocks: tuple[Subspace, ...]
    condition_number: float


def classify_tower(tower: Tower, rank_tol: float = RANK_TOL) -> bool:
    """Whether every consecutive bonding is surjective.

    At finite dimension a dense range (a "reduced" tower) is the same as
    surjectivity, and every kernel splits, so this one flag is the whole
    classification.
    """
    return all(matrix_rank(b.matrix, rank_tol) == b.target.dim for b in tower.bondings)


def check_compatible_sequence(fs: FormSequence, tol: float = RANK_TOL) -> CompatibilityReport:
    """Weak-isometry check of each consecutive bonding, plus the composites (0, j).

    Overall ok iff every consecutive bonding and every composite
    levels[j] -> levels[0], j >= 2, passes; failing composites land in
    ``failed_composites``.

    In exact arithmetic the consecutive checks imply every composite.  Let
    b2: E2 -> E1 and b1: E1 -> E0 pass, with forms omega_k on E_k, and let
    c = b1 b2.  Write K^o for the symplectic orthogonal of K.  A passing
    map b: E' -> E is onto, ker b meets ker(b)^o only at 0, and
    omega(b u, b v) = omega'(u, v) for u, v in ker(b)^o.  Since
    dim K^o >= dim E' - dim K, ker b and ker(b)^o then split E'.

    - ker b2 lies in ker c, so ker(c)^o lies in ker(b2)^o.
    - For u in ker(c)^o, b2 u lies in ker(b1)^o.  As b2 is onto and
      ker(b2)^o complements ker b2, each x in ker b1 is b2 x' with x' in
      ker(b2)^o.  Then c x' = 0, so omega1(b2 u, x) = omega2(u, x') = 0.
    - So for u, v in ker(c)^o,
      omega0(c u, c v) = omega1(b2 u, b2 v) = omega2(u, v).
    - If u lies in ker c and in ker(c)^o, then b2 u lies in ker b1 and in
      ker(b1)^o, so b2 u = 0; then u lies in ker b2 and in ker(b2)^o, so
      u = 0.
    - c is onto, as a composite of onto maps.

    Induction on composite(i, j) = composite(i, j - 1) b_{j-1} covers every
    pair.  The composites (0, j) are still checked because residuals, each
    within ``tol``, can add up along the chain in floating point.  They
    measure drift against level 0 only: a chain whose forms drift down and
    back up can pass while a composite (i, j), i > 0, fails.
    """
    tower = fs.tower
    per_level = tuple(
        check_weak_isometry(tower.bondings[i], fs.forms[i + 1], fs.forms[i], tol)
        for i in range(tower.depth)
    )
    failed = []
    for j, m in islice(tower._row(0), 2, None):
        composite = LinearMap(tower.levels[j], tower.levels[0], m)
        if not check_weak_isometry(composite, fs.forms[j], fs.forms[0], tol).ok:
            failed.append((0, j))
    ok = all(r.ok for r in per_level) and not failed
    return CompatibilityReport(ok=ok, per_level=per_level, failed_composites=tuple(failed))


def limit_form_eval(
    fs: FormSequence,
    u: Thread,
    v: Thread,
    compat: CompatibilityReport | None = None,
) -> LimitFormReport:
    """Per-level values omega_i(u_i, v_i) with a stabilization verdict.

    The top-level value stands in for the limit.  Stabilization means every
    value from half the depth on is within STAB_TOL of the top one.
    """
    if compat is None:
        compat = check_compatible_sequence(fs)
    if not compat.ok:
        raise PreconditionError("precondition failed: form sequence is not compatible")
    depth = fs.tower.depth
    values = tuple(
        float(fs.forms[i](u.components[i], v.components[i])) for i in range(depth + 1)
    )
    final = values[depth]
    stabilized = all(abs(val - final) <= STAB_TOL for val in values[depth // 2:])
    return LimitFormReport(values=values, stabilized=stabilized, final=final)


def block_decompose(
    fs: FormSequence,
    base_i: int,
    level_j: int,
    rank_tol: float = RANK_TOL,
    compat: CompatibilityReport | None = None,
) -> BlockDecomposition:
    """Canonical blocks of levels[level_j] over the base level.

    Each bonding's kernel gets a symplectic complement; the complement is
    carried up the tower by inverting the bonding on it, so the blocks of
    the base level reappear inside every higher level, followed by one
    kernel block per bonding (possibly zero-dimensional).
    """
    tower = fs.tower
    if not 0 <= base_i <= level_j <= tower.depth:
        raise ValueError("need 0 <= base_i <= level_j <= depth")
    if compat is None:
        compat = check_compatible_sequence(fs)
    if not compat.ok:
        raise PreconditionError("precondition failed: form sequence is not compatible")

    def decompose(level: int) -> list[np.ndarray]:
        if level == base_i:
            return [np.eye(tower.levels[level].dim)]
        bonding = tower.bondings[level - 1]
        ker_basis, kperp_basis, ok, split_ok = _submersion_pieces(
            fs.forms[level], bonding, rank_tol
        )
        if not (ok and split_ok):
            raise ValueError("level %d: the bonding is not invertible on the symplectic "
                             "orthogonal of its kernel, or the two do not split" % level)
        lprime = bonding.matrix @ kperp_basis
        lifted = [
            orthonormal_columns(kperp_basis @ np.linalg.solve(lprime, block), rank_tol)
            for block in decompose(level - 1)
        ]
        lifted.append(ker_basis)
        return lifted

    bases = decompose(level_j)
    dim = tower.levels[level_j].dim
    stacked = np.hstack(bases)
    if stacked.shape[1] != dim or matrix_rank(stacked, rank_tol) != dim:
        raise ValueError("level %d: blocks do not span the level" % level_j)
    s = np.linalg.svd(stacked, compute_uv=False)
    return BlockDecomposition(
        base=base_i,
        level=level_j,
        blocks=tuple(Subspace(tower.levels[level_j], b) for b in bases),
        condition_number=float(s[0] / s[-1]),
    )


@dataclass(frozen=True)
class SubmersionReport:
    """``ok``: source splits as kernel plus symplectic orthogonal.

    ``split_ok``: the map restricted to that orthogonal is invertible onto
    the target (gives the right inverse used to induce forms), its smallest
    singular value above ``tol`` times the map's norm;
    ``vertical_nondegenerate``: the form restricted to the kernel is
    nondegenerate (vacuously true for trivial kernels).
    """

    ok: bool
    vertical_nondegenerate: bool
    split_ok: bool


def _submersion_pieces(
    form_top: SkewForm, map_: LinearMap, rank_tol: float
) -> tuple[np.ndarray, np.ndarray, bool, bool]:
    """``(ker_basis, kperp_basis, ok, split_ok)``, the last two as in ``SubmersionReport``."""
    if not map_.source.compatible_with(form_top.space):
        raise DimensionMismatchError("form must live on the source of the map")
    rank, ker_basis, kperp_basis, stacked_rank = kernel_split(
        map_.matrix, form_top.matrix, rank_tol
    )
    if rank != map_.target.dim:
        raise PreconditionError("not a submersion: map is not surjective")
    dim = map_.source.dim
    kperp_dim = kperp_basis.shape[1]
    ok = stacked_rank == dim and ker_basis.shape[1] + kperp_dim == dim
    split_ok = kperp_dim == map_.target.dim and bool(
        np.linalg.svd(map_.matrix @ kperp_basis, compute_uv=False)[-1]
        > rank_tol * np.linalg.norm(map_.matrix, 2)
    )
    return ker_basis, kperp_basis, ok, split_ok


def check_symplectic_submersion(
    form_top: SkewForm, map_: LinearMap, tol: float = RANK_TOL
) -> SubmersionReport:
    """Whether the map's kernel and its symplectic orthogonal split the source."""
    ker_basis, _, ok, split_ok = _submersion_pieces(form_top, map_, tol)
    if ker_basis.shape[1] == 0:
        vertical = True
    else:
        restricted = restrict_form(form_top, Subspace(map_.source, ker_basis))
        vertical = check_weak_nondegenerate(restricted, tol).nondegenerate
    return SubmersionReport(ok=ok, vertical_nondegenerate=vertical, split_ok=split_ok)


def induce_level_form(
    form_top: SkewForm, map_: LinearMap, tol: float = RANK_TOL
) -> SkewForm:
    """Push the form through a submersion via the right inverse on ker-perp.

    The result omega_i satisfies omega_i(map u, map v) = form_top(u, v) for
    u, v in the symplectic orthogonal of the kernel.
    """
    _, kperp_basis, ok, split_ok = _submersion_pieces(form_top, map_, tol)
    if not (ok and split_ok):
        raise PreconditionError("cannot induce a form: submersion check failed")
    lprime = map_.matrix @ kperp_basis
    right_inverse = kperp_basis @ np.linalg.solve(lprime, np.eye(map_.target.dim))
    matrix = right_inverse.T @ form_top.matrix @ right_inverse
    matrix = 0.5 * (matrix - matrix.T)
    return SkewForm(map_.target, matrix)
