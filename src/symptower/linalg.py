"""Constant skew bilinear forms on finite-dimensional model spaces.

A model space is R^dim with a positive definite gram matrix fixing the inner
product; a skew form on it is a constant antisymmetric matrix.  The gram
matrix never enters the form pairing itself, only norms, dual norms, and the
conditioning diagnostics.

Conventions used throughout:

* covectors are represented by their coefficient vectors, paired with vectors
  by the plain dot product;
* the flat operator of a form sends ``u`` to the covector ``v -> omega(u, v)``,
  i.e. its matrix is ``omega.T``;
* subspaces carry explicit basis matrices with basis vectors in columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from symptower import SKEW_TOL

# Relative cutoff for every rank decision made from singular values.
RANK_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


class DimensionMismatchError(ValueError):
    """Operands live on different model spaces or have incompatible shapes."""


class DegenerateFormError(ValueError):
    """The operation needed an invertible form and did not get one."""


def count(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int``, when it is an int or numpy integer (not a
    bool) of at least ``least``, 1 or 0; else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError("%s must be a %s integer, got %r"
                         % (name, "positive" if least else "non-negative", value))
    return int(value)


def frozen(a) -> np.ndarray:
    """``a`` as a read-only float64 array, shared when nothing can write it.

    A float64 ndarray that is read-only, and whose ``base`` is absent or a
    read-only ndarray of the same kind, is kept as it is: a caller's frozen
    array, or a view of one, is held once however many objects take it.
    Anything else (a writeable array, a read-only view of a writeable one,
    a list, another dtype) is copied and the copy frozen, so no later write
    to the caller's array reaches it.  It is the one way in for an array
    that a library object keeps, so a builder that freezes what it builds
    in place hands it over without a second copy.
    """
    m = a
    while type(m) is np.ndarray and m.dtype == np.float64 and not m.flags.writeable:
        if m.base is None:
            return a
        m = m.base
    m = np.array(a, dtype=float)
    m.flags.writeable = False
    return m


def _as_matrix(a, rows: int, cols: int, what: str) -> np.ndarray:
    m = frozen(a)
    if m.shape != (rows, cols):
        raise DimensionMismatchError(
            "%s must have shape (%d, %d), got %r" % (what, rows, cols, m.shape)
        )
    return m


def _as_vector(a, dim: int, what: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(
            "%s must have shape (%d,), got %r" % (what, dim, v.shape)
        )
    return v


def orthonormal_columns(m: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis for the column space of ``m``, as columns.

    Rank is decided by singular values relative to the largest one, so the
    result may have fewer columns than ``m``.
    """
    if m.shape[1] == 0:
        return m.copy()
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return u[:, :rank]


def null_space_basis(m: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``m``."""
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or not np.any(m):
        return np.eye(cols)
    _, s, vt = np.linalg.svd(m)
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0
    return vt[rank:].T


def certify_full_row_rank(m: np.ndarray, rank_tol: float = RANK_TOL) -> bool:
    """Whether the SVD rule provably finds full row rank in ``m`` at ``rank_tol``.

    The rule (``matrix_rank``, ``kernel_split``) counts the computed
    singular values above ``rank_tol`` times the largest.  The certificate
    is one Cholesky factorization of G = m m^T with f t taken off its
    diagonal, where t = trace G = |m|_F^2, f = 16 N eps + rank_tol^2 and
    N = rows + cols.  A square map is accepted like any other (its kernel
    is then empty); one with more rows than columns, or a zero or
    non-finite one, is refused without factoring.

    Success proves the rule's verdict.  With u = eps / 2, to first order in
    u (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 3.5 and chapter 10):

    - Each entry of the computed G is a dot product of length cols, so it
      is G + E with |E|_2 <= cols u |m|_F^2 = cols u t; taking the floor
      off rounds each diagonal entry once more, a relative u.  The floor
      itself is computed to within (N + 4) u relative.
    - A Cholesky factorization that runs to completion on a symmetric A
      gives R^T R = A + dA with |dA| <= (rows + 1) u |R^T| |R|
      (Theorem 10.3; LAPACK's blocked form obeys a bound of the same
      form), and |R|_F^2 = trace(A + dA) <= t, so |dA|_2 <= (rows + 1) u t.
      R^T R is positive definite.
    - So lambda_min(G) > f t - ((N + 4) f + N + 2) u t.  For
      rank_tol >= 1, where the rule finds no rank at all, that exceeds
      t >= lambda_max(G), so the factorization never succeeds there; for
      rank_tol < 1 it exceeds (rank_tol^2 + 5 N eps) t, since 11 N eps
      covers (N + 4 + N + 2) u with room for the second order.
    - LAPACK's SVD returns the singular values of m + E with
      |E|_2 <= p eps |m|_2, p a modest function of the size (LAPACK
      Users' Guide, section 4.9), taken here as at most N; by Weyl's
      inequality each computed value is within N eps s_max of the true
      one.  The rule then finds full rank when
      s_min > (rank_tol + 2 N eps) s_max, which
      s_min^2 = lambda_min(G) > (rank_tol^2 + 5 N eps) t >=
      (rank_tol^2 + 4 N eps rank_tol + 4 N^2 eps^2) s_max^2 gives.
    """
    rows, cols = m.shape
    if rows == 0 or rows > cols:
        return False
    gram = m @ m.T
    trace = float(np.trace(gram))
    if not 0.0 < trace < np.inf:
        return False
    gram.flat[:: rows + 1] -= (16.0 * (rows + cols) * _EPS + rank_tol * rank_tol) * trace
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def matrix_rank(m: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def column_space_contains(
    big: np.ndarray, small: np.ndarray, rank_tol: float = RANK_TOL
) -> bool:
    """Whether ``col(small)`` is contained in ``col(big)``."""
    if small.shape[1] == 0:
        return True
    q = orthonormal_columns(big, rank_tol)
    residual = small - q @ (q.T @ small)
    scale = max(1.0, float(np.linalg.norm(small)))
    return float(np.linalg.norm(residual)) <= rank_tol * scale


def column_spaces_equal(
    a: np.ndarray, b: np.ndarray, rank_tol: float = RANK_TOL
) -> bool:
    return column_space_contains(a, b, rank_tol) and column_space_contains(
        b, a, rank_tol
    )


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """R^dim with a fixed positive definite gram matrix.

    ``gram=None`` means the standard inner product and enables cheaper norm
    paths.
    """

    dim: int
    gram: np.ndarray | None = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", count(self.dim, "dim"))
        if self.gram is not None:
            g = _as_matrix(self.gram, self.dim, self.dim, "gram")
            sym_defect = np.linalg.norm(g - g.T)
            if sym_defect > 1e-12 * max(1.0, np.linalg.norm(g)):
                raise ValueError("gram matrix is not symmetric")
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise ValueError("gram matrix is not positive definite") from None
            object.__setattr__(self, "gram", g)

    @property
    def has_identity_gram(self) -> bool:
        return self.gram is None

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        if self.gram is None:
            return np.eye(self.dim)
        return self.gram

    @cached_property
    def _gram_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.gram_matrix)

    @cached_property
    def gram_inv(self) -> np.ndarray:
        if self.gram is None:
            return np.eye(self.dim)
        w, v = self._gram_eig
        return (v / w) @ v.T

    @cached_property
    def gram_sqrt(self) -> np.ndarray:
        if self.gram is None:
            return np.eye(self.dim)
        w, v = self._gram_eig
        return (v * np.sqrt(w)) @ v.T

    @cached_property
    def gram_inv_sqrt(self) -> np.ndarray:
        if self.gram is None:
            return np.eye(self.dim)
        w, v = self._gram_eig
        return (v / np.sqrt(w)) @ v.T

    def inner(self, u, v) -> float:
        u = _as_vector(u, self.dim)
        v = _as_vector(v, self.dim)
        if self.gram is None:
            return float(u @ v)
        return float(u @ self.gram @ v)

    def norm(self, u) -> float:
        u = _as_vector(u, self.dim)
        if self.gram is None:
            return float(np.linalg.norm(u))
        return float(np.sqrt(max(u @ self.gram @ u, 0.0)))

    def dual_norm(self, xi) -> float:
        """Operator norm of the covector ``xi`` against ``norm``."""
        xi = _as_vector(xi, self.dim, "covector")
        if self.gram is None:
            return float(np.linalg.norm(xi))
        return float(np.sqrt(max(xi @ self.gram_inv @ xi, 0.0)))

    def compatible_with(self, other: "ModelSpace") -> bool:
        if self is other:
            return True
        if self.dim != other.dim:
            return False
        if self.gram is None and other.gram is None:
            return True
        return bool(
            np.allclose(
                self.gram_matrix, other.gram_matrix, rtol=1e-12, atol=1e-14
            )
        )


def _require_same_space(a: ModelSpace, b: ModelSpace, what: str) -> None:
    if not a.compatible_with(b):
        raise DimensionMismatchError("%s: model spaces do not match" % what)


@dataclass(frozen=True, eq=False)
class SkewForm:
    """Constant antisymmetric bilinear form on a model space."""

    space: ModelSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_matrix(self.matrix, self.space.dim, self.space.dim, "form matrix")
        # Scaled by the power of two that brings the largest entry below 1,
        # which keeps the ratio's bits and lets no sum overflow.
        scaled = np.ldexp(m, -max(int(np.frexp(np.max(np.abs(m), initial=0.0))[1]), 0))
        defect = np.linalg.norm(scaled + scaled.T)
        scale = np.linalg.norm(scaled)
        if scale > 0.0 and defect > SKEW_TOL * scale:
            raise ValueError(
                "form matrix is not antisymmetric (relative defect %.3e)"
                % (defect / scale)
            )
        object.__setattr__(self, "matrix", m)

    def __call__(self, u, v) -> float:
        u = _as_vector(u, self.space.dim)
        v = _as_vector(v, self.space.dim)
        return float(u @ self.matrix @ v)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of a model space, spanned by the columns of ``basis``.

    The basis must have full column rank; zero columns give the zero
    subspace.
    """

    ambient: ModelSpace
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = frozen(self.basis)
        if b.ndim != 2 or b.shape[0] != self.ambient.dim:
            raise DimensionMismatchError(
                "basis must have shape (%d, k), got %r" % (self.ambient.dim, b.shape)
            )
        if b.shape[1] > 0:
            s = np.linalg.svd(b, compute_uv=False)
            if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
                raise ValueError("basis columns are not linearly independent")
        object.__setattr__(self, "basis", b)

    @classmethod
    def zero(cls, ambient: ModelSpace) -> "Subspace":
        return cls(ambient, np.zeros((ambient.dim, 0)))

    @classmethod
    def full(cls, ambient: ModelSpace) -> "Subspace":
        return cls(ambient, np.eye(ambient.dim))

    @classmethod
    def span(cls, ambient: ModelSpace, vectors) -> "Subspace":
        """Subspace spanned by a sequence of vectors (possibly dependent)."""
        cols = np.column_stack([_as_vector(v, ambient.dim) for v in vectors])
        return cls(ambient, orthonormal_columns(cols))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, other: "Subspace", rank_tol: float = RANK_TOL) -> bool:
        _require_same_space(self.ambient, other.ambient, "contains")
        return column_space_contains(self.basis, other.basis, rank_tol)

    def equals(self, other: "Subspace", rank_tol: float = RANK_TOL) -> bool:
        return self.contains(other, rank_tol) and other.contains(self, rank_tol)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Linear map between model spaces; ``matrix`` is (target.dim, source.dim)."""

    source: ModelSpace
    target: ModelSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_matrix(
            self.matrix, self.target.dim, self.source.dim, "map matrix"
        )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, space: ModelSpace) -> "LinearMap":
        return cls(space, space, np.eye(space.dim))

    def __call__(self, u) -> np.ndarray:
        return self.matrix @ _as_vector(u, self.source.dim)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """The map ``self o inner``."""
        _require_same_space(inner.target, self.source, "compose")
        return LinearMap(inner.source, self.target, self.matrix @ inner.matrix)


@dataclass(frozen=True)
class NondegeneracyReport:
    nondegenerate: bool
    smallest_singular_value: float


@dataclass(frozen=True)
class ConditioningReport:
    kappa: float
    sigma_min: float
    sigma_max: float


@dataclass(frozen=True)
class WeakIsometryReport:
    """Outcome of :func:`check_weak_isometry`.

    ``transversality_defect`` is the largest principal cosine between the
    kernel and the symplectic orthogonal of the kernel (0.0 when they only
    meet at the origin), ``direct_sum_defect`` counts the directions missing
    from their sum.
    """

    ok: bool
    ker_dim: int
    transversality_defect: float
    pullback_residual: float
    dense_range: bool
    direct_sum_defect: int


def flat_operator(form: SkewForm) -> LinearMap:
    """Map ``u`` to the covector ``v -> form(u, v)``; matrix is ``form.matrix.T``."""
    return LinearMap(form.space, form.space, form.matrix.T)


def check_weak_nondegenerate(
    form: SkewForm, tol: float = RANK_TOL
) -> NondegeneracyReport:
    """Injectivity of the flat operator, decided on the smallest singular value."""
    s = np.linalg.svd(form.matrix, compute_uv=False)
    smallest = float(s[-1])
    return NondegeneracyReport(nondegenerate=smallest > tol, smallest_singular_value=smallest)


def darboux_constant_form(l_dim: int) -> SkewForm:
    """Canonical constant form on R^(2l) = R^l x R^l.

    Pairs ``(u, eta)`` with ``(v, xi)`` as ``eta . v - xi . u``; the matrix is
    ``[[0, -I], [I, 0]]`` in block form.
    """
    l_dim = count(l_dim, "l_dim")
    omega = np.zeros((2 * l_dim, 2 * l_dim))
    eye = np.eye(l_dim)
    omega[:l_dim, l_dim:] = -eye
    omega[l_dim:, :l_dim] = eye
    return SkewForm(ModelSpace(2 * l_dim, label="darboux-%d" % (2 * l_dim)), omega)


def omega_dual_norm(form: SkewForm, u) -> float:
    """Dual norm of the covector ``form(u, .)``."""
    u = _as_vector(u, form.space.dim)
    return form.space.dual_norm(form.matrix.T @ u)


def weakness_conditioning(form: SkewForm) -> ConditioningReport:
    """Singular value spread of the form after gram normalisation.

    The form matrix is conjugated by ``gram^(-1/2)`` so that the reported
    ``kappa = sigma_max / sigma_min`` measures how far the flat operator is
    from an isometry onto its image in the norms of the space.  Raises
    :class:`DegenerateFormError` when the form is singular at ``RANK_TOL``.
    """
    gis = form.space.gram_inv_sqrt
    if form.space.has_identity_gram:
        normalized = form.matrix
    else:
        normalized = gis @ form.matrix @ gis
    s = np.linalg.svd(normalized, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise DegenerateFormError("degenerate form: conditioning is undefined")
    return ConditioningReport(
        kappa=float(s[0] / s[-1]), sigma_min=float(s[-1]), sigma_max=float(s[0])
    )


def symplectic_orthogonal(
    form: SkewForm, k: Subspace, rank_tol: float = RANK_TOL
) -> Subspace:
    """All vectors pairing to zero with every element of ``k`` under ``form``."""
    _require_same_space(form.space, k.ambient, "symplectic_orthogonal")
    if k.dim == 0:
        return Subspace.full(form.space)
    rows = k.basis.T @ form.matrix
    return Subspace(form.space, null_space_basis(rows, rank_tol))


def restrict_form(form: SkewForm, k: Subspace) -> SkewForm:
    """Pull the form back to ``k`` in the coordinates of its basis.

    The restricted model space inherits the gram matrix ``B.T G B`` so norms
    of coefficient vectors agree with ambient norms of the vectors they
    represent.
    """
    _require_same_space(form.space, k.ambient, "restrict_form")
    if k.dim == 0:
        raise ValueError("cannot restrict a form to the zero subspace")
    b = k.basis
    gram = b.T @ form.space.gram_matrix @ b
    gram = 0.5 * (gram + gram.T)
    sub_matrix = b.T @ form.matrix @ b
    sub_matrix = 0.5 * (sub_matrix - sub_matrix.T)
    return SkewForm(ModelSpace(k.dim, gram), sub_matrix)


def pullback_form(map_: LinearMap, form: SkewForm) -> SkewForm:
    """The form ``(u, v) -> form(map u, map v)`` on the source space."""
    _require_same_space(map_.target, form.space, "pullback_form")
    m = map_.matrix.T @ form.matrix @ map_.matrix
    m = 0.5 * (m - m.T)
    return SkewForm(map_.source, m)


def orthonormal_stacked_rank(
    a: np.ndarray, b: np.ndarray, rank_tol: float = RANK_TOL
) -> int:
    """``matrix_rank(np.hstack([a, b]), rank_tol)`` for orthonormal ``a``, ``b``.

    The singular values of ``[a, b]`` are sqrt(1 + cos t) and sqrt(1 - cos t)
    over the principal angles t between the two spans, and 1 for each
    column the wider basis has beyond the narrower one.  The sines of the
    angles are the singular values of the narrower basis's residual against
    the wider one, an n x min(k, p) matrix, so the n x (k + p) stacked matrix
    is never factored.  sqrt(1 - cos t) is taken as sin t / sqrt(1 + cos t):
    1 - cos t cancels to zero below sin t ~ 1e-8 and would hide a meet.
    """
    narrow, wide = (a, b) if a.shape[1] <= b.shape[1] else (b, a)
    if narrow.shape[1] == 0:
        return wide.shape[1]
    sin = np.minimum(
        np.linalg.svd(narrow - wide @ (wide.T @ narrow), compute_uv=False), 1.0
    )
    cos = np.sqrt(1.0 - sin * sin)
    largest = np.sqrt(1.0 + cos.max())
    small = sin / np.sqrt(1.0 + cos)
    return wide.shape[1] + int(np.count_nonzero(small > rank_tol * largest))


def kernel_split(
    map_matrix: np.ndarray, form_matrix: np.ndarray, rank_tol: float = RANK_TOL
) -> tuple[int, np.ndarray, np.ndarray, int]:
    """A map's kernel, the kernel's symplectic orthogonal, and their sum.

    Returns ``(rank, ker_basis, kperp_basis, stacked_rank)``: the rank of
    the map, orthonormal bases (columns) of its kernel and of the kernel's
    orthogonal under the form, and the dimension of their sum.  The sum's
    dimension comes from the principal angles between the two bases
    (:func:`orthonormal_stacked_rank`).

    A map that :func:`certify_full_row_rank` accepts has rank ``rows``, and
    one complete QR of its transpose gives its row space (the first
    ``rows`` columns) and its kernel (the rest; none for a square map).
    When that kernel is the wider side and the form is certified too, the
    orthogonal {u : k^T form u = 0}, k the kernel basis, is form^-1 applied
    to the row space: ``rows`` columns from one LU solve.  The null-space
    route would count as many: k^T form has a smallest singular value at
    least the form's and a smaller trace and size, so the form's
    certificate covers it; the product's rounding, under
    cols eps |form|_F / 2, moves that singular value by less than the
    certificate's margin.  Otherwise the map is factored once by the SVD,
    whose singular values give the rank and right singular vectors the
    kernel, and the orthogonal is the null space of k^T form.
    """
    rows, cols = map_matrix.shape
    row_space = None
    if certify_full_row_rank(map_matrix, rank_tol):
        rank = rows
        if rows == cols:
            ker_basis = np.zeros((cols, 0))
        else:
            q = np.linalg.qr(map_matrix.T, mode="complete")[0]
            row_space, ker_basis = q[:, :rows], q[:, rows:]
    elif rows == 0 or not np.any(map_matrix):
        rank, ker_basis = 0, np.eye(cols)
    else:
        _, s, vt = np.linalg.svd(map_matrix)
        rank = int(np.count_nonzero(s > rank_tol * s[0]))
        ker_basis = vt[rank:].T
    if ker_basis.shape[1] == 0:
        kperp_basis = np.eye(cols)
    elif (row_space is not None and cols - rows > rows
          and certify_full_row_rank(form_matrix, rank_tol)):
        kperp_basis = np.linalg.qr(np.linalg.solve(form_matrix, row_space))[0]
    else:
        kperp_basis = null_space_basis(ker_basis.T @ form_matrix, rank_tol)
    stacked_rank = orthonormal_stacked_rank(ker_basis, kperp_basis, rank_tol)
    return rank, ker_basis, kperp_basis, stacked_rank


def check_weak_isometry(
    map_: LinearMap,
    form_src: SkewForm,
    form_tgt: SkewForm,
    tol: float = RANK_TOL,
    rank_tol: float = RANK_TOL,
) -> WeakIsometryReport:
    """Whether ``map_`` is a surjective form-preserving map off its kernel.

    Checks three things: the map has dense (here: full) range, the kernel
    meets its symplectic orthogonal only at the origin, and the pullback of
    the target form agrees with the source form on that symplectic
    orthogonal.  The pullback residual is the spectral norm of the mismatch
    compressed to the orthogonal.
    """
    _require_same_space(map_.source, form_src.space, "check_weak_isometry")
    _require_same_space(map_.target, form_tgt.space, "check_weak_isometry")
    src_dim = map_.source.dim

    rank, ker_basis, kperp_basis, stacked_rank = kernel_split(
        map_.matrix, form_src.matrix, rank_tol
    )
    dense_range = rank == map_.target.dim
    ker_dim = ker_basis.shape[1]
    kperp_dim = kperp_basis.shape[1]
    meet_dim = ker_dim + kperp_dim - stacked_rank
    direct_sum_defect = src_dim - stacked_rank

    # kernel_split's bases are orthonormal already: no re-orthonormalizing
    if meet_dim == 0 or ker_dim == 0 or kperp_dim == 0:
        transversality_defect = 0.0
    else:
        cos = np.linalg.svd(ker_basis.T @ kperp_basis, compute_uv=False)
        transversality_defect = float(min(cos[0], 1.0))

    mismatch = map_.matrix.T @ form_tgt.matrix @ map_.matrix - form_src.matrix
    compressed = kperp_basis.T @ mismatch @ kperp_basis
    if compressed.size == 0:
        pullback_residual = 0.0
    else:
        pullback_residual = float(np.linalg.svd(compressed, compute_uv=False)[0])

    ok = dense_range and meet_dim == 0 and pullback_residual <= tol
    return WeakIsometryReport(
        ok=ok,
        ker_dim=ker_dim,
        transversality_defect=transversality_defect,
        pullback_residual=pullback_residual,
        dense_range=dense_range,
        direct_sum_defect=direct_sum_defect,
    )
