import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symptower.linalg import (
    RANK_TOL,
    DegenerateFormError,
    DimensionMismatchError,
    LinearMap,
    ModelSpace,
    SkewForm,
    Subspace,
    WeakIsometryReport,
    check_weak_isometry,
    check_weak_nondegenerate,
    darboux_constant_form,
    flat_operator,
    frozen,
    kernel_split,
    matrix_rank,
    null_space_basis,
    omega_dual_norm,
    orthonormal_columns,
    orthonormal_stacked_rank,
    pullback_form,
    restrict_form,
    symplectic_orthogonal,
    weakness_conditioning,
)
from symptower.models import MarsdenSpec
from symptower.moser import FormField
from symptower.tower import Thread, build_tower

# Frozen by hand from the conventions in the module docstring.
FLAT_OF_E1 = np.array([0.0, 1.0])            # omega=[[0,1],[-1,0]], u=e1
DARBOUX2_VALUE = -1.0                        # omega((1,0),(0,1)) on R^2
DARBOUX4_FLAT_E1 = np.array([0.0, 0.0, -1.0, 0.0])
DUAL_NORM_GRAM_14 = 0.5                      # darboux R^2, gram diag(1,4), u=e1
CONDITIONING_GRAM_19 = (1.0, 1.0 / 3.0)      # (kappa, sigma) for gram diag(1,9)
SCALED_PROJECTION_RESIDUAL = 3.0             # 2x projection R^4 -> R^2


def random_skew(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a - a.T


def test_model_space_rejects_bad_gram():
    with pytest.raises(ValueError, match="not positive definite"):
        ModelSpace(2, gram=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError, match="not positive definite"):
        ModelSpace(2, gram=np.array([[1.0, 1.0], [1.0, 1.0]]))  # singular
    with pytest.raises(ValueError):
        ModelSpace(2, gram=np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(DimensionMismatchError):
        ModelSpace(3, gram=np.eye(2))
    with pytest.raises(ValueError):
        ModelSpace(0)


def test_model_space_norms_with_gram():
    space = ModelSpace(2, gram=np.diag([1.0, 4.0]))
    assert space.norm([0.0, 1.0]) == pytest.approx(2.0)
    assert space.dual_norm([0.0, 1.0]) == pytest.approx(0.5)
    assert space.inner([1.0, 1.0], [1.0, -1.0]) == pytest.approx(-3.0)


def test_compatible_with_skips_the_gram_compare_for_the_same_space(monkeypatch):
    gram = np.diag([1.0, 2.0, 3.0])
    space = ModelSpace(3, gram=gram)
    calls = []
    allclose = np.allclose

    def counting(*args, **kwargs):
        calls.append(args)
        return allclose(*args, **kwargs)

    monkeypatch.setattr(np, "allclose", counting)
    assert space.compatible_with(space)
    assert calls == []
    # distinct spaces still compare their grams by value
    assert space.compatible_with(ModelSpace(3, gram=gram.copy()))
    assert not space.compatible_with(ModelSpace(3, gram=np.diag([1.0, 2.0, 4.0])))
    assert len(calls) == 2


def test_skew_form_rejects_symmetric_part():
    space = ModelSpace(2)
    with pytest.raises(ValueError, match="antisymmetric"):
        SkewForm(space, np.array([[0.0, 1.0], [-1.0 + 1e-6, 0.0]]))


def test_skew_form_judges_a_matrix_whose_sums_overflow():
    # m + m.T overflows to inf here; the check scales m by a power of two first.
    space = ModelSpace(2)
    with pytest.raises(ValueError, match=r"antisymmetric \(relative defect 2\.000e\+00\)"):
        SkewForm(space, np.array([[1e308, 1e308], [1e308, 0.0]]))
    form = SkewForm(space, np.array([[0.0, 1e308], [-1e308, 0.0]]))
    assert form.matrix[0, 1] == 1e308


def test_flat_operator_covector_convention():
    space = ModelSpace(2)
    form = SkewForm(space, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    flat = flat_operator(form)
    np.testing.assert_allclose(flat([1.0, 0.0]), FLAT_OF_E1)
    # flat(u) . v must equal form(u, v) for all u, v
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert flat(u) @ v == pytest.approx(form(u, v), abs=1e-12)


def test_darboux_constant_form_values():
    form = darboux_constant_form(1)
    assert form([1.0, 0.0], [0.0, 1.0]) == pytest.approx(DARBOUX2_VALUE)
    form4 = darboux_constant_form(2)
    np.testing.assert_allclose(
        flat_operator(form4)([1.0, 0.0, 0.0, 0.0]), DARBOUX4_FLAT_E1
    )
    rep = check_weak_nondegenerate(form4)
    assert rep.nondegenerate
    assert rep.smallest_singular_value == pytest.approx(1.0)


def test_darboux_rejects_nonpositive_l():
    with pytest.raises(ValueError):
        darboux_constant_form(0)


def test_omega_dual_norm_frozen():
    space = ModelSpace(2, gram=np.diag([1.0, 4.0]))
    form = SkewForm(space, darboux_constant_form(1).matrix)
    assert omega_dual_norm(form, [1.0, 0.0]) == pytest.approx(DUAL_NORM_GRAM_14)


def test_weakness_conditioning_frozen():
    space = ModelSpace(2, gram=np.diag([1.0, 9.0]))
    form = SkewForm(space, darboux_constant_form(1).matrix)
    rep = weakness_conditioning(form)
    kappa, sigma = CONDITIONING_GRAM_19
    assert rep.kappa == pytest.approx(kappa)
    assert rep.sigma_min == pytest.approx(sigma)
    assert rep.sigma_max == pytest.approx(sigma)


def test_weakness_conditioning_raises_on_degenerate():
    space = ModelSpace(2)
    form = SkewForm(space, np.zeros((2, 2)))
    with pytest.raises(DegenerateFormError, match="degenerate"):
        weakness_conditioning(form)


def test_symplectic_orthogonal_of_span_e1():
    form = darboux_constant_form(2)
    k = Subspace.span(form.space, [np.array([1.0, 0.0, 0.0, 0.0])])
    perp = symplectic_orthogonal(form, k)
    expected = Subspace.span(
        form.space,
        [np.eye(4)[0], np.eye(4)[1], np.eye(4)[3]],
    )
    assert perp.equals(expected)


def test_symplectic_orthogonal_of_zero_is_full():
    form = darboux_constant_form(2)
    perp = symplectic_orthogonal(form, Subspace.zero(form.space))
    assert perp.dim == 4


def test_restrict_form_inherits_gram():
    form = darboux_constant_form(2)
    basis = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]).reshape(4, 2)
    sub = restrict_form(form, Subspace(form.space, basis))
    # omega(2 e1, e3) = 2 * (-1); gram picks up the column scaling
    assert sub([1.0, 0.0], [0.0, 1.0]) == pytest.approx(-2.0)
    np.testing.assert_allclose(sub.space.gram_matrix, np.diag([4.0, 1.0]))
    with pytest.raises(ValueError):
        restrict_form(form, Subspace.zero(form.space))


def test_pullback_form_matches_direct_computation():
    rng = np.random.default_rng(3)
    src, tgt = ModelSpace(3), ModelSpace(4)
    mat = rng.standard_normal((4, 3))
    form = SkewForm(tgt, random_skew(rng, 4))
    pulled = pullback_form(LinearMap(src, tgt, mat), form)
    for _ in range(10):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert pulled(u, v) == pytest.approx(form(mat @ u, mat @ v), rel=1e-12)


def test_check_weak_isometry_coordinate_projection():
    src = darboux_constant_form(2)
    tgt = darboux_constant_form(1)
    proj = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    rep = check_weak_isometry(LinearMap(src.space, tgt.space, proj), src, tgt)
    assert rep.ok
    assert rep.ker_dim == 2
    assert rep.dense_range
    assert rep.transversality_defect == 0.0
    assert rep.direct_sum_defect == 0
    assert rep.pullback_residual <= 1e-12


def test_check_weak_isometry_scaled_projection_fails():
    src = darboux_constant_form(2)
    tgt = darboux_constant_form(1)
    proj = 2.0 * np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    rep = check_weak_isometry(LinearMap(src.space, tgt.space, proj), src, tgt)
    assert not rep.ok
    assert rep.pullback_residual == pytest.approx(SCALED_PROJECTION_RESIDUAL)
    assert rep.dense_range


def test_check_weak_isometry_lagrangian_kernel():
    # kernel equal to its own symplectic orthogonal: transversality fails
    src = darboux_constant_form(1)
    tgt = ModelSpace(1)
    mat = np.array([[1.0, 0.0]])
    rep = check_weak_isometry(
        LinearMap(src.space, tgt, mat), src, SkewForm(tgt, np.zeros((1, 1)))
    )
    assert not rep.ok
    assert rep.ker_dim == 1
    assert rep.transversality_defect == pytest.approx(1.0)


def count_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize(
    "src_l, tgt_l, ker_dim, svd_shapes",
    [
        # the map, the kernel's orthogonal, the residual of the narrower of
        # the two bases against the wider one, the compressed mismatch
        pytest.param(2, 1, 2, [(2, 4), (2, 4), (4, 2), (2, 2)], id="2-1-2-4"),
        # a trivial kernel has the whole space as its orthogonal, and their
        # sum needs no factoring
        pytest.param(2, 2, 0, [(4, 4), (4, 4)], id="2-2-0-2"),
    ],
)
def test_check_weak_isometry_factors_each_matrix_once(
    monkeypatch, src_l, tgt_l, ker_dim, svd_shapes
):
    src = darboux_constant_form(src_l)
    tgt = darboux_constant_form(tgt_l)
    keep = list(range(tgt_l)) + list(range(src_l, src_l + tgt_l))
    proj = np.eye(2 * src_l)[keep]
    map_ = LinearMap(src.space, tgt.space, proj)
    calls = count_svd_calls(monkeypatch)
    rep = check_weak_isometry(map_, src, tgt)
    assert rep.ok
    assert rep.ker_dim == ker_dim
    assert calls == svd_shapes
    if ker_dim:
        # neither the stacked [kernel, orthogonal] nor any other n x n matrix
        n = 2 * src_l
        assert (n, n) not in calls


def test_linear_map_compose_and_identity():
    a = ModelSpace(2)
    b = ModelSpace(3)
    rng = np.random.default_rng(0)
    f = LinearMap(a, b, rng.standard_normal((3, 2)))
    ident = LinearMap.identity(a)
    np.testing.assert_allclose(f.compose(ident).matrix, f.matrix)
    with pytest.raises(DimensionMismatchError):
        ident.compose(f)


def _frozen_array(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


# A valid array for each holder: any map, a skew form, an SPD gram, a
# basis of independent columns, a thread component, a field's center, a
# nonzero direction and a non-increasing positive spectrum.
CALLER_ARRAYS = {
    "LinearMap": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "SkewForm": np.array([[0.0, 2.0], [-2.0, 0.0]]),
    "ModelSpace": np.array([[2.0, 1.0], [1.0, 3.0]]),
    "Subspace": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "Thread": np.array([0.5, -0.25]),
    "FormField": np.array([0.5, -0.25]),
    "MarsdenSpec.a": np.array([1.0, 0.5]),
    "MarsdenSpec.s_eigs": np.array([1.0, 0.5]),
}


def _held(holder, m):
    """The array that the holder built from m keeps."""
    if holder == "LinearMap":
        return LinearMap(ModelSpace(2), ModelSpace(2), m).matrix
    if holder == "SkewForm":
        return SkewForm(ModelSpace(2), m).matrix
    if holder == "ModelSpace":
        return ModelSpace(2, m).gram
    if holder == "Subspace":
        return Subspace(ModelSpace(2), m).basis
    if holder == "Thread":
        return Thread(build_tower([ModelSpace(2)], []), (m,)).components[0]
    if holder == "FormField":
        return FormField.constant(darboux_constant_form(1), m, 1.0).center
    if holder == "MarsdenSpec.a":
        return MarsdenSpec(d=2, a=m).a
    return MarsdenSpec(d=2, a=[1.0, 0.0], s_eigs=m).s_eigs


def _caller_input(kind, m):
    """(what the caller passes, a function that then writes to it)."""
    if kind == "writeable":
        return m, lambda: m.fill(7.0)
    if kind == "read-only view of writeable":
        view = m[...]
        view.flags.writeable = False
        return view, lambda: m.fill(7.0)
    if kind == "list":
        rows = m.tolist()
        first = rows[0] if m.ndim == 2 else rows
        return rows, lambda: first.__setitem__(0, 7.0)
    single = m.astype(np.float32)
    return single, lambda: single.fill(7.0)


@pytest.mark.parametrize("holder", sorted(CALLER_ARRAYS))
@pytest.mark.parametrize(
    "kind", ["writeable", "read-only view of writeable", "list", "float32"]
)
def test_an_array_a_caller_can_write_is_copied(holder, kind):
    m = CALLER_ARRAYS[holder].copy()
    given_, write = _caller_input(kind, m)
    held = _held(holder, given_)
    assert held.dtype == np.float64 and not held.flags.writeable
    assert not np.shares_memory(held, m)
    write()
    np.testing.assert_array_equal(held, CALLER_ARRAYS[holder])


@pytest.mark.parametrize("holder", sorted(CALLER_ARRAYS))
def test_a_frozen_array_and_its_views_are_shared(holder):
    value = CALLER_ARRAYS[holder]
    lead = tuple(slice(0, n) for n in value.shape)
    big = np.ones(tuple(n + 1 for n in value.shape))
    big[lead] = value
    big.flags.writeable = False
    for given_ in (_frozen_array(value), big[lead]):
        assert _held(holder, given_) is given_


def test_frozen_keeps_only_what_no_one_can_write():
    owner = _frozen_array(np.eye(3))
    for kept in (owner, owner[:2, 1:], owner.T):
        assert frozen(kept) is kept
    # A read-only view of a read-only view of a writeable array: copied.
    writeable = np.eye(3)
    view = writeable[:2]
    view.flags.writeable = False
    assert not np.shares_memory(frozen(view[:, :2]), writeable)
    # A read-only array over a buffer that is not an ndarray: copied.
    buffered = np.frombuffer(bytearray(np.eye(2).tobytes()), dtype=np.float64)
    buffered.flags.writeable = False
    assert not np.shares_memory(frozen(buffered), buffered)
    # Another byte order is another dtype: copied into float64.
    swapped = _frozen_array(np.eye(2)).astype(">f8")
    swapped.flags.writeable = False
    assert frozen(swapped).dtype == np.float64


def test_subspace_span_drops_dependent_vectors():
    space = ModelSpace(3)
    sub = Subspace.span(space, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert sub.dim == 2


def test_null_space_and_orthonormal_edge_cases():
    assert null_space_basis(np.zeros((2, 3))).shape == (3, 3)
    assert null_space_basis(np.zeros((0, 3))).shape == (3, 3)
    assert orthonormal_columns(np.zeros((4, 2))).shape == (4, 0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

dims = st.integers(min_value=1, max_value=8)


@seed(20240811)
@settings(max_examples=60, deadline=None)
@given(dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_form_is_antisymmetric_in_arguments(dim, entropy):
    rng = np.random.default_rng(entropy)
    form = SkewForm(ModelSpace(dim), random_skew(rng, dim))
    u, v = rng.standard_normal(dim), rng.standard_normal(dim)
    assert form(u, v) == pytest.approx(-form(v, u), abs=1e-9)
    assert form(u, u) == pytest.approx(0.0, abs=1e-9)


@seed(20240811)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_double_symplectic_orthogonal_recovers_subspace(l_dim, entropy):
    form = darboux_constant_form(l_dim)
    rng = np.random.default_rng(entropy)
    k_dim = int(rng.integers(1, 2 * l_dim + 1))
    k = Subspace(form.space, orthonormal_columns(rng.standard_normal((2 * l_dim, k_dim))))
    perp = symplectic_orthogonal(form, k)
    assert perp.dim == 2 * l_dim - k.dim
    assert symplectic_orthogonal(form, perp).equals(k)


@seed(20240811)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_orthogonal_of_sum_is_meet_of_orthogonals(l_dim, entropy):
    form = darboux_constant_form(l_dim)
    dim = 2 * l_dim
    rng = np.random.default_rng(entropy)
    a = Subspace(form.space, orthonormal_columns(rng.standard_normal((dim, 2))))
    b = Subspace(form.space, orthonormal_columns(rng.standard_normal((dim, 2))))
    joint = Subspace.span(form.space, list(a.basis.T) + list(b.basis.T))
    perp_joint = symplectic_orthogonal(form, joint)
    perp_a = symplectic_orthogonal(form, a)
    perp_b = symplectic_orthogonal(form, b)
    assert perp_a.contains(perp_joint)
    assert perp_b.contains(perp_joint)
    meet_dim = (
        perp_a.dim
        + perp_b.dim
        - np.linalg.matrix_rank(np.hstack([perp_a.basis, perp_b.basis]), tol=1e-10)
    )
    assert perp_joint.dim == meet_dim


@seed(20240811)
@settings(max_examples=60, deadline=None)
@given(dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_dual_norm_bounds_form_values(dim, entropy):
    rng = np.random.default_rng(entropy)
    g = rng.standard_normal((dim, dim))
    space = ModelSpace(dim, gram=g @ g.T + np.eye(dim))
    form = SkewForm(space, random_skew(rng, dim))
    u, v = rng.standard_normal(dim), rng.standard_normal(dim)
    bound = omega_dual_norm(form, u) * space.norm(v)
    assert abs(form(u, v)) <= bound * (1.0 + 1e-9) + 1e-12


@seed(20240811)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_odd_dimensional_forms_are_degenerate(l_dim, entropy):
    dim = 2 * l_dim + 1
    rng = np.random.default_rng(entropy)
    form = SkewForm(ModelSpace(dim), random_skew(rng, dim))
    assert not check_weak_nondegenerate(form).nondegenerate


@seed(20240811)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_pullback_composes_contravariantly(l_dim, entropy):
    rng = np.random.default_rng(entropy)
    dim = 2 * l_dim
    s1, s2, s3 = ModelSpace(dim), ModelSpace(dim + 1), ModelSpace(dim + 2)
    f = LinearMap(s1, s2, rng.standard_normal((dim + 1, dim)))
    g = LinearMap(s2, s3, rng.standard_normal((dim + 2, dim + 1)))
    form = SkewForm(s3, random_skew(rng, dim + 2))
    once = pullback_form(g.compose(f), form)
    twice = pullback_form(f, pullback_form(g, form))
    np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-10)


def reference_weak_isometry(map_, form_src, form_tgt, tol=RANK_TOL, rank_tol=RANK_TOL):
    """check_weak_isometry built from the public pieces, each factoring anew."""
    rank = matrix_rank(map_.matrix, rank_tol)
    ker = Subspace(map_.source, null_space_basis(map_.matrix, rank_tol))
    kperp = symplectic_orthogonal(form_src, ker, rank_tol)
    stacked_rank = matrix_rank(np.hstack([ker.basis, kperp.basis]), rank_tol)
    meet_dim = ker.dim + kperp.dim - stacked_rank
    q = kperp.basis
    if meet_dim == 0 or ker.dim == 0 or kperp.dim == 0:
        transversality_defect = 0.0
    else:
        cos = np.linalg.svd(ker.basis.T @ q, compute_uv=False)
        transversality_defect = float(min(cos[0], 1.0))
    mismatch = map_.matrix.T @ form_tgt.matrix @ map_.matrix - form_src.matrix
    compressed = q.T @ mismatch @ q
    if compressed.size == 0:
        pullback_residual = 0.0
    else:
        pullback_residual = float(np.linalg.svd(compressed, compute_uv=False)[0])
    dense_range = rank == map_.target.dim
    return WeakIsometryReport(
        ok=dense_range and meet_dim == 0 and pullback_residual <= tol,
        ker_dim=ker.dim,
        transversality_defect=transversality_defect,
        pullback_residual=pullback_residual,
        dense_range=dense_range,
        direct_sum_defect=map_.source.dim - stacked_rank,
    )


def symplectic_coordinates(rng, l_dim):
    """A nondegenerate form ``p.T J p`` and the change of basis ``p``."""
    dim = 2 * l_dim
    p = np.eye(dim) + 0.5 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    return p.T @ darboux_constant_form(l_dim).matrix @ p, p


def weak_isometry_case(kind, l_dim, extra, rng):
    """(map, source form matrix, target form matrix) of the given kind."""
    if kind == "surjection":
        # a product form mapped onto its first factor, in skewed coordinates
        tgt, _ = symplectic_coordinates(rng, l_dim)
        other, _ = symplectic_coordinates(rng, extra + 1)
        dim = 2 * (l_dim + extra + 1)
        product = np.zeros((dim, dim))
        product[: 2 * l_dim, : 2 * l_dim] = tgt
        product[2 * l_dim :, 2 * l_dim :] = other
        p = np.eye(dim) + 0.5 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
        return np.eye(dim)[: 2 * l_dim] @ p, p.T @ product @ p, tgt
    if kind == "lagrangian":
        # the kernel is its own symplectic orthogonal
        src, p = symplectic_coordinates(rng, l_dim)
        return np.eye(2 * l_dim)[:l_dim] @ p, src, random_skew(rng, l_dim)
    src_dim, tgt_dim = 2 * l_dim + extra, 2 * l_dim
    if kind == "rank_deficient":
        inner = rng.standard_normal((tgt_dim, tgt_dim - 1))
        matrix = inner @ rng.standard_normal((tgt_dim - 1, src_dim))
    elif kind == "zero":
        matrix = np.zeros((tgt_dim, src_dim))
    else:
        matrix = rng.standard_normal((tgt_dim, src_dim))
    return matrix, random_skew(rng, src_dim), random_skew(rng, tgt_dim)


def random_space(rng, dim, with_gram):
    if not with_gram:
        return ModelSpace(dim)
    g = rng.standard_normal((dim, dim))
    return ModelSpace(dim, gram=g @ g.T + np.eye(dim))


@seed(20240811)
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["surjection", "generic", "rank_deficient", "zero", "lagrangian"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_check_weak_isometry_matches_reference(kind, l_dim, extra, with_gram, entropy):
    rng = np.random.default_rng(entropy)
    matrix, src_matrix, tgt_matrix = weak_isometry_case(kind, l_dim, extra, rng)
    src = random_space(rng, matrix.shape[1], with_gram)
    tgt = random_space(rng, matrix.shape[0], with_gram)
    map_ = LinearMap(src, tgt, matrix)
    form_src, form_tgt = SkewForm(src, src_matrix), SkewForm(tgt, tgt_matrix)
    got = check_weak_isometry(map_, form_src, form_tgt)
    want = reference_weak_isometry(map_, form_src, form_tgt)
    if kind == "surjection":
        assert want.ok
    for name in ("ok", "ker_dim", "dense_range", "direct_sum_defect"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("transversality_defect", "pullback_residual"):
        assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-12), name

    rank, ker_basis, kperp_basis, stacked_rank = kernel_split(matrix, src_matrix)
    assert rank == matrix_rank(matrix)
    for basis in (ker_basis, kperp_basis):
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert stacked_rank == matrix.shape[1] - want.direct_sum_defect


def orthonormal_pair(kind, sin, rng):
    """Two orthonormal bases of R^n whose spans meet as ``kind`` says.

    "random": independent random spans, of any dimensions, so k + p may
    exceed n; "shared": the spans share some exact directions; "near": one
    direction of the second span leaves the first at angle sin t = ``sin``.
    """
    n = int(rng.integers(1, 9)) if kind != "near" else int(rng.integers(2, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if kind == "random":
        k, p = (int(rng.integers(0, n + 1)) for _ in range(2))
        return q[:, :k], np.linalg.qr(rng.standard_normal((n, n)))[0][:, :p]
    k = int(rng.integers(1, n + 1)) if kind == "shared" else int(rng.integers(1, n))
    if kind == "shared":
        shared = int(rng.integers(1, k + 1))
        p = int(rng.integers(shared, n - k + shared + 1))
        b = q[:, k - shared : k - shared + p]
    else:
        p = int(rng.integers(1, n - k + 1))
        tilted = np.sqrt(1.0 - sin * sin) * q[:, :1] + sin * q[:, k : k + 1]
        b = np.hstack([tilted, q[:, k + 1 : k + p]])
    rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return q[:, :k], b @ rot


@seed(20240811)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([("random", 0.0), ("shared", 0.0), ("near", 1e-11), ("near", 1e-9)]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_orthonormal_stacked_rank_matches_the_stacked_svd(case, swap, entropy):
    kind, sin = case
    a, b = orthonormal_pair(kind, sin, np.random.default_rng(entropy))
    if swap:
        a, b = b, a
    want = matrix_rank(np.hstack([a, b]))
    assert orthonormal_stacked_rank(a, b) == want
    if kind == "near":
        # at sin t = 1e-9 the spans are transverse; at 1e-11, below
        # RANK_TOL, they count as meeting
        k_plus_p = a.shape[1] + b.shape[1]
        assert want == (k_plus_p if sin > RANK_TOL else k_plus_p - 1)
