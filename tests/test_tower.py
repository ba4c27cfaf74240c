import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import symptower.tower as tower_module
from symptower.linalg import (
    DimensionMismatchError,
    LinearMap,
    ModelSpace,
    SkewForm,
    Subspace,
    certify_full_row_rank,
    check_weak_isometry,
    column_spaces_equal,
    darboux_constant_form,
    frozen,
)
from symptower.models import make_counterexample_tower, make_product_tower
from symptower.tower import (
    CompatibilityReport,
    FormSequence,
    PreconditionError,
    SubmersionReport,
    Thread,
    Tower,
    block_decompose,
    build_tower,
    check_compatible_sequence,
    check_symplectic_submersion,
    classify_tower,
    induce_level_form,
    limit_form_eval,
)

from isometry_chains import (
    assert_same_report, assert_same_split, isometry_step, random_form, random_space,
)

DARBOUX2 = darboux_constant_form(1).matrix

# composite of the two coordinate projections R^6 -> R^4 -> R^2
PROJ_0_2 = np.hstack([np.eye(2), np.zeros((2, 4))])


def coordinate_projection(src_dim, tgt_dim):
    return np.hstack([np.eye(tgt_dim), np.zeros((tgt_dim, src_dim - tgt_dim))])


def coordinate_tower(dims):
    levels = [ModelSpace(d) for d in dims]
    bondings = [
        LinearMap(levels[i + 1], levels[i], coordinate_projection(dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]
    return build_tower(levels, bondings)


def product_form_sequence(num_levels, scale_block=None):
    """Product tower with 2-dim Darboux factors and drop-last projections.

    ``scale_block=(level, factor, c)`` multiplies one factor block of one
    level's form by c, which breaks compatibility on purpose.
    """
    dims = [2 * (n + 1) for n in range(num_levels)]
    tower = coordinate_tower(dims)
    forms = []
    for n in range(num_levels):
        m = np.kron(np.eye(n + 1), DARBOUX2)
        if scale_block is not None and scale_block[0] == n:
            _, factor, c = scale_block
            sl = slice(2 * factor, 2 * factor + 2)
            m[sl, sl] = c * DARBOUX2
        forms.append(SkewForm(tower.levels[n], m))
    return FormSequence(tower, tuple(forms))


def test_composites_of_coordinate_tower():
    tower = coordinate_tower([2, 4, 6])
    np.testing.assert_array_equal(tower.composite(0, 2).matrix, PROJ_0_2)
    np.testing.assert_array_equal(tower.composite(1, 1).matrix, np.eye(4))
    chained = tower.bondings[0].compose(tower.bondings[1])
    np.testing.assert_array_equal(tower.composite(0, 2).matrix, chained.matrix)
    # Walked matrices are frozen where they are formed, so no LinearMap copies one.
    for i in range(3):
        for j, m in tower._row(i):
            assert not m.flags.writeable and frozen(m) is m
            held = tower.composite(i, j).matrix
            assert not held.flags.writeable and held.tobytes() == m.tobytes()


def test_row_walk_equals_the_chained_products_bit_for_bit():
    rng = np.random.default_rng(6)
    levels = [random_space(rng, int(rng.integers(1, 7)), with_gram=True) for _ in range(6)]
    bondings = [
        LinearMap(levels[i + 1], levels[i], rng.standard_normal((levels[i].dim, levels[i + 1].dim)))
        for i in range(5)
    ]
    tower = build_tower(levels, bondings)
    for i in range(6):
        walked = list(tower._row(i))
        assert [j for j, _ in walked] == list(range(i, 6))
        chained = np.eye(levels[i].dim)
        for j, m in walked:
            if j > i:
                chained = chained @ bondings[j - 1].matrix
            np.testing.assert_array_equal(m, chained)
            np.testing.assert_array_equal(tower.composite(i, j).matrix, chained)


def test_compatibility_check_forms_only_the_base_composites(monkeypatch):
    walked = []
    row = Tower._row

    def recording(tower, i):
        walked.append(i)
        return row(tower, i)

    monkeypatch.setattr(Tower, "_row", recording)
    assert check_compatible_sequence(product_form_sequence(32)).ok
    assert walked == [0]


def composite_shrink(tower, i, j):
    """Smallest singular value of the gram-normalized composite(i, j), 0.0 if not onto."""
    if i == j:
        return 1.0
    src, tgt = tower.levels[j], tower.levels[i]
    normalized = tower.composite(i, j).matrix
    if not src.has_identity_gram:
        normalized = normalized @ src.gram_inv_sqrt
    if not tgt.has_identity_gram:
        w, v = np.linalg.eigh(tgt.gram_matrix)
        normalized = ((v * np.sqrt(w)) @ v.T) @ normalized
    s = np.linalg.svd(normalized, compute_uv=False)
    if len(s) < tgt.dim or s[tgt.dim - 1] <= 1e-14 * s[0]:
        return 0.0
    return float(s[tgt.dim - 1])


def explicit_gram_tower():
    """Grams on every level, both ends included; dims 3, 4, 4, 5."""
    rng = np.random.default_rng(18)
    levels = [random_space(rng, d, with_gram=True) for d in (3, 4, 4, 5)]
    bondings = [
        LinearMap(levels[i + 1], levels[i], rng.standard_normal((levels[i].dim, levels[i + 1].dim)))
        for i in range(3)
    ]
    return build_tower(levels, bondings)


def non_surjective_tower():
    """R^4 -> R^2 -> R^3: the lower bonding is not onto, so neither is any composite onto level 0."""
    levels = [ModelSpace(3), ModelSpace(2, gram=np.diag([1.0, 4.0])), ModelSpace(4)]
    bondings = [
        LinearMap(levels[1], levels[0], np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
        LinearMap(levels[2], levels[1], coordinate_projection(4, 2)),
    ]
    return build_tower(levels, bondings)


def halved_upper_bonding_tower():
    """Coordinate projections R^14 -> ... -> R^2 with bonding 2 halved: the
    selection floor is level 3, and rows 0-2 walk through the halved bonding."""
    tower = coordinate_tower([2, 4, 6, 8, 10, 12, 14])
    bondings = list(tower.bondings)
    bondings[2] = LinearMap(bondings[2].source, bondings[2].target, 0.5 * bondings[2].matrix)
    return build_tower(tower.levels, bondings)


def upper_gram_tower():
    """Coordinate projections R^14 -> ... -> R^2 with a gram on level 3: the
    selection floor is level 4."""
    dims = [2, 4, 6, 8, 10, 12, 14]
    levels = [ModelSpace(d) for d in dims]
    levels[3] = ModelSpace(8, gram=np.diag(np.linspace(1.0, 2.0, 8)))
    bondings = [
        LinearMap(levels[i + 1], levels[i], coordinate_projection(dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]
    return build_tower(levels, bondings)


SHRINK_TOWERS = {
    "product-control-28": lambda: make_product_tower([darboux_constant_form(2)] * 28)[0],
    **{
        "counterexample-%d" % depth: (lambda depth=depth: make_counterexample_tower(2, depth)[0])
        for depth in range(1, 9)
    },
    "explicit-grams": explicit_gram_tower,
    "non-surjective": non_surjective_tower,
    "halved-upper-bonding": halved_upper_bonding_tower,
    "upper-gram": upper_gram_tower,
}


@pytest.mark.parametrize("name", sorted(SHRINK_TOWERS))
def test_radius_shrinks_walk_equals_the_composite_svds_bit_for_bit(name):
    tower = SHRINK_TOWERS[name]()
    rows = [tower.radius_shrinks(i) for i in range(tower.depth + 1)]
    for i, row in enumerate(rows):
        assert [x.hex() for x in row] == [
            composite_shrink(tower, i, j).hex() for j in range(i, tower.depth + 1)
        ]
    if name == "non-surjective":
        assert rows[0][1:] == [0.0, 0.0] and rows[1][1] > 0.0


SELECTION_FLOORS = {
    "product-control-28": 0,
    **{"counterexample-%d" % depth: 0 for depth in range(1, 9)},
    "explicit-grams": 3,
    "non-surjective": 2,
    "halved-upper-bonding": 3,
    "upper-gram": 4,
}


@pytest.mark.parametrize("name", sorted(SHRINK_TOWERS))
def test_radius_shrinks_walks_and_factors_only_the_rows_below_the_selection_floor(
    name, monkeypatch
):
    tower = SHRINK_TOWERS[name]()
    floor = SELECTION_FLOORS[name]
    assert tower._selection_floor == floor
    walked, factored = [], []
    row, svd = Tower._row, np.linalg.svd

    def walking(tower, i):
        walked.append(i)
        return row(tower, i)

    def factoring(a, *args, **kwargs):
        factored.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(Tower, "_row", walking)
    monkeypatch.setattr(np.linalg, "svd", factoring)
    rows = [tower.radius_shrinks(i) for i in range(tower.depth + 1)]
    # product-control-28 and every counterexample tower: no walk, no SVD
    assert walked == list(range(floor))
    assert len(factored) == sum(tower.depth - i for i in range(floor))
    assert rows[floor:] == [[1.0] * (tower.depth + 1 - i) for i in range(floor, tower.depth + 1)]


@pytest.mark.parametrize(
    "matrix, selection",
    [
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], True),
        ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True),
        ([[1.0, -0.0, -0.0], [-0.0, -0.0, 1.0]], True),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], False),
        ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]], False),
        ([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]], False),
        ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], False),
        ([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], False),
        ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),
    ],
    ids=["drop-middle", "square-permutation", "negative-zeros", "zero-row", "half-entry",
         "nan", "repeated-column", "sign", "two-ones-in-a-row"],
)
def test_selection_floor_of_one_bonding(matrix, selection):
    m = np.array(matrix)
    assert tower_module._is_selection(m) is selection
    levels = [ModelSpace(m.shape[0]), ModelSpace(m.shape[1])]
    tower = build_tower(levels, [LinearMap(levels[1], levels[0], m)])
    assert tower._selection_floor == (0 if selection else 1)
    if selection:
        np.testing.assert_array_equal(m @ m.T, np.eye(len(m)))
        assert tower.radius_shrinks(0) == [1.0, composite_shrink(tower, 0, 1)] == [1.0, 1.0]


def test_selection_floor_of_a_single_level_tower():
    tower = build_tower([ModelSpace(3, gram=np.diag([1.0, 2.0, 3.0]))], [])
    assert tower._selection_floor == 0 and tower.radius_shrinks(0) == [1.0]


def test_radius_shrinks_checks_the_row():
    tower = coordinate_tower([2, 4])
    assert tower.radius_shrinks(1) == [1.0]
    with pytest.raises(ValueError, match="depth"):
        tower.radius_shrinks(2)
    with pytest.raises(ValueError, match="depth"):
        tower.radius_shrinks(-1)


def test_single_level_tower():
    tower = build_tower([ModelSpace(3)], [])
    assert tower.depth == 0
    np.testing.assert_array_equal(tower.composite(0, 0).matrix, np.eye(3))
    assert classify_tower(tower) is True


def test_build_tower_errors_name_the_index(monkeypatch):
    levels = [ModelSpace(2), ModelSpace(4), ModelSpace(6)]
    good = LinearMap(levels[1], levels[0], coordinate_projection(4, 2))
    bad = LinearMap(ModelSpace(5), levels[1], coordinate_projection(5, 4))
    with pytest.raises(DimensionMismatchError, match="bonding 1"):
        build_tower(levels, [good, bad])
    monkeypatch.setattr(tower_module, "MAX_DEPTH", 1)
    with pytest.raises(ValueError, match="depth"):
        build_tower(levels, [good, LinearMap(levels[2], levels[1], coordinate_projection(6, 4))])
    monkeypatch.setattr(tower_module, "MAX_DIM", 3)
    with pytest.raises(ValueError, match="level 1"):
        build_tower(levels[:2], [good])


def test_classify_flags_rank_deficient_bonding():
    space = ModelSpace(2)
    bonding = LinearMap(space, space, np.array([[1.0, 0.0], [0.0, 0.0]]))
    tower = build_tower([space, space], [bonding])
    assert classify_tower(tower) is False


def test_thread_from_top_is_exactly_consistent():
    tower = coordinate_tower([2, 4, 6])
    top = np.arange(1.0, 7.0)
    thread = Thread.from_top(tower, top)
    for i in range(3):
        np.testing.assert_array_equal(
            thread.component(i), tower.composite(i, 2).matrix @ top
        )


def test_thread_from_top_pushes_down_the_bondings():
    for n in range(1, 33):
        tower, _ = make_counterexample_tower(4, n)
        top = np.random.default_rng(n).standard_normal(tower.levels[-1].dim)
        if n == 32:
            tracemalloc.start()
            try:
                thread = Thread.from_top(tower, top)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Filling the composite triangle of this column took 71.0 MiB.
            assert peak < 2**20
        else:
            thread = Thread.from_top(tower, top)
        for i in range(tower.depth + 1):
            np.testing.assert_array_equal(
                thread.component(i), tower.composite(i, tower.depth).matrix @ top
            )


def test_thread_rejects_inconsistent_components():
    tower = coordinate_tower([2, 4])
    with pytest.raises(ValueError, match="bonding 0"):
        Thread(tower, (np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])))
    with pytest.raises(ValueError, match="components"):
        Thread(tower, (np.zeros(2),))


def test_form_sequence_validates_lengths_and_spaces():
    fs = product_form_sequence(3)
    assert fs.tower.depth == 2
    with pytest.raises(ValueError):
        FormSequence(fs.tower, fs.forms[:2])
    with pytest.raises(DimensionMismatchError):
        FormSequence(fs.tower, (fs.forms[1], fs.forms[1], fs.forms[2]))


def test_compatible_sequence_passes_on_product_tower():
    report = check_compatible_sequence(product_form_sequence(4))
    assert report.ok
    assert all(r.ok for r in report.per_level)
    assert report.failed_composites == ()


def test_compatible_sequence_flags_scaled_factor():
    fs = product_form_sequence(3, scale_block=(1, 0, 2.0))
    report = check_compatible_sequence(fs)
    assert not report.ok
    assert not report.per_level[0].ok
    assert report.per_level[0].pullback_residual == pytest.approx(1.0)


def test_compatible_sequence_depth_zero_is_vacuous():
    tower = build_tower([ModelSpace(2)], [])
    fs = FormSequence(tower, (darboux_constant_form(1),))
    assert check_compatible_sequence(fs).ok


def test_limit_form_eval_factor_zero_threads_are_constant():
    fs = product_form_sequence(3)
    top_u = np.zeros(6)
    top_u[0] = 1.0
    top_v = np.zeros(6)
    top_v[1] = 2.0
    u = Thread.from_top(fs.tower, top_u)
    v = Thread.from_top(fs.tower, top_v)
    report = limit_form_eval(fs, u, v)
    assert report.values == pytest.approx((-2.0, -2.0, -2.0))
    assert report.stabilized
    assert report.final == pytest.approx(-2.0)


def test_limit_form_eval_zero_and_cross_factor_threads():
    fs = product_form_sequence(3)
    zero = Thread.from_top(fs.tower, np.zeros(6))
    w = Thread.from_top(fs.tower, np.ones(6))
    assert limit_form_eval(fs, zero, w).values == pytest.approx((0.0, 0.0, 0.0))
    # u lives in factor 2, v in factor 1: the pairing never sees them together
    u = Thread.from_top(fs.tower, np.eye(6)[4])
    v = Thread.from_top(fs.tower, np.eye(6)[2])
    assert limit_form_eval(fs, u, v).values == pytest.approx((0.0, 0.0, 0.0))


def test_limit_form_eval_requires_compatibility():
    fs = product_form_sequence(3, scale_block=(1, 0, 2.0))
    u = Thread.from_top(fs.tower, np.ones(6))
    with pytest.raises(PreconditionError, match="precondition"):
        limit_form_eval(fs, u, u)


def test_block_decompose_recovers_product_factors():
    fs = product_form_sequence(3)
    dec = block_decompose(fs, 0, 2)
    assert dec.base == 0 and dec.level == 2
    assert [b.dim for b in dec.blocks] == [2, 2, 2]
    eye = np.eye(6)
    for k, block in enumerate(dec.blocks):
        assert column_spaces_equal(block.basis, eye[:, 2 * k : 2 * k + 2])
    assert dec.condition_number == pytest.approx(1.0)


def test_block_decompose_trivial_and_two_level_cases():
    fs = product_form_sequence(3)
    whole = block_decompose(fs, 1, 1)
    assert len(whole.blocks) == 1
    assert whole.blocks[0].dim == 4
    two = block_decompose(fs, 1, 2)
    assert [b.dim for b in two.blocks] == [4, 2]
    assert column_spaces_equal(two.blocks[1].basis, np.eye(6)[:, 4:])


def test_block_decompose_kernel_chain_identity():
    fs = product_form_sequence(4)
    dec = block_decompose(fs, 0, 3)
    for level in range(3):
        ker = np.eye(8)[:, 2 * (level + 1) :]  # kernel of composite to `level`
        stacked = np.hstack([b.basis for b in dec.blocks[level + 1 :]])
        assert column_spaces_equal(ker, stacked)


def test_block_decompose_rejects_lagrangian_kernel():
    # bonding R^2 -> R^1 whose kernel equals its own symplectic orthogonal
    levels = [ModelSpace(1), ModelSpace(2)]
    bonding = LinearMap(levels[1], levels[0], np.array([[1.0, 0.0]]))
    tower = build_tower(levels, [bonding])
    fs = FormSequence(
        tower, (SkewForm(levels[0], np.zeros((1, 1))), darboux_constant_form(1))
    )
    bypass = CompatibilityReport(ok=True, per_level=(), failed_composites=())
    with pytest.raises(ValueError, match="level 1"):
        block_decompose(fs, 0, 1, compat=bypass)
    with pytest.raises(PreconditionError):
        block_decompose(fs, 0, 1)


def test_submersion_product_projection_ok():
    fs = product_form_sequence(2)
    rep = check_symplectic_submersion(fs.forms[1], fs.tower.bondings[0])
    assert rep.ok and rep.vertical_nondegenerate and rep.split_ok


def test_submersion_dropping_half_a_pair_fails():
    form = darboux_constant_form(2)
    map_ = LinearMap(form.space, ModelSpace(3), coordinate_projection(4, 3))
    rep = check_symplectic_submersion(form, map_)
    assert not rep.ok
    assert not rep.vertical_nondegenerate
    assert not rep.split_ok


def test_submersion_whose_kernel_orthogonal_maps_to_roundoff_does_not_split():
    # The kernel of a 1 x 4 map has odd dimension, so its symplectic
    # orthogonal lies inside it and the map sends it to roundoff.
    form = darboux_constant_form(2)
    map_ = LinearMap(form.space, ModelSpace(1), np.random.default_rng(1).standard_normal((1, 4)))
    rep = check_symplectic_submersion(form, map_)
    assert rep == SubmersionReport(ok=False, vertical_nondegenerate=False, split_ok=False)
    assert type(rep.split_ok) is bool
    with pytest.raises(PreconditionError, match="submersion"):
        induce_level_form(form, map_)


def test_submersion_identity_and_non_surjective():
    form = darboux_constant_form(1)
    rep = check_symplectic_submersion(form, LinearMap.identity(form.space))
    assert rep.ok and rep.vertical_nondegenerate and rep.split_ok
    degenerate = LinearMap(form.space, form.space, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(PreconditionError, match="not a submersion"):
        check_symplectic_submersion(form, degenerate)


def test_induce_level_form_identity_and_product():
    form = darboux_constant_form(2)
    same = induce_level_form(form, LinearMap.identity(form.space))
    np.testing.assert_allclose(same.matrix, form.matrix, atol=1e-14)

    fs = product_form_sequence(2)
    induced = induce_level_form(fs.forms[1], fs.tower.bondings[0])
    np.testing.assert_allclose(induced.matrix, DARBOUX2, atol=1e-12)


def test_induce_level_form_roundtrip_with_coupling():
    a = 0.7
    matrix = np.array(
        [
            [0.0, -1.0, 0.0, a],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [-a, 0.0, 1.0, 0.0],
        ]
    )
    space = ModelSpace(4)
    form = SkewForm(space, matrix)
    map_ = LinearMap(space, ModelSpace(2), coordinate_projection(4, 2))
    induced = induce_level_form(form, map_)
    np.testing.assert_allclose(induced.matrix, DARBOUX2, atol=1e-12)
    # pulling back must reproduce the form on the symplectic complement
    from symptower.linalg import (
        Subspace as Sub,
        null_space_basis,
        orthonormal_columns,
        pullback_form,
        symplectic_orthogonal,
    )

    ker = Sub(space, null_space_basis(map_.matrix))
    kperp = symplectic_orthogonal(form, ker)
    pulled = pullback_form(map_, induced)
    q = orthonormal_columns(kperp.basis)
    residual = np.linalg.norm(q.T @ (pulled.matrix - form.matrix) @ q)
    assert residual <= 1e-10


def test_induce_level_form_refuses_bad_submersion():
    form = darboux_constant_form(2)
    map_ = LinearMap(form.space, ModelSpace(3), coordinate_projection(4, 3))
    with pytest.raises(PreconditionError, match="submersion"):
        induce_level_form(form, map_)


@seed(20240811)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_limit_form_eval_is_bilinear_and_skew(entropy):
    fs = product_form_sequence(3)
    rng = np.random.default_rng(entropy)
    u = Thread.from_top(fs.tower, rng.standard_normal(6))
    v = Thread.from_top(fs.tower, rng.standard_normal(6))
    w = Thread.from_top(fs.tower, v.component(2) * 2.5)
    compat = check_compatible_sequence(fs)
    uv = limit_form_eval(fs, u, v, compat=compat)
    vu = limit_form_eval(fs, v, u, compat=compat)
    uw = limit_form_eval(fs, u, w, compat=compat)
    for a, b, c in zip(uv.values, vu.values, uw.values):
        assert a == pytest.approx(-b, abs=1e-12)
        assert c == pytest.approx(2.5 * a, abs=1e-10)


@seed(20240811)
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5))
def test_composites_inherit_compatibility(num_levels):
    report = check_compatible_sequence(product_form_sequence(num_levels))
    assert report.ok
    assert report.failed_composites == ()


def compatible_chain(rng, depth, with_grams):
    """A generic compatible sequence of the given depth, one isometry step a level."""
    base = random_space(rng, 2 * int(rng.integers(1, 3)), with_grams)
    spaces, forms, bondings = [base], [random_form(rng, base)], []
    for _ in range(depth):
        bonding, form = isometry_step(
            rng, spaces[-1], forms[-1], int(rng.integers(0, 3)), with_grams
        )
        spaces.append(bonding.source)
        forms.append(form)
        bondings.append(bonding)
    return FormSequence(build_tower(spaces, bondings), tuple(forms))


@seed(20240811)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.booleans(),
)
def test_consecutive_compatibility_carries_to_every_composite(entropy, depth, with_grams):
    # Numerical witness of the proof in check_compatible_sequence's docstring.
    fs = compatible_chain(np.random.default_rng(entropy), depth, with_grams)
    assert check_compatible_sequence(fs).ok
    for j in range(2, depth + 1):
        for i in range(j - 1):
            rep = check_weak_isometry(fs.tower.composite(i, j), fs.forms[j], fs.forms[i])
            assert rep.ok, (i, j, rep)


@seed(20240811)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.booleans(),
)
def test_rotated_bondings_and_composites_split_as_the_svd_path(entropy, depth, with_grams):
    # Dense rotated bondings and their composites (0, j): every map is
    # certified, and where its kernel is the wider side so is the form, so
    # the QR kernel and the one-solve orthogonal are what is compared.
    fs = compatible_chain(np.random.default_rng(entropy), depth, with_grams)
    tower = fs.tower
    pairs = [(i, i + 1, tower.bondings[i]) for i in range(depth)]
    pairs += [(0, j, LinearMap(tower.levels[j], tower.levels[0], m))
              for j, m in islice(tower._row(0), 2, None)]
    for i, j, map_ in pairs:
        rows, cols = map_.matrix.shape
        assert certify_full_row_rank(map_.matrix)
        if cols - rows > rows:
            assert certify_full_row_rank(fs.forms[j].matrix)
        assert_same_split(map_.matrix, fs.forms[j].matrix, 1e-10)
        assert_same_report(map_, fs.forms[j], fs.forms[i])


def test_anchored_composites_catch_drift():
    # omega_i = (1 + 1e-3)^i J: each bonding is off by about 1e-3, inside
    # tol, but the composite (0, j) is off by about j * 1e-3.
    levels = [ModelSpace(2) for _ in range(6)]
    bondings = [LinearMap(levels[i + 1], levels[i], np.eye(2)) for i in range(5)]
    forms = tuple(SkewForm(levels[i], (1 + 1e-3) ** i * DARBOUX2) for i in range(6))
    fs = FormSequence(build_tower(levels, bondings), forms)
    report = check_compatible_sequence(fs, tol=2.5e-3)
    assert all(r.ok for r in report.per_level)
    assert report.failed_composites == ((0, 3), (0, 4), (0, 5))
    assert not report.ok


def test_drift_between_non_base_levels_is_not_checked():
    # omega = (1, 0.998, 1, 1.002) J: every bonding and every composite onto
    # level 0 is within tol, so the sequence passes, although the unchecked
    # composite (1, 3) is off by 4e-3.
    levels = [ModelSpace(2) for _ in range(4)]
    bondings = [LinearMap(levels[i + 1], levels[i], np.eye(2)) for i in range(3)]
    scales = (1.0, 0.998, 1.0, 1.002)
    forms = tuple(SkewForm(lv, c * DARBOUX2) for lv, c in zip(levels, scales))
    fs = FormSequence(build_tower(levels, bondings), forms)
    report = check_compatible_sequence(fs, tol=2.5e-3)
    assert report.ok
    assert report.failed_composites == ()
    assert not check_weak_isometry(fs.tower.composite(1, 3), forms[3], forms[1], 2.5e-3).ok


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_compatible_sequence_checks_each_bonding_and_base_composite(depth, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return check_weak_isometry(*args)

    monkeypatch.setattr(tower_module, "check_weak_isometry", counting)
    assert check_compatible_sequence(product_form_sequence(depth + 1)).ok
    assert len(calls) == 2 * depth - 1
