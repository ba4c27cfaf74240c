"""Model builders: metric phase fields, product and loop towers, shrink runs."""

import tracemalloc
from dataclasses import replace
from functools import lru_cache
from math import comb, log2

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symptower import models, moser
from symptower.linalg import (
    LinearMap,
    ModelSpace,
    SkewForm,
    darboux_constant_form,
    weakness_conditioning,
)
from symptower.models import (
    BOUND_K,
    SHRINK_EIGS_DECADES,
    MarsdenSpec,
    _shrink_levels,
    field_sequence_at,
    make_counterexample_tower,
    make_loop_tower,
    make_marsden_field,
    make_product_tower,
    make_quadratic_field,
    shrink_experiment,
)
from symptower.moser import (
    FormField,
    exterior_derivative_residual,
    uniform_bound_check,
    validity_radius,
)
from symptower.tower import (
    Thread, Tower, build_tower, check_compatible_sequence, classify_tower,
)

# Hand-computed: d=2, a=(1,0), shift_k=1, s=(1,0.5), z=(1.5,1,2,-1).
# w=(0.5,1), |w|^2=1.25, A=diag(2.25,1.75), Gamma=[[0,5],[-5,0]], halved.
MARSDEN_VALUE = np.array(
    [
        [0.0, 2.5, 1.125, 0.0],
        [-2.5, 0.0, 0.0, 0.875],
        [-1.125, 0.0, 0.0, 0.0],
        [0.0, -0.875, 0.0, 0.0],
    ]
)
KAPPA_AT_SHIFT = 2.0  # s_eigs spread: 1.0 / 0.5
HARMONIC_4 = (1.0, 0.5, 1.0 / 3.0, 0.25)
LOOP_GRAM_M1_MODES2_K2 = (1.0, 1.0, 4.0, 4.0, 4.0, 4.0, 25.0, 25.0, 25.0, 25.0)
COND_BASE_N2 = 2.0 / (0.25 + 1e-8)  # sigma_max/sigma_min of the level-2 flat at 0


def default_spec() -> MarsdenSpec:
    return MarsdenSpec(d=2, a=np.array([1.0, 0.0]), shift_k=1, s_eigs=np.array([1.0, 0.5]))


class TestMarsdenSpec:
    def test_harmonic_default(self):
        spec = MarsdenSpec(d=4, a=np.array([0.0, 0.0, 0.0, 2.0]))
        assert spec.s_eigs == pytest.approx(HARMONIC_4)
        assert spec.a_norm == 2.0
        assert spec.phase_dim == 8

    def test_shift_combines_a_and_k(self):
        spec = MarsdenSpec(d=1, a=np.array([2.0]), shift_k=4)
        assert spec.shift == pytest.approx([0.5])

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError, match="nonzero"):
            MarsdenSpec(d=2, a=np.zeros(2))

    def test_rejects_increasing_eigs(self):
        with pytest.raises(ValueError, match="non-increasing"):
            MarsdenSpec(d=2, a=np.array([1.0, 0.0]), s_eigs=np.array([0.5, 1.0]))

    def test_rejects_nonpositive_eigs(self):
        with pytest.raises(ValueError, match="positive"):
            MarsdenSpec(d=2, a=np.array([1.0, 0.0]), s_eigs=np.array([1.0, 0.0]))

    def test_rejects_bad_shift_k(self):
        with pytest.raises(ValueError, match="shift_k"):
            MarsdenSpec(d=1, a=np.array([1.0]), shift_k=0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            MarsdenSpec(d=3, a=np.array([1.0, 0.0]))


class TestMarsdenField:
    def test_frozen_value(self):
        field = make_marsden_field(default_spec())
        z = np.array([1.5, 1.0, 2.0, -1.0])
        np.testing.assert_allclose(field.omega(z), MARSDEN_VALUE, atol=1e-14)

    def test_value_at_shift_point(self):
        # w = 0 kills Gamma; only the fiber pairing through S survives.
        field = make_marsden_field(default_spec())
        z = np.array([1.0, 0.0, 0.3, -0.2])
        expected = np.zeros((4, 4))
        expected[:2, 2:] = 0.5 * np.diag([1.0, 0.5])
        expected[2:, :2] = -0.5 * np.diag([1.0, 0.5])
        np.testing.assert_allclose(field.omega(z), expected, atol=1e-15)

    def test_conditioning_at_shift_is_eig_spread(self):
        field = make_marsden_field(default_spec())
        form = SkewForm(field.space, field.omega(np.array([1.0, 0.0, 0.0, 0.0])))
        assert weakness_conditioning(form).kappa == pytest.approx(KAPPA_AT_SHIFT)

    def test_metric_collapse_rate(self):
        # With a tiny S the smallest singular value tracks |x - shift|^2 / 2.
        spec = MarsdenSpec(d=2, a=np.array([1.0, 0.0]), s_eigs=np.array([1e-9, 1e-9]))
        field = make_marsden_field(spec)
        z = np.array([1.5, 0.0, 0.0, 0.0])
        s = np.linalg.svd(field.omega(z), compute_uv=False)
        assert s[-1] == pytest.approx(0.125, rel=1e-6)

    def test_skew_at_random_points(self):
        field = make_marsden_field(default_spec())
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((100, 4))
        oms = field.omega_many(pts)
        assert np.max(np.abs(oms + np.swapaxes(oms, -1, -2))) == 0.0

    def test_interpolated_derivative_matches_differences(self):
        field = make_marsden_field(default_spec())
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = 0.3 * rng.standard_normal(4)
            h = rng.standard_normal(4)
            fd = (field.omega(z + 1e-6 * h) - field.omega(z - 1e-6 * h)) / 2e-6
            np.testing.assert_allclose(field.directional_derivative(z, h), fd, atol=1e-6)

    def test_field_is_closed(self):
        field = make_marsden_field(default_spec())
        assert exterior_derivative_residual(field, samples=25, seed=1) < 1e-12

    def test_default_region_reaches_past_shift(self):
        spec = MarsdenSpec(d=1, a=np.array([3.0]))
        field = make_marsden_field(spec)
        assert field.radius == pytest.approx(6.0)
        assert field.contains(np.array([3.0, 0.0]))


def _mixed_factors(count):
    """Seeded factors: an identity-gram Darboux factor first, then skew
    factors of dims 2, 4, 6, ... whose odd ones carry an SPD gram."""
    rng = np.random.default_rng(count)
    factors = [darboux_constant_form(1)]
    for k in range(1, count):
        dim = 2 * k
        a = rng.standard_normal((dim, dim))
        gram = None
        if k % 2:
            g = rng.standard_normal((dim, dim))
            gram = g @ g.T + dim * np.eye(dim)
        factors.append(SkewForm(ModelSpace(dim, gram), a - a.T))
    return factors


def _per_level_copies(factors):
    """Each level's gram, form and bonding built on its own, the way the
    product tower built them before it held each matrix once."""

    def block_diag(mats):
        total = sum(m.shape[0] for m in mats)
        out = np.zeros((total, total))
        at = 0
        for m in mats:
            out[at : at + m.shape[0], at : at + m.shape[0]] = m
            at += m.shape[0]
        return out

    grams, forms, dims = [], [], []
    for i in range(len(factors)):
        head = factors[: i + 1]
        dims.append(sum(f.space.dim for f in head))
        if all(f.space.has_identity_gram for f in head):
            grams.append(None)
        else:
            grams.append(block_diag([f.space.gram_matrix for f in head]))
        forms.append(block_diag([f.matrix for f in head]))
    bondings = []
    for tgt, src in zip(dims, dims[1:]):
        proj = np.zeros((tgt, src))
        proj[:, :tgt] = np.eye(tgt)
        bondings.append(proj)
    return grams, forms, bondings


class TestProductTower:
    def test_levels_and_blocks(self):
        tower, fs = make_product_tower([darboux_constant_form(1), darboux_constant_form(2)])
        assert [lv.dim for lv in tower.levels] == [2, 6]
        top = np.zeros((6, 6))
        top[:2, :2] = darboux_constant_form(1).matrix
        top[2:, 2:] = darboux_constant_form(2).matrix
        np.testing.assert_array_equal(fs.forms[1].matrix, top)
        np.testing.assert_array_equal(
            tower.bondings[0].matrix, np.hstack([np.eye(2), np.zeros((2, 4))])
        )

    def test_compatible_and_reduced(self):
        tower, fs = make_product_tower([darboux_constant_form(1)] * 4)
        assert check_compatible_sequence(fs).ok
        assert classify_tower(tower) is True

    def test_degenerate_factor_is_named(self):
        bad = SkewForm(ModelSpace(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="factor 1"):
            make_product_tower([darboux_constant_form(1), bad])

    def test_grams_stack_blockwise(self):
        space = ModelSpace(2, gram=np.diag([4.0, 4.0]))
        scaled = SkewForm(space, darboux_constant_form(1).matrix)
        tower, _ = make_product_tower([darboux_constant_form(1), scaled])
        assert tower.levels[0].has_identity_gram
        np.testing.assert_array_equal(
            tower.levels[1].gram_matrix, np.diag([1.0, 1.0, 4.0, 4.0])
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_product_tower([])

    def test_levels_are_views_of_the_top_level(self):
        tower, fs = make_product_tower(_mixed_factors(5))
        top_form, top_gram = fs.forms[-1].matrix, tower.levels[-1].gram
        for level, form in zip(tower.levels, fs.forms):
            assert np.shares_memory(form.matrix, top_form)
            assert level.gram is None or np.shares_memory(level.gram, top_gram)
        first = tower.bondings[0].matrix
        for bonding in tower.bondings:
            assert np.shares_memory(bonding.matrix, first)
            assert not bonding.matrix.flags.writeable

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_levels_equal_per_level_copies_bit_for_bit(self, count):
        factors = _mixed_factors(count)
        tower, fs = make_product_tower(factors)
        grams, forms, bondings = _per_level_copies(factors)
        assert [lv.gram is None for lv in tower.levels] == [g is None for g in grams]
        for level, form, gram, expected in zip(tower.levels, fs.forms, grams, forms):
            assert form.matrix.tobytes() == expected.tobytes()
            if gram is not None:
                assert level.gram.tobytes() == gram.tobytes()
        for bonding, expected in zip(tower.bondings, bondings, strict=True):
            assert bonding.matrix.tobytes() == expected.tobytes()

    def test_building_at_the_caps_holds_each_matrix_once(self):
        # 32 factors of dim 16 (the depth and dimension caps), a gram on
        # factor 0.  The top form, top gram and identity take 2 MiB each;
        # building peaked at 8.1 MiB, against 70.0 MiB when every level held
        # its own form, gram and bonding.
        gram = np.diag(np.linspace(1.0, 2.0, 16))
        first = SkewForm(ModelSpace(16, gram), darboux_constant_form(8).matrix)
        factors = [first] + [darboux_constant_form(8)] * 31
        tracemalloc.start()
        try:
            tower, _ = make_product_tower(factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tower.levels[-1].dim == 512
        assert peak < 16 * 2**20

    @seed(20240811)
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    def test_partial_dims_accumulate(self, half_dims):
        tower, fs = make_product_tower([darboux_constant_form(l) for l in half_dims])
        expected = np.cumsum([2 * l for l in half_dims])
        assert [lv.dim for lv in tower.levels] == list(expected)
        assert check_compatible_sequence(fs).ok


class TestCounterexampleTower:
    def test_level_dims_and_projections(self):
        tower, fields = make_counterexample_tower(2, 3, a=np.array([1.0, 0.0]))
        assert [lv.dim for lv in tower.levels] == [4, 8, 12]
        assert len(fields) == 3
        # Bonding keeps (x_1, e_1) out of level 2: base block then fiber block.
        b = tower.bondings[0].matrix
        expected = np.zeros((4, 8))
        expected[0, 0] = expected[1, 1] = 1.0
        expected[2, 4] = expected[3, 5] = 1.0
        np.testing.assert_array_equal(b, expected)

    def test_first_level_matches_single_field(self):
        spec = default_spec()
        _, fields = make_counterexample_tower(2, 2, a=spec.a, s_eigs=spec.s_eigs)
        single = make_marsden_field(spec)
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rng.standard_normal(4)
            np.testing.assert_allclose(fields[0].omega(z), single.omega(z), atol=1e-14)

    def test_fields_compatible_along_threads(self):
        tower, fields = make_counterexample_tower(2, 3, a=np.array([0.6, 0.8]))
        thread = Thread.from_top(tower, np.linspace(-1.0, 1.0, 12))
        fs = field_sequence_at(tower, fields, thread)
        report = check_compatible_sequence(fs)
        assert report.ok
        assert all(lv.pullback_residual <= 1e-12 for lv in report.per_level)

    def test_degeneracy_sits_at_inverse_distance(self):
        tower, fields = make_counterexample_tower(4, 2)
        z = np.zeros(16)
        z[4] = 0.5  # x_2 = a/2 with a = e1
        assert np.linalg.norm(z) == 0.5
        form = SkewForm(tower.levels[1], fields[1].omega(z))
        assert weakness_conditioning(form).kappa > 1e6

    def test_base_conditioning_value(self):
        _, fields = make_counterexample_tower(4, 2)
        form = SkewForm(fields[1].space, fields[1].omega(np.zeros(16)))
        assert weakness_conditioning(form).kappa == pytest.approx(COND_BASE_N2, rel=1e-9)

    def test_fields_are_closed(self):
        _, fields = make_counterexample_tower(2, 2, a=np.array([1.0, 0.0]))
        assert exterior_derivative_residual(fields[1], samples=20, seed=2) < 1e-12

    def test_fields_vanish_off_their_slot_blocks(self):
        _, fields = make_counterexample_tower(2, 3, a=np.array([0.6, 0.8]))
        assert fields[0].blocks is None
        np.testing.assert_array_equal(fields[2].blocks, [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11]])
        off = np.ones((12, 12), dtype=bool)
        for idx in fields[2].blocks:
            off[np.ix_(idx, idx)] = False
        z = np.random.default_rng(3).standard_normal((6, 12))
        assert not np.any(fields[2].omega_many(z)[:, off])

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            make_counterexample_tower(2, 0)

    def test_field_count_checked(self):
        tower, fields = make_counterexample_tower(2, 2)
        thread = Thread.from_top(tower, np.zeros(8))
        with pytest.raises(ValueError, match="fields"):
            field_sequence_at(tower, fields[:1], thread)


class TestLoopTower:
    def test_frozen_gram(self):
        tower, _ = make_loop_tower(1, 2, [0, 1, 2])
        np.testing.assert_allclose(
            np.diag(tower.levels[2].gram_matrix), LOOP_GRAM_M1_MODES2_K2
        )
        assert tower.levels[0].has_identity_gram

    def test_form_identical_across_levels(self):
        _, fs = make_loop_tower(1, 2, [0, 1, 2])
        expected = np.kron(np.eye(5), darboux_constant_form(1).matrix)
        for form in fs.forms:
            np.testing.assert_array_equal(form.matrix, expected)

    def test_exact_compatibility(self):
        _, fs = make_loop_tower(2, 3, [0, 2])
        report = check_compatible_sequence(fs)
        assert report.ok
        assert all(lv.pullback_residual == 0.0 for lv in report.per_level)

    def test_conditioning_grows_with_order(self):
        _, fs = make_loop_tower(1, 2, [0, 1, 2])
        kappas = [weakness_conditioning(f).kappa for f in fs.forms]
        assert kappas == pytest.approx([1.0, 5.0, 25.0])

    def test_constant_loops_recover_darboux(self):
        tower, fs = make_loop_tower(1, 0, [0])
        assert tower.levels[0].dim == 2
        np.testing.assert_array_equal(fs.forms[0].matrix, darboux_constant_form(1).matrix)

    def test_rejects_unsorted_orders(self):
        with pytest.raises(ValueError, match="increasing"):
            make_loop_tower(1, 1, [2, 1])

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m must"):
            make_loop_tower(0, 1, [0])

    def test_every_level_shares_one_form_and_one_identity(self):
        tower, fs = make_loop_tower(1, 2, [0, 1, 2, 3])
        for form in fs.forms:
            assert np.shares_memory(form.matrix, fs.forms[0].matrix)
        for bonding in tower.bondings:
            assert np.shares_memory(bonding.matrix, tower.bondings[0].matrix)
            np.testing.assert_array_equal(bonding.matrix, np.eye(10))

    def test_building_at_the_caps_holds_one_form_and_one_identity(self):
        # 255 Fourier slots of R^2 (dim 510) at 32 orders.  The form, the
        # identity and each of the 31 distinct diagonal grams take 2.0 MiB:
        # building held 65.5 MiB (peak 69.5), against 186.6 MiB (peak 192.5)
        # when every level held its own form and bonding.
        tracemalloc.start()
        try:
            tower, _ = make_loop_tower(1, 127, range(32))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tower.levels[-1].dim == 510
        assert held < 72 * 2**20 and peak < 80 * 2**20


@pytest.fixture(scope="module")
def ce_result():
    return shrink_experiment({"kind": "counterexample", "d": 2}, n_max=3)


class TestShrinkExperiment:
    def test_counterexample_radii_shrink(self, ce_result):
        result = ce_result
        assert [row.n for row in result.rows] == [1, 2, 3]
        assert [row.dim for row in result.rows] == [4, 8, 12]
        for row in result.rows:
            assert row.bound == pytest.approx(1.0 / row.n)
            assert row.bound - 0.01 <= row.r_validity <= row.bound
        radii = result.level1_radii
        assert all(b < a for a, b in zip(radii, radii[1:]))
        assert result.fitted_exponent is not None
        assert result.fitted_exponent <= -0.5
        assert not result.uniform_radius_ok
        assert not result.assembly.ok
        assert "no uniform radius" in result.diagnosis

    def test_counterexample_inverse_blowup(self, ce_result):
        result = ce_result
        per_level = result.bounds.per_level
        assert per_level[0].forward <= 4.0
        for row, entry in zip(result.rows, per_level):
            assert entry.inverse >= row.n * row.n / 2.0
            assert row.cond_at_base == pytest.approx(entry.inverse * entry.forward, rel=1e-9)

    def test_product_control_keeps_radius(self):
        result = shrink_experiment({"kind": "product"}, n_max=4)
        assert all(row.r_validity == pytest.approx(1.0) for row in result.rows)
        assert result.fitted_exponent == pytest.approx(0.0, abs=1e-12)
        assert result.uniform_radius_ok
        assert result.assembly.ok
        assert result.bounds.forward_ok and result.bounds.inverse_ok and result.bounds.kumar_ok
        assert "persists" in result.diagnosis

    def test_counterexample_kumar_is_inf_at_its_witnesses(self, ce_result):
        for row, entry in zip(ce_result.rows, ce_result.bounds.per_level):
            assert row.r_validity < row.r_witness <= row.r_validity / (1.0 - moser.BISECT_REL)
            assert entry.kumar == float("inf")
        assert not ce_result.bounds.kumar_ok

    def test_product_control_has_no_witness_and_kumar_zero(self):
        result = shrink_experiment({"kind": "product"}, n_max=4)
        assert [row.r_witness for row in result.rows] == [None] * 4
        assert [entry.kumar for entry in result.bounds.per_level] == [0.0] * 4

    def test_product_runs_are_reproducible(self):
        a = shrink_experiment({"kind": "product"}, n_max=3, seed=5)
        b = shrink_experiment({"kind": "product"}, n_max=3, seed=5)
        assert a.rows == b.rows
        assert a.level1_radii == b.level1_radii

    def test_assembly_scales_each_level_radius_once(self, monkeypatch):
        shrink_levels = models._shrink_levels

        def halving(tower_spec, n_max):
            tower, *rest = shrink_levels(tower_spec, n_max)
            bondings = [LinearMap(b.source, b.target, 0.5 * b.matrix) for b in tower.bondings]
            return (build_tower(tower.levels, bondings), *rest)

        monkeypatch.setattr(models, "_shrink_levels", halving)
        result = shrink_experiment({"kind": "product"}, n_max=4)
        assert [row.r_validity for row in result.rows] == [1.0] * 4
        assert result.level1_radii == (1.0, 0.5, 0.25, 0.125)
        assert result.assembly.limiting_radius_by_level == (0.125, 0.25, 0.5, 1.0)

    @pytest.mark.parametrize("spec", [{"kind": "product"}, {"kind": "counterexample", "d": 2}])
    def test_walks_no_row(self, monkeypatch, spec):
        # Both towers select coordinates between identity-gram levels, so
        # every row sits at or above the selection floor.
        rows = []
        row = Tower._row

        def counting(tower, i):
            rows.append(i)
            return row(tower, i)

        monkeypatch.setattr(Tower, "_row", counting)
        shrink_experiment(spec, n_max=4)
        assert rows == []

    @pytest.mark.parametrize(
        "spec, name",
        [
            ({"kind": "counterexample", "d": 2.5}, "d"),
            ({"kind": "product", "factor_dim": True}, "factor_dim"),
        ],
    )
    def test_rejects_a_non_integer_dimension(self, spec, name):
        # int() would have run d = 2 and factor_dim = 1
        with pytest.raises(ValueError, match="^%s must be a positive integer" % name):
            shrink_experiment(spec, n_max=2)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "product", "radius": True},
            {"kind": "product", "radius": "2"},
            {"kind": "product", "radius": float("inf")},
            {"kind": "product", "radius": float("nan")},
            {"kind": "product", "radius": 0.0},
            {"kind": "counterexample", "d": 2, "region_radius": float("inf")},
            {"kind": "counterexample", "d": 2, "region_radius": "2"},
            {"kind": "counterexample", "d": 2, "region_radius": False},
        ],
        ids=["product-true", "product-str", "product-inf", "product-nan", "product-zero",
             "counterexample-inf", "counterexample-str", "counterexample-false"],
    )
    def test_rejects_a_radius_that_is_not_a_finite_positive_real(self, spec):
        # True once ran radius 1.0 and "2" radius 2.0; inf reported r_validity
        # inf at every level, and the counterexample died inside the SVD
        with pytest.raises(ValueError, match="^radius must be a finite positive real"):
            shrink_experiment(spec, n_max=2)

    def test_an_integer_radius_is_the_float(self):
        assert shrink_experiment({"kind": "product", "radius": 2}, n_max=2) == shrink_experiment(
            {"kind": "product", "radius": 2.0}, n_max=2
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown tower kind"):
            shrink_experiment({"kind": "mystery"}, n_max=2)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown tower_spec fields"):
            shrink_experiment({"kind": "product", "power": 3}, n_max=2)

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            shrink_experiment({"kind": "product"}, n_max=0)


# Each integer argument that the library checks with linalg.count, as a call
# that passes the value there and returns the integer it built from it.
COUNT_SITES = {
    "dim": lambda v: ModelSpace(v).dim,
    "l_dim": lambda v: darboux_constant_form(v).space.dim // 2,
    "d": lambda v: MarsdenSpec(d=v, a=[1.0, 0.0]).d,
    "shift_k": lambda v: MarsdenSpec(d=2, a=[1.0, 0.0], shift_k=v).shift_k,
    "depth": lambda v: make_counterexample_tower(1, v)[0].depth + 1,
    "m": lambda v: make_loop_tower(v, 0, [0])[0].levels[0].dim // 2,
    "modes": lambda v: (make_loop_tower(1, v, [0])[0].levels[0].dim // 2 - 1) // 2,
    # Frequency 1's gram weight at order k is 2^k.
    "order": lambda v: round(log2(make_loop_tower(1, 1, [0, v])[0].levels[1].gram[2, 2])),
    "n_max": lambda v: len(shrink_experiment({"kind": "product"}, v).rows),
    "degree": lambda v: replace(
        FormField.constant(darboux_constant_form(1), np.zeros(2), 1.0), degree=v
    ).degree,
}


@pytest.mark.parametrize("name", sorted(COUNT_SITES))
def test_every_count_takes_a_numpy_integer_and_rejects_a_bool(name):
    site = COUNT_SITES[name]
    kept = site(np.int64(2))
    assert type(kept) is int and kept == site(2) == 2
    with pytest.raises(
        ValueError, match=r"^%s must be a (positive|non-negative) integer, got True$" % name
    ):
        site(True)


# ---------------------------------------------------------------------------
# validity radius on the counterexample levels, against the exact radius
# ---------------------------------------------------------------------------

SHRINK_COND_CAP = 1e6


@lru_cache(maxsize=1)
def counterexample_levels():
    """(families, slot rays) of the default d=4 counterexample tower, 32 levels deep."""
    _, families, _, ray_sets = _shrink_levels({"kind": "counterexample", "d": 4}, 32)
    return families, ray_sets


def oracle_radius(n: int) -> float:
    """Where the condition cap binds on the slot-n ray, for |a| = 1 and n >= 2.

    Block n's flat at t = 1 has singular values ((1/n - r)^2 + s_i) / 2 and
    block 1 keeps sigma_max = (1 + s_1) / 2, so the cap binds at
    r = 1/n - sqrt((1 + s_1) / cap - s_d), about 1/n - 1.4107e-3.
    """
    s = np.logspace(0.0, -SHRINK_EIGS_DECADES, 4)
    return 1.0 / n - np.sqrt((1.0 + s[0]) / SHRINK_COND_CAP - s[-1])


def level_radius(n: int) -> float:
    """validity_radius at level n as shrink_experiment measures it (seed 0)."""
    families, ray_sets = counterexample_levels()
    family = families[n - 1]
    return validity_radius(family, family.base_point, cond_cap=SHRINK_COND_CAP,
                           seed=n - 1, extra_rays=ray_sets[n - 1])


def assert_within_oracle(n: int, r: float) -> None:
    star = oracle_radius(n)
    assert star * (1.0 - 1e-3) <= r <= star, (n, r, star)


def test_validity_radius_at_max_depth_meets_the_oracle():
    # Level 32's degeneracy lies halfway between two march points; the
    # margins there tie, and a strict dip test reported slot 31's radius.
    r31, r32 = level_radius(31), level_radius(32)
    assert_within_oracle(31, r31)
    assert_within_oracle(32, r32)
    assert r32 < r31


@pytest.mark.parametrize("n", [13, 17, 18, 19])
def test_validity_radius_cut_keeps_the_dip_past_the_best(n):
    # Cutting a march one grid point past the running best leaves the first
    # point beyond it at the edge, where it cannot count as a dip.
    assert_within_oracle(n, level_radius(n))


def test_validity_radius_marches_slot_rays_first_and_cuts_later_marches(monkeypatch):
    families, ray_sets = counterexample_levels()
    family, rays = families[2], ray_sets[2]
    margins_fn = moser._validity_margins
    crossing = moser._first_crossing
    chunks = []
    marches = []

    def counting(fam, pts, ts, sing_tol, cond_cap):
        if len(pts) > 1:
            chunks.append(np.array(pts))
        return margins_fn(fam, pts, ts, sing_tol, cond_cap)

    def recording(margin_fn, radii, margins, best, clear_fn):
        marches.append((radii, margins, best))
        return crossing(margin_fn, radii, margins, best, clear_fn)

    monkeypatch.setattr(moser, "_validity_margins", counting)
    monkeypatch.setattr(moser, "_first_crossing", recording)
    certified = recorded_certificates(monkeypatch)
    assert_within_oracle(3, level_radius(3))
    # The aimed slot rays are always marched, a random ray only when uncertified.
    assert len(marches) == len(rays) + certified.count(False)
    field = family.omega_bar
    grid = np.linspace(0.0, field.radius - field.distance_from_center(family.base_point),
                       moser.MARCH_STEPS + 1)
    # The first march walks the grid from 0, MARCH_CHUNK radii at a time, and
    # stops after the chunk that holds its first failure.
    radii, margins, _ = marches[0]
    np.testing.assert_array_equal(radii, grid[:len(radii)])
    assert all(len(c) <= moser.MARCH_CHUNK for c in chunks)
    first_bad = np.nonzero(margins <= 0.0)[0][0]
    assert len(radii) == min(moser.MARCH_CHUNK * (first_bad // moser.MARCH_CHUNK + 1), len(grid))
    step = chunks[0][1] - family.base_point
    np.testing.assert_allclose(step / np.linalg.norm(step), rays[0] / np.linalg.norm(rays[0]))
    # Later marches end two grid points past the radius found so far.
    for radii, _, best in marches[1:]:
        assert len(radii) <= np.searchsorted(grid, best, "right") + 2 < len(grid)


# ---------------------------------------------------------------------------
# certified rays: validity_radius skips a ray that _certified_clear proves
# valid, and must return the same float as when it marches every ray
# ---------------------------------------------------------------------------


def recorded_certificates(monkeypatch) -> list:
    """The verdicts of every later moser._certified_clear call, ray by ray, in order."""
    certify_fn = moser._certified_clear
    verdicts = []

    def recording(*args):
        out = certify_fn(*args)
        verdicts.extend(out)
        return out

    monkeypatch.setattr(moser, "_certified_clear", recording)
    return verdicts


def bisect_every_bracket(m: pytest.MonkeyPatch) -> None:
    """Refuse every bracket certificate of moser._first_crossing, so each bracket is bisected."""
    crossing = moser._first_crossing

    def never_clear(margin_fn, radii, margins, best, clear_fn):
        return crossing(margin_fn, radii, margins, best, lambda lo, end: False)

    m.setattr(moser, "_first_crossing", never_clear)


def marched_everywhere(fn):
    """fn() with every certificate refused, so every ray is marched and every
    bracket bisected."""
    margins_fn = moser._validity_margins
    marches = []
    refused = []

    def counting(fam, pts, ts, sing_tol, cond_cap):
        if len(pts) > 1:
            marches.append(len(pts))
        return margins_fn(fam, pts, ts, sing_tol, cond_cap)

    def refusing(family, x0, directions, *args):
        refused.append(len(directions))
        return np.zeros(len(directions), dtype=bool)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(moser, "_validity_margins", counting)
        m.setattr(moser, "_certified_clear", refusing)
        bisect_every_bracket(m)
        out = fn()
    # The refusal is consulted, and every refused ray is marched after the aimed ones.
    assert sum(refused) > 0 and len(marches) >= sum(refused)
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_certified_rays_keep_the_counterexample_radius(monkeypatch, n):
    certified = recorded_certificates(monkeypatch)
    r = level_radius(n)
    assert sum(certified) >= moser.RAY_COUNT // 2
    assert r == marched_everywhere(lambda: level_radius(n))


@seed(20261018)
@settings(max_examples=8, deadline=None)
@given(
    a=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4).filter(
        lambda v: np.linalg.norm(v) > 0.1),
    depth=st.integers(min_value=2, max_value=3),
    run_seed=st.integers(min_value=0, max_value=10**6),
)
def test_certified_rays_keep_the_radius_for_any_direction(a, depth, run_seed):
    a = np.asarray(a) / np.linalg.norm(a)
    _, families, _, ray_sets = _shrink_levels({"kind": "counterexample", "d": 4, "a": a}, depth)
    for i, (family, rays) in enumerate(zip(families, ray_sets)):

        def radius():
            return validity_radius(family, family.base_point, cond_cap=SHRINK_COND_CAP,
                                   seed=run_seed + i, extra_rays=rays)

        assert radius() == marched_everywhere(radius)


def certify(family, direction, end, min_step, cond_cap=SHRINK_COND_CAP):
    """The verdict of a one-ray certificate."""
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    return moser._certified_clear(family, family.base_point, np.asarray(direction)[None], end,
                                  min_step, ts, moser.SING_TOL, cond_cap)[0]


def valid_at_a_thousand_radii(family, direction, end, cond_cap) -> bool:
    """Whether the validity rule holds at 1,000 even radii of [0, end] on the ray,
    checked 100 radii at a time up to the first failure."""
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    radii = np.linspace(0.0, end, 1000)
    for chunk in np.split(radii, 10):
        pts = family.base_point + chunk[:, None] * direction
        if not np.all(moser._validity_margins(family, pts, ts, moser.SING_TOL, cond_cap) > 0.0):
            return False
    return True


def test_certified_segment_is_valid_at_a_thousand_radii():
    families, ray_sets = counterexample_levels()
    family = families[3]
    star = oracle_radius(4)
    random_ray = np.random.default_rng(4).standard_normal(family.space.dim)
    random_ray /= np.linalg.norm(random_ray)
    for direction, end in ((ray_sets[3][0], 0.999 * star), (random_ray, 1.5)):
        assert certify(family, direction, end, 1e-4 * end)
        assert valid_at_a_thousand_radii(family, direction, end, SHRINK_COND_CAP)


@pytest.mark.parametrize("cond_cap", [1e6, 30.0, 8.0])
@pytest.mark.parametrize("n", range(1, 6))
def test_certificate_verdicts_match_a_thousand_radii(n, cond_cap):
    """On levels 1-5 the verdict on each ray is exactly whether its segment
    is valid at 1,000 radii: the slot-n ray and two seeded random rays
    (level 4's first is the ray above), to ends short of, near and past 1/n.
    Caps 30 and 8 make the base point invalid from level 3 or 4 on."""
    families, ray_sets = counterexample_levels()
    family = families[n - 1]
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    rays = np.random.default_rng(n).standard_normal((2, family.space.dim))
    directions = np.vstack([ray_sets[n - 1][0],
                            rays / np.linalg.norm(rays, axis=1, keepdims=True)])
    certified = 0
    for end in (0.5 / n, 0.99 / n, 1.5):
        verdicts = moser._certified_clear(family, family.base_point, directions, end,
                                          1e-4 * end, ts, moser.SING_TOL, cond_cap)
        valid = [valid_at_a_thousand_radii(family, direction, end, cond_cap)
                 for direction in directions]
        assert verdicts.tolist() == valid, (end, verdicts, valid)
        certified += verdicts.sum()
    # The base point has room at cap 1e6 on every level, so some segment is certified.
    assert certified > 0 or cond_cap < 1e6


def test_certificate_steps_on_one_level_are_pinned(monkeypatch):
    """The 16 seeded rays of level 4 to 13 march steps, as validity_radius
    offers them: two loop steps of 16 and 8 rays (three, 37 ray-steps, when
    the Weyl bounds took Frobenius norms)."""
    families, _ = counterexample_levels()
    family = families[3]
    rays = np.random.default_rng(3).standard_normal((moser.RAY_COUNT, family.space.dim))
    directions = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    step = family.omega_bar.radius / moser.MARCH_STEPS
    factor = moser._block_sigma_range
    steps = []

    def recording(blocks):
        steps.append(blocks.shape[2])  # (block, t, ray, size, size)
        return factor(blocks)

    monkeypatch.setattr(moser, "_block_sigma_range", recording)
    verdicts = moser._certified_clear(family, family.base_point, directions, 13 * step, step,
                                      np.linspace(0.0, 1.0, moser.T_GRID), moser.SING_TOL,
                                      SHRINK_COND_CAP)
    assert verdicts.all()
    assert steps == [16, 8]


@pytest.mark.parametrize("n", [8, 9, 16, 32])
def test_bracket_skips_keep_the_radius_of_every_bracket_bisected(monkeypatch, n):
    bisections = []
    bisect = moser._bisect_crossing

    def counting(*args):
        bisections.append(1)
        return bisect(*args)

    monkeypatch.setattr(moser, "_bisect_crossing", counting)
    r = level_radius(n)
    skipping = len(bisections)
    bisections.clear()
    with pytest.MonkeyPatch.context() as m:
        bisect_every_bracket(m)
        assert level_radius(n) == r
    # From level 9 on, the slot n - 1 ray's crossing lies past the best
    # within the march, and its bisection is skipped.
    assert skipping < len(bisections) or n < 9


@pytest.mark.parametrize("n", [1, 2, 9, 32])
def test_chunked_marches_keep_the_radius_of_whole_marches(monkeypatch, n):
    points = []
    margins = moser._validity_margins

    def counting(family, pts, *args):
        points.append(len(pts))
        return margins(family, pts, *args)

    monkeypatch.setattr(moser, "_validity_margins", counting)
    r = level_radius(n)
    chunked = sum(points)
    points.clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(moser, "MARCH_CHUNK", moser.MARCH_STEPS + 1)
        assert level_radius(n) == r
    # At shallow levels the slot-n ray fails within the first chunks of its
    # march, so the chunks past its first failure are never evaluated.
    assert chunked < sum(points) or n > 2


def test_a_one_radius_march_tail_joins_the_chunk_before_it(monkeypatch):
    chunks, marches = [], []
    margins_fn = moser._validity_margins
    crossing = moser._first_crossing

    def counting(family, pts, *args):
        if len(pts) > 1:
            chunks.append(len(pts))
        return margins_fn(family, pts, *args)

    def recording(margin_fn, radii, *args):
        marches.append(len(radii))
        return crossing(margin_fn, radii, *args)

    monkeypatch.setattr(moser, "_validity_margins", counting)
    monkeypatch.setattr(moser, "_first_crossing", recording)
    assert_within_oracle(2, level_radius(2))
    # Slot 2's march stops after its first chunk; slot 1's ends one grid
    # point past a chunk, and that point is evaluated with the chunk.
    assert marches == [moser.MARCH_CHUNK, moser.MARCH_CHUNK + 1]
    assert chunks == marches


# ---------------------------------------------------------------------------
# the validity witness, and kumar's early exit at it
# ---------------------------------------------------------------------------


def level_witness(n: int):
    """(radius, witness) of validity_radius at level n, as shrink_experiment asks."""
    families, ray_sets = counterexample_levels()
    family = families[n - 1]
    return validity_radius(family, family.base_point, cond_cap=SHRINK_COND_CAP,
                           seed=n - 1, extra_rays=ray_sets[n - 1], return_witness=True)


@pytest.mark.parametrize("n", [*range(1, 17), 32])
def test_the_witness_fails_on_slot_n_just_past_the_radius(n):
    families, _ = counterexample_levels()
    family = families[n - 1]
    r, witness = level_witness(n)
    assert r == level_radius(n)
    r_witness = family.space.norm(witness - family.base_point)
    assert r < r_witness <= r / (1.0 - moser.BISECT_REL)
    # The witness lies on slot n's shell: against the flat's sigma_max, only
    # slot n's block has singular values that break the rule.
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    flats = family.omega0.matrix + ts[:, None, None] * family.omega_bar.omega(witness)
    smax, smin = moser._block_sigma_range(moser._diagonal_blocks(flats, family.blocks))
    broken = moser._margins(smax.max(axis=0), smin, moser.SING_TOL, SHRINK_COND_CAP) <= 0.0
    assert np.flatnonzero(broken.any(axis=1)).tolist() == [n - 1]


# kumar of levels 1-3 at seed 0 without a failing witness: the sampled
# maximum over the ball, which misses the failing flats in it.
SAMPLED_KUMAR = ("0x1.2e1011c5896bep-1", "0x1.3eed5e829b8e7p+0", "0x1.8a3990e084c9ap+0")


def kumar_hex(witnesses) -> list:
    families, _ = counterexample_levels()
    report = uniform_bound_check(families[:3], K=BOUND_K, cond_cap=SHRINK_COND_CAP,
                                 witnesses=witnesses)
    return [row.kumar.hex() for row in report.per_level]


def test_a_failing_witness_in_the_kumar_ball_makes_kumar_inf_from_one_point(monkeypatch):
    witnesses = [level_witness(n)[1] for n in (1, 2, 3)]
    rule = moser._validity_margins
    points, batches = [], []

    def counting(family, pts, *args):
        points.append(len(pts))
        return rule(family, pts, *args)

    monkeypatch.setattr(moser, "_validity_margins", counting)
    monkeypatch.setattr(moser, "_field_batch", lambda *args: batches.append(args))
    assert kumar_hex(witnesses) == [float("inf").hex()] * 3
    # One rule evaluation at the witness per level, and no velocity solve.
    assert points == [1, 1, 1]
    assert batches == []


def test_kumar_is_the_sampled_one_without_a_failing_witness_in_the_ball():
    families, _ = counterexample_levels()
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    outside, passing = [], []
    for n, family in zip((1, 2, 3), families):
        space, base = family.space, family.base_point
        reach = moser.KUMAR_RADIUS_FACTOR * family.omega_bar.radius
        # A failing point outside the ball: the witness moved along slot n's
        # fiber coordinates, which keep slot n's shell.
        fiber = np.zeros(space.dim)
        fiber[(2 * n - 1) * 4] = 1.0
        far = level_witness(n)[1] + 1.5 * reach * fiber
        assert space.norm(far - base) > reach
        assert not moser._field_batch(family, ts, far[None, :], SHRINK_COND_CAP,
                                      moser.SING_TOL)[1].all()
        outside.append(far)
        # A passing point inside it whose velocity exceeds the sampled kumar,
        # the fastest of 200 other draws from the ball.
        pts = moser._sample_ball(np.random.default_rng(100 + n), space, base, reach, 200)
        vel, ok = moser._field_batch(family, ts, pts, SHRINK_COND_CAP, moser.SING_TOL)
        speed = np.where(ok.all(axis=0), np.linalg.norm(vel, axis=-1).max(axis=0), 0.0)
        assert speed.max() > float.fromhex(SAMPLED_KUMAR[n - 1])
        passing.append(pts[np.argmax(speed)])
    assert kumar_hex(None) == list(SAMPLED_KUMAR)
    assert kumar_hex([None] * 3) == list(SAMPLED_KUMAR)
    assert kumar_hex(outside) == list(SAMPLED_KUMAR)
    assert kumar_hex(passing) == list(SAMPLED_KUMAR)


@pytest.mark.parametrize("n", range(2, 33))
def test_certified_reach_on_the_slot_ray_stays_below_the_oracle(n):
    families, ray_sets = counterexample_levels()
    family, slot_ray = families[n - 1], ray_sets[n - 1][0]
    star = oracle_radius(n)
    assert slot_ray[(n - 1) * 4] == 1.0  # slot n: the nearest shell comes first
    assert certify(family, slot_ray, 0.99 * star, 1e-4 * star)
    assert not certify(family, slot_ray, star, 1e-4 * star)
    assert not certify(family, slot_ray, 1.0 / n, 1e-4 * star)


@pytest.mark.parametrize("cond_cap", [1e6, 30.0, 8.0])
@pytest.mark.parametrize("n", range(1, 6))
def test_a_ray_stack_gets_the_verdicts_of_one_ray_calls_on_the_counterexample(n, cond_cap):
    families, ray_sets = counterexample_levels()
    family = families[n - 1]
    rng = np.random.default_rng(n)
    rays = np.vstack(ray_sets[n - 1] + list(rng.standard_normal((moser.RAY_COUNT,
                                                                  family.space.dim))))
    directions = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    for end in (0.5 / n, 1.0 / n, 1.5):
        stacked = moser._certified_clear(family, family.base_point, directions, end,
                                         end / moser.MARCH_STEPS, ts, moser.SING_TOL, cond_cap)
        one_ray = [certify(family, d, end, end / moser.MARCH_STEPS, cond_cap)
                   for d in directions]
        np.testing.assert_array_equal(stacked, one_ray)


def test_the_slot_march_factors_untouched_blocks_at_one_point(monkeypatch):
    families, ray_sets = counterexample_levels()
    family = families[3]
    family.omega0_sigma_range  # factored once per family, on first use
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    assert_within_oracle(4, level_radius(4))
    times = moser.T_GRID - 1
    # The base probe, then the first chunk of slot 4's march: slots 1-3, which
    # the ray leaves unchanged, at one point each, and slot 4's block at every
    # point of the chunk.
    assert shapes[:3] == [(4, times, 1, 8, 8), (3, times, 1, 8, 8),
                          (times, moser.MARCH_CHUNK, 8, 8)]


def finite_difference(field, x, u, order, h=0.3):
    """(order-th forward difference of the field along x + j * h * u, largest |value|)."""
    values = field.omega_many(x + h * np.arange(order + 1)[:, None] * u)
    signs = np.array([(-1) ** (order - j) * comb(order, j) for j in range(order + 1)], float)
    return np.einsum("j,jab->ab", signs, values), np.abs(values).max()


OMEGA_4 = darboux_constant_form(2).matrix


@lru_cache(maxsize=1)
def declared_fields():
    """Every constructor of a field with a declared degree, and its derived
    fields; and "sine", sin(x0) * J, a field of undeclared degree."""
    spec = MarsdenSpec(d=2, a=np.array([0.6, -0.8]), s_eigs=np.array([1.0, 0.1]))
    _, ce_fields = make_counterexample_tower(2, 3)
    quadratic = make_quadratic_field(2, 0.3, seed=5)
    family = moser.MoserFamily.darboux_target(ce_fields[2], 0.1 * np.ones(12))
    constant = moser.FormField.constant(darboux_constant_form(2), np.zeros(4), 1.0)
    return {
        "sine": moser.FormField(ModelSpace(4), np.zeros(4), 1.0,
                                eval_fn=lambda pts: np.sin(pts[..., :1, None]) * OMEGA_4),
        "marsden": make_marsden_field(spec),
        "counterexample": ce_fields[2],
        "quadratic": quadratic,
        "quadratic-shifted": quadratic.shifted(0.1 * np.ones(4), 0.5 * OMEGA_4),
        "difference": family.omega_bar,
        "total": family.total_field,
        "constant": constant,
        "constant-shifted": constant.shifted(np.zeros(4), OMEGA_4 / 3.0),
    }


DECLARED_DEGREES = {"marsden": 2, "counterexample": 2, "quadratic": 1, "quadratic-shifted": 1,
                    "difference": 2, "total": 2, "constant": 0, "constant-shifted": 0}


@pytest.mark.parametrize("name", sorted(DECLARED_DEGREES))
def test_declared_degree_is_the_field_degree(name):
    """The (p+1)-th difference along a random line vanishes and the p-th does
    not, so a wrong declaration fails."""
    field = declared_fields()[name]
    assert field.degree == DECLARED_DEGREES[name]
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = field.center + 0.2 * rng.standard_normal(field.space.dim)
        u = rng.standard_normal(field.space.dim)
        u /= np.linalg.norm(u)
        above, scale = finite_difference(field, x, u, field.degree + 1)
        top, _ = finite_difference(field, x, u, field.degree)
        assert np.abs(above).max() <= 1e-12 * scale
        assert np.abs(top).max() >= 1e-4 * scale


def quadrature(field, pts, count):
    """The radial primitive by an explicit Gauss-Legendre rule of ``count`` nodes."""
    nodes, weights = moser._unit_interval_quadrature(count)
    diffs = pts - field.center
    dim = field.space.dim
    segs = (field.center + nodes[:, None, None] * diffs).reshape(-1, dim)
    oms = field.omega_many(segs).reshape(count, len(pts), dim, dim)
    return np.einsum("q,qni->ni", weights * nodes, np.einsum("qnji,nj->qni", oms, diffs))


def primitive_points(field):
    return moser._sample_ball(np.random.default_rng(17), field.space, field.center,
                              0.9 * field.radius, 8)


# Gauss-Legendre nodes exact for the integrand s * omega(c + s(x - c))(x - c)
# of degree p + 1 in s: m nodes integrate degree 2m - 1.
DERIVED_NODES = {0: 1, 1: 2, 2: 2}


@pytest.mark.parametrize("name", sorted(DECLARED_DEGREES))
def test_radial_primitive_is_exact_at_the_degree_node_count(name):
    field = declared_fields()[name]
    pts = primitive_points(field)
    alpha = moser._alpha_batch(field, pts)
    np.testing.assert_array_equal(alpha, quadrature(field, pts, DERIVED_NODES[field.degree]))
    many = quadrature(field, pts, 16)
    assert np.abs(alpha - many).max() <= 1e-13 * np.abs(many).max()


def test_radial_primitive_of_an_undeclared_field_takes_quad_nodes():
    field = declared_fields()["sine"]
    assert field.degree is None
    pts = primitive_points(field)
    alpha = moser._alpha_batch(field, pts)
    np.testing.assert_array_equal(alpha, quadrature(field, pts, moser.QUAD_NODES))
    # Not a polynomial: two nodes, exact up to degree 3, miss the integral.
    assert np.abs(alpha - quadrature(field, pts, 2)).max() > 1e-8 * np.abs(alpha).max()
