import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symptower import moser
from symptower.linalg import DimensionMismatchError, ModelSpace, SkewForm, darboux_constant_form
from symptower.models import make_product_tower, make_quadratic_field
from symptower.moser import (
    GOLDEN_EVALS,
    ChartConstructionError,
    FormField,
    LeftValidityRegionError,
    MoserFamily,
    StabilityError,
    assemble_projective_darboux,
    exterior_derivative_residual,
    moser_flow,
    radial_primitive,
    uniform_bound_check,
    validity_radius,
    verify_darboux_chart,
)
from symptower.tower import LinearMap, build_tower

OMEGA2 = darboux_constant_form(1).matrix  # [[0,-1],[1,0]]

# Hand-computed values for the frozen examples below.
ALPHA_CONSTANT = np.array([1.0, -0.5])        # alpha = C^T x / 2 at x=(1,2)
ALPHA_LINEAR = np.array([2.0 / 3.0, -1.0 / 3.0])
MOSER_X = np.array([1.0 / 9.0, 2.0 / 9.0])    # eps=0.2, t=0.5, x=(1,2)
IDENTITY_OFFSET_RESIDUAL = 0.3


def constant_field(matrix, dim=2, radius=4.0):
    return FormField.constant(SkewForm(ModelSpace(dim), matrix), np.zeros(dim), radius)


def quadratic_perturbation_field(dim, epsilon, seed, radius=1.0):
    """Darboux plus epsilon * d(beta) for quadratic beta; closed by construction."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim, dim))
    q = 0.5 * (q + np.swapaxes(q, 1, 2))
    base = darboux_constant_form(dim // 2).matrix

    def d_beta(pts):
        j = np.einsum("ijk,...k->...ij", q, pts)
        return np.swapaxes(j, -1, -2) - j

    def eval_fn(pts):
        return base + epsilon * d_beta(np.asarray(pts, dtype=float))

    return FormField(ModelSpace(dim), np.zeros(dim), radius, eval_fn=eval_fn)


def sphere_degenerating_field(rho=0.8, radius=0.96):
    """First Darboux block scaled by (1 - |x|^2 / rho^2): singular shell at |x|=rho."""

    def eval_fn(pts):
        pts = np.asarray(pts, dtype=float)
        factor = 1.0 - np.sum(pts**2, axis=-1) / rho**2
        out = np.zeros(pts.shape[:-1] + (4, 4))
        out[..., :2, :2] = factor[..., None, None] * OMEGA2
        out[..., 2:, 2:] = OMEGA2
        return out

    return FormField(ModelSpace(4), np.zeros(4), radius, eval_fn=eval_fn)


# ---------------------------------------------------------------------------
# radial primitive
# ---------------------------------------------------------------------------


def test_radial_primitive_zero_field():
    field = constant_field(np.zeros((2, 2)))
    np.testing.assert_array_equal(radial_primitive(field, [1.0, 2.0]), np.zeros(2))


def test_radial_primitive_constant_field():
    field = constant_field(OMEGA2)
    alpha = radial_primitive(field, [1.0, 2.0])
    np.testing.assert_allclose(alpha, ALPHA_CONSTANT, atol=1e-14)
    # alpha_x(v) = omega_bar(x, v) / 2
    v = np.array([0.3, -1.1])
    x = np.array([1.0, 2.0])
    assert alpha @ v == pytest.approx(0.5 * x @ OMEGA2 @ v)


def test_radial_primitive_linear_field():
    w = np.array([1.0, 0.0])

    def eval_fn(pts):
        pts = np.asarray(pts, dtype=float)
        return (pts @ w)[..., None, None] * OMEGA2

    field = FormField(ModelSpace(2), np.zeros(2), 4.0, eval_fn=eval_fn)
    alpha = radial_primitive(field, [1.0, 2.0])
    np.testing.assert_allclose(alpha, ALPHA_LINEAR, atol=1e-14)


def test_radial_primitive_rejects_outside_point():
    field = constant_field(OMEGA2, radius=1.0)
    with pytest.raises(ValueError, match="star-shaped"):
        radial_primitive(field, [3.0, 0.0])


# ---------------------------------------------------------------------------
# vector field
# ---------------------------------------------------------------------------


def moser_velocity(family, t, x, cond_cap=moser.COND_CAP):
    """The Moser velocity at one point, and whether its flat is valid."""
    vel, ok = moser._field_batch(family, t, np.asarray(x, dtype=float)[None, :],
                                 cond_cap, moser.SING_TOL)
    return vel[0], bool(ok[0])


def test_moser_vector_field_frozen_2d():
    omega0 = darboux_constant_form(1)
    field = constant_field(0.2 * (-OMEGA2))
    family = MoserFamily(omega0, field)
    x, ok = moser_velocity(family, 0.5, [1.0, 2.0])
    assert ok
    np.testing.assert_allclose(x, MOSER_X, atol=1e-14)
    # cross-check against the explicit 2x2 inverse
    omega_t = omega0.matrix + 0.5 * field.omega([1.0, 2.0])
    alpha = radial_primitive(field, [1.0, 2.0])
    explicit = -np.linalg.inv(omega_t.T) @ alpha
    np.testing.assert_allclose(x, explicit, atol=1e-14)


def test_moser_vector_field_vanishes_for_zero_bar_and_at_base():
    omega0 = darboux_constant_form(1)
    family = MoserFamily(omega0, constant_field(np.zeros((2, 2))))
    np.testing.assert_array_equal(moser_velocity(family, 0.7, [0.5, -0.2])[0], np.zeros(2))
    field = quadratic_perturbation_field(4, 0.05, seed=5)
    centered = MoserFamily.darboux_target(field, np.zeros(4))
    np.testing.assert_array_equal(moser_velocity(centered, 0.3, np.zeros(4))[0], np.zeros(4))


def test_moser_vector_field_flags_singular_flat():
    omega0 = darboux_constant_form(1)
    family = MoserFamily(omega0, constant_field(-OMEGA2))
    vel, ok = moser_velocity(family, 1.0, [1.0, 0.0])
    assert not ok
    assert np.isfinite(vel).all()  # the failing flat was swapped for the identity
    flat = family.omega0.matrix + family.omega_bar.omega([1.0, 0.0])
    assert moser._sigma_range(flat[None])[1] <= 1e-12
    # A chart evaluated through that flat raises instead.
    chart = moser.ChartMap(family, np.zeros(2), 1.0, 4, moser.COND_CAP, moser.SING_TOL)
    with pytest.raises(LeftValidityRegionError, match="left validity region") as err:
        chart([1.0, 0.0])
    assert err.value.t == 1.0


def test_moser_vector_field_flags_flat_past_the_condition_cap():
    # sigma_min / sigma_max = 1e-7 clears SING_TOL, but the condition
    # number 1e7 exceeds COND_CAP: the integrator's batch rejects it.
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = OMEGA2
    matrix[2:, 2:] = 1e-7 * OMEGA2
    family = MoserFamily(SkewForm(ModelSpace(4), matrix), constant_field(np.zeros((4, 4)), dim=4))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert not moser_velocity(family, 0.5, x)[1]
    assert moser_velocity(family, 0.5, x, cond_cap=1.01e7)[1]
    assert family.omega0_sigma_range[1] == pytest.approx(1e-7, rel=1e-9)


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def box_muller(seed: int, count: int) -> list:
    """The reference stream: cos and sin normals from each pair of uniforms."""
    uniform = random.Random(seed).random
    out = []
    while len(out) < count:
        radius = math.sqrt(-2.0 * math.log(1.0 - uniform()))
        angle = 2.0 * math.pi * uniform()
        out += [radius * math.cos(angle), radius * math.sin(angle)]
    return out[:count]


@pytest.mark.parametrize("seed_value", [0, 7, np.int64(7), 2**40])
def test_draws_follow_the_standard_library_stream(seed_value):
    seed_int = int(seed_value)
    uniform = random.Random(seed_int).random
    assert moser._Draws(seed_value).random(5).tolist() == [uniform() for _ in range(5)]
    normals = moser._Draws(seed_value).standard_normal((3, 3))
    assert normals.shape == (3, 3) and normals.dtype == np.float64
    # An odd count drops the last pair's sine.
    assert normals.ravel().tolist() == box_muller(seed_int, 9)
    draws = moser._Draws(seed_value)
    draws.standard_normal((1,))
    assert draws.standard_normal((2,)).tolist() == box_muller(seed_int, 4)[2:]
    assert moser._Draws(seed_value).standard_normal((0, 4)).shape == (0, 4)


def test_draws_reject_a_negative_or_non_integer_seed():
    with pytest.raises(ValueError, match="non-negative"):
        moser._Draws(-1)
    with pytest.raises(TypeError):
        moser._Draws(1.5)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------


def test_exterior_derivative_constant_field_is_closed():
    field = constant_field(OMEGA2)
    assert exterior_derivative_residual(field, samples=20, seed=1) <= 1e-12


def test_exterior_derivative_quadratic_perturbation_is_closed():
    # Its declared degree makes the derivative an interpolation, exact up to roundoff.
    field = replace(quadratic_perturbation_field(4, 1.0, seed=2), degree=1)
    assert exterior_derivative_residual(field, samples=40, seed=3) <= 1e-12


def test_exterior_derivative_of_undeclared_degree_takes_differences():
    field = quadratic_perturbation_field(4, 1.0, seed=2)
    assert field.degree is None
    assert exterior_derivative_residual(field, samples=40, seed=3) <= 1e-8


def scaled_darboux_field(degree=None):
    """(1 + x_0) times the Darboux form of R^4: not closed."""
    base = darboux_constant_form(2).matrix

    def eval_fn(pts):
        pts = np.asarray(pts, dtype=float)
        return (1.0 + pts[..., 0])[..., None, None] * base

    return FormField(ModelSpace(4), np.zeros(4), 0.5, eval_fn=eval_fn, degree=degree)


def test_exterior_derivative_detects_non_closed_field():
    assert exterior_derivative_residual(scaled_darboux_field(), samples=60, seed=0) >= 0.1


def test_exterior_derivative_detects_non_closed_field_of_declared_degree():
    field = scaled_darboux_field(degree=1)
    assert exterior_derivative_residual(field, samples=60, seed=0) >= 0.1


# ---------------------------------------------------------------------------
# validity radius
# ---------------------------------------------------------------------------


def test_validity_radius_constant_family_fills_region():
    omega0 = darboux_constant_form(1)
    family = MoserFamily(omega0, constant_field(0.5 * OMEGA2, radius=2.0))
    assert validity_radius(family, np.zeros(2)) == pytest.approx(2.0)


def test_validity_radius_finds_thin_degenerate_shell():
    rho = 0.8
    family = MoserFamily.darboux_target(sphere_degenerating_field(rho), np.zeros(4))
    r = validity_radius(family, np.zeros(4))
    assert r < rho
    assert r == pytest.approx(rho, rel=2e-2)


def test_validity_radius_zero_when_base_fails():
    omega0 = SkewForm(ModelSpace(2), np.zeros((2, 2)))
    family = MoserFamily(omega0, constant_field(OMEGA2))
    assert validity_radius(family, np.zeros(2)) == 0.0


def recorded_marches(monkeypatch) -> list:
    """The margins of every march of validity_radius, one array per march,
    as it hands them to moser._first_crossing."""
    crossing = moser._first_crossing
    marches = []

    def recording(margin_fn, radii, margins, best, clear_fn):
        marches.append(margins)
        return crossing(margin_fn, radii, margins, best, clear_fn)

    monkeypatch.setattr(moser, "_first_crossing", recording)
    return marches


@pytest.mark.parametrize("extra", [0, 3], ids=["axis-rays", "extra-rays"])
def test_validity_radius_marches_axis_rays_only_without_extra_rays(monkeypatch, extra):
    omega0 = darboux_constant_form(2)
    family = MoserFamily(omega0, constant_field(0.5 * omega0.matrix, dim=4))
    marches = recorded_marches(monkeypatch)
    certify_fn = moser._certified_clear
    certified = []
    calls = []

    def certifying(*args):
        verdicts = certify_fn(*args)
        calls.append(len(verdicts))
        certified.extend(verdicts)
        return verdicts

    monkeypatch.setattr(moser, "_certified_clear", certifying)
    rays = np.random.default_rng(9).standard_normal((extra, 4)) if extra else None
    assert validity_radius(family, np.zeros(4), extra_rays=rays) == pytest.approx(4.0)
    expected = moser.RAY_COUNT + extra if extra else 2 * 4 + moser.RAY_COUNT
    # The field is constant, so every axis and random ray is certified; only
    # the extra rays, which are always marched, are marched, over the whole grid.
    assert [len(margins) for margins in marches] == [moser.MARCH_STEPS + 1] * extra
    assert len(certified) == expected - extra and all(certified)
    assert calls == [expected - extra]  # one batch holds every unaimed ray


def certify(family, direction, end, min_step, cond_cap=moser.COND_CAP):
    """The verdict of a one-ray certificate."""
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    return moser._certified_clear(family, family.base_point, np.asarray(direction, float)[None],
                                  end, min_step, ts, moser.SING_TOL, cond_cap)[0]


def blow_up_family():
    """A degree-1 family whose difference field is J, and inf where x_0 > 0.4."""

    def blows_up(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.broadcast_to(darboux_constant_form(2).matrix, pts.shape[:-1] + (4, 4)).copy()
        out[pts[..., 0] > 0.4] = np.inf
        return out

    field = FormField(ModelSpace(4), np.zeros(4), 1.0, eval_fn=blows_up, degree=1)
    return MoserFamily(darboux_constant_form(2), field)


def test_certificate_needs_a_declared_degree_and_finite_values():
    quadratic = quadratic_perturbation_field(4, 0.05, seed=3)
    declared = replace(quadratic, degree=2)
    axis = np.eye(4)[0]
    assert certify(MoserFamily.darboux_target(declared, np.zeros(4)), axis, 0.5, 0.01)
    assert not certify(MoserFamily.darboux_target(quadratic, np.zeros(4)), axis, 0.5, 0.01)

    family = blow_up_family()
    assert certify(family, -axis, 0.5, 0.01)
    assert not certify(family, axis, 0.5, 0.01)


def test_a_non_finite_value_refuses_only_its_own_ray_in_a_stack():
    directions = np.vstack([-np.eye(4), np.eye(4)[1:], [np.eye(4)[0]]])
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    verdicts = moser._certified_clear(blow_up_family(), np.zeros(4), directions, 0.5, 0.01,
                                      ts, moser.SING_TOL, moser.COND_CAP)
    np.testing.assert_array_equal(verdicts, [True] * 7 + [False])


def test_a_ray_stack_gets_the_verdicts_of_one_ray_calls_on_quadratic_fields():
    ts = np.linspace(0.0, 1.0, moser.T_GRID)
    rng = np.random.default_rng(11)
    # More rays than one certificate step takes, so some wait for a later one.
    rays = np.vstack([np.eye(4), -np.eye(4),
                      rng.standard_normal((moser.MARCH_STEPS + moser.RAY_COUNT, 4))])
    directions = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    seen = []
    for epsilon in (0.05, 0.5, 2.0):
        family = MoserFamily.darboux_target(make_quadratic_field(2, epsilon), np.zeros(4))
        stacked = moser._certified_clear(family, np.zeros(4), directions, 1.0,
                                         1.0 / moser.MARCH_STEPS, ts, moser.SING_TOL,
                                         moser.COND_CAP)
        one_ray = [certify(family, d, 1.0, 1.0 / moser.MARCH_STEPS) for d in directions]
        np.testing.assert_array_equal(stacked, one_ray)
        seen.extend(stacked)
    assert any(seen) and not all(seen)


def test_degree_is_validated_and_kept():
    field = quadratic_perturbation_field(4, 0.05, seed=3)
    assert field.degree is None
    assert constant_field(OMEGA2).degree == 0
    assert replace(field, degree=2).shifted(0.1 * np.ones(4), np.zeros((4, 4))).degree == 2
    for bad in (-1, 1.5, "2"):
        with pytest.raises(ValueError, match="degree"):
            replace(field, degree=bad)


@pytest.mark.parametrize("bad", [True, "2", math.inf, math.nan, 0.0, -1.0, None],
                         ids=["true", "str", "inf", "nan", "zero", "negative", "none"])
def test_radius_must_be_a_finite_positive_real(bad):
    with pytest.raises(ValueError, match="^radius must be a finite positive real"):
        constant_field(OMEGA2, radius=bad)


def test_radius_is_kept_as_a_float():
    for radius in (2, np.int64(2), np.float32(2.0), 2.0):
        kept = constant_field(OMEGA2, radius=radius).radius
        assert type(kept) is float and kept == 2.0


def test_eval_fn_of_the_wrong_shape_is_rejected():
    def three_by_three(pts):
        return np.zeros(np.shape(pts)[:-1] + (3, 3))

    with pytest.raises(DimensionMismatchError, match=r"shape \(2, 2\)"):
        FormField(ModelSpace(2), np.zeros(2), 1.0, eval_fn=three_by_three)
    with pytest.raises(DimensionMismatchError, match=r"shape \(4, 4\)"):
        moser._constant_field(ModelSpace(4), np.zeros(4), 1.0, OMEGA2)


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1.0])
def test_constant_field_is_degree_zero_and_zero_exactly_when_its_matrix_is(scale):
    field = constant_field(scale * OMEGA2)
    assert field.degree == 0
    assert field.is_zero == (scale == 0.0)
    np.testing.assert_array_equal(field.directional_derivative(np.ones(2), np.ones(2)),
                                  np.zeros((2, 2)))
    # The shift folds the offset into the value, which it leaves as computed.
    shifted = field.shifted(np.ones(2), scale * OMEGA2)
    assert shifted.degree == 0 and shifted.is_zero
    np.testing.assert_array_equal(shifted.omega_many(np.zeros((3, 2))), np.zeros((3, 2, 2)))


def test_a_zero_constant_field_holds_one_broadcast_zero():
    form = darboux_constant_form(256)
    base = np.zeros(512)
    tracemalloc.start()
    try:
        family = MoserFamily.darboux_target(FormField.constant(form, base, 1.0), base)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # omega0 is the one 2 MiB matrix kept: the constant field shares the
    # form's frozen matrix and omega_bar, x - x = +0.0 everywhere, holds a
    # broadcast zero.  When omega_bar held a dense zero, 4.0 MiB stayed.
    assert held < 3 * 2**20
    bar = family.omega_bar
    assert bar.is_zero
    first, second = bar.omega_many(np.zeros((2, 512))), bar.omega_many(np.zeros((2, 512)))
    assert first.shape == (2, 512, 512) and first.flags.writeable
    assert not np.shares_memory(first, second)
    assert not np.any(first) and not np.any(np.signbit(first))
    first[0, 0, 1] = 1.0
    assert not np.any(bar.omega(base))


def test_a_constant_value_with_negative_zeros_keeps_their_sign_bits():
    value = np.zeros((2, 2))
    value[0, 1] = -0.0
    field = constant_field(value)
    assert field.is_zero
    np.testing.assert_array_equal(np.signbit(field.omega(np.zeros(2))), np.signbit(value))
    # -0.0 - (+0.0) is -0.0: the shifted difference keeps the bit too.
    shifted = field.shifted(np.zeros(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(np.signbit(shifted.omega(np.zeros(2))), np.signbit(value))


def test_a_degree_one_field_vanishing_at_its_center_is_not_zero():
    def linear(pts):
        return np.asarray(pts, dtype=float)[..., :1, None] * OMEGA2

    field = FormField(ModelSpace(2), np.zeros(2), 1.0, eval_fn=linear, degree=1)
    assert not np.any(field.omega(field.center))
    assert not field.is_zero
    assert not replace(field, degree=None).is_zero


def test_validity_radius_of_a_zero_field_is_the_room_left_at_an_off_center_point():
    family = MoserFamily(darboux_constant_form(1), constant_field(np.zeros((2, 2)), radius=1.5))
    x0 = np.array([0.3, -0.4])
    assert family.omega_bar.is_zero
    assert validity_radius(family, x0) == 1.5 - np.linalg.norm(x0)
    assert validity_radius(family, np.array([1.2, 0.9])) == 0.0


def test_validity_radius_of_the_moser_spec_field_is_the_marched_one(monkeypatch):
    family = MoserFamily.darboux_target(make_quadratic_field(2, 0.05, seed=7), np.zeros(4))
    r = validity_radius(family, np.zeros(4))
    marches = recorded_marches(monkeypatch)
    refused = []

    def refusing(family, x0, directions, *args):
        refused.append(len(directions))
        return np.zeros(len(directions), dtype=bool)

    monkeypatch.setattr(moser, "_certified_clear", refusing)
    assert validity_radius(family, np.zeros(4)) == r
    # Every axis and random ray is refused, so each one is marched.
    assert refused == [2 * 4 + moser.RAY_COUNT]
    assert len(marches) == refused[0]


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99, 0.999, 1.0])
@pytest.mark.parametrize("min_step", [1e-3, 1e-2, 0.1])
def test_certificate_covers_a_segment_in_bounded_steps(monkeypatch, fraction, min_step):
    """Degenerate shell at |x| = 0.8: the steps shrink towards it, and every
    step but the last advances at least min_step."""
    rho = 0.8
    family = MoserFamily.darboux_target(replace(sphere_degenerating_field(rho), degree=2),
                                        np.zeros(4))
    factor = moser._block_sigma_range
    steps = []

    # One factorization of the flats per step; the step's coefficient norms
    # take an SVD of their own.
    def counting(blocks):
        steps.append(1)
        return factor(blocks)

    monkeypatch.setattr(moser, "_block_sigma_range", counting)
    end = fraction * rho
    ok = certify(family, np.eye(4)[1], end, min_step)
    assert len(steps) <= end / min_step + 1
    if fraction == 1.0:
        assert not ok
    elif (1.0 - fraction) * rho >= 2.0 * min_step:
        assert ok  # the segment stops two steps short of the shell


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(
    best=st.floats(min_value=1e-6, max_value=1e3),
    lo=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    past=st.floats(min_value=0.0, max_value=0.01),
    width=st.floats(min_value=0.0, max_value=1.0),
)
def test_a_bisection_whose_invalid_end_stays_past_the_reach_returns_at_least_the_best(
        best, lo, past, width):
    # Valid below the crossing x, invalid from it on; the tightest x is the
    # first float past the reach.
    reach = moser._bisection_reach(best)
    x = np.nextafter(reach, np.inf) * (1.0 + past)
    hi = x * (1.0 + width)
    valid, invalid = moser._bisect_crossing(lambda r: 1.0 if r < x else -1.0, lo * best, hi)
    assert best <= valid < x <= invalid


def test_a_crossing_short_of_the_reach_can_be_bisected_below_the_best():
    best = 0.5
    x = 0.5000205072692374
    assert best < x < moser._bisection_reach(best)
    got, invalid = moser._bisect_crossing(lambda r: 1.0 if r < x else -1.0,
                                          0.31848084366072715, 0.6352588289971691)
    assert got < best and got < x <= invalid


@pytest.mark.parametrize("marched", [[1.0, 1.0, -1.0], [1.0, 0.5, 1.0]], ids=["failure", "dip"])
def test_only_a_bisection_that_lowers_the_best_leaves_a_witness(marched):
    radii, margins = np.array([0.25, 0.45, 0.9]), np.array(marched)
    # A crossing past the reach is bisected to a valid end at or above the best.
    x = np.nextafter(moser._bisection_reach(0.5), np.inf)

    def crossing(best):
        return moser._first_crossing(lambda r: 1.0 if r < x else -1.0, radii, margins, best,
                                     lambda lo, end: False)

    assert crossing(0.5) == (0.5, None)
    # Below the best, the bisection's invalid end is the witness.
    got, witness = crossing(0.75)
    assert got < x <= witness and witness - got <= moser.BISECT_REL * witness


def dip_field(depth=0.5, at=0.5, width=0.08):
    """First Darboux block scaled by 1 - depth * bump(|x| - at): a margin dip, no zero."""

    def eval_fn(pts):
        pts = np.asarray(pts, dtype=float)
        bump = np.exp(-(((np.linalg.norm(pts, axis=-1) - at) / width) ** 2))
        out = np.zeros(pts.shape[:-1] + (4, 4))
        out[..., :2, :2] = (1.0 - depth * bump)[..., None, None] * OMEGA2
        out[..., 2:, 2:] = OMEGA2
        return out

    return FormField(ModelSpace(4), np.zeros(4), 1.0, eval_fn=eval_fn)


def full_svd_margins(family, pts, ts, sing_tol, cond_cap):
    """Reference margins: one full SVD per (t, point), t = 0 included."""
    oms = family.omega0.matrix + ts[:, None, None, None] * family.omega_bar.omega_many(pts)[None]
    s = np.linalg.svd(oms, compute_uv=False)
    m1 = s[..., -1] / np.maximum(sing_tol * s[..., 0], np.finfo(float).tiny) - 1.0
    m2 = 1.0 - (s[..., 0] / np.maximum(s[..., -1], np.finfo(float).tiny)) / cond_cap
    return np.minimum(m1, m2).min(axis=0)


def block_skew(rng, blocks, scale):
    """Skew matrix zero off the blocks, with Frobenius norm ``scale``."""
    dim = blocks.size
    out = np.zeros((dim, dim))
    for idx in blocks:
        a = rng.standard_normal((len(idx), len(idx)))
        out[np.ix_(idx, idx)] = a - a.T
    return scale * out / np.linalg.norm(out)


def linear_block_field(rng, blocks, scale):
    """x -> sum_k x_k C_k with every C_k zero off the blocks (closedness not needed)."""
    dim = blocks.size
    coeffs = np.stack([block_skew(rng, blocks, scale / np.sqrt(dim)) for _ in range(dim)])

    def eval_fn(pts):
        return np.einsum("...k,kij->...ij", np.asarray(pts, dtype=float), coeffs)

    return FormField(ModelSpace(dim), np.zeros(dim), 1.0, eval_fn=eval_fn, blocks=blocks)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=4),
    size=st.sampled_from([2, 4]),
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    t_grid=st.integers(min_value=2, max_value=11),
    sing_tol=st.floats(min_value=1e-8, max_value=0.9),
    cond_cap=st.floats(min_value=1.01, max_value=1e6),
)
def test_block_margins_match_full_svd(count, size, draw_seed, t_grid, sing_tol, cond_cap):
    rng = np.random.default_rng(draw_seed)
    dim = count * size
    blocks = rng.permutation(dim).reshape(count, size)
    # omega0 has all singular values in [0.7, 1.3] and |omega_bar| <= 0.3 on
    # the unit ball, so every flat has condition number below 4 and the
    # margins are resolved far below the tolerance.
    omega0 = np.zeros((dim, dim))
    for idx in blocks:
        omega0[np.ix_(idx, idx)] = darboux_constant_form(size // 2).matrix
    omega0 += block_skew(rng, blocks, 0.3)
    family = MoserFamily(SkewForm(ModelSpace(dim), omega0), linear_block_field(rng, blocks, 0.3))
    assert family.blocks is not None
    pts = rng.standard_normal((5, dim))
    pts *= rng.random(5)[:, None] / np.linalg.norm(pts, axis=1, keepdims=True)
    ts = np.linspace(0.0, 1.0, t_grid)
    got = moser._validity_margins(family, pts, ts, sing_tol, cond_cap)
    want = full_svd_margins(family, pts, ts, sing_tol, cond_cap)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def record_svd_shapes(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def repeated_block_stack(repeated, signed_zero=False):
    """A (4, 3, 6, 4, 4) stack of (block, t, point) matrices; the blocks in
    ``repeated`` take one matrix per time at every point.  With
    ``signed_zero``, block 2 does too, except for a -0.0 at one point."""
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((4, 3, 6, 4, 4))
    for b in repeated:
        stack[b] = stack[b, :, :1]
    if signed_zero:
        stack[2] = stack[2, :, :1]
        stack[2, :, :, 0, 0] = 0.0
        stack[2, 1, 4, 0, 0] = -0.0
    return stack


@pytest.mark.parametrize("repeated, signed_zero, factored", [
    ((), False, 4 * 3 * 6),
    ((0, 1, 2, 3), False, 4 * 3),
    ((1, 3), False, 2 * 3 + 2 * 3 * 6),
    ((1, 3), True, 2 * 3 + 2 * 3 * 6),
    ((0,), True, 3 + 3 * 3 * 6),
])
def test_a_repeated_block_is_factored_once_with_the_full_svd_values(
        monkeypatch, repeated, signed_zero, factored):
    stack = repeated_block_stack(repeated, signed_zero)
    want = np.linalg.svd(stack, compute_uv=False)
    shapes = record_svd_shapes(monkeypatch)
    smax, smin = moser._block_sigma_range(stack)
    np.testing.assert_array_equal(smax, want[..., 0])
    np.testing.assert_array_equal(smin, want[..., -1])
    # A block that differs only by the sign of a zero is not merged.
    assert sum(int(np.prod(shape[:-2])) for shape in shapes) == factored
    smax, smin = moser._sigma_range(stack)
    np.testing.assert_array_equal(smax, want[..., 0].max(axis=0))
    np.testing.assert_array_equal(smin, want[..., -1].min(axis=0))


def test_block_sigma_range_without_a_point_axis_or_with_one_point(monkeypatch):
    stack = repeated_block_stack((1,))
    parts = (stack[:, 0, 0], stack[:, :, :1])
    wants = [np.linalg.svd(part, compute_uv=False) for part in parts]
    shapes = record_svd_shapes(monkeypatch)
    for part, want in zip(parts, wants):
        smax, smin = moser._block_sigma_range(part)
        np.testing.assert_array_equal(smax, want[..., 0])
        np.testing.assert_array_equal(smin, want[..., -1])
    assert shapes == [(4, 4, 4), (4, 3, 1, 4, 4)]


def test_block_margins_factor_only_blocks(monkeypatch):
    rng = np.random.default_rng(4)
    blocks = np.arange(8).reshape(2, 4)
    family = MoserFamily.darboux_target(linear_block_field(rng, blocks, 0.3), 0.1 * np.ones(8))
    np.testing.assert_array_equal(family.blocks, blocks)
    np.testing.assert_array_equal(family.total_field.blocks, blocks)
    shapes = record_svd_shapes(monkeypatch)
    ts = np.linspace(0.0, 1.0, 6)
    moser._validity_margins(family, rng.random((3, 8)), ts, 1e-8, 1e6)
    moser._validity_margins(family, rng.random((1, 8)), ts, 1e-8, 1e6)
    # The t > 0 blocks of each call, stacked (block, t, point); omega0 once, on first use.
    assert shapes == [(2, 5, 3, 4, 4), (2, 4, 4), (2, 5, 1, 4, 4)]


def test_field_batch_factors_only_blocks_and_matches_dense(monkeypatch):
    rng = np.random.default_rng(12)
    blocks = rng.permutation(8).reshape(2, 4)
    omega0 = np.zeros((8, 8))
    for idx in blocks:
        omega0[np.ix_(idx, idx)] = darboux_constant_form(2).matrix
    omega0 += block_skew(rng, blocks, 0.3)
    family = MoserFamily(SkewForm(ModelSpace(8), omega0), linear_block_field(rng, blocks, 0.3))
    assert family.blocks is not None
    pts = rng.standard_normal((6, 8))
    pts *= rng.random(6)[:, None] / np.linalg.norm(pts, axis=1, keepdims=True)
    t = 0.7
    # Dense reference, with a cap that splits the batch into valid and invalid points.
    oms = family.omega0.matrix + t * family.omega_bar.omega_many(pts)
    s = np.linalg.svd(oms, compute_uv=False)
    kappa = s[:, 0] / s[:, -1]
    cond_cap = float(np.median(kappa))
    want_ok = (s[:, -1] > 1e-8 * s[:, 0]) & (kappa < cond_cap)
    assert 0 < np.count_nonzero(want_ok) < len(pts)
    alphas = np.array([radial_primitive(family.omega_bar, x) for x in pts])
    want_vel = -np.linalg.solve(np.swapaxes(oms, -1, -2), alphas[..., None])[..., 0]

    shapes = record_svd_shapes(monkeypatch)
    vel, ok = moser._field_batch(family, t, pts, cond_cap, 1e-8)
    # a float is a grid of one time: (block, t, point)
    assert shapes == [(2, 1, 6, 4, 4)]
    np.testing.assert_array_equal(ok, want_ok)
    np.testing.assert_allclose(vel[ok], want_vel[ok], rtol=1e-12, atol=1e-12)


def test_field_batch_over_a_time_grid_equals_per_time_calls():
    rng = np.random.default_rng(13)
    blocks = rng.permutation(8).reshape(2, 4)
    omega0 = np.zeros((8, 8))
    for idx in blocks:
        omega0[np.ix_(idx, idx)] = darboux_constant_form(2).matrix
    family = MoserFamily(SkewForm(ModelSpace(8), omega0), linear_block_field(rng, blocks, 0.6))
    assert family.blocks is not None
    pts = rng.standard_normal((7, 8))
    pts *= rng.random(7)[:, None] / np.linalg.norm(pts, axis=1, keepdims=True)
    ts = np.linspace(0.0, 1.0, 5)
    # A cap at the median condition number of the t = 1 flats: both verdicts occur.
    s = np.linalg.svd(omega0 + family.omega_bar.omega_many(pts), compute_uv=False)
    cond_cap = float(np.median(s[:, 0] / s[:, -1]))
    args = (cond_cap, moser.SING_TOL)
    vel, ok = moser._field_batch(family, ts, pts, *args)
    assert vel.shape == (5, 7, 8) and ok.shape == (5, 7)
    assert ok.any() and not ok.all()
    for k, t in enumerate(ts):
        want_vel, want_ok = moser._field_batch(family, t, pts, *args)
        np.testing.assert_array_equal(vel[k], want_vel)
        np.testing.assert_array_equal(ok[k], want_ok)


def test_condition_number_at_the_cap_is_invalid_on_every_path():
    # omega0 = J + J / 1024: powers of two make the condition number exactly 1024.
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = OMEGA2
    matrix[2:, 2:] = OMEGA2 / 1024.0
    family = MoserFamily(SkewForm(ModelSpace(4), matrix), constant_field(np.zeros((4, 4)), dim=4))
    assert family.omega0_sigma_range == (1.0, 1.0 / 1024.0)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    for cap, valid in ((1024.0, False), (np.nextafter(1024.0, np.inf), True)):
        assert (validity_radius(family, x, cond_cap=cap) > 0.0) is valid
        _, ok = moser._field_batch(family, 0.5, x[None, :], cap, moser.SING_TOL)
        assert bool(ok[0]) is valid
        kumar = uniform_bound_check([family], K=4.0, cond_cap=cap).per_level[0].kumar
        assert kumar == (0.0 if valid else float("inf"))


def test_block_margins_fall_back_when_omega0_couples_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    blocks = np.arange(8).reshape(2, 4)
    bar = linear_block_field(rng, blocks, 0.3)
    omega0 = darboux_constant_form(4).matrix  # pairs coordinate k with k + 4
    family = MoserFamily(SkewForm(ModelSpace(8), omega0), bar)
    assert family.blocks is None
    assert family.total_field.blocks is None
    assert bar.shifted(np.zeros(8), omega0).blocks is None
    shapes = record_svd_shapes(monkeypatch)
    pts = 0.5 * rng.random((4, 8)) / np.sqrt(8)
    ts = np.linspace(0.0, 1.0, 5)
    got = moser._validity_margins(family, pts, ts, 1e-8, 1e6)
    assert all(shape[-2:] == (8, 8) for shape in shapes)
    np.testing.assert_allclose(got, full_svd_margins(family, pts, ts, 1e-8, 1e6),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["constant", "eval"])
@pytest.mark.parametrize("coupled", [False, True], ids=["blocks-kept", "blocks-dropped"])
def test_total_field_is_omega0_plus_omega_bar_exactly(kind, coupled):
    rng = np.random.default_rng(8)
    blocks = np.arange(8).reshape(2, 4)
    if kind == "constant":
        bar = replace(constant_field(block_skew(rng, blocks, 0.3), dim=8, radius=1.0),
                      blocks=blocks)
    else:
        bar = linear_block_field(rng, blocks, 0.3)
    if coupled:
        omega0 = darboux_constant_form(4).matrix  # pairs coordinate k with k + 4
    else:
        omega0 = block_skew(rng, blocks, 2.0)
    family = MoserFamily(SkewForm(ModelSpace(8), omega0), bar)
    pts = 0.5 * rng.standard_normal((5, 8)) / np.sqrt(8)
    total = family.total_field
    np.testing.assert_array_equal(total.omega_many(pts), omega0 + bar.omega_many(pts))
    np.testing.assert_array_equal(total.center, bar.center)
    assert total.radius == bar.radius
    if coupled:
        assert total.blocks is None
    else:
        np.testing.assert_array_equal(total.blocks, blocks)


def test_form_field_blocks_are_checked():
    bar = linear_block_field(np.random.default_rng(6), np.arange(8).reshape(2, 4), 0.3)
    for bad in ([[0, 1, 2], [3, 4, 5, 6, 7]], [[0, 1, 2, 3], [3, 4, 5, 6]], [[0, 1, 2, 3]]):
        with pytest.raises(ValueError, match="partition"):
            FormField(bar.space, bar.center, 1.0, eval_fn=bar.eval_fn, blocks=bad)
    coupled = darboux_constant_form(4)
    with pytest.raises(ValueError, match="zero off its blocks"):
        replace(FormField.constant(coupled, np.zeros(8), 1.0),
                blocks=[[0, 1, 2, 3], [4, 5, 6, 7]])


@pytest.mark.parametrize("bad", [
    [[0.5, 1.0]], [[1.9, 0.2]], [[True, False]], [["0", "1"]],
], ids=["half", "truncates-to-a-partition", "bools", "strings"])
def test_form_field_blocks_refuse_entries_that_are_not_integers(bad):
    # Each would truncate or convert to the partition [[0, 1]] of range(2).
    with pytest.raises(ValueError, match="partition"):
        moser._constant_field(ModelSpace(2), np.zeros(2), 1.0, np.zeros((2, 2)), bad)
    for good in ([[0, 1]], np.array([[1, 0]], dtype=np.uint8)):
        kept = moser._constant_field(ModelSpace(2), np.zeros(2), 1.0, np.zeros((2, 2)), good).blocks
        assert kept.dtype == int and not kept.flags.writeable


def test_golden_min_brackets_like_fifty_ternary_rounds():
    calls = []

    def vee(r):
        calls.append(r)
        return abs(r - 0.3) + 1.0

    r, value = moser._golden_min(vee, 0.0, 1.0)
    assert len(calls) == GOLDEN_EVALS == 44
    assert abs(r - 0.3) <= (2.0 / 3.0) ** 50
    assert value == vee(r)

    calls.clear()
    r, value = moser._golden_min(lambda x: vee(x) - 1.01, 0.0, 1.0)
    assert value <= 0.0 and value == vee(r) - 1.01
    assert len(calls) < 10  # stops at the first failing point


def probing(monkeypatch, name: str, probes: list) -> None:
    """Record every margin that moser.<name> reads through its margin function."""
    search = getattr(moser, name)

    def recording(margin_fn, *args):
        def counted(r):
            probes.append(margin_fn(r))
            return probes[-1]

        return search(counted, *args)

    monkeypatch.setattr(moser, name, recording)


def test_validity_radius_dip_search_probe_count(monkeypatch):
    """Each dip that does not cross zero costs exactly GOLDEN_EVALS single-radius probes."""
    family = MoserFamily.darboux_target(dip_field(), np.zeros(4))
    probes, bisected = [], []
    probing(monkeypatch, "_golden_min", probes)
    probing(monkeypatch, "_bisect_crossing", bisected)
    marches = recorded_marches(monkeypatch)
    r = validity_radius(family, np.zeros(4), cond_cap=4.0)
    assert r == pytest.approx(1.0)
    assert min(probes) > 0.0  # the dip never crosses zero
    assert len(marches) == 24  # 8 axis rays and 16 random ones
    dips = []
    for m in marches:
        interior = np.arange(1, len(m) - 1)
        local = (m[interior] < m[interior - 1]) & (m[interior] < m[interior + 1])
        dips.append(min(int(np.count_nonzero(local)), 4))
    chased = sum(dips)
    assert chased >= 16
    # the ternary search took 101 per dip; no dip is bisected
    assert len(probes) == GOLDEN_EVALS * chased
    assert not bisected


# ---------------------------------------------------------------------------
# flow and chart verification
# ---------------------------------------------------------------------------


def test_moser_flow_zero_bar_short_circuits_to_identity():
    omega0 = darboux_constant_form(2)
    family = MoserFamily(omega0, constant_field(np.zeros((4, 4)), dim=4))
    report = moser_flow(family, np.zeros(4), 1.5)
    assert report.steps == 0
    assert report.chart_radius == 1.5
    assert report.pullback_residual == 0.0
    pt = np.array([0.3, -0.2, 0.1, 0.4])
    np.testing.assert_array_equal(report.chart(pt), pt)


def test_moser_flow_zero_bar_keeps_the_validity_rule():
    # omega0 = J + 1e-7 J has condition number 1e7 > COND_CAP: no point is valid.
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = OMEGA2
    matrix[2:, 2:] = 1e-7 * OMEGA2
    family = MoserFamily(SkewForm(ModelSpace(4), matrix), constant_field(np.zeros((4, 4)), dim=4))
    assert validity_radius(family, np.zeros(4)) == 0.0
    with pytest.raises(ValueError, match="r_start 0.5 exceeds the validity radius 0$"):
        moser_flow(family, np.zeros(4), 0.5)
    # Valid under a looser cap: the radius is the room left in the region.
    assert moser_flow(family, np.zeros(4), 0.5, cond_cap=1e8).validity_radius == 4.0


def test_moser_flow_quadratic_perturbation_builds_chart():
    field = quadratic_perturbation_field(4, 0.05, seed=7)
    family = MoserFamily.darboux_target(field, np.zeros(4))
    report = moser_flow(
        family, np.zeros(4), 0.5, dt=0.02, verify_samples=8
    )
    assert report.fixed_point_error <= 1e-12
    assert report.chart_radius == pytest.approx(0.5)
    assert 0.0 < report.pullback_residual <= 1e-4
    assert report.lipschitz_estimate > 0.0


def test_moser_flow_is_reversible():
    field = quadratic_perturbation_field(4, 0.05, seed=7)
    family = MoserFamily.darboux_target(field, np.zeros(4))
    rng = np.random.default_rng(11)
    pts = 0.3 * rng.standard_normal((6, 4))
    args = (moser.COND_CAP, moser.SING_TOL)
    fwd, alive, _ = moser._integrate(family, pts, 50, 0.0, 1.0, *args)
    assert alive.all()
    back, alive2, _ = moser._integrate(family, fwd, 50, 1.0, 0.0, *args)
    assert alive2.all()
    np.testing.assert_allclose(back, pts, atol=1e-5)


def test_moser_flow_records_trajectories():
    field = quadratic_perturbation_field(4, 0.05, seed=7)
    family = MoserFamily.darboux_target(field, np.zeros(4))
    report = moser_flow(family, np.zeros(4), 0.4, dt=0.1, record_trajectories=True,
                        verify_samples=0)
    assert report.trajectories is not None
    n_seeds = report.seed_points.shape[0]
    assert report.trajectories.shape == (n_seeds, report.steps + 1, 4)


def test_moser_flow_rejects_r_start_beyond_validity():
    family = MoserFamily.darboux_target(sphere_degenerating_field(0.8), np.zeros(4))
    with pytest.raises(ValueError, match="validity radius"):
        moser_flow(family, np.zeros(4), 0.9, dt=0.05,
                   closed_tol=np.inf)


def test_moser_flow_rejects_non_closed_family():
    base = darboux_constant_form(2).matrix

    def eval_fn(pts):
        pts = np.asarray(pts, dtype=float)
        return (1.0 + pts[..., 0])[..., None, None] * base - base

    field = FormField(ModelSpace(4), np.zeros(4), 0.5, eval_fn=eval_fn)
    family = MoserFamily(darboux_constant_form(2), field)
    with pytest.raises(ValueError, match="not closed"):
        moser_flow(family, np.zeros(4), 0.2, dt=0.05)


def test_moser_flow_no_chart_when_base_trajectory_escapes():
    # the primitive is anchored at the region center, so an off-center base
    # point drifts; this family expands it through the region boundary
    omega0 = darboux_constant_form(1)
    family = MoserFamily(omega0, constant_field(-0.5 * OMEGA2, radius=1.0))
    with pytest.raises(ChartConstructionError, match="no chart"):
        moser_flow(
            family, np.array([0.9, 0.0]), 0.05, dt=0.02
        )


def test_moser_flow_lipschitz_guard(monkeypatch):
    field = quadratic_perturbation_field(4, 60.0, seed=3, radius=1.0)
    family = MoserFamily.darboux_target(field, np.zeros(4))
    monkeypatch.setattr(moser, "validity_radius", lambda *args, **kwargs: 0.45)
    with pytest.raises(StabilityError, match="Lipschitz"):
        moser_flow(family, np.zeros(4), 0.45, dt=0.5, closed_tol=np.inf)


@pytest.mark.parametrize("tolerance", [{"cond_cap": 1.05}, {"sing_tol": 0.95}])
def test_moser_flow_integrates_under_its_own_tolerances(tolerance, monkeypatch):
    # The flats' condition number reaches 1.06 at r = 0.3 and 1.08 at r = 0.4.
    # With the validity radius stubbed to r_start, only the integrator's
    # liveness test can shrink the chart, and the chart's own re-integration
    # must agree.
    family = MoserFamily.darboux_target(
        quadratic_perturbation_field(4, 0.05, seed=7), np.zeros(4)
    )
    monkeypatch.setattr(moser, "validity_radius", lambda *args, **kwargs: 0.4)
    runs = {
        name: moser_flow(family, np.zeros(4), 0.4, dt=0.05, verify_samples=4, **kw)
        for name, kw in (("default", {}), ("tight", tolerance))
    }
    probes = 0.39 * np.eye(4)
    assert runs["default"].chart_radius == pytest.approx(0.4)
    assert runs["default"].chart.map_points(probes)[1].all()
    assert runs["tight"].chart_radius == pytest.approx(0.2)
    assert not runs["tight"].chart.map_points(probes)[1].all()


def test_verify_darboux_chart_identity_cases():
    omega0 = darboux_constant_form(1)
    # 0 RK4 steps over a zero difference field: the identity chart on the unit ball.
    family = MoserFamily(omega0, constant_field(np.zeros((2, 2))))
    identity = moser.ChartMap(family, np.zeros(2), 1.0, 0, moser.COND_CAP, moser.SING_TOL)
    field = constant_field(OMEGA2)
    report = verify_darboux_chart(identity, field, omega0, samples=10, tol=1e-9)
    assert report.ok
    assert report.residual <= 1e-10
    assert report.used == 10

    offset = OMEGA2 + 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    shifted = constant_field(offset)
    report = verify_darboux_chart(identity, shifted, omega0, samples=5, tol=1e-9)
    assert not report.ok
    assert report.residual == pytest.approx(IDENTITY_OFFSET_RESIDUAL)


# ---------------------------------------------------------------------------
# uniform bounds and assembly
# ---------------------------------------------------------------------------


def test_uniform_bound_check_darboux_levels():
    families = []
    for _ in range(3):
        omega0 = darboux_constant_form(2)
        families.append(
            MoserFamily(omega0, constant_field(np.zeros((4, 4)), dim=4))
        )
    report = uniform_bound_check(families, K=1.01)
    assert report.forward_ok and report.inverse_ok and report.kumar_ok
    for row in report.per_level:
        assert row.forward == pytest.approx(1.0)
        assert row.inverse == pytest.approx(1.0)
        assert row.kumar == 0.0


def test_uniform_bound_check_detects_inverse_growth():
    families = []
    for k in range(1, 4):
        matrix = np.zeros((4, 4))
        matrix[:2, :2] = OMEGA2
        matrix[2:, 2:] = OMEGA2 / k**2
        omega0 = SkewForm(ModelSpace(4), matrix)
        families.append(MoserFamily(omega0, constant_field(np.zeros((4, 4)), dim=4)))
    report = uniform_bound_check(families, K=4.0)
    assert report.forward_ok
    assert not report.inverse_ok
    inverses = [row.inverse for row in report.per_level]
    assert inverses == pytest.approx([1.0, 4.0, 9.0])
    # enlarging K can only relax the verdicts
    relaxed = uniform_bound_check(families, K=100.0)
    assert relaxed.forward_ok and relaxed.inverse_ok and relaxed.kumar_ok


def test_uniform_bound_check_zero_field_factors_one_matrix_per_level(monkeypatch):
    families = [
        MoserFamily(darboux_constant_form(2), constant_field(np.zeros((4, 4)), dim=4))
        for _ in range(3)
    ]
    shapes = record_svd_shapes(monkeypatch)
    report = uniform_bound_check(families, K=1.01)
    assert report.forward_ok and report.inverse_ok and report.kumar_ok
    assert [(r.forward, r.inverse, r.kumar) for r in report.per_level] == [(1.0, 1.0, 0.0)] * 3
    # omega0, once, for the operator norms and for kumar
    assert sum(int(np.prod(shape[:-2])) for shape in shapes) == len(families)


@pytest.mark.parametrize("kind", ["gram", "blocks"])
def test_uniform_bound_check_zero_field_with_a_gram_or_blocks_factors_its_flat(monkeypatch, kind):
    omega0 = darboux_constant_form(2).matrix
    if kind == "gram":
        space, blocks = ModelSpace(4, gram=np.diag([1.0, 4.0, 1.0, 4.0])), None
    else:
        space, blocks = ModelSpace(4), np.array([[0, 2], [1, 3]])
    zero = moser._constant_field(space, np.zeros(4), 4.0, np.zeros((4, 4)), blocks)
    family = MoserFamily(SkewForm(space, omega0), zero)
    assert (family.blocks is None) == (kind == "gram")
    shapes = record_svd_shapes(monkeypatch)
    (row,) = uniform_bound_check([family], K=4.0).per_level
    if kind == "gram":
        # the gram-normalized flat, whole, and omega0 for kumar
        assert shapes[0] == (1, 4, 4) and len(shapes) == 2
    else:
        # omega0's cached blocks, for the operator norms and for kumar
        assert shapes == [(2, 2, 2)]
    flat = omega0.T if kind == "blocks" else space.gram_inv_sqrt @ omega0.T @ space.gram_inv_sqrt
    s = np.linalg.svd(flat, compute_uv=False)
    assert (row.forward, row.inverse, row.kumar) == (s[0], 1.0 / s[-1], 0.0)


@pytest.mark.parametrize(
    "scale, inverse",
    [(0.0, float("inf")), (1e-10, 1e10), (1e-7, 1e7)],
    ids=["exactly-singular", "singular-below-sing-tol", "above-cond-cap"],
)
def test_uniform_bound_check_zero_field_with_singular_omega0(scale, inverse):
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = OMEGA2
    matrix[2:, 2:] = scale * OMEGA2
    family = MoserFamily(SkewForm(ModelSpace(4), matrix), constant_field(np.zeros((4, 4)), dim=4))
    report = uniform_bound_check([family], K=4.0)
    (row,) = report.per_level
    assert row.forward == 1.0
    assert row.inverse == pytest.approx(inverse, rel=1e-12)
    assert row.kumar == float("inf")
    assert report.forward_ok and not report.inverse_ok and not report.kumar_ok


def test_uniform_bound_check_kumar_factors_only_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    blocks = np.arange(8).reshape(2, 4)
    family = MoserFamily.darboux_target(linear_block_field(rng, blocks, 0.3), np.zeros(8))
    unblocked = MoserFamily(family.omega0, replace(family.omega_bar, blocks=None))
    assert unblocked.blocks is None
    want = uniform_bound_check([unblocked], K=4.0)
    shapes = record_svd_shapes(monkeypatch)
    got = uniform_bound_check([family], K=4.0)
    assert got == want
    # blocks only, one stack each, with t = 0 served from omega0's blocks,
    # factored once per family.  The difference field vanishes at the base
    # point, so there each block repeats at every t > 0 and is factored once.
    samples = 1 + moser.KUMAR_SAMPLES
    assert shapes == [(2, 1, 4, 4), (2, 4, 4), (2, moser.T_GRID - 1, samples, 4, 4)]


def random_block_family(rng, blocked, offset=0.0):
    """omega0 a Darboux block plus noise on each of two 4-blocks of R^8, and
    a linear difference field zero off them, plus a constant skew term of
    norm ``offset``, declared blocked or not."""
    blocks = rng.permutation(8).reshape(2, 4)
    omega0 = np.zeros((8, 8))
    for idx in blocks:
        omega0[np.ix_(idx, idx)] = darboux_constant_form(2).matrix
    omega0 += block_skew(rng, blocks, 0.3)
    bar = linear_block_field(rng, blocks, 0.6)
    if offset:
        bar = bar.shifted(bar.center, -block_skew(rng, blocks, offset))
    family = MoserFamily(SkewForm(ModelSpace(8), omega0), bar if blocked else replace(bar, blocks=None))
    assert (family.blocks is not None) == blocked
    return family


@pytest.mark.parametrize("blocked", [True, False], ids=["blocks", "dense"])
@pytest.mark.parametrize("ts", [
    np.linspace(0.0, 1.0, 5), np.linspace(0.25, 1.0, 4), np.array([0.0]), np.array([0.7]),
], ids=["grid-from-0", "grid-past-0", "t-0", "t-0.7"])
def test_flat_sigma_range_matches_a_dense_svd(blocked, ts):
    rng = np.random.default_rng(14)
    family = random_block_family(rng, blocked)
    pts = rng.standard_normal((5, 8))
    pts *= rng.random(5)[:, None] / np.linalg.norm(pts, axis=1, keepdims=True)
    # A stack of points, and the one base-point value uniform_bound_check reads.
    for bar in (family.omega_bar.omega_many(pts), family.omega_bar.omega(pts[0])):
        smax, smin = moser._flat_sigma_range(family, ts, bar)
        times = ts.reshape((-1,) + (1,) * bar.ndim)
        s = np.linalg.svd(family.omega0.matrix + times * bar, compute_uv=False)
        assert smax.shape == smin.shape == (len(ts),) + bar.shape[:-2]
        np.testing.assert_allclose(smax, s[..., 0], rtol=1e-12)
        np.testing.assert_allclose(smin, s[..., -1], rtol=1e-12)


@pytest.mark.parametrize("blocked", [True, False], ids=["blocks", "dense"])
def test_a_nonzero_field_level_factors_omega0_once_for_radius_and_bounds(monkeypatch, blocked):
    rng = np.random.default_rng(15)
    # The offset keeps the difference field off zero at every point these
    # calls sample, so only t = 0 meets omega0.
    family = random_block_family(rng, blocked, offset=0.2)
    omega0 = family.omega0.matrix
    pieces = moser._diagonal_blocks(omega0, family.blocks)
    pieces = [omega0, omega0.T, *pieces, *np.swapaxes(pieces, -1, -2)]
    factored = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        a = np.asarray(a)
        factored.extend(a.reshape((-1,) + a.shape[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    r, witness = validity_radius(family, family.base_point, return_witness=True)
    assert r > 0.0
    uniform_bound_check([family], K=4.0, witnesses=[witness])
    meets = sum(any(m.shape == p.shape and np.array_equal(m, p) for p in pieces)
                for m in factored)
    # omega0 once, as its blocks or whole, for the validity search, the
    # operator norms, the witness and the kumar ball together
    assert meets == len(moser._diagonal_blocks(omega0, family.blocks))


def test_uniform_bound_check_reads_its_cond_cap():
    # condition number 1e7: rejected under COND_CAP, accepted under 1e8
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = OMEGA2
    matrix[2:, 2:] = 1e-7 * OMEGA2
    family = MoserFamily(SkewForm(ModelSpace(4), matrix), constant_field(np.zeros((4, 4)), dim=4))
    report = uniform_bound_check([family], K=4.0, cond_cap=1e8)
    assert report.per_level[0].kumar == 0.0 and report.kumar_ok


def coordinate_tower(dims):
    levels = [ModelSpace(d) for d in dims]
    bondings = [
        LinearMap(
            levels[i + 1],
            levels[i],
            np.hstack([np.eye(dims[i]), np.zeros((dims[i], dims[i + 1] - dims[i]))]),
        )
        for i in range(len(dims) - 1)
    ]
    return build_tower(levels, bondings)


def test_assemble_constant_radii_passes():
    tower = coordinate_tower([2, 4, 6])
    out = assemble_projective_darboux([0.5] * 3, tower, min_radius=0.3)
    assert out.ok
    assert out.limiting_radius_by_level == pytest.approx((0.5, 0.5, 0.5))
    assert "retain" in out.diagnosis


def test_assemble_detects_power_law_decay():
    tower = coordinate_tower([2, 4, 6, 8, 10])
    radii = [1.25 / n for n in range(1, 6)]
    out = assemble_projective_darboux(radii, tower, min_radius=0.3)
    assert not out.ok
    assert out.limiting_radius_by_level[0] == pytest.approx(0.25)
    assert out.fitted_exponent == pytest.approx(-1.0, abs=1e-6)
    assert "decay" in out.diagnosis


def test_assemble_holds_one_composite_at_a_time():
    # The 28-level product control, whose whole composite triangle is 9.6 MiB.
    tower, _ = make_product_tower([darboux_constant_form(2)] * 28)
    radii = [1.0 / n for n in range(1, 29)]
    tracemalloc.start()
    try:
        out = assemble_projective_darboux(radii, tower, min_radius=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert out.limiting_radius_by_level[0] == 1.0 / 28


def test_assemble_single_level_and_missing_report():
    tower = coordinate_tower([2])
    out = assemble_projective_darboux([0.1], tower, min_radius=0.05)
    assert out.ok
    assert out.fitted_exponent is None
    with pytest.raises(ValueError, match="missing level radius"):
        assemble_projective_darboux([], tower, min_radius=0.05)
