"""Acceptance gate: one test per advertised guarantee, with runtime budgets.

Each test prints a single ``criterion N: PASS/FAIL`` line summarizing the
checks it ran, then asserts them.  The two long experiments run once inside
the session fixtures of ``conftest.py``; the determinism criterion reuses the
same output trees.
"""

import json
import time

import numpy as np
import pytest

from symptower.linalg import (
    ModelSpace,
    SkewForm,
    Subspace,
    LinearMap,
    check_weak_isometry,
    check_weak_nondegenerate,
    column_spaces_equal,
    darboux_constant_form,
    matrix_rank,
    null_space_basis,
    orthonormal_columns,
    pullback_form,
    symplectic_orthogonal,
    weakness_conditioning,
)
from symptower.tower import (
    FormSequence,
    Tower,
    block_decompose,
    build_tower,
    check_compatible_sequence,
)
from symptower.models import (
    MarsdenSpec,
    make_loop_tower,
    make_marsden_field,
    make_product_tower,
    make_quadratic_field,
)
from symptower.moser import (
    FormField,
    MoserFamily,
    assemble_projective_darboux,
    moser_flow,
    radial_primitive,
)

from isometry_chains import isometry_step, random_form, random_orthogonal

TOL = 1e-10


def _verdict(number: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    print("criterion %d: %s (%s)" % (number, "PASS" if ok else "FAIL", label))
    failed = sorted(name for name, good in checks.items() if not good)
    assert ok, "criterion %d failed: %s" % (number, failed)


def _random_subspace(rng, space: ModelSpace, k: int) -> Subspace:
    if k == 0:
        return Subspace.zero(space)
    return Subspace(space, orthonormal_columns(rng.normal(size=(space.dim, k))))


def _intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    null = null_space_basis(np.hstack([a.basis, -b.basis]))
    if null.shape[1] == 0:
        return Subspace.zero(a.ambient)
    return Subspace(a.ambient, orthonormal_columns(a.basis @ null[: a.dim]))


def test_criterion_1_linear_algebra_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = {"skew": 0.0}
    all_ok = True
    for _ in range(500):
        half = int(rng.integers(1, 9))
        space = ModelSpace(2 * half)
        form = random_form(rng, space)

        src = ModelSpace(int(rng.integers(1, 17)))
        pulled = pullback_form(
            LinearMap(src, space, rng.normal(size=(space.dim, src.dim))), form
        )
        worst["skew"] = max(worst["skew"], float(np.abs(pulled.matrix + pulled.matrix.T).max()))

        k = _random_subspace(rng, space, int(rng.integers(0, space.dim + 1)))
        kp = _random_subspace(rng, space, int(rng.integers(0, space.dim + 1)))
        perp = symplectic_orthogonal(form, k, TOL)
        all_ok &= symplectic_orthogonal(form, perp, TOL).equals(k, TOL)
        stacked = np.hstack([k.basis, kp.basis])
        joint = (
            Subspace(space, orthonormal_columns(stacked))
            if stacked.shape[1]
            else Subspace.zero(space)
        )
        lhs = symplectic_orthogonal(form, joint, TOL)
        rhs = _intersect(perp, symplectic_orthogonal(form, kp, TOL))
        all_ok &= lhs.equals(rhs, TOL)

        base_half = int(rng.integers(1, 4))
        base = ModelSpace(2 * base_half)
        form0 = random_form(rng, base)
        map1, form1 = isometry_step(rng, base, form0, int(rng.integers(0, 3)))
        map2, form2 = isometry_step(rng, map1.source, form1, int(rng.integers(0, 3)))
        rep1 = check_weak_isometry(map1, form1, form0, TOL, TOL)
        all_ok &= rep1.ok and rep1.pullback_residual <= TOL
        all_ok &= column_spaces_equal(
            null_space_basis(pullback_form(map1, form0).matrix, TOL),
            null_space_basis(map1.matrix, TOL),
            TOL,
        )
        composite = map1.compose(map2)
        rep = check_weak_isometry(composite, form2, form0, TOL, TOL)
        all_ok &= rep.ok and rep.pullback_residual <= TOL
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "500 instances, dims <= 16, tol 1e-10, %.1fs" % elapsed,
        {
            "skewness preserved under pullback": worst["skew"] <= TOL,
            "double orthogonal, de Morgan, kernels, composition": bool(all_ok),
            "runtime under 10s": elapsed < 10.0,
        },
    )


def _conjugated_product(rng, factor_forms, rotations):
    """Product tower rewritten in per-level rotated coordinates."""
    tower, fs = make_product_tower(factor_forms)
    plain = [ModelSpace(lv.dim) for lv in tower.levels]
    bondings = [
        LinearMap(
            plain[i + 1],
            plain[i],
            rotations[i].T @ tower.bondings[i].matrix @ rotations[i + 1],
        )
        for i in range(tower.depth)
    ]
    conj = build_tower(plain, bondings)
    forms = [
        SkewForm(plain[i], rotations[i].T @ fs.forms[i].matrix @ rotations[i])
        for i in range(tower.depth + 1)
    ]
    return conj, FormSequence(conj, forms)


def _brute_blocks(tower: Tower, forms, level: int) -> list:
    """Direct kernel / symplectic-orthogonal recursion, plain matrix calls."""
    if level == 0:
        return [np.eye(tower.levels[0].dim)]
    bonding = tower.bondings[level - 1].matrix
    ker = null_space_basis(bonding, TOL)
    kperp = null_space_basis(ker.T @ forms[level].matrix, TOL)
    on_complement = bonding @ kperp
    lifted = [
        orthonormal_columns(kperp @ np.linalg.solve(on_complement, blk), TOL)
        for blk in _brute_blocks(tower, forms, level - 1)
    ]
    lifted.append(ker)
    return lifted


def test_criterion_2_block_decomposition_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240818)
    all_ok = True
    for depth in (1, 2, 3, 4, 5):
        factors = [
            random_form(rng, ModelSpace(2 * int(rng.integers(1, 3))))
            for _ in range(depth + 1)
        ]
        tower, fs = make_product_tower(factors)
        decomp = block_decompose(fs, 0, depth, TOL)

        offsets = np.cumsum([0] + [f.space.dim for f in factors])
        top = tower.levels[depth]
        for h, block in enumerate(decomp.blocks):
            slot = np.eye(top.dim)[:, offsets[h] : offsets[h + 1]]
            all_ok &= block.equals(Subspace(top, slot), TOL)

        rotations = [random_orthogonal(rng, lv.dim) for lv in tower.levels]
        conj, cfs = _conjugated_product(rng, factors, rotations)
        cdec = block_decompose(cfs, 0, depth, TOL)
        for h, block in enumerate(cdec.blocks):
            slot = rotations[depth].T @ np.eye(top.dim)[:, offsets[h] : offsets[h + 1]]
            all_ok &= block.equals(Subspace(conj.levels[depth], slot), TOL)

        for low in range(depth):
            comp = conj.composite(low, depth).matrix
            kernel_side = np.hstack([b.basis for b in cdec.blocks[low + 1 :]])
            all_ok &= column_spaces_equal(null_space_basis(comp, TOL), kernel_side, TOL)
            carried = np.hstack([b.basis for b in cdec.blocks[: low + 1]])
            image = comp @ carried
            all_ok &= matrix_rank(image, TOL) == conj.levels[low].dim == carried.shape[1]
            low_dec = block_decompose(cfs, 0, low, TOL)
            for h, block in enumerate(cdec.blocks):
                mapped = comp @ block.basis
                if h <= low:
                    all_ok &= column_spaces_equal(
                        orthonormal_columns(mapped, TOL), low_dec.blocks[h].basis, TOL
                    )
                else:
                    all_ok &= float(np.abs(mapped).max()) <= TOL

        brute = _brute_blocks(conj, cfs.forms, depth)
        for got, expect in zip(cdec.blocks, brute):
            all_ok &= got.equals(Subspace(conj.levels[depth], expect), TOL)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "product towers depth <= 5, %.1fs" % elapsed,
        {
            "factor blocks and kernel-chain identities": bool(all_ok),
            "runtime under 5s": elapsed < 5.0,
        },
    )


def _fd_exterior_derivative(field: FormField, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    dim = x.size
    grad = np.empty((dim, dim))
    for i in range(dim):
        step = np.zeros(dim)
        step[i] = h
        grad[i] = (radial_primitive(field, x + step) - radial_primitive(field, x - step)) / (
            2.0 * h
        )
    return grad - grad.T


def test_criterion_3_radial_primitive_differentiates_back():
    t0 = time.perf_counter()
    fields = [
        make_quadratic_field(2, 0.3, seed=0, radius=2.0),
        make_quadratic_field(2, 0.05, seed=1, radius=1.5),
        make_quadratic_field(3, 0.2, seed=2, radius=2.0),
        make_quadratic_field(3, 0.6, seed=3, radius=1.0),
        make_marsden_field(MarsdenSpec(d=2, a=(1.0, 0.0))),
    ]
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for field in fields:
        dim = field.space.dim
        raw = rng.normal(size=(200, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        pts = field.center + raw * (
            0.8 * field.radius * rng.uniform(size=(200, 1)) ** (1.0 / dim)
        )
        for x in pts:
            defect = np.abs(_fd_exterior_derivative(field, x) - field.omega(x)).max()
            worst = max(worst, float(defect))
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "5 closed fields, 200 points each, max defect %.2e, %.1fs" % (worst, elapsed),
        {
            "finite-difference d(primitive) matches the field at 1e-6": worst <= 1e-6,
            "runtime under 30s": elapsed < 30.0,
        },
    )


def test_criterion_4_darboux_chart_on_perturbed_form(moser_runs):
    t0 = time.perf_counter()
    report = json.loads((moser_runs.dirs[0] / "report.json").read_text())
    body = report["report"]

    field = make_quadratic_field(2, 0.05, seed=7, radius=1.0)
    family = MoserFamily.darboux_target(field, np.zeros(4))
    coarse = {
        dt: moser_flow(
            family, np.zeros(4), 0.9, dt=dt, seed=0
        ).pullback_residual
        for dt in (0.5, 0.25)
    }
    ratio = coarse[0.5] / coarse[0.25]
    elapsed = moser_runs.durations[0] + (time.perf_counter() - t0)
    _verdict(
        4,
        "residual %.2e at dt 1e-3, halving gain %.1fx, %.1fs"
        % (body["pullback_residual"], ratio, elapsed),
        {
            "run exits clean": moser_runs.codes[0] == 0 and report["passed"] is True,
            "pullback residual at dt 1e-3 within 1e-5": body["pullback_residual"] <= 1e-5,
            "halving dt improves residual by at least 8x": ratio >= 8.0,
            "base point fixed to 1e-8": body["fixed_point_error"] <= 1e-8,
            "runtime under 60s": elapsed < 60.0,
        },
    )


def test_criterion_5_product_tower_keeps_uniform_charts():
    t0 = time.perf_counter()
    tower, fs = make_product_tower([darboux_constant_form(1) for _ in range(10)])
    compat = check_compatible_sequence(fs)
    reports = []
    full_balls = True
    for level, form in enumerate(fs.forms):
        field = FormField.constant(form, np.zeros(form.space.dim), 1.0)
        rep = moser_flow(
            MoserFamily.darboux_target(field, np.zeros(form.space.dim)),
            np.zeros(form.space.dim),
            1.0,
        )
        full_balls &= rep.chart_radius == 1.0 and rep.validity_radius == 1.0
        reports.append(rep)
    assembly = assemble_projective_darboux([rep.chart_radius for rep in reports], tower, 0.5)
    fitted = 0.0 if assembly.fitted_exponent is None else assembly.fitted_exponent
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "10 constant factors, fitted exponent %.3f, %.1fs" % (fitted, elapsed),
        {
            "sequence compatible": compat.ok,
            "per-level charts are full balls": full_balls,
            "assembly succeeds": assembly.ok,
            "radii constant across levels": abs(fitted) <= 0.05,
            "runtime under 30s": elapsed < 30.0,
        },
    )


def test_criterion_6_shrinking_radius_obstruction(shrink_runs):
    report = json.loads((shrink_runs.dirs[0] / "report.json").read_text())
    body = report["report"]
    rows = body["rows"]
    radii = [row["r_validity"] for row in rows]
    bounds_rows = body["bounds"]["per_level"]
    inverse_growth = all(
        lv["inverse"] >= (row["n"] ** 2) / 2.0 for lv, row in zip(bounds_rows, rows)
    )
    elapsed = shrink_runs.durations[0]
    _verdict(
        6,
        "d=4, n_max=10, fitted exponent %.2f, %.0fs" % (body["fitted_exponent"], elapsed),
        {
            "run exits clean": shrink_runs.codes[0] == 0 and report["passed"] is True,
            "radius within 1/n at every level": all(
                row["r_validity"] <= 1.0 / row["n"] for row in rows
            ),
            "radii strictly decreasing": all(a > b for a, b in zip(radii, radii[1:])),
            "fitted exponent at most -0.5": body["fitted_exponent"] <= -0.5,
            "assembly reports failure": body["assembly"]["ok"] is False,
            "forward bounds stay under 4": all(lv["forward"] <= 4.0 for lv in bounds_rows),
            "inverse norms grow at least n^2/2": inverse_growth,
            "runtime under 5min": elapsed < 300.0,
        },
    )


def test_criterion_7_loop_tower_exact_compatibility():
    t0 = time.perf_counter()
    tower, fs = make_loop_tower(1, 8, (0, 1, 2, 3))
    compat = check_compatible_sequence(fs)
    residual_ok = all(rep.pullback_residual <= 1e-12 for rep in compat.per_level)
    identity_ok = True
    kappa_ok = True
    for level, form in enumerate(fs.forms):
        field = FormField.constant(form, np.zeros(form.space.dim), 1.0)
        rep = moser_flow(
            MoserFamily.darboux_target(field, np.zeros(form.space.dim)),
            np.zeros(form.space.dim),
            1.0,
        )
        identity_ok &= rep.steps == 0 and rep.pullback_residual == 0.0
        kappa = weakness_conditioning(form).kappa
        kappa_ok &= abs(kappa - 65.0 ** level) <= 1e-9 * 65.0 ** level
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        "m=1, modes=8, orders 0..3, %.1fs" % elapsed,
        {
            "compatibility exact to 1e-12": compat.ok and residual_ok,
            "global chart is the identity": identity_ok,
            "weakness grows as 65^k": kappa_ok,
            "runtime under 10s": elapsed < 10.0,
        },
    )


def test_criterion_8_reports_are_deterministic(moser_runs, shrink_runs):
    same = True
    for runs in (moser_runs, shrink_runs):
        for name in ("report.json", "report.csv", "report.txt"):
            same &= (runs.dirs[0] / name).read_bytes() == (runs.dirs[1] / name).read_bytes()
    _verdict(
        8,
        "repeated chart and shrink runs, identical seeds",
        {"byte-identical reports": same},
    )


def test_criterion_9_shrink_radii_meet_the_slot_oracle(shrink_runs):
    # On the slot-n ray (n >= 2) the condition cap binds at
    # r*_n = |a|/n - sqrt((|a|^2 + s_1)/cond_cap - s_d); the bundled spec has
    # |a| = 1, s_1 = 1, s_d = 1e-8 and cond_cap 1e6 (oracle_radius in
    # test_models.py derives it).
    lines = (shrink_runs.dirs[0] / "report.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    gaps = {}
    for row in rows[1:]:
        n = int(row["n"])
        star = 1.0 / n - np.sqrt(2e-6 - 1e-8)
        gaps[n] = (star - float(row["r_validity"])) / star
    _verdict(
        9,
        "levels 2..%d, relative gaps %.1e..%.1e"
        % (len(rows), min(gaps.values()), max(gaps.values())),
        {
            "all ten levels reported": len(rows) == 10,
            "every level in [r*_n (1 - 1e-3), r*_n]": all(
                0.0 <= g <= 1e-3 for g in gaps.values()
            ),
        },
    )
