"""Output checks for the benchmark's CLI calls.

Each check takes the call's expected parameters, its exit code, the parsed
``report.json`` (``None`` when the command writes none) and its standard
output, and returns a list of problems; an empty list means the call is
correct.  A call with any problem counts toward ``failed``.
"""

from __future__ import annotations

# Fitted decay exponent of the counterexample must lie in -1 +- 0.05; the
# bundled shrink spec and depths 3 to 5 fit -1.003 to -1.004.
EXPONENT_BAND = (-1.05, -0.95)
# The validity radius stops at the condition cap, a little inside the
# degeneracy at |a|/n.  The bundled shrink spec (cond_cap 1e6, depth 10)
# sits at most 0.78% under |a|/n; the check allows that plus 0.5% points.
SHRINK_GAP_MAX = 0.0078 + 0.005
FIXED_POINT_TOL = 1e-8


def _envelope(exit_code, report, command):
    problems = []
    if exit_code != 0:
        problems.append("exit code %r, expected 0" % (exit_code,))
    if report is None:
        return problems + ["no report.json"]
    if report.get("command") != command:
        problems.append("report command %r, expected %r" % (report.get("command"), command))
    if report.get("passed") is not True:
        problems.append("report says passed=%r" % (report.get("passed"),))
    body = report.get("report")
    if not isinstance(body, dict) or "error" in body:
        problems.append("report carries no result: %r" % (body,))
    return problems


def check_shrink(expect, exit_code, report, stdout):
    problems = _envelope(exit_code, report, "shrink")
    if problems:
        return problems
    body = report["report"]
    if body.get("uniform_radius_ok") is not False:
        problems.append("verdict uniform_radius_ok=%r, expected False" % body.get("uniform_radius_ok"))
    exponent = body.get("fitted_exponent")
    lo, hi = EXPONENT_BAND
    if not isinstance(exponent, float) or not lo <= exponent <= hi:
        problems.append("fitted exponent %r outside [%g, %g]" % (exponent, lo, hi))
    rows = body.get("rows", [])
    if len(rows) != expect["levels"]:
        problems.append("%d levels, expected %d" % (len(rows), expect["levels"]))
    for row in rows:
        n, r = row.get("n"), row.get("r_validity")
        if not isinstance(n, int) or not isinstance(r, float):
            problems.append("malformed row %r" % (row,))
            continue
        bound = expect["a_norm"] / n
        if not 0.0 < r <= bound:
            problems.append("level %d: r_validity %r not in (0, |a|/n = %r]" % (n, r, bound))
        elif (bound - r) / bound > SHRINK_GAP_MAX:
            problems.append(
                "level %d: r_validity %r is %.3g%% under |a|/n, more than %.3g%%"
                % (n, r, 100 * (bound - r) / bound, 100 * SHRINK_GAP_MAX)
            )
    return problems


def check_moser(expect, exit_code, report, stdout):
    problems = _envelope(exit_code, report, "moser")
    if problems:
        return problems
    body = report["report"]
    residual = body.get("pullback_residual")
    if not isinstance(residual, float) or not residual <= expect["residual_tol"]:
        problems.append("pullback residual %r above %g" % (residual, expect["residual_tol"]))
    fixed = body.get("fixed_point_error")
    if not isinstance(fixed, float) or not fixed <= FIXED_POINT_TOL:
        problems.append("fixed-point error %r above %g" % (fixed, FIXED_POINT_TOL))
    if body.get("chart_radius") != expect["r_start"]:
        problems.append("chart radius %r, expected r_start %r" % (body.get("chart_radius"), expect["r_start"]))
    return problems


def check_tower(expect, exit_code, report, stdout):
    problems = _envelope(exit_code, report, "check-tower")
    if problems:
        return problems
    body = report["report"]
    if body.get("compatible") is not True:
        problems.append("tower not compatible")
    if body.get("failed_composites") != []:
        problems.append("failed composites %r" % (body.get("failed_composites"),))
    if "levels" in expect and len(body.get("levels", [])) != expect["levels"]:
        problems.append("%d levels, expected %d" % (len(body.get("levels", [])), expect["levels"]))
    return problems


def check_product_control(expect, exit_code, report, stdout):
    problems = _envelope(exit_code, report, "product-control")
    if problems:
        return problems
    body = report["report"]
    if body.get("uniform_radius_ok") is not True:
        problems.append("uniform radius not ok")
    if not isinstance(body.get("assembly"), dict) or body["assembly"].get("ok") is not True:
        problems.append("assembly not ok")
    if "levels" in expect and len(body.get("rows", [])) != expect["levels"]:
        problems.append("%d levels, expected %d" % (len(body.get("rows", [])), expect["levels"]))
    return problems


def check_loop(expect, exit_code, report, stdout):
    problems = _envelope(exit_code, report, "loop-check")
    if problems:
        return problems
    if report["report"].get("exact_compatibility") is not True:
        problems.append("loop tower not exactly compatible")
    return problems


def check_validate(expect, exit_code, report, stdout):
    problems = []
    if exit_code != 0:
        problems.append("exit code %r, expected 0" % (exit_code,))
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "0 errors":
        problems.append("validate printed %r, expected '0 errors'" % (lines[-1:] or "",))
    return problems


CHECKS = {
    "shrink": check_shrink,
    "moser": check_moser,
    "check-tower": check_tower,
    "product-control": check_product_control,
    "loop-check": check_loop,
    "validate": check_validate,
}
