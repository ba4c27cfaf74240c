"""Random forms and passing weak isometries, shared by the test modules,
and the comparison of kernel_split's certified paths with its SVD path."""

from unittest import mock

import numpy as np

from symptower import linalg
from symptower.linalg import LinearMap, ModelSpace, SkewForm, check_weak_isometry, kernel_split


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_form(rng, space: ModelSpace) -> SkewForm:
    while True:
        a = rng.normal(size=(space.dim, space.dim))
        m = a - a.T
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return SkewForm(space, m)


def random_space(rng, dim: int, with_gram: bool = False) -> ModelSpace:
    """R^dim, with a random well-conditioned gram matrix when asked."""
    if not with_gram:
        return ModelSpace(dim)
    a = rng.normal(size=(dim, dim))
    return ModelSpace(dim, gram=a @ a.T + dim * np.eye(dim))


def isometry_step(
    rng, target: ModelSpace, form_tgt: SkewForm, extra_half: int, with_gram: bool = False
):
    """One passing weak isometry onto ``target``, in a rotated source basis.

    The source form is the target's form plus a random nondegenerate block,
    seen in a random orthonormal basis; the map drops the added block.
    """
    src_dim = target.dim + 2 * extra_half
    source = random_space(rng, src_dim, with_gram)
    blocks = np.zeros((src_dim, src_dim))
    blocks[: target.dim, : target.dim] = form_tgt.matrix
    if extra_half:
        blocks[target.dim :, target.dim :] = random_form(
            rng, ModelSpace(2 * extra_half)
        ).matrix
    rot = random_orthogonal(rng, src_dim)
    form_src = SkewForm(source, rot.T @ blocks @ rot)
    proj = np.zeros((target.dim, src_dim))
    proj[:, : target.dim] = np.eye(target.dim)
    return LinearMap(source, target, proj @ rot), form_src


def refused():
    """Every certificate refused: kernel_split runs its SVD path."""
    return mock.patch.object(linalg, "certify_full_row_rank", return_value=False)


def assert_same_split(map_matrix, form_matrix, span_tol):
    """kernel_split as it runs against its SVD path: the same counts, and
    the same kernel and orthogonal within ``span_tol`` (their projectors)."""
    got = kernel_split(map_matrix, form_matrix)
    with refused():
        want = kernel_split(map_matrix, form_matrix)
    assert (got[0], got[3]) == (want[0], want[3])
    for a, b in zip(got[1:3], want[1:3]):
        assert a.shape == b.shape
        assert np.abs(a @ a.T - b @ b.T).max() <= span_tol


def assert_same_report(map_, form_src, form_tgt):
    got = check_weak_isometry(map_, form_src, form_tgt)
    with refused():
        want = check_weak_isometry(map_, form_src, form_tgt)
    for name in ("ok", "ker_dim", "dense_range", "direct_sum_defect"):
        assert getattr(got, name) == getattr(want, name), name
