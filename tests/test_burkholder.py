import math
import re

import numpy as np
import pytest

from zigzag import burkholder
from zigzag.burkholder import (
    SPEC_KEYS,
    ComposedL1U,
    EvenPowerU,
    GroupP2U,
    HilbertU,
    L1WeakTypeU,
    LpSumU,
    ScalarPowerU,
    WeightedL2U,
    check_majorization,
    check_zigzag,
    elementary_scalar_params,
    make_spec,
    optimal_constants,
    zeta_l1,
)
from zigzag.linalg import GramTag
from zigzag.rng import rademacher, substream

ALL_SPECS = [
    ScalarPowerU(1.5),
    ScalarPowerU(2.0),
    ScalarPowerU(3.0),
    LpSumU(3.0, 5),
    HilbertU(2.0, dim=4),
    HilbertU(3.0, dim=4),
    WeightedL2U(np.array([[2.0, 0.5], [0.5, 1.0]])),
    GroupP2U(3.0, (3, 3)),
    EvenPowerU(4),
]


# one instance of each of the eight constructions
EIGHT_CONSTRUCTIONS = [
    ScalarPowerU(3.0),
    LpSumU(3.0, 5),
    HilbertU(2.5, dim=4),
    WeightedL2U(np.array([[2.0, 0.5], [0.5, 1.0]])),
    GroupP2U(3.0, (3, 3)),
    EvenPowerU(4),
    L1WeakTypeU(a=10.0, dim=2),
    ComposedL1U(L1WeakTypeU(a=10.0, dim=2), bound=2.0, eps=0.25),
]


def central_fd(spec, x, y, z, sigma, h=1e-6):
    up = spec.value_batch(x + h * z, y + sigma * h * z)
    dn = spec.value_batch(x - h * z, y - sigma * h * z)
    return (up - dn) / (2.0 * h)


def test_optimal_constants():
    alpha, beta = optimal_constants(2.0)
    assert (alpha, beta) == (1.0, 1.0)
    alpha, beta = optimal_constants(3.0)
    assert alpha == pytest.approx(4.0 / 3.0)
    assert beta == 2.0
    # p < 2 uses the conjugate exponent
    alpha, beta = optimal_constants(1.5)
    assert beta == pytest.approx(2.0)
    assert alpha == pytest.approx(1.5 * (1.0 - 1.0 / 3.0) ** 0.5)


def test_scalar_values():
    u2 = ScalarPowerU(2.0)
    assert u2.value_batch(3.0, 2.0) == pytest.approx(5.0)  # |x|^2 - |y|^2
    u3 = ScalarPowerU(3.0)
    assert u3.value_batch(1.0, 0.0) == pytest.approx(4.0 / 3.0)  # alpha_3
    for spec in ALL_SPECS:
        z = np.zeros(spec.point_shape)
        assert spec.value_batch(z, z) <= 0.0
        assert spec.value_batch(z, z) == pytest.approx(0.0, abs=1e-15)


def test_scalar_dirderiv_examples():
    u2 = ScalarPowerU(2.0)
    # d/da [(3+a)^2 - (2+a)^2] = 2*3 - 2*2
    assert u2.dirderiv_batch(3.0, 2.0, 1.0, +1) == pytest.approx(2.0)
    # d/da [(3+a)^2 - (2-a)^2] = 2*3 + 2*2
    assert u2.dirderiv_batch(3.0, 2.0, 1.0, -1) == pytest.approx(10.0)


def test_dirderiv_symmetry_at_origin():
    rng = substream(5, "origin")
    for spec in ALL_SPECS:
        z = spec.sample_points(rng, 1)[0]
        zero = np.zeros(spec.point_shape)
        avg = 0.5 * (spec.dirderiv_batch(zero, zero, z, +1) + spec.dirderiv_batch(zero, zero, z, -1))
        assert avg == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("spec", EIGHT_CONSTRUCTIONS, ids=lambda s: s.construction)
def test_dirderiv_batch_matches_rows(spec):
    rng = substream(15, "batch", spec.construction)
    xs, ys, zs = (spec.sample_points(rng, 16) for _ in range(3))
    sigmas = rademacher(rng, 16).astype(float)
    assert np.any(sigmas > 0) and np.any(sigmas < 0)
    rows = [spec.dirderiv_batch(x, y, z, s) for x, y, z, s in zip(xs, ys, zs, sigmas)]
    assert spec.dirderiv_batch(xs, ys, zs, sigmas) == pytest.approx(rows, rel=1e-12, abs=0.0)
    # one row broadcast against both signs
    both = spec.dirderiv_batch(xs[:1], ys[:1], zs[:1], np.array([1.0, -1.0]))
    want = [spec.dirderiv_batch(xs[0], ys[0], zs[0], s) for s in (+1, -1)]
    assert both.shape == (2,)
    assert both == pytest.approx(want, rel=1e-12, abs=0.0)
    assert_leading_axes(spec, xs, ys, zs, sigmas)
    if spec.construction == "hilbert":
        gram = HilbertU(2.5, gram=np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.3], [0.0, 0.0, 0.3, 3.0]]))
        assert_leading_axes(gram, xs, ys, zs, sigmas)
        # the reported case: a second batch axis must not fold into the point
        got = HilbertU(2.0, dim=4).value_batch(np.ones((2, 3, 4)), np.zeros((2, 3, 4)))
        assert got.shape == (2, 3) and np.all(got == 4.0)


@pytest.mark.parametrize("spec", EIGHT_CONSTRUCTIONS + [ScalarPowerU(1.5), HilbertU(2.5, gram=np.diag([2.0, 1.0, 0.5, 3.0]))], ids=lambda s: s.construction)
def test_mean_dirderiv_is_the_two_sign_average(spec):
    """On K = 8 lane states against a shared and a per-lane instance, the
    sign average matches the two signs' derivatives averaged: bit for bit for
    the l1 constructions, which average the two, and elsewhere, where the
    sigma-odd terms cancel in closed form, to 1e-12 of the larger of the two
    signs' derivatives, the size of the terms the average adds."""
    rng = substream(23, "mean-dirderiv", spec.construction)
    S, M, xs = (spec.sample_points(rng, 8) for _ in range(3))
    for x in (xs[0], xs):
        got = spec.mean_dirderiv(S, M, x)
        assert got.shape == (8,)
        up, down = spec.dirderiv_batch(S, M, x, +1), spec.dirderiv_batch(S, M, x, -1)
        want = 0.5 * (up + down)
        if spec.construction.startswith("l1"):
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(up), np.abs(down)))


def test_mean_dirderiv_is_exactly_zero_where_du_dr_vanishes():
    """Scalar p = 3 has beta = 2, so du/dr = alpha (t^2 + 2 (r - 2s) t) is 0
    at |x| = |y|: the sign average is exactly zero, though each sign's
    derivative is not."""
    spec = ScalarPowerU(3.0)
    x = np.array([0.75, -0.75, 1.25, 3.0])
    y = np.array([0.75, 0.75, -1.25, -3.0])
    z = np.array([0.5, -0.3, 1.0, 0.2])
    assert np.all(spec.mean_dirderiv(x, y, z) == 0.0)
    for sigma in (+1, -1):
        assert np.all(spec.dirderiv_batch(x, y, z, sigma) != 0.0)


def assert_leading_axes(spec, xs, ys, zs, sigmas):
    """A (2, 8) batch of points answers exactly as the flat 16-row batch."""

    def grid(v):
        return v.reshape(2, 8, *spec.point_shape)

    values = spec.value_batch(grid(xs), grid(ys))
    assert values.shape == (2, 8)
    assert np.array_equal(values, spec.value_batch(xs, ys).reshape(2, 8))
    majorants = spec.majorant_batch(grid(xs), grid(ys))
    assert majorants.shape == (2, 8)
    assert np.array_equal(majorants, spec.majorant_batch(xs, ys).reshape(2, 8))
    derivs = spec.dirderiv_batch(grid(xs), grid(ys), grid(zs), sigmas.reshape(2, 8))
    assert derivs.shape == (2, 8)
    assert np.array_equal(derivs, spec.dirderiv_batch(xs, ys, zs, sigmas).reshape(2, 8))


# each query: its number of point arguments and the call on points and signs
QUERIES = {
    "value_batch": (2, lambda spec, pts, sigmas: spec.value_batch(*pts[:2])),
    "dirderiv_batch": (3, lambda spec, pts, sigmas: spec.dirderiv_batch(*pts, sigmas)),
    "mean_dirderiv": (3, lambda spec, pts, sigmas: spec.mean_dirderiv(*pts)),
    "majorant_batch": (2, lambda spec, pts, sigmas: spec.majorant_batch(*pts[:2])),
    "norm_batch": (1, lambda spec, pts, sigmas: spec.norm_batch(pts[0])),
    "zigzag_line": (3, lambda spec, pts, sigmas: spec.zigzag_line(*pts, [0.5])[..., 0]),
}
GRAM_HILBERT = HilbertU(2.5, gram=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]]))


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("spec", EIGHT_CONSTRUCTIONS + [GRAM_HILBERT], ids=lambda s: s.construction)
def test_queries_check_the_point_shape_and_take_one_point(spec, query):
    n_points, call = QUERIES[query]
    rng = substream(19, "contract", spec.construction)
    pts = [spec.sample_points(rng, 5) for _ in range(3)]
    sigmas = rademacher(rng, 5).astype(float)
    # a point one size too large in any point axis, as any point argument
    for axis in range(len(spec.point_shape)):
        big = list(spec.point_shape)
        big[axis] += 1
        for arg in range(n_points):
            bad = list(pts)
            bad[arg] = np.ones((5, *big))
            with pytest.raises(ValueError, match=rf"{re.escape(str(spec.point_shape))}.*{re.escape(str((5, *big)))}"):
                call(spec, bad, sigmas)
    # one point with no batch axis gives the bits of a one-row batch
    single = call(spec, [p[0] for p in pts], sigmas[0])
    assert single.shape == () and single.tobytes() == call(spec, [p[:1] for p in pts], sigmas[:1]).tobytes()
    if query == "dirderiv_batch":
        # the learner's call: K lanes of (S, M) against one shared x and both signs
        got = spec.dirderiv_batch(pts[0][:, None], pts[1][:, None], pts[2][:1, None], np.array([[1.0, -1.0]]))
        want = [spec.dirderiv_batch(pts[0], pts[1], pts[2][:1], np.full(5, s)) for s in (1.0, -1.0)]
        assert np.array_equal(got, np.stack(want, axis=1))


def test_gram_blocks_multiply_once_per_point(monkeypatch):
    products = []
    dual = GramTag.dual

    def counted(tag, xs):
        products.append(np.shape(xs))
        return dual(tag, xs)

    monkeypatch.setattr(GramTag, "dual", counted)
    gram = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]])
    for spec in (WeightedL2U(gram), HilbertU(2.5, gram=gram)):
        xs, ys, zs = (spec.sample_points(substream(16, "gram", spec.construction), 5) for _ in range(3))
        products.clear()
        spec.value_batch(xs, ys)
        assert products == [(1, 5, 3), (1, 5, 3)]  # the kernels get one more leading axis
        products.clear()
        spec.dirderiv_batch(xs[:, None], ys[:, None], zs[:, None], np.array([[1.0, -1.0]]))
        assert products == [(1, 5, 1, 3), (1, 5, 1, 3)]
        products.clear()
        spec.mean_dirderiv(xs, ys, zs)
        assert products == [(1, 5, 3), (1, 5, 3)]


# The certificate's line: the 41-point grid and l = 0.  ``zigzag_line`` is
# pinned against its rows (x + l z, y +- l z) through ``value_batch``, to
# LINE_RTOL of the largest |U| on a point's line, or of 1 if that is smaller.
CERT_LINE = np.append(np.linspace(-1.0, 1.0, 41), 0.0)
LINE_RTOL = 1e-12
_B = substream(23, "dense-gram").normal(size=(6, 6))
DENSE_GRAM = _B @ _B.T + 0.5 * np.eye(6)
LINE_SPECS = [HilbertU(2.5, dim=6), HilbertU(1.5, gram=DENSE_GRAM), WeightedL2U(DENSE_GRAM), EvenPowerU(4), EvenPowerU(6), EvenPowerU(8)]


def line_rows(spec, xs, ys, zs):
    """``zigzag_line`` over CERT_LINE from its definition, two
    ``value_batch`` rows per l."""
    cols = []
    for step in CERT_LINE:
        x = xs + step * zs
        cols.append(0.5 * (spec.value_batch(x, ys + step * zs) + spec.value_batch(x, ys - step * zs)))
    return np.stack(cols, axis=-1)


def assert_line_pinned(spec, xs, ys, zs):
    got = spec.zigzag_line(xs, ys, zs, CERT_LINE)
    want = line_rows(spec, xs, ys, zs)
    assert got.shape == want.shape
    scale = np.maximum(1.0, np.abs(want).max(axis=-1, keepdims=True))
    assert np.all(np.abs(got - want) <= LINE_RTOL * scale), np.max(np.abs(got - want) / scale)


@pytest.mark.parametrize("spec", LINE_SPECS, ids=lambda s: f"{s.construction}-p{s.p}-{s.tag.name}")
def test_zigzag_line_matches_its_rows(spec):
    rng = substream(24, "line", spec.construction, spec.tag.name)
    xs, ys, zs = (spec.sample_points(rng, 32) for _ in range(3))
    assert_line_pinned(spec, xs, ys, zs)
    # z = 0; |z| = 1e-160, whose <z, z> would be subnormal; x = -l z exactly
    # at l = 0.5, where |x + l z| is 0
    tiny = 1e-160 * zs / spec.norm_batch(zs).reshape((-1,) + (1,) * len(spec.point_shape))
    for x, z in ((xs, np.zeros_like(zs)), (xs, tiny), (-0.5 * zs, zs)):
        assert_line_pinned(spec, x, ys, z)
    # lanes against one shared z, as the learner asks
    assert_line_pinned(spec, xs[:, None], ys[:, None], zs[:1, None])


def test_zigzag_line_along_a_gram_null_direction():
    spec = HilbertU(2.5, gram=np.array([[1.0, 0.0], [0.0, 0.0]]))
    xs = np.array([[0.3, -2.0], [-1.5, 0.7]])
    ys = np.array([[1.2, 0.4], [0.0, 5.0]])
    zs = np.array([[0.0, 1.0], [0.0, -3.0]])
    got = spec.zigzag_line(xs, ys, zs, CERT_LINE)
    assert np.array_equal(got, np.repeat(spec.value_batch(xs, ys)[:, None], CERT_LINE.size, axis=1))


@pytest.mark.parametrize("spec", [s for s in EIGHT_CONSTRUCTIONS if type(s)._zigzag_line is burkholder.BurkholderSpec._zigzag_line], ids=lambda s: s.construction)
def test_zigzag_line_is_its_rows_bit_for_bit_without_an_override(spec):
    rng = substream(25, "line", spec.construction)
    xs, ys, zs = (spec.sample_points(rng, 8) for _ in range(3))
    assert spec.zigzag_line(xs, ys, zs, CERT_LINE).tobytes() == line_rows(spec, xs, ys, zs).tobytes()


@pytest.mark.parametrize("spec", EIGHT_CONSTRUCTIONS + [GRAM_HILBERT], ids=lambda s: f"{s.construction}-{s.tag.name}")
def test_zigzag_line_does_not_depend_on_its_chunks(spec, monkeypatch):
    rng = substream(26, "line-chunks", spec.construction)
    xs, ys, zs = (spec.sample_points(rng, 24).reshape((3, 8, *spec.point_shape)) for _ in range(3))
    monkeypatch.setattr(burkholder, "LINE_CHUNK", 2**40)
    whole = spec.zigzag_line(xs, ys, zs[:1], CERT_LINE)
    monkeypatch.setattr(burkholder, "LINE_CHUNK", 1)  # one point's rows per chunk
    assert spec.zigzag_line(xs, ys, zs[:1], CERT_LINE).tobytes() == whole.tobytes()
    assert whole.shape == (3, 8, CERT_LINE.size)


def kink_free_probes(spec, rng, count, margin=1e-2):
    """Probe triples (x, y, z) with every coordinate of x and y bounded away
    from the |.| kinks."""
    out = []
    while len(out) < count:
        xs = spec.sample_points(rng, 4 * count)
        ys = spec.sample_points(rng, 4 * count)
        zs = spec.sample_points(rng, 4 * count)
        flat_x = np.abs(xs.reshape(xs.shape[0], -1))
        flat_y = np.abs(ys.reshape(ys.shape[0], -1))
        keep = (flat_x.min(axis=1) > margin) & (flat_y.min(axis=1) > margin)
        out.extend(zip(xs[keep], ys[keep], zs[keep]))
    return out[:count]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.construction}-p{getattr(s, 'p', 0)}")
def test_dirderiv_matches_finite_differences(spec):
    rng = substream(6, "fd", spec.construction, spec.p)
    for x, y, z in kink_free_probes(spec, rng, 200):
        sigma = int(rademacher(rng))
        got = spec.dirderiv_batch(x, y, z, sigma)
        want = central_fd(spec, x, y, z, sigma)
        assert got == pytest.approx(want, abs=1e-5 * max(1.0, abs(want)))


def test_sum_closure_identities():
    rng = substream(8, "closure")
    lp = LpSumU(3.0, 5)
    scalar = ScalarPowerU(3.0)
    x, y = rng.normal(size=5), rng.normal(size=5)
    assert lp.value_batch(x, y) == pytest.approx(sum(scalar.value_batch(a, b) for a, b in zip(x, y)), rel=1e-14)

    gp = GroupP2U(3.0, (4, 4))
    hil = HilbertU(3.0, dim=4)
    xm, ym = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    assert gp.value_batch(xm, ym) == pytest.approx(sum(hil.value_batch(a, b) for a, b in zip(xm, ym)), rel=1e-14)


def test_weighted_l2_identity_and_hilbert_closed_form():
    rng = substream(9, "weighted")
    b = rng.normal(size=(4, 4))
    a = b @ b.T + 0.1 * np.eye(4)
    wspec = WeightedL2U(a)
    h2 = HilbertU(2.0, dim=4)
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert wspec.value_batch(x, y) == pytest.approx(h2.value_batch(root @ x, root @ y), abs=1e-10)
        assert h2.value_batch(x, y) == pytest.approx(np.dot(x, x) - np.dot(y, y), rel=1e-12)


def test_gram_hilbert_matches_explicit_embedding():
    rng = substream(10, "gram")
    basis = rng.normal(size=(5, 7))  # 5 representers in R^7
    gram = basis @ basis.T
    gspec = HilbertU(2.0, gram=gram)
    espec = HilbertU(2.0, dim=7)
    for _ in range(20):
        cx, cy = rng.normal(size=5), rng.normal(size=5)
        want = espec.value_batch(cx @ basis, cy @ basis)
        assert gspec.value_batch(cx, cy) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_majorization_probes_clean():
    spec = ScalarPowerU(3.0)
    rep = check_majorization(spec, n_probes=10_000, seed=0, tol=1e-9)
    assert rep.violations == 0
    assert rep.worst_slack >= -1e-9


def test_majorization_negative_control():
    # halving beta in the majorant makes it larger than U somewhere
    spec = ScalarPowerU(3.0)
    half = spec.beta / 2.0

    def corrupted(xs, ys):
        return np.abs(xs) ** spec.p - half**spec.p * np.abs(ys) ** spec.p

    rep = check_majorization(spec, n_probes=10_000, seed=0, tol=1e-9, majorant=corrupted)
    assert rep.violations > 0


def test_zigzag_probes_clean_and_p2_linear():
    rep = check_zigzag(LpSumU(3.0, 5), n_probes=10_000, seed=1, tol=1e-7)
    assert rep.midpoint_violations == 0

    rep2 = check_zigzag(ScalarPowerU(2.0), n_probes=2_000, seed=2, tol=1e-7)
    assert rep2.midpoint_violations == 0
    # for p = 2 the sigma = +1 path is exactly linear; check the raw second
    # difference along that path directly
    spec = ScalarPowerU(2.0)
    for x, y, z in [(3.0, 2.0, 1.0), (0.5, -1.5, 2.0)]:
        h = 1e-3
        sd = spec.value_batch(x + h * z, y + h * z) + spec.value_batch(x - h * z, y - h * z) - 2 * spec.value_batch(x, y)
        assert abs(sd) < 1e-9


def test_zigzag_negative_control_detects_convexity():
    spec = ScalarPowerU(3.0)

    def negated(xs, ys):
        return -spec.value_batch(xs, ys)

    rep = check_zigzag(spec, n_probes=5_000, seed=3, tol=1e-7, value_fn=negated)
    assert rep.midpoint_violations > 0


@pytest.mark.parametrize(
    "spec, n_probes",
    [(ScalarPowerU(3.0), 300), (HilbertU(2.5, dim=5), 200), (ComposedL1U(L1WeakTypeU(a=4.0, dim=3), bound=4.0, eps=0.1), 60)],
    ids=["scalar-p", "hilbert", "l1-composed"],
)
def test_probe_checks_do_not_depend_on_their_chunks(spec, n_probes, monkeypatch):
    reports = []
    for chunk in (burkholder.CHECK_CHUNK, 1):  # the default, then one probe per chunk
        monkeypatch.setattr(burkholder, "CHECK_CHUNK", chunk)
        maj = check_majorization(spec, n_probes=n_probes, seed=7)
        zz = check_zigzag(spec, n_probes=n_probes, seed=8)
        reports.append((maj, zz))
    assert reports[0] == reports[1]
    assert len(burkholder._probe_chunks(spec, n_probes)) == n_probes


def test_elementary_scalar_params():
    c, b, coeff = elementary_scalar_params(4)
    assert c == 12.0  # 2 * binom(4,2)
    assert b == 48.0  # (2*12*1)^2 / (2 * 6)
    assert coeff == pytest.approx(12.0**2 + 2.0 * 48.0)
    c6, _, _ = elementary_scalar_params(6)
    assert c6 == 30.0
    with pytest.raises(ValueError):
        elementary_scalar_params(3)
    with pytest.raises(ValueError):
        elementary_scalar_params(2)


@pytest.mark.parametrize("k", [4, 6])
def test_even_power_probes(k):
    spec = EvenPowerU(k)
    maj = check_majorization(spec, n_probes=10_000, seed=4, tol=1e-9)
    assert maj.violations == 0
    zz = check_zigzag(spec, n_probes=10_000, seed=5, tol=1e-7)
    assert zz.midpoint_violations == 0


def test_zeta_values():
    # first branch at the origin: z(0,0) = -1/(2a) per coordinate
    a = 10.0
    want = (2.0 / math.log(30.0)) * (1.0 - 2.0 / (2.0 * a))
    assert zeta_l1(np.zeros(2), np.zeros(2), a) == pytest.approx(want)
    # continuity across the branch boundary |x+y| + |x-y| = 2/a
    for x in [0.05, -0.03, 0.099]:
        y_at = x  # |x+y|+|x-y| = 2|x|; pick x so 2|x| near 2/a
        lo = zeta_l1([x * (1 - 1e-9)], [y_at * (1 - 1e-9)], a)
        hi = zeta_l1([x * (1 + 1e-9)], [y_at * (1 + 1e-9)], a)
        assert lo == pytest.approx(hi, abs=1e-7)
    # symmetry
    rng = substream(13, "zeta-sym")
    for _ in range(100):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert zeta_l1(x, y, 12.0) == pytest.approx(zeta_l1(y, x, 12.0), rel=1e-12)


def test_weak_type_construction():
    spec = L1WeakTypeU(a=10.0, dim=2)
    assert spec.u00 > 0.0
    assert spec.u00 >= zeta_l1(np.zeros(2), np.zeros(2), 10.0) - 1e-15
    assert spec.value_batch(np.zeros(2), np.zeros(2)) == pytest.approx(0.0)
    # weak-type property at y = 0: U(x, 0) >= 1 whenever ||x||_1 >= 1
    rng = substream(14, "weak")
    for _ in range(200):
        x = rng.normal(size=2)
        x = x / np.sum(np.abs(x)) * rng.uniform(1.0, 4.0)
        assert spec.value_batch(x, np.zeros(2)) >= 1.0 - 1e-12


def test_weak_type_warns_below_threshold():
    # below d*log(d) but still with u(0,0) > 0: warn, do not fail
    with pytest.warns(UserWarning):
        L1WeakTypeU(a=10.0, dim=8)
    # parameters driving u(0,0) to zero are rejected outright
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            L1WeakTypeU(a=1.0, dim=8)


def test_composed_levels_and_origin():
    weak = L1WeakTypeU(a=10.0, dim=2)
    comp = ComposedL1U(weak, bound=4.0, eps=0.5)
    assert comp.n_levels == 8
    assert np.allclose(comp.lam, np.arange(1, 9) * 0.5)
    assert comp.value_batch(np.zeros(2), np.zeros(2)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        ComposedL1U(weak, bound=0.1, eps=0.5)


def _level_sum(comp, xs, ys):
    """The composed function by its definition, one weak function per level."""
    return comp.eps * sum(comp.weak.value_batch(xs / lam, ys / lam) for lam in comp.lam)


# the perfbench verify config and criterion 10's
@pytest.mark.parametrize("a, d, bound, eps", [(4.0, 3, 4.0, 0.1), (10.0, 2, 2.0, 0.25)])
def test_composed_value_batch_is_the_level_sum(a, d, bound, eps):
    comp = ComposedL1U(L1WeakTypeU(a=a, dim=d), bound=bound, eps=eps)
    rng = substream(17, "composed-levels")
    xs, ys = comp.sample_points(rng, 20_000), comp.sample_points(rng, 20_000)
    assert np.max(np.abs(comp.value_batch(xs, ys) - _level_sum(comp, xs, ys))) <= 1e-12
    # rows whose max(|x+y|_1, |y-x|_1) is exactly a level
    x, y = xs[:2000], ys[:2000]
    k = rng.integers(0, comp.n_levels, size=2000)
    scale = (comp.lam[k] / np.maximum(np.abs(x + y).sum(axis=1), np.abs(y - x).sum(axis=1)))[:, np.newaxis]
    x, y = x * scale, y * scale
    on = np.maximum(np.abs(x + y).sum(axis=1), np.abs(y - x).sum(axis=1)) == comp.lam[k]
    assert on.sum() >= 500
    assert np.max(np.abs(comp.value_batch(x[on], y[on]) - _level_sum(comp, x[on], y[on]))) <= 1e-12
    assert comp.value_batch(np.zeros(d), np.zeros(d)) == 0.0
    grid = comp.value_batch(xs[:16].reshape(2, 8, d), ys[:16].reshape(2, 8, d))
    assert grid.shape == (2, 8)
    assert np.array_equal(grid.ravel(), comp.value_batch(xs[:16], ys[:16]))


def test_composed_rows_do_not_depend_on_the_batch():
    comp = ComposedL1U(L1WeakTypeU(a=4.0, dim=3), bound=4.0, eps=0.1)
    rng = substream(18, "composed-rows")
    xs, ys = comp.sample_points(rng, 2000), comp.sample_points(rng, 2000)
    m = np.maximum(np.abs(xs + ys).sum(axis=1), np.abs(ys - xs).sum(axis=1))
    interior_pairs = np.sum(comp.n_levels - np.searchsorted(comp.lam, m, side="right"))
    assert interior_pairs > 2 * burkholder._LEVEL_CHUNK  # the batch spans several chunks
    batch = comp.value_batch(xs, ys)
    assert all(batch[i] == comp.value_batch(xs[i], ys[i]) for i in range(len(xs)))


def test_make_spec_round_trip():
    assert isinstance(make_spec({"construction": "scalar-p", "p": 2.0}), ScalarPowerU)
    assert isinstance(make_spec({"construction": "lp-sum", "p": 3.0, "d": 5}), LpSumU)
    assert isinstance(make_spec({"construction": "hilbert", "d": 4}), HilbertU)
    g = np.eye(3).tolist()
    assert isinstance(make_spec({"construction": "hilbert", "gram": g}), HilbertU)
    assert isinstance(make_spec({"construction": "weighted-l2", "weight": np.eye(2).tolist()}), WeightedL2U)
    assert isinstance(make_spec({"construction": "group-p2", "p": 1.5, "d": 3}), GroupP2U)
    assert isinstance(make_spec({"construction": "even-power", "k": 4}), EvenPowerU)
    assert isinstance(make_spec({"construction": "l1-weak", "a": 20.0, "d": 2}), L1WeakTypeU)
    assert isinstance(
        make_spec({"construction": "l1-composed", "a": 20.0, "d": 2, "B": 2.0, "eps": 0.25}),
        ComposedL1U,
    )
    with pytest.raises(ValueError):
        make_spec({"construction": "mystery"})


# one config per construction that sets every key the construction reads
FULL_SPECS = {
    "scalar-p": {"p": 3.0},
    "lp-sum": {"p": 3.0, "d": 4},
    "hilbert": {"p": 2.5, "d": 3, "gram": None},
    "weighted-l2": {"weight": [[2.0, 0.5], [0.5, 1.0]]},
    "group-p2": {"p": 1.5, "d": None, "shape": [2, 3]},
    "even-power": {"k": 4},
    "l1-weak": {"a": 20.0, "d": 2},
    "l1-composed": {"a": 20.0, "d": 2, "B": 2.0, "eps": 0.25},
}


@pytest.mark.parametrize("kind", FULL_SPECS)
def test_make_spec_rejects_keys_its_construction_does_not_read(kind):
    assert set(FULL_SPECS[kind]) == set(SPEC_KEYS[kind])
    cfg = {"construction": kind, **FULL_SPECS[kind]}
    assert make_spec(cfg).construction == kind
    with pytest.raises(ValueError, match=f"unknown spec key 'dd' for construction '{kind}'"):
        make_spec(dict(cfg, dd=9))
