import math
import tracemalloc

import numpy as np
import pytest

from zigzag import spectral
from zigzag.learner import CERT_GRID, CERT_TOL
from zigzag.losses import dloss_batch, loss_batch
from zigzag.rng import substream
from zigzag.spectral import (
    SpectralZigZag,
    _project_trace_ball,
    _sphere_sample,
    build_net,
    entry_stats,
    make_entry_stream,
    mw_step,
    run_spectral,
    trace_norm_comparator,
)


def test_build_net_one_dimensional_sphere():
    net, cov = build_net(1, 1, 1.0, net_alpha=0.1, seed=0, max_size=10)
    vals = sorted(float(v) for v in net.reshape(-1))
    assert vals == pytest.approx([-1.0, 1.0])
    assert cov.radius_achieved <= 1e-9
    assert cov.radius_achieved <= cov.radius_requested


def test_build_net_frobenius_sphere_and_coverage():
    net, cov = build_net(3, 1, 3.0, net_alpha=1.0 / (200 * 3.0), seed=1, max_size=500)
    norms = np.sqrt(np.sum(net**2, axis=(1, 2)))
    assert np.allclose(norms, math.sqrt(3.0), atol=1e-10)
    assert cov.size <= 500
    assert cov.radius_achieved < 1.2  # reported, generous sanity range
    # a tiny net cannot cover: reported, not fatal
    _, tight = build_net(3, 1, 3.0, net_alpha=1e-4, seed=1, max_size=8)
    assert tight.radius_achieved > tight.radius_requested


def test_build_net_twelve_coordinates_against_brute_force():
    d, r, tau, seed = 6, 2, 6.0, 11
    net, cov = build_net(d, r, tau, net_alpha=1e-3, seed=seed, max_size=40, probe_count=500)
    rng = substream(seed, "net")
    pool = _sphere_sample(rng, 1000, d, r, tau)
    probes = _sphere_sample(rng, 500, d, r, tau)
    assert net.shape == (40, d, r) and cov.size == 40
    for point in net:
        assert np.any(np.all(pool == point, axis=(1, 2)))
        assert np.linalg.norm(point) == pytest.approx(math.sqrt(tau), rel=1e-12)
    radius = max(min(np.linalg.norm(probe - point) for point in net) for probe in probes)
    assert cov.radius_achieved == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("d, r", [(1, 1), (3, 1), (4, 2), (6, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_build_net_radius_equals_the_per_net_point_loop(d, r, seed):
    """The reference takes the square-rooted distance of every probe to
    each net point in turn, keeps the minimum and reports the largest."""
    tau, max_size, probe_count = float(d), 60, 2000
    net, cov = build_net(d, r, tau, net_alpha=1e-3, seed=seed, max_size=max_size, probe_count=probe_count)
    rng = substream(seed, "net")
    _sphere_sample(rng, 1000, d, r, tau)  # the pool
    probe_cols = _sphere_sample(rng, probe_count, d, r, tau).reshape(probe_count, -1).T.copy()
    min_dist = np.full(probe_count, np.inf)
    for point in net:
        np.minimum(min_dist, np.sqrt(np.sum((probe_cols - point.reshape(-1, 1)) ** 2, axis=0)), out=min_dist)
    assert cov.radius_achieved == float(min_dist.max())


def _reference_build_net(d, r, tau, net_alpha, seed, max_size, probe_count):
    """The greedy loop and probe loop that build_net replaced: every squared
    distance is the sequential sum of the d*r squared differences."""

    def sq_distances(cols, v):
        out = np.square(cols[0] - v[0])
        for k in range(1, v.size):
            out += np.square(cols[k] - v[k])
        return out

    rng = substream(seed, "net")
    pool = _sphere_sample(rng, min(8000, max(1000, 10 * max_size)), d, r, tau)
    pool_cols = pool.reshape(pool.shape[0], -1).T.copy()
    net = [0]
    dists = np.sqrt(sq_distances(pool_cols, pool_cols[:, 0]))
    while len(net) < max_size and dists.max() > net_alpha:
        pick = int(np.argmax(dists))
        net.append(pick)
        np.minimum(dists, np.sqrt(sq_distances(pool_cols, pool_cols[:, pick])), out=dists)
    probe_cols = _sphere_sample(rng, probe_count, d, r, tau).reshape(probe_count, -1).T.copy()
    min_sq = np.full(probe_count, np.inf)
    for pick in net:
        np.minimum(min_sq, sq_distances(probe_cols, pool_cols[:, pick]), out=min_sq)
    return pool[net], float(np.sqrt(min_sq.max()))


@pytest.mark.parametrize("d, r", [(1, 1), (3, 1), (4, 2), (6, 2)])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("stop", ["cap", "alpha"])
def test_build_net_equals_the_sequential_distance_loops(d, r, seed, stop):
    """The inner-product filter and its exact recheck of near-ties give the
    net, its order and the radius of the sequential squared distances."""
    tau, max_size, probe_count = float(d), 60, 2000
    net_alpha = 1e-9 if stop == "cap" else 1.2 * math.sqrt(tau)
    net, cov = build_net(d, r, tau, net_alpha, seed, max_size, probe_count)
    ref_net, ref_radius = _reference_build_net(d, r, tau, net_alpha, seed, max_size, probe_count)
    assert np.array_equal(net, ref_net)
    assert cov.size == len(ref_net) and cov.radius_achieved == ref_radius
    if stop == "alpha" or d * r == 1:  # a 1-point sphere is covered after two picks
        assert cov.size < max_size
    else:
        assert cov.size == max_size


@pytest.mark.parametrize("max_size", [500, 4000])
def test_build_net_peak_memory_stays_within_4_mb(max_size):
    build_net(6, 2, 6.0, 1 / 1800, 0, 2)  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        _, cov = build_net(6, 2, 6.0, 1 / 1800, 0, max_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.size == max_size
    assert peak <= 4_000_000


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_size": 0}, "max_size and probe_count must be at least 1, got 0 and 10000"),
        ({"probe_count": 0}, "max_size and probe_count must be at least 1, got 5 and 0"),
        ({"tau": math.inf}, "tau must be positive and finite, got inf"),
        ({"tau": 0.0}, "tau must be positive and finite, got 0.0"),
    ],
)
def test_build_net_rejects_a_bad_size_before_any_draw(kwargs, message, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before the arguments were checked")

    monkeypatch.setattr(spectral, "substream", no_draw)
    args = {"d": 3, "r": 1, "tau": 3.0, "net_alpha": 0.01, "seed": 0, "max_size": 5} | kwargs
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_net(**args)


def test_mw_step_examples():
    lw = np.log(np.array([0.5, 0.5]))
    # uniform losses leave weights unchanged
    out = mw_step(lw, np.array([1.0, 1.0]), gamma=0.7)
    assert np.allclose(np.exp(out), [0.5, 0.5])
    # losses (0, 1) with gamma = ln 2 tilt 2:1
    out = mw_step(lw, np.array([0.0, 1.0]), gamma=math.log(2.0))
    assert np.allclose(np.exp(out), [2.0 / 3.0, 1.0 / 3.0])
    # gamma = 0 is a no-op
    out = mw_step(lw, np.array([0.3, 0.9]), gamma=0.0)
    assert np.allclose(np.exp(out), [0.5, 0.5])
    # extreme losses stay normalized in log space
    out = mw_step(np.log([0.5, 0.5]), np.array([0.0, 2000.0]), gamma=1.0)
    assert np.exp(out).sum() == pytest.approx(1.0)


def test_entry_stats():
    assert entry_stats([(i, j) for i in range(3) for j in range(3)]) == (3, 3)
    assert entry_stats([(0, j) for j in range(7)]) == (7, 1)
    assert entry_stats([]) == (0, 0)


def test_fresh_experts_predict_zero_and_clip():
    alg = SpectralZigZag(3, 1, 3.0, horizon=50, loss_name="hinge", seed=2, max_net=40)
    f = alg.predict_all(0, 1)
    assert np.allclose(f, 0.0)
    rec = alg.round(0, 1, 1.0, f)
    assert rec["yhat"] == 0.0
    # force a huge state: predictions clip to [-1, 1]
    alg.sv[:, 2, :] = 50.0
    f = alg.predict_all(2, 0)
    assert np.max(np.abs(f)) > 1.0
    rec = alg.round(2, 0, -1.0, f)
    assert -1.0 <= rec["yhat"] <= 1.0


def test_prediction_closed_form():
    alg = SpectralZigZag(3, 2, 2.0, horizon=30, loss_name="hinge", seed=3, max_net=30)
    rng = np.random.default_rng(0)
    alg.sv = rng.normal(size=alg.sv.shape)
    i, j = 1, 2
    f = alg.predict_all(i, j)
    scale = alg.eta * alg.tau**2 / (1.0 - alg.net_alpha)
    for v in range(alg.m):
        want = -scale * float(np.dot(alg.sv[v, i, :], alg.experts[v, j, :]))
        assert f[v] == pytest.approx(want, rel=1e-12)
    # entry never seen, disjoint row support: prediction stays zero
    alg2 = SpectralZigZag(4, 1, 1.0, horizon=10, loss_name="hinge", seed=4, max_net=16)
    alg2.round(0, 0, 1.0, alg2.predict_all(0, 0))
    assert np.allclose(alg2.predict_all(1, 0), 0.0)


def test_rank_two_certificate_catches_a_wrong_prediction():
    alg = SpectralZigZag(4, 2, 2.0, horizon=30, loss_name="hinge", seed=12, max_net=50)
    rng = np.random.default_rng(12)
    alg.sv = rng.normal(size=alg.sv.shape)
    mv = rng.normal(size=alg.sv.shape)  # any sign path: the certificate never reads it
    i, j = 1, 3
    assert alg.certificate(i, j, alg.predict_all(i, j))[1] == 0

    f = 1.5 * alg.predict_all(i, j)
    worst, violations = alg.certificate(i, j, f)
    assert violations > 0

    want = math.inf
    for v in range(alg.m):
        rel = alg.coef * (np.sum(alg.sv[v] ** 2) - np.sum(mv[v] ** 2))
        for g in np.linspace(-1.0, 1.0, 41):
            step = np.zeros((4, 2))
            step[i] = g * alg.experts[v, j]
            s_new = np.sum((alg.sv[v] + step) ** 2)
            m_plus = np.sum((mv[v] + step) ** 2)
            m_minus = np.sum((mv[v] - step) ** 2)
            want = min(want, rel - (f[v] * g + alg.coef * (s_new - 0.5 * m_plus - 0.5 * m_minus)))
    assert worst == pytest.approx(want, rel=1e-10)


def _direct_slacks(alg, mv, i, j, f):
    """Slack of every expert at every grid point from the three Frobenius
    norms of the potential at the sums ``alg.sv`` and the sign-path sums
    ``mv``, one (expert, l') pair at a time."""
    d, r = alg.d, alg.r
    slacks = np.empty((alg.m, 41))
    for v in range(alg.m):
        rel = alg.coef * (np.sum(alg.sv[v] ** 2) - np.sum(mv[v] ** 2))
        for k, g in enumerate(np.linspace(-1.0, 1.0, 41)):
            step = np.zeros((d, r))
            step[i] = g * alg.experts[v, j]
            s_new = np.sum((alg.sv[v] + step) ** 2)
            m_plus = np.sum((mv[v] + step) ** 2)
            m_minus = np.sum((mv[v] - step) ** 2)
            slacks[v, k] = rel - (f[v] * g + alg.coef * (s_new - 0.5 * m_plus - 0.5 * m_minus))
    return slacks


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 6])
def test_certificate_equals_the_direct_potential_difference(d, r):
    alg = SpectralZigZag(d, r, float(d), horizon=40, loss_name="hinge", seed=d + r, max_net=24)
    rng = np.random.default_rng(10 * d + r)
    alg.sv = rng.normal(size=alg.sv.shape)
    mv = rng.normal(size=alg.sv.shape)
    for i, j in [(0, 0), (1, d - 1), (d - 1, 2)]:
        f = alg.predict_all(i, j)
        off = f.copy()
        off[rng.integers(alg.m)] *= 1.0 + 1e-6
        for pred in (f, 1.5 * f, off):
            worst, violations = alg.certificate(i, j, pred)
            want = _direct_slacks(alg, mv, i, j, pred)
            assert worst == pytest.approx(want.min(), rel=1e-10, abs=1e-12)
            assert violations == np.count_nonzero(want < -1e-8)


def test_certificate_passes_along_run():
    res = run_spectral(3, 1, 3.0, n=60, stream_kind="uniform", loss_name="hinge", seed=5, max_net=60)
    assert res.cert_violations == 0
    assert res.cert_worst_slack >= -1e-8
    assert res.weight_drift <= 1e-12
    assert res.n_row >= 60 // 3 // 3  # sanity on counts
    assert len(res.rows) == 60


def _run_path_holds(alg, n, seed, tracked):
    """Play a uniform stream of n rounds and, for the ``tracked`` experts,
    build the full d x r states S = sum_t g_t X_t V and M = sum_t sigma_t
    g_t X_t V here, with an explicit sign path sigma.  True if at every
    round the certificate reports (0.0, 0) and, at every grid point, the
    slack from the three Frobenius norms |S + x|, |M + x| and |M - x| is 0
    to within 8 eps times the norms it is made of."""
    ij, ys = make_entry_stream("uniform", alg.d, n, alg.r, seed)
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=n)
    s = np.zeros((len(tracked), alg.d, alg.r))
    m = np.zeros_like(s)
    for t, ((i, j), y) in enumerate(zip(ij.tolist(), ys.tolist())):
        f = alg.predict_all(i, j)
        if alg.certificate(i, j, f) != (0.0, 0):
            return False
        x = np.zeros_like(s)  # e_i v_j' of each tracked expert
        x[:, i, :] = alg.experts[tracked, j, :]
        ss, mm = np.sum(s**2, axis=(1, 2)), np.sum(m**2, axis=(1, 2))
        for g in CERT_GRID:
            s_new = np.sum((s + g * x) ** 2, axis=(1, 2))
            m_plus, m_minus = np.sum((m + g * x) ** 2, axis=(1, 2)), np.sum((m - g * x) ** 2, axis=(1, 2))
            slack = alg.coef * (ss - mm) - (f[tracked] * g + alg.coef * (s_new - 0.5 * m_plus - 0.5 * m_minus))
            scale = alg.coef * (ss + mm + s_new + m_plus + m_minus) + np.abs(f[tracked])
            if not np.all(np.abs(slack) <= 8.0 * np.finfo(float).eps * scale):
                return False
        alg.round(i, j, y, f)
        grads = dloss_batch(alg.loss_name, f[tracked], y)[:, np.newaxis, np.newaxis]
        s += grads * x
        m += signs[t] * grads * x
    return True


@pytest.mark.parametrize("d, r", [(3, 1), (6, 2)])
@pytest.mark.parametrize("fault", [None, "scaled-predict", "wrong-update"])
def test_certificate_slack_is_zero_along_a_run_with_full_states(d, r, fault, monkeypatch):
    """The certificate's slack, pinned to 0 along a run from the full
    states; a prediction off by 1e-6 relative or an update off by as much
    fails the pin, at the predicting learner or at the states built here."""
    if fault == "scaled-predict":
        predict = SpectralZigZag.predict_all
        monkeypatch.setattr(SpectralZigZag, "predict_all", lambda self, i, j: predict(self, i, j) * (1.0 + 1e-6))
    elif fault == "wrong-update":
        play = SpectralZigZag.round

        def round_off(self, i, j, y, f):
            rec = play(self, i, j, y, f)
            self.sv[:, i, :] *= 1.0 + 1e-6
            return rec

        monkeypatch.setattr(SpectralZigZag, "round", round_off)
    alg = SpectralZigZag(d, r, float(d), horizon=40, loss_name="hinge", seed=d, max_net=500)
    assert _run_path_holds(alg, 40, d, [0, 1, 250, alg.m - 1]) == (fault is None)


def _grid_certificate(alg, i, j, f):
    """The certificate as the full (m, 41) grid of slacks c l'."""
    a = np.einsum("vk,vk->v", alg.sv[:, i, :], alg.experts[:, j, :])
    slack = (-f - alg.coef * (2.0 * a))[:, np.newaxis] * CERT_GRID
    return float(slack.min()) + 0.0, int(np.count_nonzero(slack < -CERT_TOL))


def _same_bits(got, want):
    """Equal floats with the same sign, zeros included; a NaN equals a NaN."""
    return (math.isnan(got) and math.isnan(want)) or (got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def test_certificate_grid_has_unit_endpoints_and_zero():
    # the closed form reads the worst slack at l' = +-1, every other point
    # has |l'| <= 1, and inf * 0.0 at l' = 0 makes a non-finite c give NaN
    assert CERT_GRID[0] == -1.0 and CERT_GRID[-1] == 1.0
    assert np.all(np.abs(CERT_GRID) <= 1.0) and 0.0 in CERT_GRID
    # symmetric: linspace's interior points mirror each other to rounding
    assert np.allclose(CERT_GRID, -CERT_GRID[::-1], rtol=0.0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("d, r", [(3, 1), (4, 2), (6, 2), (6, 3)])
def test_closed_form_certificate_equals_the_grid_bit_for_bit(d, r):
    alg = SpectralZigZag(d, r, float(d), horizon=40, loss_name="hinge", seed=d + r, max_net=60)
    rng = np.random.default_rng(d * r)
    partial = 0

    def check(i, j, f, kind=None):
        with np.errstate(invalid="ignore"):  # inf * 0.0, on the grid and in the rows that violate
            got, want = alg.certificate(i, j, f), _grid_certificate(alg, i, j, f)
        assert _same_bits(got[0], want[0]) and got[1] == want[1], (i, j, kind)
        if kind == "zero":
            assert _same_bits(got[0], 0.0) and got[1] == 0
        elif kind == "nan":
            assert math.isnan(got[0])
        c = -f - alg.coef * (2.0 * np.einsum("vk,vk->v", alg.sv[:, i, :], alg.experts[:, j, :]))
        return 0 < got[1] < 20 * np.count_nonzero(np.abs(c) > CERT_TOL)  # a row violates at most at 20 points

    for _ in range(4):  # random states
        alg.sv = rng.normal(size=alg.sv.shape) * rng.choice([1e-9, 1.0, 1e3])
        for i, j in [(0, 0), (d - 1, 1), (1, d - 1)]:
            f = alg.predict_all(i, j)
            off = f.copy()
            off[rng.integers(alg.m)] *= 1.0 + 1e-6
            check(i, j, f, "zero")
            check(i, j, 1.5 * f)
            check(i, j, off)
    alg.sv = np.zeros_like(alg.sv)  # then c = -f exactly
    for k in (1.0, 1.01, 1.5, 3.0, 19.9, 20.5, 1e3):  # |c| up to k CERT_TOL violates at |l'| > 1/k
        c = k * CERT_TOL * rng.choice([-1.0, 1.0], size=alg.m)
        c[: alg.m // 2] *= rng.uniform(0.0, 1.0, size=alg.m // 2)
        partial += check(0, 0, -c)
    check(0, 0, np.where(rng.random(alg.m) < 0.5, 0.0, -0.0), "zero")  # c = +-0
    for bad in (math.inf, -math.inf, math.nan):
        f = rng.normal(size=alg.m)
        f[rng.integers(alg.m)] = bad
        check(0, 0, f, "nan")
    assert partial >= 5


def _reference_project_trace_ball(f, tau, r):
    """The sort-based simplex step of the kept singular values."""
    u, s, vt = np.linalg.svd(f, full_matrices=False)
    s = np.maximum(s, 0.0)
    s[r:] = 0.0
    if s.sum() > tau:
        top = s[:r]
        srt = np.sort(top)[::-1]
        css = np.cumsum(srt) - tau
        idx = np.arange(1, len(srt) + 1)
        cond = srt - css / idx > 0
        rho = idx[cond][-1] if cond.any() else 1
        theta = css[rho - 1] / rho
        s[:r] = np.maximum(top - theta, 0.0)
    return (u * s) @ vt


def _reference_comparator(ij, ys, d, r, tau, loss_name, iters=400):
    """Projected subgradient descent with a 2-D gather and np.add.at."""
    f = np.zeros((d, d))
    best_loss, best_f = float("inf"), f
    for k in range(iters + 1):
        preds = f[ij[:, 0], ij[:, 1]]
        total = float(loss_batch(loss_name, preds, ys).sum())
        if total < best_loss:
            best_loss, best_f = total, f
        if k == iters:
            break
        g = np.zeros((d, d))
        np.add.at(g, (ij[:, 0], ij[:, 1]), dloss_batch(loss_name, preds, ys))
        f = _reference_project_trace_ball(f - (0.5 / math.sqrt(k + 1)) * g, tau, r)
    return best_loss, best_f


def _comparator_streams():
    for kind, d, r, n in [("uniform", 3, 1, 200), ("row-spiky", 3, 1, 200), ("uniform", 6, 2, 300), ("uniform", 3, 3, 60)]:
        for loss_name in ("hinge", "absolute", "linear"):
            yield pytest.param(*make_entry_stream(kind, d, n, r, d + n), d, r, loss_name, id=f"{kind}-{d}-{r}-{loss_name}")
    rng = np.random.default_rng(5)
    for d, r in [(3, 1), (4, 2)]:
        cells = rng.integers(0, 2, size=(80, 2))  # four cells, each repeated about 20 times
        yield pytest.param(cells, rng.uniform(-1.0, 1.0, size=80), d, r, "absolute", id=f"explicit-{d}-{r}-absolute")
        yield pytest.param(cells, rng.choice([-1.0, 1.0], size=80), d, r, "hinge", id=f"explicit-{d}-{r}-hinge")


@pytest.mark.parametrize("ij, ys, d, r, loss_name", list(_comparator_streams()))
def test_comparator_equals_the_add_at_and_sort_loop_bit_for_bit(ij, ys, d, r, loss_name):
    best, f = trace_norm_comparator(ij, ys, d, r, float(d), loss_name)
    want_best, want_f = _reference_comparator(ij, ys, d, r, float(d), loss_name)
    assert _same_bits(best, want_best)
    assert f.tobytes() == want_f.tobytes()


def test_project_trace_ball_equals_the_sort_loop_bit_for_bit():
    rng = np.random.default_rng(6)
    q3 = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    cases = [
        (rng.normal(size=(4, 4)) * 3.0, 2.0, 4),  # r = d
        (rng.normal(size=(5, 5)) * 3.0, 1.0, 2),
        (2.0 * np.eye(3), 3.0, 3),  # three tied values, projected
        (2.0 * np.eye(3), 3.0, 2),  # tied, one cut by the rank
        ((q3 * [5.0, 5.0, 1.0]) @ q3.T, 4.0, 3),  # a tied top pair
        (rng.normal(size=(3, 3)) * 0.01, 3.0, 3),  # s.sum() <= tau: no projection
        (np.diag([1e20, 1.0, 0.0]), 1.0, 2),  # tau lost in rounding: no prefix passes
        (np.zeros((3, 3)), 1.0, 1),
    ]
    for d in (3, 6):
        for r in range(1, d + 1):
            cases.append((rng.normal(size=(d, d)) * rng.choice([0.1, 1.0, 10.0]), float(d), r))
    for f, tau, r in cases:
        got = _project_trace_ball(f.copy(), tau, r)
        assert got.tobytes() == _reference_project_trace_ball(f.copy(), tau, r).tobytes(), (tau, r)


def test_empty_horizon_and_nonpositive_tau_are_rejected():
    with pytest.raises(ValueError, match="horizon"):
        SpectralZigZag(3, 1, 3.0, horizon=0, loss_name="hinge", max_net=500)
    with pytest.raises(ValueError, match="tau"):
        SpectralZigZag(3, 1, 0.0, horizon=10, loss_name="hinge", max_net=500)
    with pytest.raises(ValueError, match="horizon"):
        run_spectral(3, 1, 3.0, n=0, stream_kind="uniform", loss_name="hinge", max_net=500)
    # horizon tau <= 1 puts the net radius at 1 or above, where coef divides by zero or flips sign
    for tau in (0.005, 0.001):
        with pytest.raises(ValueError, match="net radius"):
            SpectralZigZag(3, 1, tau, horizon=200, loss_name="hinge", max_net=500)


def test_row_spiky_stream_counts():
    ij, _ = make_entry_stream("row-spiky", d=5, n=40, r=1, seed=6)
    n_row, n_col = entry_stats(ij)
    assert n_row == 40
    assert n_col <= 40
    assert entry_stats(np.zeros((0, 2), dtype=int)) == (0, 0)
    with pytest.raises(ValueError):
        make_entry_stream("explicit", d=2, n=2, r=1, seed=0)
    with pytest.raises(ValueError, match="index a 2 x 2 matrix"):
        make_entry_stream("explicit", d=2, n=2, r=1, seed=0, entries=[(0, 1, 1.0), (-1, 0, -1.0)])


@pytest.mark.parametrize("entries", [[[0.5, 1, 1.0]], [[0, 1, 1.0], [True, 2.9, -1.0]], [[0, np.True_, 1.0]], [[math.inf, 0, 1.0]]])
def test_explicit_entries_with_an_index_that_is_not_whole_are_rejected(entries):
    with pytest.raises(ValueError, match="has an index that is not a whole number"):
        make_entry_stream("explicit", 3, 0, 1, 0, entries=entries)
    # a whole index written as a float or a numpy integer indexes its cell
    ij, ys = make_entry_stream("explicit", 3, 0, 1, 0, entries=[[0.0, np.int64(2), 1]])
    assert ij.dtype == int and ij.tolist() == [[0, 2]]
    assert ys.dtype == float and ys.tolist() == [1.0]


@pytest.mark.parametrize("loss_name, y, message", [
    ("hinge", 5.0, r"hinge loss needs labels in \{-1, \+1\}"),
    ("linear", 0.3, r"linear loss needs labels in \{-1, \+1\}"),
    ("absolute", 1.5, r"absolute loss needs labels in \[-1, 1\]"),
])
def test_run_rejects_explicit_labels_the_loss_does_not_take(loss_name, y, message, monkeypatch):
    monkeypatch.setattr(spectral, "build_net", None)  # rejected before the net is built
    with pytest.raises(ValueError, match=message):
        run_spectral(3, 1, 3.0, 2, stream_kind="explicit", loss_name=loss_name, max_net=10, entries=[(0, 0, y), (1, 1, 1.0)])


@pytest.mark.parametrize("kind", ["uniform", "row-spiky"])
@pytest.mark.parametrize("d", [3, 6, 7, 100])
def test_entry_stream_batch_draw_equals_per_entry_draws(kind, d):
    """The reference loop draws each entry's indices one at a time."""
    rng = substream(4, "entry-stream", kind)
    planted = rng.normal(size=(d, 2)) @ rng.normal(size=(d, 2)).T
    want = []
    for _ in range(50):
        i = 0 if kind == "row-spiky" else int(rng.integers(0, d))
        j = int(rng.integers(0, d))
        want.append((i, j, 1.0 if planted[i, j] >= 0.0 else -1.0))
    ij, ys = make_entry_stream(kind, d=d, n=50, r=2, seed=4)
    assert ij.shape == (50, 2) and ij.dtype == int and ys.dtype == float
    assert [(i, j, y) for (i, j), y in zip(ij.tolist(), ys.tolist())] == want


def test_trace_norm_comparator_fits_planted_labels():
    # labels from a planted rank-1 matrix: some trace-norm matrix fits them
    # well, so the comparator loss is far below the all-zero predictor's
    ij, ys = make_entry_stream("uniform", d=3, n=120, r=1, seed=7)
    best, f = trace_norm_comparator(ij, ys, d=3, r=1, tau=3.0, loss_name="hinge", iters=300)
    zero_loss = float(len(ys))  # hinge(0, y) = 1 per round
    assert best < 0.7 * zero_loss
    s = np.linalg.svd(f, compute_uv=False)
    assert s.sum() <= 3.0 + 1e-8
    assert np.sum(s > 1e-9) <= 1


def test_run_is_deterministic():
    r1 = run_spectral(3, 1, 3.0, n=40, stream_kind="uniform", loss_name="hinge", seed=8, max_net=40)
    r2 = run_spectral(3, 1, 3.0, n=40, stream_kind="uniform", loss_name="hinge", seed=8, max_net=40)
    assert r1.rows == r2.rows
    assert r1.learner_loss == r2.learner_loss
