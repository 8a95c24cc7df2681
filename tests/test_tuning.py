import itertools

import numpy as np
import pytest

from zigzag import tuning
from zigzag.burkholder import EvenPowerU, HilbertU, LpSumU, ScalarPowerU, WeightedL2U
from zigzag.harness import FixedStream, IIDGaussianX
from zigzag.learner import CERT_TOL, psi, run_episode
from zigzag.linalg import IntervalSupTracker, LpTag, conjugate
from zigzag.rng import substream
from zigzag.tuning import DoublingZigZag, ExpectedPhiTracker, default_eta0


def phi_realized(increments, tag, p, beta):
    """beta^p times the p-th power of the interval sup of the increments,
    read from the tracker the way the realized doubling tuner reads it."""
    tracker = IntervalSupTracker(tag, shape=np.shape(increments)[1:])
    for inc in increments:
        tracker.append(inc)
    return beta**p * tracker.sups[0]**p


def phi_expected(increments, tag, p, beta, k_paths=500, seed=0):
    """Monte Carlo (mean, standard error) of the expected-sign interval-sup
    functional, read from one lane of the expected-mode tracker."""
    arr = np.asarray(increments, dtype=float)
    tracker = ExpectedPhiTracker(tag, p, beta, k_paths, [substream(seed, "phi-expected")], shape=arr.shape[1:])
    for z in arr:
        tracker.append(z)
    vals = beta**p * tracker.sups**p
    return float(tracker.values[0]), float(np.std(vals, ddof=1) / np.sqrt(k_paths))


def enumerate_expected_phi(increments, tag, p, beta):
    """Exact E_eps sup-over-intervals ||sum eps z||^p by enumerating all 2^n
    sign patterns."""
    arr = np.asarray(increments, dtype=float)
    n = arr.shape[0]
    total = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=n):
        signed = arr * np.array(signs).reshape((n,) + (1,) * (arr.ndim - 1))
        prefixes = np.concatenate([np.zeros((1,) + arr.shape[1:]), np.cumsum(signed, axis=0)])
        diffs = prefixes[:, np.newaxis] - prefixes[np.newaxis]  # every interval, both orientations
        total += tag.norm_batch(diffs.reshape(-1, *arr.shape[1:])).max() ** p
    return beta**p * total / 2.0**n


def test_psi_values():
    assert psi(1.0, 2.0, 4.0) == pytest.approx(2.5)
    p_prime, _ = conjugate(3.0)
    assert psi(0.7, 3.0, 0.0) == pytest.approx((0.7 ** (1 - p_prime) / (p_prime - 1)) / 3.0)
    with pytest.raises(ValueError):
        psi(0.0, 2.0, 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
def test_psi_variational_identity(p, x):
    grid = np.logspace(-2, 2, 200)
    best = min(psi(eta, p, x) for eta in grid)
    assert abs(best - x ** (1.0 / p)) <= 1e-3 * x ** (1.0 / p)


def test_phi_realized_examples():
    tag = LpTag(2.0)
    assert phi_realized(np.zeros((0, 1)), tag, 2.0, 1.0) == 0.0
    z = np.array([[0.6, -0.8]])
    assert phi_realized(z, tag, 3.0, 2.0) == pytest.approx(2.0**3 * 1.0**3)
    incs = np.array([[1.0], [-2.0]])
    assert phi_realized(incs, tag, 2.0, 1.0) == pytest.approx(4.0)


def test_phi_realized_matches_brute_force():
    tag = LpTag(3.0)
    rng = substream(1, "phi")
    for n in (1, 7, 50):
        incs = rng.normal(size=(n, 2))
        prefixes = np.concatenate([np.zeros((1, 2)), np.cumsum(incs, axis=0)])
        brute = 0.0
        for a in range(n + 1):
            for b in range(a, n + 1):
                brute = max(brute, tag.norm_batch([prefixes[b] - prefixes[a]])[0])
        assert phi_realized(incs, tag, 3.0, 2.0) == 2.0**3 * brute**3


def test_phi_expected_trivial_and_exact():
    tag = LpTag(2.0)
    mean, se = phi_expected(np.zeros((4, 2)), tag, 2.0, 1.0, k_paths=200, seed=0)
    assert mean == 0.0 and se == 0.0
    z = np.array([[3.0, 4.0]])
    mean, se = phi_expected(z, tag, 2.0, 1.0, k_paths=200, seed=0)
    assert mean == pytest.approx(25.0)  # single increment: sign irrelevant

    # scalars (1, 1): exact expectation over 4 sign patterns is 2.5
    incs = np.array([[1.0], [1.0]])
    exact = enumerate_expected_phi(incs, tag, 2.0, 1.0)
    assert exact == pytest.approx(2.5)
    mean, se = phi_expected(incs, tag, 2.0, 1.0, k_paths=2000, seed=3)
    assert abs(mean - exact) <= 3.0 * se


def test_phi_expected_matches_enumeration():
    tag = LpTag(2.0)
    rng = substream(9, "phi-enum")
    for n in (4, 8, 10):
        incs = rng.normal(size=(n, 2))
        exact = enumerate_expected_phi(incs, tag, 2.0, 1.0)
        mean, se = phi_expected(incs, tag, 2.0, 1.0, k_paths=3000, seed=n)
        assert abs(mean - exact) <= 3.0 * se


def test_phi_expected_requires_enough_paths():
    with pytest.raises(ValueError):
        phi_expected(np.zeros((2, 1)), LpTag(2.0), 2.0, 1.0, k_paths=50)


def test_schedule_exactness():
    for p, beta in [(2.0, 1.0), (3.0, 2.0), (1.5, 2.0)]:
        spec = ScalarPowerU(p)
        tuner = DoublingZigZag(spec, "realized", [0], mc_paths=500)
        p_prime, _ = conjugate(p)
        for i in range(41):
            want = 2.0 ** (-i / (p_prime - 1.0))
            assert abs(tuner.eta_for(i) / tuner.eta0 - want) <= 1e-14 * want


def test_default_eta0():
    assert default_eta0(3.0, 2.0, "realized") == pytest.approx(1.0 / 216.0)
    assert default_eta0(1.5, 2.0, "realized") == 1.0
    assert default_eta0(1.5, 2.0, "expected") == 0.5


class AlternatingLabels:
    """x = 1 always; labels alternate so the linear-loss gradient is +-1."""

    def next_x(self, t):
        return 1.0

    def next_y(self, t, x, yhat):
        return 1.0 if t % 2 == 0 else -1.0


def run_tuned(mode, n, eta0, seed=0, spec=None):
    spec = spec or ScalarPowerU(2.0)
    tuner = DoublingZigZag(spec, mode, [seed], eta0=eta0, mc_paths=200)
    run_episode(tuner, "linear", AlternatingLabels(), n=n)
    (log,) = tuner.finish()
    return tuner, log


@pytest.mark.parametrize("mode,eta0", [("realized", 8.0), ("expected", 0.9)])
def test_doubling_forces_phases_and_invariant(mode, eta0):
    tuner, log = run_tuned(mode, n=120, eta0=eta0)
    completed = [rec for rec in log if not rec.final]
    assert len(completed) >= 3
    for rec in completed:
        assert rec.eta * rec.phi_minus_last <= rec.threshold + 1e-12
    # phases partition the rounds
    assert log[0].start == 1
    for prev, cur in zip(log, log[1:]):
        assert cur.start == prev.end + 1
    assert log[-1].end == 120


@pytest.mark.parametrize("mode,eta0", [("realized", 8.0), ("expected", 0.9)])
def test_restart_predicate_causality(mode, eta0):
    # truncating the stream must not change decisions on the shared prefix
    _, full_log = run_tuned(mode, n=120, eta0=eta0, seed=4)
    _, short_log = run_tuned(mode, n=60, eta0=eta0, seed=4)
    full_starts = [rec.start for rec in full_log if rec.start <= 60]
    short_starts = [rec.start for rec in short_log if rec.start <= 60]
    assert full_starts == short_starts


@pytest.mark.parametrize("mode", ["realized", "expected"])
def test_doubling_with_lp_spec_runs(mode):
    spec = LpSumU(3.0, 3)
    tuner = DoublingZigZag(spec, mode, [2], mc_paths=150)
    trace = run_episode(tuner, "hinge", IIDGaussianX((3,), LpTag(3.0), [2], normalize=True), n=80)
    (log,) = tuner.finish()
    assert trace.n == 80
    assert log[-1].end == 80
    for rec in log:
        if not rec.final:
            assert rec.eta * rec.phi_minus_last <= rec.threshold + 1e-12


def run_burst_stream():
    """Expected mode over three unit rounds, one x of norm 1000 and three
    more unit rounds: the large x crosses eight thresholds in one round."""
    xs = [[1.0, 0.0]] * 3 + [[1000.0, 0.0]] + [[0.0, 1.0]] * 3
    tuner = DoublingZigZag(HilbertU(2.0, dim=2), "expected", [0], eta0=0.5, mc_paths=100)
    run_episode(tuner, "linear", FixedStream(xs, [1.0] * len(xs)), n=len(xs))
    (log,) = tuner.finish()
    return log


def test_expected_restart_loop_logs_empty_phases():
    log = run_burst_stream()
    # phases 2-8 open at round 4 and close before taking it: the bursting x
    # crosses their thresholds too, so none of them records a Phi
    empty = [(i, 4, 3, 0.0, 0.0, False) for i in range(2, 9)]
    assert [(r.index, r.start, r.end, r.phi_full, r.phi_minus_last, r.final) for r in log] == [
        (0, 1, 2, 2.68, 1.0, False),
        (1, 3, 3, 1.0, 0.0, False),
        *empty,
        (9, 4, 7, 1000003.65, 1000002.65, True),
    ]
    assert [r.eta for r in log] == [0.5 * 2.0**-i for i in range(10)]
    assert [r.threshold for r in log] == [2.0 ** (i + 1) for i in range(10)]


def test_expected_restart_loop_safety_cap(monkeypatch):
    monkeypatch.setattr(tuning, "MAX_RESTARTS_PER_ROUND", 2)
    with pytest.raises(RuntimeError, match="safety cap"):
        run_burst_stream()


class FullScanTracker(tuning.ExpectedPhiTracker):
    """The expected tracker measuring every live prefix row on every append:
    the full O(t) scan that pruning must match bit for bit."""

    def _extend_bounds(self, z, signs):
        super()._extend_bounds(z, signs)
        return np.full(signs.shape, -np.finfo(float).max)  # below every live bound, above a dead row's -inf


@pytest.mark.parametrize("spec", [WeightedL2U(np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])), ScalarPowerU(3.0)], ids=["weighted-l2", "scalar-p"])
def test_expected_doubling_matches_a_full_scan_tracker(spec, monkeypatch):
    def run():
        seeds = [0, 1, 2]
        tuner = DoublingZigZag(spec, "expected", seeds, mc_paths=100, eta0=0.5)
        run_episode(tuner, "hinge", IIDGaussianX(spec.point_shape, spec.tag, seeds, normalize=False), n=120)
        return tuner.finish(), tuner.tracker.sups

    logs, sups = run()
    assert all(len(log) >= 3 for log in logs)  # the lanes restart
    monkeypatch.setattr(tuning, "ExpectedPhiTracker", FullScanTracker)
    full_logs, full_sups = run()
    assert logs == full_logs
    assert np.array_equal(sups, full_sups)


@pytest.mark.parametrize(
    "spec",
    [HilbertU(2.5, dim=3), WeightedL2U(np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])), EvenPowerU(4)],
    ids=lambda s: s.construction,
)
def test_certified_realized_doubling_lanes_match_one_seed_runs(spec):
    """Per-lane rates and per-lane instances: each lane's certificates are
    those of a one-seed run, bit for bit."""

    def run(seeds):
        tuner = DoublingZigZag(spec, "realized", seeds, mc_paths=100, eta0=0.5)
        trace = run_episode(tuner, "hinge", IIDGaussianX(spec.point_shape, spec.tag, seeds, normalize=False), n=80, certify=True)
        return tuner.finish(), trace.cert_worst_slack

    seeds = [0, 1, 2, 3]
    logs, slacks = run(seeds)
    assert len({len(log) for log in logs}) > 1  # the lanes' rates part
    assert slacks.min() >= -CERT_TOL
    for k, seed in enumerate(seeds):
        one_log, one = run([seed])
        assert one_log[0] == logs[k]
        assert np.ascontiguousarray(slacks[:, k]).tobytes() == one[:, 0].tobytes(), seed
