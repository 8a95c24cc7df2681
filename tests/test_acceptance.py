"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v  (the lines print unbuffered
through the capture so they appear either way).
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from zigzag.burkholder import (
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
    zeta_l1,
)
from zigzag.harness import (
    AdaptiveGD,
    FixedStream,
    IIDGaussianX,
    SignFlip,
    brute_force_minimax,
    offline_comparator,
    run_experiment,
    write_outputs,
)
from zigzag.learner import ZigZagLearner, psi, run_episode, theorem_residual
from zigzag.linalg import IntervalSupTracker, LpTag, conjugate
from zigzag.rademacher import (
    DyadicTree,
    hitczenko_check,
    maximal_rad_estimate,
    maximal_rad_exact,
    rad_estimate,
    rad_exact,
    umd_check,
)
from zigzag.rng import rademacher, substream
from zigzag.spectral import run_spectral
from zigzag.tuning import DoublingZigZag, ExpectedPhiTracker


@contextmanager
def criterion(capsys, num, title):
    info = {}
    try:
        yield info
    except Exception:
        with capsys.disabled():
            print(f"[acceptance] criterion {num:>2}: FAIL - {title}")
        raise
    detail = info.get("detail", "")
    with capsys.disabled():
        print(f"[acceptance] criterion {num:>2}: PASS - {title}{' (' + detail + ')' if detail else ''}")


def _psd(seed, d):
    b = substream(seed, "psd").normal(size=(d, d))
    return b @ b.T + 0.5 * np.eye(d)


def catalogue_specs():
    gram = _psd(1, 8)
    return [
        *(ScalarPowerU(p) for p in (1.5, 2.0, 3.0, 4.0)),
        *(LpSumU(p, 5) for p in (1.5, 2.0, 3.0, 4.0)),
        HilbertU(2.0, dim=8),
        HilbertU(2.0, gram=gram),
        WeightedL2U(_psd(2, 5)),
        GroupP2U(1.5, (5, 5)),
        GroupP2U(3.0, (5, 5)),
    ]


def test_criterion_01_burkholder_catalogue(capsys):
    with criterion(capsys, 1, "catalogue majorization + zig-zag probes") as info:
        start = time.monotonic()
        worst_maj, worst_zz = 0.0, 0.0
        for spec in catalogue_specs():
            maj = check_majorization(spec, n_probes=10_000, seed=11, tol=1e-9)
            assert maj.violations == 0, f"{spec.construction} p={spec.p}: {maj}"
            zz = check_zigzag(spec, n_probes=10_000, seed=12, tol=1e-7)
            assert zz.midpoint_violations == 0, f"{spec.construction} p={spec.p}: {zz}"
            zero = np.zeros(spec.point_shape)
            assert spec.value_batch(zero, zero) == 0.0
            worst_maj = min(worst_maj, maj.worst_slack)
            worst_zz = min(worst_zz, zz.worst_midpoint_slack)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        info["detail"] = f"13 specs, worst maj slack {worst_maj:.2e}, worst zig-zag slack {worst_zz:.2e}, {elapsed:.1f}s"


def _central_fd(spec, x, y, z, sigma, h=1e-6):
    up = spec.value_batch(x + h * z, y + sigma * h * z)
    dn = spec.value_batch(x - h * z, y - sigma * h * z)
    return (up - dn) / (2.0 * h)


def test_criterion_02_directional_derivatives(capsys):
    with criterion(capsys, 2, "analytic zig-zag derivatives vs central differences") as info:
        # even-power k=6 values reach ~1e11 at its probe radii, where an
        # h=1e-6 quotient is pure cancellation noise; its box is shrunk so
        # the comparison tests math, not float64 headroom
        specs = catalogue_specs() + [EvenPowerU(4), EvenPowerU(6)]
        scales = {id(s): 0.05 if isinstance(s, EvenPowerU) and s.k == 6 else 1.0 for s in specs}
        worst = 0.0
        for spec in specs:
            rng = substream(21, "fd", spec.construction, spec.p)
            scale = scales[id(spec)]
            done = 0
            while done < 1000:
                xs = scale * spec.sample_points(rng, 4000)
                ys = scale * spec.sample_points(rng, 4000)
                zs = scale * spec.sample_points(rng, 4000)
                fx = np.abs(xs.reshape(xs.shape[0], -1)).min(axis=1)
                fy = np.abs(ys.reshape(ys.shape[0], -1)).min(axis=1)
                keep = (fx > 1e-3) & (fy > 1e-3)
                for x, y, z in zip(xs[keep], ys[keep], zs[keep]):
                    if done >= 1000:
                        break
                    sigma = int(rademacher(rng))
                    err = abs(spec.dirderiv_batch(x, y, z, sigma) - _central_fd(spec, x, y, z, sigma))
                    assert err <= 1e-5, f"{spec.construction} p={spec.p}: err {err:.2e}"
                    worst = max(worst, err)
                    done += 1
        info["detail"] = f"15 specs x 1000 probes, worst error {worst:.2e}"


def test_criterion_03_per_round_admissibility(capsys):
    with criterion(capsys, 3, "per-round certificates over episodes") as info:
        specs = [ScalarPowerU(2.0), LpSumU(3.0, 10), HilbertU(2.0, dim=10)]
        seeds = range(5)
        worst = 0.0
        for spec, adv_kind in itertools.product(specs, ("iid-gaussian", "sign-flip")):
            # the seeds are the lanes of one episode
            base = IIDGaussianX(spec.point_shape, spec.tag, seeds, normalize=True)
            adversary = SignFlip(base) if adv_kind == "sign-flip" else base
            learner = ZigZagLearner(spec, 0.5, [substream(seed, "learner") for seed in seeds])
            trace = run_episode(learner, "hinge", adversary, n=200, certify=True)
            lows = trace.cert_worst_slack.min(axis=0)
            for seed, low in zip(seeds, lows):
                assert low >= -1e-8, f"{spec.construction} {adv_kind} seed {seed}: slack {low:.2e}"
            worst = min(worst, float(lows.min()))
        info["detail"] = f"6 episodes x 5 seed lanes x 200 rounds x 41-point grid, worst slack {worst:.2e}"


def _residual_paths(spec, eta, n, n_paths, adv_seed=42):
    # fixed instance stream across sign paths, one learner lane per path;
    # labels flip the prediction
    d = spec.point_shape[0] if spec.point_shape else 1
    adv_rng = substream(adv_seed, "adversary")
    if d == 1:
        xs = np.sign(adv_rng.normal(size=n))
        xs[xs == 0] = 1.0
    else:
        raw = adv_rng.normal(size=(n, d))
        nrm = (np.abs(raw) ** spec.p).sum(axis=1) ** (1.0 / spec.p)
        xs = raw / nrm[:, None]
    learner = ZigZagLearner(spec, eta, [substream(k, "residual-path") for k in range(n_paths)])
    trace = run_episode(learner, "hinge", SignFlip(FixedStream(xs, np.ones(n))), n)
    return theorem_residual(trace, learner)["residual"]


def test_criterion_04_regret_residual(capsys):
    with criterion(capsys, 4, "expected regret residual <= 0 within 3 SE") as info:
        start = time.monotonic()
        details = []
        cells = [
            ("scalar p=2", ScalarPowerU(2.0), 1.0),
            ("lp p=3 d=5", LpSumU(3.0, 5), (2.0 * 3.0) ** -3.0),
        ]
        for name, spec, eta in cells:
            res = _residual_paths(spec, eta, n=200, n_paths=2000)
            mean = float(res.mean())
            se = float(res.std(ddof=1) / math.sqrt(len(res)))
            assert mean <= 3.0 * se, f"{name}: mean {mean:.3f} > 3 SE {3 * se:.3f}"
            details.append(f"{name}: mean {mean:.2f}, SE {se:.2f}")
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        info["detail"] = "; ".join(details) + f"; {elapsed:.0f}s"


def test_criterion_05_variational_identity(capsys):
    with criterion(capsys, 5, "p-th root variational identity on a log grid") as info:
        grid = np.logspace(-2, 2, 200)
        worst = 0.0
        for p in (1.5, 2.0, 3.0):
            for x in (0.1, 1.0, 10.0, 100.0):
                best = min(psi(eta, p, x) for eta in grid)
                rel = abs(best - x ** (1.0 / p)) / x ** (1.0 / p)
                assert rel <= 1e-3
                worst = max(worst, rel)
        info["detail"] = f"12 cells, worst relative gap {worst:.2e}"


class _AlternatingLabels:
    def next_x(self, t):
        return 1.0

    def next_y(self, t, x, yhat):
        return 1.0 if t % 2 == 0 else -1.0


def test_criterion_06_doubling_schedule(capsys):
    with criterion(capsys, 6, "doubling schedule exactness and phase invariant") as info:
        for p, beta in ((1.5, 2.0), (2.0, 1.0), (3.0, 2.0)):
            tuner = DoublingZigZag(ScalarPowerU(p), "realized", [0], mc_paths=500)
            p_prime, _ = conjugate(p)
            for i in range(41):
                want = 2.0 ** (-i / (p_prime - 1.0))
                assert abs(tuner.eta_for(i) / tuner.eta0 - want) <= 1e-14 * want

        # crafted stream forcing phase changes: unit instances, alternating
        # linear-loss labels, and a deliberately huge starting rate
        tuner = DoublingZigZag(ScalarPowerU(2.0), "realized", [3], mc_paths=500, eta0=8.0)
        run_episode(tuner, "linear", _AlternatingLabels(), n=120)
        (log,) = tuner.finish()
        completed = [rec for rec in log if not rec.final]
        assert len(completed) >= 3
        for rec in completed:
            assert rec.eta * rec.phi_minus_last <= rec.threshold + 1e-12

        # interval-sup functional agrees with the O(n^2) brute force exactly
        tag = LpTag(2.0)
        rng = substream(61, "phi")
        for n in (1, 17, 50):
            incs = rng.normal(size=(n, 3))
            prefixes = np.concatenate([np.zeros((1, 3)), np.cumsum(incs, axis=0)])
            brute = max(
                tag.norm_batch([prefixes[b] - prefixes[a]])[0] for a in range(n + 1) for b in range(a, n + 1)
            )
            tracker = IntervalSupTracker(tag, shape=(3,))
            for inc in incs:
                tracker.append(inc)
            assert 2.0**3 * tracker.sups[0]**3 == 2.0**3 * brute**3
        info["detail"] = f"{len(completed)} completed phases on the crafted stream"


def test_criterion_07_adagrad_recovery(capsys):
    with criterion(capsys, 7, "euclidean rate recovery and baseline agreement") as info:
        spec_dim = 10
        details = []
        seeds = range(20)

        def regrets(learner, n):
            # the 20 seeds are lanes of one episode and one Frank-Wolfe loop
            trace = run_episode(learner, "hinge", IIDGaussianX((spec_dim,), LpTag(2.0), seeds, normalize=True), n)
            xs = np.stack(trace.xs, axis=1)  # (lanes, n, d)
            fw = offline_comparator(xs, trace.y.T, LpTag(2.0), "hinge", iters=400)
            return trace.cum_loss[-1] - fw["best_loss"], trace, xs

        for n in (100, 1000):
            zz_regrets, trace, xs = regrets(DoublingZigZag(HilbertU(2.0, dim=spec_dim), "realized", seeds, mc_paths=500), n)
            grad_norms = np.sqrt(np.sum(trace.dloss.T**2 * np.sum(xs * xs, axis=-1), axis=1))
            ratios = zz_regrets / grad_norms
            gd_regrets, _, _ = regrets(AdaptiveGD(spec_dim, lanes=len(seeds)), n)
            mean_ratio = float(np.mean(ratios))
            assert mean_ratio <= 5.0, f"n={n}: ratio {mean_ratio:.2f}"
            mz, mg = float(np.mean(zz_regrets)), float(np.mean(gd_regrets))
            if n == 1000:
                assert mz <= 3.0 * mg and mg <= 3.0 * mz, f"factor-3 band broken: {mz:.1f} vs {mg:.1f}"
            details.append(f"n={n}: ratio {mean_ratio:.2f}, regret {mz:.1f} vs gd {mg:.1f}")
        info["detail"] = "; ".join(details)


def _enumerate_expected_phi(incs, tag, p, beta):
    n = incs.shape[0]
    total = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=n):
        signed = incs * np.array(signs)[:, None]
        prefixes = np.concatenate([np.zeros((1, incs.shape[1])), np.cumsum(signed, axis=0)])
        diffs = prefixes[:, np.newaxis] - prefixes[np.newaxis]  # every interval, both orientations
        total += tag.norm_batch(diffs.reshape(-1, incs.shape[1])).max() ** p
    return beta**p * total / 2.0**n


def _phi_expected(incs, tag, p, beta, k_paths, seed):
    """Monte Carlo (mean, standard error) of the expected-sign interval-sup
    functional, read from one lane of the expected-mode tracker."""
    tracker = ExpectedPhiTracker(tag, p, beta, k_paths, [substream(seed, "phi-expected")], shape=incs.shape[1:])
    for z in incs:
        tracker.append(z)
    vals = beta**p * tracker.sups**p
    return float(tracker.values[0]), float(np.std(vals, ddof=1) / np.sqrt(k_paths))


def test_criterion_08_monte_carlo_vs_enumeration(capsys):
    with criterion(capsys, 8, "estimators match exact enumeration within 3 SE") as info:
        tag = LpTag(2.0)
        rng = substream(81, "instances")
        checked = 0
        for trial in range(10):
            n = int(rng.integers(3, 11))
            zs = rng.normal(size=(n, 2))
            exact = rad_exact(zs, tag)
            mean, se = rad_estimate(zs, tag, 4000, seed=trial)
            assert abs(mean - exact) <= 3.0 * se
            exact_m = maximal_rad_exact(zs, tag)
            mean_m, se_m = maximal_rad_estimate(zs, tag, 4000, seed=trial)
            assert abs(mean_m - exact_m) <= 3.0 * se_m
            checked += 2
        for trial in range(10):
            n = int(rng.integers(2, 9))
            incs = rng.normal(size=(n, 2))
            exact = _enumerate_expected_phi(incs, tag, 2.0, 1.0)
            mean, se = _phi_expected(incs, tag, 2.0, 1.0, k_paths=3000, seed=trial)
            assert abs(mean - exact) <= 3.0 * max(se, 1e-12)
            checked += 1
        for trial in range(10):
            depth = int(rng.integers(2, 9))
            tree = DyadicTree.random_gaussian(depth, 1, substream(82, "tree", trial))
            exact = hitczenko_check(tree, p=2.0, exact=True)
            mc = hitczenko_check(tree, p=2.0, k_samples=20_000, seed=trial, exact=False)
            assert abs(mc.lhs_mean - exact.lhs_mean) <= 3.0 * max(mc.lhs_se, 1e-12)
            assert abs(mc.rhs_mean - exact.rhs_mean) <= 3.0 * max(mc.rhs_se, 1e-12)
            checked += 1
        info["detail"] = f"{checked} estimator/instance cells"


def test_criterion_09_scalar_sign_invariance_identity(capsys):
    with criterion(capsys, 9, "scalar p=2 sign-invariance ratio is exactly 1") as info:
        worst = 0.0
        for trial in range(8):
            depth = int(substream(91, "depth", trial).integers(2, 11))
            tree = DyadicTree.random_gaussian(depth, 1, substream(92, "tree", trial))
            report = umd_check(2.0, LpTag(2.0), tree, n_patterns=14, seed=trial)  # 14 + 2 canonical
            assert report.exact
            assert len(report.patterns) == 16
            for _, _, _, ratio in report.patterns:
                assert abs(ratio - 1.0) <= 1e-12
                worst = max(worst, abs(ratio - 1.0))
        info["detail"] = f"8 trees x 16 patterns, worst |ratio - 1| = {worst:.2e}"


def test_criterion_10_weak_type_family(capsys):
    with criterion(capsys, 10, "even-power and l1 weak-type constructions") as info:
        details = []
        for k in (4, 6):
            spec = EvenPowerU(k)
            maj = check_majorization(spec, 10_000, seed=101 + k, tol=1e-9)
            zz = check_zigzag(spec, 10_000, seed=102 + k, tol=1e-7)
            assert maj.violations == 0 and zz.midpoint_violations == 0

        for d in (2, 8):
            a = max(10.0, d * math.log(d))  # at or above the validity threshold
            spec = L1WeakTypeU(a, d)
            # biconvexity of the base function in each argument separately
            rng = substream(103, "biconvex", d)
            for _ in range(5):
                x1, x2, y = rng.uniform(-5, 5, (3, 2000, d))
                for lhs, rhs in (
                    (zeta_l1((x1 + x2) / 2, y, a), 0.5 * (zeta_l1(x1, y, a) + zeta_l1(x2, y, a))),
                    (zeta_l1(y, (x1 + x2) / 2, a), 0.5 * (zeta_l1(y, x1, a) + zeta_l1(y, x2, a))),
                ):
                    assert float((rhs - lhs).min()) >= -1e-8
            # boundary inequality on unit-sphere pairs
            rng = substream(104, "boundary", d)
            xs = rng.normal(size=(10_000, d))
            ys = rng.normal(size=(10_000, d))
            xs /= np.abs(xs).sum(axis=1, keepdims=True)
            ys /= np.abs(ys).sum(axis=1, keepdims=True)
            slack = np.abs(xs + ys).sum(axis=1) - zeta_l1(xs, ys, a)
            assert float(slack.min()) >= -1e-9
            # weak-type majorization with constant 2 / u(0,0)
            maj = check_majorization(spec, 10_000, seed=105 + d, tol=1e-9)
            assert maj.violations == 0
            zz = check_zigzag(spec, 10_000, seed=106 + d, tol=1e-7)
            assert zz.midpoint_violations == 0
            details.append(f"d={d}: u00={spec.u00:.3f}, weak constant {spec.beta:.2f}")

        weak = L1WeakTypeU(10.0, 2)
        comp = ComposedL1U(weak, bound=2.0, eps=0.25)
        assert comp.value_batch(np.zeros(2), np.zeros(2)) == 0.0
        fitted = comp.fit_majorant_coeff(n_probes=20_000, seed=107)
        refit = ComposedL1U(weak, bound=2.0, eps=0.25).fit_majorant_coeff(n_probes=20_000, seed=108)
        assert abs(fitted - refit) <= 0.05 * fitted  # stable empirical constant
        maj = check_majorization(comp, 10_000, seed=109, tol=1e-9)
        assert maj.violations == 0
        zz = check_zigzag(comp, 10_000, seed=110, tol=1e-7)
        assert zz.midpoint_violations == 0
        details.append(f"composed fitted C={fitted:.3f} (margin {comp.fit_margin})")
        info["detail"] = "; ".join(details)


def test_criterion_11_spectral_desk_run(capsys):
    with criterion(capsys, 11, "matrix prediction desk run") as info:
        start = time.monotonic()
        res = run_spectral(d=3, r=1, tau=3.0, n=200, stream_kind="uniform", loss_name="hinge", seed=0, max_net=500)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        assert res.weight_drift <= 1e-12
        assert res.cert_violations == 0
        assert res.cert_worst_slack >= -1e-8
        assert res.coverage.size <= 500
        assert np.isfinite(res.regret)
        # sublinearity witness: the average regret rate drops over the
        # second half of the run
        assert res.regret_rate_end <= res.regret_rate_mid + 1e-12
        info["detail"] = (
            f"regret {res.regret:.1f}, rate ratio {res.rate_ratio:.3f} (report-only), "
            f"rate {res.regret_rate_mid:.3f} -> {res.regret_rate_end:.3f}, "
            f"net {res.coverage.size} @ radius {res.coverage.radius_achieved:.3f}, {elapsed:.0f}s"
        )


def test_criterion_12_sequence_optimality(capsys):
    with criterion(capsys, 12, "complexity lower-bounds the minimax value") as info:
        rng = substream(121, "sequences")
        worst_gap = -float("inf")
        for _ in range(50):
            n = int(rng.integers(1, 4))
            xs = rng.uniform(-1, 1, size=n)
            value = brute_force_minimax(xs, "absolute")
            gap = rad_exact(xs[:, np.newaxis], LpTag(2.0)) - value
            assert gap <= 0.05
            worst_gap = max(worst_gap, gap)
        info["detail"] = f"50 sequences, worst (complexity - minimax) = {worst_gap:.3f}"


def test_criterion_13_reproducibility(capsys, tmp_path):
    with criterion(capsys, 13, "bit-identical reruns") as info:
        config = {
            "algorithm": "zigzag-doubling-realized",
            "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
            "loss": "hinge",
            "adversary": {"kind": "sign-flip"},
            "n": 60,
            "seeds": [0, 1],
            "rad_samples": 300,
            "fw_iters": 100,
        }
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            write_outputs(run_experiment(config), run_dir)
        files = ["summary.json", "episode_seed0.csv", "episode_seed1.csv"]
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        r1 = run_spectral(3, 1, 3.0, n=40, stream_kind="uniform", loss_name="hinge", seed=5, max_net=60)
        r2 = run_spectral(3, 1, 3.0, n=40, stream_kind="uniform", loss_name="hinge", seed=5, max_net=60)
        assert r1.rows == r2.rows and r1.learner_loss == r2.learner_loss
        info["detail"] = f"{len(files)} files byte-identical; spectral rows identical"
