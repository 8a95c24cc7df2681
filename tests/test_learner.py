import tracemalloc
from collections import Counter

import numpy as np
import pytest

from zigzag.burkholder import EvenPowerU, GroupP2U, HilbertU, LpSumU, ScalarPowerU, WeightedL2U
from zigzag.harness import IIDGaussianX, SignFlip
from zigzag.learner import BLOCK, CERT_TOL, ZigZagLearner, psi, run_episode, theorem_residual, validate_labels
from zigzag.linalg import LpTag, conjugate
from zigzag.losses import dloss_batch, loss_batch
from zigzag.rng import substream
from zigzag.tuning import DoublingZigZag


class ConstantX:
    """Stub adversary: fixed x every round, labels from a fixed list."""

    def __init__(self, x, ys):
        self.x = x
        self.ys = ys

    def next_x(self, t):
        return self.x

    def next_y(self, t, x, yhat):
        return self.ys[(t - 1) % len(self.ys)]


def flip_sign(dim=None, seed=0):
    """Sign-flip labels over the constant instance 1.0, or over Gaussian
    instances on the Euclidean unit sphere of R^dim drawn from ``seed``'s
    adversary stream."""
    return SignFlip(ConstantX(1.0, [1.0]) if dim is None else IIDGaussianX((dim,), LpTag(2.0), [seed], normalize=True))


def make_learner(spec, eta=1.0, seed=0):
    return ZigZagLearner(spec, eta, [substream(seed, "learner")])


def test_fresh_state_predicts_zero():
    for spec in [ScalarPowerU(2.0), ScalarPowerU(3.0), LpSumU(3.0, 4), HilbertU(2.0, dim=4)]:
        learner = make_learner(spec)
        x = spec.sample_points(substream(1, "x"), 4)[0]
        assert learner.predict(x) == pytest.approx(0.0, abs=1e-14)


def test_scalar_p2_prediction_closed_form():
    learner = make_learner(ScalarPowerU(2.0), eta=1.0)
    learner.update(3.0, 1.0)  # S = 3, M = +-3
    assert learner.predict(1.0) == pytest.approx(-3.0)


def test_hilbert_p2_matches_inner_product_rule():
    spec = HilbertU(2.0, dim=6)
    rng = substream(2, "state")
    for eta in (0.5, 2.0):
        learner = make_learner(spec, eta=eta)
        for _ in range(13):
            learner.update(rng.normal(size=6), float(rng.uniform(-1, 1)))
        x = rng.normal(size=6)
        want = -eta * float(np.dot(learner.S[0], x))
        assert learner.predict(x) == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_update_semantics():
    learner = make_learner(ScalarPowerU(2.0))
    learner.update(1.0, 0.0)
    assert learner.S == 0.0 and learner.M == 0.0 and learner.t == 1
    learner.update(1.0, 1.0)
    learner.update(1.0, -1.0)
    assert learner.S == pytest.approx(0.0)
    assert learner.t == 3
    with pytest.raises(ValueError):
        learner.update(1.0, 1.5)


def test_update_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        make_learner(LpSumU(3.0, 4)).update(np.ones(3), 0.5)
    with pytest.raises(ValueError):
        make_learner(ScalarPowerU(2.0)).update(np.ones(1), 0.5)
    # predict and certificate share the check, also after a valid update
    for spec, bad in ((LpSumU(3.0, 4), np.ones(3)), (ScalarPowerU(2.0), np.ones(1)), (LpSumU(3.0, 4), np.ones(1))):
        learner = make_learner(spec)
        learner.update(np.ones(spec.point_shape), 0.5)
        with pytest.raises(ValueError):
            learner.predict(bad)
        with pytest.raises(ValueError):
            learner.certificate(bad, 0.0)


def test_relaxation_value():
    learner = make_learner(ScalarPowerU(2.0), eta=2.0)
    assert learner.relaxation_value() == 0.0
    learner.S, learner.M = np.array([3.0]), np.array([2.0])
    assert learner.relaxation_value() == pytest.approx(5.0)  # (2/2)(9 - 4)


def test_certificate_scalar_p2_exact():
    learner = make_learner(ScalarPowerU(2.0), eta=1.3)
    learner.S, learner.M = np.array([1.7]), np.array([-0.4])
    worst = learner.certificate(0.8, learner.predict(0.8))
    assert worst >= -CERT_TOL
    # for p = 2 the averaged G is linear, so the slack vanishes on the grid
    assert abs(worst) < 1e-12


def test_certificate_negative_control():
    spec = ScalarPowerU(2.0)
    learner = make_learner(spec, eta=1.0)
    learner.S, learner.M = np.array([1.0]), np.array([0.5])
    x = 1.0
    corrupted = learner.predict(x) + 0.5
    assert learner.certificate(x, corrupted) < -CERT_TOL


@pytest.mark.parametrize(
    "spec",
    [ScalarPowerU(2.0), ScalarPowerU(1.5), LpSumU(3.0, 5), HilbertU(2.0, dim=5)],
    ids=lambda s: f"{s.construction}-p{s.p}",
)
def test_certificate_along_episodes(spec):
    dim = spec.point_shape[0] if spec.point_shape else None
    adversary = flip_sign(dim, seed=11)
    learner = make_learner(spec, eta=0.7, seed=11)
    trace = run_episode(learner, "hinge", adversary, n=60, certify=True)
    assert trace.cert_worst_slack.min() >= -1e-8


@pytest.mark.parametrize(
    "spec",
    [
        ScalarPowerU(3.0),
        LpSumU(3.0, 4),
        HilbertU(2.5, dim=4),
        WeightedL2U(np.array([[2.0, 0.5], [0.5, 1.0]])),
        GroupP2U(3.0, (3, 3)),
        EvenPowerU(4),
    ],
    ids=lambda s: s.construction,
)
def test_one_query_per_predict_and_certificate(spec, monkeypatch):
    calls = Counter()

    def counted(name):
        method = getattr(spec, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in ("dirderiv_batch", "mean_dirderiv", "value_batch", "zigzag_line"):
        monkeypatch.setattr(spec, name, counted(name))
    learner = make_learner(spec, eta=0.7)
    x = spec.sample_points(substream(4, "query-x"), 1)[0]
    learner.update(x, 0.5)
    yhat = learner.predict(x)
    assert yhat.shape == (1,)
    assert calls == {"mean_dirderiv": 1}
    assert learner.certificate(x, yhat) >= -CERT_TOL
    assert calls == {"mean_dirderiv": 1, "zigzag_line": 1}


LANE_SPECS = [
    ScalarPowerU(3.0),
    LpSumU(3.0, 4),
    HilbertU(2.5, gram=np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.3], [0.0, 0.0, 0.3, 3.0]])),
    WeightedL2U(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]])),
    GroupP2U(3.0, (4, 4)),
    EvenPowerU(4),
]


@pytest.mark.parametrize("kind", ["sign-flip", "iid-gaussian"])
@pytest.mark.parametrize("spec", LANE_SPECS, ids=lambda s: s.construction)
def test_lanes_match_one_lane_runs_bit_for_bit(spec, kind):
    def adversary():
        base = IIDGaussianX(spec.point_shape, spec.tag, [9], normalize=True)
        return SignFlip(base) if kind == "sign-flip" else base

    lanes = ZigZagLearner(spec, 0.7, [substream(seed, "learner") for seed in range(16)])
    trace = run_episode(lanes, "hinge", adversary(), n=30, certify=True)
    assert trace.yhat.shape == (30, 16)
    residual = theorem_residual(trace, lanes)
    for seed in range(16):
        learner = make_learner(spec, eta=0.7, seed=seed)
        one = run_episode(learner, "hinge", adversary(), n=30, certify=True)
        for column in ("yhat", "y", "eps", "loss", "dloss", "rel_value", "cum_loss", "cert_worst_slack"):
            got = np.ascontiguousarray(getattr(trace, column)[:, seed])
            assert got.tobytes() == getattr(one, column)[:, 0].tobytes(), (seed, column)
        for key, value in theorem_residual(one, learner).items():
            assert residual[key][seed].tobytes() == value[0].tobytes(), (seed, key)
    if kind == "sign-flip" and spec.construction in ("scalar-p", "lp-sum", "group-p2"):
        # the tie rule is exercised: a zero prediction at round 2 gets +1
        tied = trace.yhat[1] == 0.0
        assert np.any(tied) and np.all(trace.y[1][tied] == 1.0)


def replay(learner, loss_name, adversary, n):
    """The protocol round by round, with each round's certificate, loss and
    relaxation value queried in that round: the ``(n, K)`` columns
    ``cert_worst_slack``, ``rel_value`` and ``loss``."""
    cert, rel, loss = [], [], []
    for t in range(1, n + 1):
        x = adversary.next_x(t)
        yhat = learner.predict(x)
        y = adversary.next_y(t, x, yhat)
        cert.append(learner.certificate(x, yhat))
        loss.append(np.broadcast_to(loss_batch(loss_name, yhat, y), yhat.shape))
        learner.update(x, dloss_batch(loss_name, yhat, y))
        rel.append(np.broadcast_to(learner.relaxation_value(), yhat.shape))
    return {"cert_worst_slack": np.array(cert), "rel_value": np.array(rel), "loss": np.array(loss)}


def assert_block_path_is_the_replay(make, adversary, n):
    assert n % BLOCK  # a last block that is not full
    trace = run_episode(make(), "hinge", adversary(), n, certify=True)
    for column, want in replay(make(), "hinge", adversary(), n).items():
        assert getattr(trace, column).tobytes() == want.tobytes(), column


@pytest.mark.parametrize("n", [5, 37])
@pytest.mark.parametrize("lanes", [1, 8])
@pytest.mark.parametrize("spec", LANE_SPECS, ids=lambda s: s.construction)
def test_block_queries_equal_a_round_by_round_replay(spec, lanes, n):
    def adversary():
        return SignFlip(IIDGaussianX(spec.point_shape, spec.tag, list(range(lanes)), normalize=True))

    assert_block_path_is_the_replay(lambda: ZigZagLearner(spec, 0.7, [substream(seed, "learner") for seed in range(lanes)]), adversary, n)


@pytest.mark.parametrize("mode", ["realized", "expected"])
def test_doubling_block_queries_equal_a_round_by_round_replay(mode):
    """The lanes restart mid-block, so a recorded state carries the rates
    and zeroed sums of the round it was copied in."""
    spec, seeds = HilbertU(2.5, dim=3), [0, 1, 2]

    def make():
        tuner = DoublingZigZag(spec, mode, seeds, mc_paths=100, eta0=0.5)
        made.append(tuner)
        return tuner

    made = []
    assert_block_path_is_the_replay(make, lambda: IIDGaussianX(spec.point_shape, spec.tag, seeds, normalize=False), 37)
    assert all(len(log) >= 3 for log in made[0].finish())


@pytest.mark.parametrize("spec", [LpSumU(3.0, 10), HilbertU(2.5, dim=10)], ids=lambda s: s.construction)
def test_certified_episode_memory_is_bounded(spec):
    # the block buffers and one block's line rows stay small: a larger
    # block constant shows here before it shows in the benchmark's RSS
    seeds = list(range(8))
    learner = ZigZagLearner(spec, 0.7, [substream(seed, "learner") for seed in seeds])
    adversary = SignFlip(IIDGaussianX(spec.point_shape, spec.tag, seeds, normalize=True))
    tracemalloc.start()
    try:
        run_episode(learner, "hinge", adversary, n=150, certify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_per_lane_rates_match_one_lane_residuals():
    spec = LpSumU(3.0, 4)
    rates = [0.5, 0.7]
    lanes = ZigZagLearner(spec, rates, [substream(seed, "learner") for seed in range(2)])
    residual = theorem_residual(run_episode(lanes, "hinge", flip_sign(4, seed=3), n=30), lanes)
    for k, eta in enumerate(rates):
        one = make_learner(spec, eta=eta, seed=k)
        for key, value in theorem_residual(run_episode(one, "hinge", flip_sign(4, seed=3), n=30), one).items():
            assert residual[key][k].tobytes() == value[0].tobytes(), (k, key)


@pytest.mark.parametrize("spec", [LpSumU(3.0, 4), HilbertU(2.5, dim=4), *LANE_SPECS[2:4], EvenPowerU(6)], ids=lambda s: f"{s.construction}-{s.tag.name}")
def test_per_lane_instances_match_one_lane_learners(spec):
    rng = substream(5, "per-lane")
    lanes = ZigZagLearner(spec, 0.7, [substream(seed, "learner") for seed in range(3)])
    ones = [make_learner(spec, eta=0.7, seed=seed) for seed in range(3)]
    for _ in range(20):
        xs = rng.normal(size=(3, *spec.point_shape))
        yhat = lanes.predict(xs)
        cert = lanes.certificate(xs, yhat)
        dl = np.clip(-yhat, -1.0, 1.0)
        eps = lanes.update(xs, dl)
        for k, one in enumerate(ones):
            (want,) = one.predict(xs[k])
            assert yhat[k].tobytes() == want.tobytes()
            assert cert[k] == one.certificate(xs[k], want)[0]
            assert eps[k] == one.update(xs[k], dl[k])[0]
    assert lanes.S.tobytes() == np.concatenate([one.S for one in ones]).tobytes()
    # neither a wrong lane count nor, on one lane, a length-1 lane axis
    with pytest.raises(ValueError):
        lanes.predict(np.ones((2, *spec.point_shape)))
    with pytest.raises(ValueError):
        ones[0].predict(np.ones((1, *spec.point_shape)))


def test_sign_flip_tie_rule():
    """-0.0 and +0.0 both get +1: an episode's zero predictions may carry
    either sign."""
    yhat = np.array([-0.0, 0.0, 1e-300, -2.5])
    assert SignFlip(None).next_y(1, None, yhat).tolist() == [1.0, 1.0, -1.0, 1.0]


def test_certificate_matrix_and_weighted_specs():
    from zigzag.burkholder import GroupP2U, WeightedL2U
    from zigzag.rng import substream as sub

    b = sub(31, "psd").normal(size=(4, 4))
    specs = [GroupP2U(3.0, (4, 4)), GroupP2U(1.5, (4, 4)), WeightedL2U(b @ b.T + 0.5 * np.eye(4))]
    for spec in specs:
        adversary = SignFlip(IIDGaussianX(spec.point_shape, spec.tag, [13], normalize=True))
        learner = make_learner(spec, eta=0.4, seed=13)
        trace = run_episode(learner, "hinge", adversary, n=40, certify=True)
        assert trace.cert_worst_slack.min() >= -1e-8


def test_episode_empty_and_constant():
    spec = ScalarPowerU(2.0)
    learner = make_learner(spec)
    trace = run_episode(learner, "linear", ConstantX(0.0, [1.0]), n=0)
    assert trace.n == 0
    res = theorem_residual(trace, learner)
    p_prime, _ = conjugate(spec.p)
    assert res["residual"] == pytest.approx(-psi(1.0, spec.p, 0.0))
    assert res["residual"] <= 0.0

    learner = make_learner(spec)
    trace = run_episode(learner, "linear", ConstantX(0.0, [1.0, -1.0]), n=20)
    assert np.all(trace.yhat == 0.0)
    res = theorem_residual(trace, learner)
    assert res["linearized_regret"] == pytest.approx(0.0)


def test_cum_loss_is_the_running_total_from_plus_zero():
    """A linear loss at the fresh state's -0.0 prediction with label -1 is
    -0.0; the running total starts at +0.0, so its first entry is +0.0."""
    learner = make_learner(LpSumU(3.0, 2))
    trace = run_episode(learner, "linear", ConstantX(np.array([0.6, -0.8]), [-1.0, 1.0, 1.0, -1.0]), n=9)
    assert np.signbit(trace.yhat[0, 0]) and np.signbit(trace.loss[0, 0])
    want, total = [], 0.0
    for value in trace.loss[:, 0]:
        total = total + value
        want.append(total)
    assert trace.cum_loss.tobytes() == np.array(want).reshape(-1, 1).tobytes()
    assert trace.to_csv().splitlines()[1].endswith(",0.0")


def test_label_validation():
    spec = ScalarPowerU(2.0)
    with pytest.raises(ValueError):
        run_episode(make_learner(spec), "hinge", ConstantX(1.0, [0.3]), n=2)
    # absolute loss accepts interior labels
    trace = run_episode(make_learner(spec), "absolute", ConstantX(1.0, [0.3]), n=2)
    assert trace.n == 2


def test_determinism_bit_identical():
    spec = LpSumU(3.0, 4)
    t1 = run_episode(make_learner(spec, seed=5), "hinge", flip_sign(4, seed=5), n=40)
    t2 = run_episode(make_learner(spec, seed=5), "hinge", flip_sign(4, seed=5), n=40)
    assert t1.to_csv() == t2.to_csv()


def test_per_round_payoff_never_beats_relaxation():
    # summed certificate form of telescoping: sum_t [yhat_t l'_t + G_t(l'_t)
    # - Rel_{t-1}] <= 0 pathwise (each term is <= 0 by concavity of G)
    spec = LpSumU(3.0, 4)
    learner = make_learner(spec, eta=0.5, seed=21)
    adversary = flip_sign(4, seed=21)
    total = 0.0
    for t in range(1, 51):
        x = adversary.next_x(t)
        yhat = learner.predict(x)
        y = adversary.next_y(t, x, yhat)
        dl = dloss_batch("hinge", yhat, y)
        total += -learner.certificate(x, yhat, grid=dl)
        learner.update(x, dl)
    assert total <= 1e-10


def test_expected_telescoping_over_sign_paths():
    # E_eps [sum yhat l' + Rel_n] <= Rel_0 = 0; check the Monte Carlo mean
    # over 400 sign-path lanes against a 3-standard-error band
    spec = ScalarPowerU(2.0)
    learner = ZigZagLearner(spec, 1.0, [substream(1000 + k, "learner") for k in range(400)])
    trace = run_episode(learner, "linear", flip_sign(), n=30)
    vals = (trace.yhat * trace.dloss).sum(axis=0) + learner.relaxation_value()
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert mean <= 3.0 * se


@pytest.mark.parametrize("loss_name", ["hinge", "absolute"])
def test_a_bad_label_is_named_without_the_rest(loss_name):
    y = np.ones(3000)
    y[1234] = 5.0
    with pytest.raises(ValueError) as exc:
        validate_labels(loss_name, y)
    message = str(exc.value)
    assert len(message) < 200 and "got 5.0 at index 1234 (1 of 3000 labels are bad)" in message
