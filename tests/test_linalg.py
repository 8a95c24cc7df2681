import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzag.linalg import (
    GramTag,
    GroupP2Tag,
    IntervalSupTracker,
    LpTag,
    OneTag,
    SupTag,
    conjugate,
    dual_ball_lmo,
)
from zigzag.rng import substream


def brute_interval_sup(prefixes, tag):
    arr = np.asarray(prefixes, dtype=float)
    best = 0.0
    for a in range(arr.shape[0]):
        for b in range(a, arr.shape[0]):
            best = max(best, tag.norm(arr[b] - arr[a]))
    return best


def test_conjugate_values():
    assert conjugate(2.0) == (2.0, 2.0)
    p_prime, p_star = conjugate(3.0)
    assert p_prime == pytest.approx(1.5)
    assert p_star == 3.0
    p_prime, p_star = conjugate(4.0 / 3.0)
    assert p_prime == pytest.approx(4.0)
    assert p_star == pytest.approx(4.0)
    with pytest.raises(ValueError):
        conjugate(1.0)


def test_norm_values():
    assert LpTag(2.0).norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    # direct arithmetic: (1 + 1 + 1)^(1/3)
    assert LpTag(3.0).norm(np.ones(3)) == pytest.approx(3.0 ** (1.0 / 3.0))
    assert SupTag().norm(np.array([1.0, -2.0])) == pytest.approx(2.0)
    assert OneTag().norm(np.array([1.0, -2.0])) == pytest.approx(3.0)


def test_lp_requires_p_above_one():
    with pytest.raises(ValueError):
        LpTag(1.0)
    with pytest.raises(ValueError):
        GroupP2Tag(0.5)


def test_weighted_and_gram_norms():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert GramTag(a).norm(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(3.0))
    # any number of leading batch axes
    assert np.array_equal(GramTag(a).norm_batch(np.ones((2, 3, 2))), np.full((2, 3), np.sqrt(3.0)))


def test_psd_validation_rejects_indefinite():
    with pytest.raises(ValueError):
        GramTag(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_group_p2_norm():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert GroupP2Tag(2.0).norm(x) == pytest.approx(5.0)
    # rows have l2 norms 5 and 1; (5^3 + 1)^(1/3)
    y = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert GroupP2Tag(3.0).norm(y) == pytest.approx((125.0 + 1.0) ** (1.0 / 3.0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.floats(-4, 4),
    st.sampled_from([1.5, 2.0, 3.0]),
)
def test_norm_axioms(coords, lam, p):
    x = np.array(coords)
    y = np.roll(x, 1) * 0.5
    tag = LpTag(p)
    assert tag.norm(x) >= 0.0
    assert tag.norm(lam * x) == pytest.approx(abs(lam) * tag.norm(x), rel=1e-10, abs=1e-12)
    assert tag.norm(x + y) <= tag.norm(x) + tag.norm(y) + 1e-10


def test_lmo_l2_examples():
    assert np.allclose(dual_ball_lmo(np.array([0.0, 2.0]), LpTag(2.0)), [0.0, -1.0])
    assert np.allclose(dual_ball_lmo(np.zeros(2), LpTag(2.0)), [0.0, 0.0])


def test_lmo_sup_primal_matches_vertex_scan():
    g = np.array([1.0, -3.0])
    # oracle: brute force over the +-e_i vertices of the l1 ball
    verts = np.vstack([np.eye(2), -np.eye(2)])
    scores = verts @ g
    best = verts[np.argmin(scores)]
    got = dual_ball_lmo(g, SupTag())
    assert np.allclose(got, best)
    assert np.allclose(got, [0.0, 1.0])
    assert got @ g == pytest.approx(-SupTag().norm(g))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lmo_duality_consistency(p):
    rng = substream(11, "lmo", p)
    tag = LpTag(p)
    p_prime, _ = conjugate(p)
    for _ in range(1000):
        g = rng.normal(size=4)
        w = dual_ball_lmo(g, tag)
        assert np.sum(np.abs(w) ** p_prime) <= 1.0 + 1e-10
        assert w @ g == pytest.approx(-tag.norm(g), rel=1e-8)


def test_lmo_weighted_and_gram_duality():
    rng = substream(12, "lmo-weighted")
    b = rng.normal(size=(3, 3))
    a = b @ b.T + 0.5 * np.eye(3)
    gram = GramTag(a)
    for _ in range(200):
        g = rng.normal(size=3)
        # gram points (weighted-l2 ones too) pair with the Hilbert inner
        # product on coefficients
        w = dual_ball_lmo(g, gram)
        assert w @ a @ g == pytest.approx(-gram.norm(g), rel=1e-8)


def test_lmo_unsupported_tag():
    with pytest.raises(ValueError):
        dual_ball_lmo(np.eye(2), GroupP2Tag(2.0))


def interval_sup(increments, tag):
    tracker = IntervalSupTracker(tag, shape=np.shape(increments)[1:])
    for inc in increments:
        tracker.append(inc)
    return tracker.value


def test_prefix_interval_sup_examples():
    # increments +1, -2 -> prefixes 0, 1, -1; widest interval spans 1 to -1
    assert interval_sup(np.array([[1.0], [-2.0]]), LpTag(2.0)) == pytest.approx(2.0)
    z = np.array([0.7, -0.2])
    assert interval_sup(z[np.newaxis], LpTag(2.0)) == pytest.approx(np.linalg.norm(z))
    assert interval_sup(np.zeros((4, 2)), LpTag(2.0)) == 0.0
    assert interval_sup(np.zeros((0, 2)), LpTag(2.0)) == 0.0


def test_interval_tracker_rejects_increment_shape():
    tracker = IntervalSupTracker(LpTag(2.0), shape=(3,))
    with pytest.raises(ValueError):
        tracker.append(np.ones(1))  # used to broadcast to (1, 1, 1): sup 1.732
    with pytest.raises(ValueError):
        IntervalSupTracker(LpTag(2.0), shape=(3,), paths=4).append(np.ones((2, 3)))
    tracker.append(np.ones(3))
    assert tracker.value == pytest.approx(np.sqrt(3.0)) and tracker.n == 1


@pytest.mark.parametrize("tag", [LpTag(2.0), LpTag(3.0), SupTag()])
def test_interval_tracker_matches_brute_force(tag):
    rng = substream(3, "tracker", tag.name)
    for trial in range(5):
        n = int(rng.integers(1, 51))
        incs = rng.normal(size=(n, 3))
        prefixes = np.vstack([np.zeros(3), np.cumsum(incs, axis=0)])
        tracker = IntervalSupTracker(tag, shape=(3,))
        for inc in incs:
            tracker.append(inc)
        expected = brute_interval_sup(prefixes, tag)
        assert tracker.value == expected  # identical arithmetic, no tolerance
