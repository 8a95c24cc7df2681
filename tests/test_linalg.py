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
    assert LpTag(2.0).norm_batch([[3.0, 4.0]])[0] == pytest.approx(5.0)
    # direct arithmetic: (1 + 1 + 1)^(1/3)
    assert LpTag(3.0).norm_batch([np.ones(3)])[0] == pytest.approx(3.0 ** (1.0 / 3.0))
    assert SupTag().norm_batch([[1.0, -2.0]])[0] == pytest.approx(2.0)
    assert OneTag().norm_batch([[1.0, -2.0]])[0] == pytest.approx(3.0)


def test_lp_requires_p_above_one():
    with pytest.raises(ValueError):
        LpTag(1.0)
    with pytest.raises(ValueError):
        GroupP2Tag(0.5)


def test_weighted_and_gram_norms():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert GramTag(a).norm_batch([[1.0, 1.0]])[0] == pytest.approx(np.sqrt(3.0))
    # any number of leading batch axes
    assert np.array_equal(GramTag(a).norm_batch(np.ones((2, 3, 2))), np.full((2, 3), np.sqrt(3.0)))


def test_gram_products_are_row_stable():
    """A dense Gram tag gives every row of a batch its one-row norm and form,
    whatever the batch size or the number of leading axes."""
    rng = substream(14, "gram-rows")
    b = rng.normal(size=(4, 4))
    tag = GramTag(b @ b.T + 0.5 * np.eye(4))
    xs = rng.normal(size=(300, 4))
    norms = np.array([tag.norm_batch([x])[0] for x in xs])
    forms = np.stack([tag.dual(x) for x in xs])
    for rows in range(1, 301):
        assert np.array_equal(tag.norm_batch(xs[:rows]), norms[:rows]), rows
        assert np.array_equal(tag.dual(xs[:rows]), forms[:rows]), rows
    for lanes in (1, 2, 3, 5):
        stacked = xs[: lanes * 60].reshape(lanes, 60, 4)
        assert np.array_equal(tag.norm_batch(stacked), norms[: lanes * 60].reshape(lanes, 60))
        assert np.array_equal(tag.dual(stacked), forms[: lanes * 60].reshape(lanes, 60, 4))


def test_psd_validation_rejects_indefinite():
    with pytest.raises(ValueError):
        GramTag(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_group_p2_norm():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert GroupP2Tag(2.0).norm_batch([x])[0] == pytest.approx(5.0)
    # rows have l2 norms 5 and 1; (5^3 + 1)^(1/3)
    y = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert GroupP2Tag(3.0).norm_batch([y])[0] == pytest.approx((125.0 + 1.0) ** (1.0 / 3.0))


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
    nx, nlx, nxy, ny = tag.norm_batch([x, lam * x, x + y, y])
    assert nx >= 0.0
    assert nlx == pytest.approx(abs(lam) * nx, rel=1e-10, abs=1e-12)
    assert nxy <= nx + ny + 1e-10


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
    assert got @ g == pytest.approx(-SupTag().norm_batch([g])[0])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lmo_duality_consistency(p):
    rng = substream(11, "lmo", p)
    tag = LpTag(p)
    p_prime, _ = conjugate(p)
    for _ in range(1000):
        g = rng.normal(size=4)
        w = dual_ball_lmo(g, tag)
        assert np.sum(np.abs(w) ** p_prime) <= 1.0 + 1e-10
        assert w @ g == pytest.approx(-tag.norm_batch([g])[0], rel=1e-8)


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
        assert w @ a @ g == pytest.approx(-gram.norm_batch([g])[0], rel=1e-8)


def test_lmo_answers_a_lane_axis_row_by_row():
    rng = substream(13, "lmo-lanes")
    b = rng.normal(size=(4, 4))
    tags = [LpTag(2.0), LpTag(3.0), SupTag(), OneTag(), GramTag(b @ b.T + 0.5 * np.eye(4))]
    g = rng.normal(size=(5, 4))
    g[2] = 0.0
    for tag in tags:
        got = dual_ball_lmo(g, tag)
        assert got.shape == g.shape
        assert not np.any(got[2]), tag.name  # a zero row stays zero
        for row, want in zip(got, g):
            assert np.array_equal(row, dual_ball_lmo(want, tag)), tag.name


def test_lmo_unsupported_tag():
    with pytest.raises(ValueError):
        dual_ball_lmo(np.eye(2), GroupP2Tag(2.0))


def interval_sup(increments, tag):
    tracker = IntervalSupTracker(tag, shape=np.shape(increments)[1:])
    for inc in increments:
        tracker.append(inc)
    return tracker.sups[0]


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
    assert tracker.sups[0] == pytest.approx(np.sqrt(3.0)) and tracker.n == 1


TRACKER_TAGS = {
    "l2": (LpTag(2.0), (3,)),
    "l3": (LpTag(3.0), (3,)),
    "gram": (GramTag(np.eye(4) + 0.3), (4,)),
    "sup": (SupTag(), (3,)),
    "one": (OneTag(), (3,)),
    "group-p2": (GroupP2Tag(3.0), (3, 2)),
}


def brute_sups(increments, tag):
    """Every path's interval sup by the O(n^2) scan: the norm of every
    P_b - P_a with a <= b, prefixes accumulated in order as the tracker does."""
    n, paths, *shape = increments.shape
    prefixes = np.concatenate([np.zeros((1, paths, *shape)), np.cumsum(increments, axis=0)])
    diffs = prefixes[:, np.newaxis] - prefixes[np.newaxis]  # [b, a]
    norms = tag.norm_batch(diffs.reshape(-1, *shape)).reshape(n + 1, n + 1, paths)
    return np.where(np.tril(np.ones((n + 1, n + 1), bool))[..., np.newaxis], norms, 0.0).max(axis=(0, 1))


def fed(tag, shape, increments):
    tracker = IntervalSupTracker(tag, shape=shape, paths=increments.shape[1])
    for inc in increments:
        tracker.append(inc)
    return tracker


@pytest.mark.parametrize("paths", [1, 7])
@pytest.mark.parametrize("tag, shape", TRACKER_TAGS.values(), ids=TRACKER_TAGS.keys())
def test_interval_tracker_matches_brute_force(tag, shape, paths):
    # the pruned tracker measures only some prefixes, yet every sup is the
    # scan's maximum bit for bit: no tolerance
    rng = substream(3, "tracker", tag.name, paths)
    for n in (1, 2, 17, 60):
        incs = rng.normal(size=(n, paths, *shape)) * rng.uniform(0.1, 3.0, size=(n, 1) + (1,) * len(shape))
        assert np.array_equal(fed(tag, shape, incs).sups, brute_sups(incs, tag))
    assert fed(tag, shape, incs[:, 0][:, np.newaxis]).sups[0] == brute_sups(incs[:, :1], tag)[0]


@pytest.mark.parametrize("tag, shape", TRACKER_TAGS.values(), ids=TRACKER_TAGS.keys())
def test_restarted_paths_equal_fresh_trackers(tag, shape):
    # paths 1 and 4 restart after round 10; every path restarts after round
    # 20, taking a redrawn round-20 increment, so later appends drop the rows
    # no path reads; each path must equal a fresh tracker fed its suffix
    rng = substream(4, "tracker-restart", tag.name)
    incs = rng.normal(size=(60, 7, *shape))
    redrawn = -incs[19]
    tracker = fed(tag, shape, incs[:10])
    tracker.restart(np.array([1, 4]))
    for inc in incs[10:20]:
        tracker.append(inc)
    tracker.restart(slice(None), redrawn)
    for inc in incs[20:]:
        tracker.append(inc)
    suffix = np.concatenate([redrawn[np.newaxis], incs[20:]])
    assert np.array_equal(tracker.sups, fed(tag, shape, suffix).sups)
    assert tracker.n == 60
    # paths 1 and 4 alone, restarted after round 10 only
    tracker = fed(tag, shape, incs[:10])
    tracker.restart(np.array([1, 4]))
    for inc in incs[10:]:
        tracker.append(inc)
    want = brute_sups(incs, tag)
    want[[1, 4]] = fed(tag, shape, incs[10:, [1, 4]]).sups
    assert np.array_equal(tracker.sups, want)
