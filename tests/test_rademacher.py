import tracemalloc

import numpy as np
import pytest

from zigzag.linalg import GramTag, GroupP2Tag, LpTag, OneTag, SupTag
from zigzag.rademacher import (
    DyadicTree,
    _mean_se,
    _prefix_max_norms,
    _sign_blocks,
    _sum_norms,
    _tree_sums,
    hitczenko_check,
    maximal_rad_estimate,
    maximal_rad_exact,
    rad_estimate,
    rad_exact,
    umd_check,
)
from zigzag.rng import rademacher, substream

ABS = LpTag(2.0)  # absolute value in one dimension


def _shift_and_mask_signs(n):
    """All 2^n sign paths as float +-1 rows: row i holds the little-endian
    bits of i by shift and mask, bit 0 as -1 and bit 1 as +1."""
    codes = np.arange(2**n)
    return (((codes[:, np.newaxis] >> np.arange(n)) & 1) * 2 - 1).astype(float)


def constant_tree(depth, vectors):
    """Non-anticipating tree: level t is the constant vector vectors[t]."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    assert vectors.shape[0] == depth
    return DyadicTree([np.tile(vectors[t], (2**t, 1)) for t in range(depth)])


def test_tree_shapes_and_cap():
    rng = substream(0, "tree")
    tree = DyadicTree.random_gaussian(4, 2, rng)
    assert [lvl.shape for lvl in tree.levels] == [(1, 2), (2, 2), (4, 2), (8, 2)]
    with pytest.raises(ValueError):
        DyadicTree.random_gaussian(15, 1, rng)


def test_path_gather_consistency():
    rng = substream(1, "tree")
    tree = DyadicTree.random_gaussian(5, 3, rng)
    signs = _shift_and_mask_signs(5)
    values = tree.path_values(signs)
    assert values.shape == (32, 5, 3)
    # manual walk for a handful of paths
    for row in (0, 7, 31):
        idx = 0
        for t in range(5):
            assert np.allclose(values[row, t], tree.levels[t][idx])
            bit = (signs[row, t] + 1) // 2
            idx |= int(bit) << t


def test_constant_tree_is_non_anticipating():
    vecs = np.arange(6.0).reshape(3, 2)
    tree = constant_tree(3, vecs)
    values = tree.path_values(_shift_and_mask_signs(3))
    assert np.allclose(values, np.broadcast_to(vecs, (8, 3, 2)))


def test_prefix_sign_tree_pushes_away_from_zero():
    for depth in (1, 6, 10):
        signs = _shift_and_mask_signs(depth)
        values = DyadicTree.prefix_sign(depth).path_values(signs)
        vals = values.squeeze(-1)
        prefix = np.zeros(len(signs))
        for t in range(depth):
            expected = np.where(prefix >= 0.0, 1.0, -1.0)
            assert np.array_equal(vals[:, t], expected)
            prefix = prefix + signs[:, t] * vals[:, t]


def test_rad_single_vector_and_empty():
    z = np.array([[0.3, -0.4]])
    mean, se = rad_estimate(z, LpTag(2.0), 500, seed=0)
    assert mean == pytest.approx(0.5)
    assert se == pytest.approx(0.0)
    assert rad_estimate(np.zeros((0, 2)), LpTag(2.0), 500, 0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        rad_estimate(z, LpTag(2.0), 50, 0)


def test_rad_exact_two_scalars():
    zs = np.array([[1.0], [1.0]])
    # enumeration over 4 patterns: |2|, |0|, |0|, |2| -> mean 1
    assert rad_exact(zs, ABS) == pytest.approx(1.0)
    mean, se = rad_estimate(zs, ABS, 4000, seed=1)
    assert abs(mean - 1.0) <= 3.0 * se


def test_maximal_values():
    zs = np.array([[1.0], [-1.0]])
    # prefix maxima per pattern: 1, 2, 2, 1 -> mean 1.5
    assert maximal_rad_exact(zs, ABS) == pytest.approx(1.5)
    mean, se = maximal_rad_estimate(zs, ABS, 4000, seed=2)
    assert abs(mean - 1.5) <= 3.0 * se
    z = np.array([[0.3, -0.4]])
    assert maximal_rad_estimate(z, LpTag(2.0), 500, 0)[0] == pytest.approx(0.5)


def test_maximal_dominates_plain():
    rng = substream(3, "dom")
    for _ in range(10):
        zs = rng.normal(size=(8, 3))
        assert maximal_rad_exact(zs, LpTag(2.0)) >= rad_exact(zs, LpTag(2.0)) - 1e-12


def test_mc_matches_enumeration():
    rng = substream(4, "oracle")
    for trial in range(5):
        n = int(rng.integers(3, 11))
        zs = rng.normal(size=(n, 2))
        exact = rad_exact(zs, LpTag(2.0))
        mean, se = rad_estimate(zs, LpTag(2.0), 3000, seed=trial)
        assert abs(mean - exact) <= 3.0 * se
        exact_m = maximal_rad_exact(zs, LpTag(2.0))
        mean_m, se_m = maximal_rad_estimate(zs, LpTag(2.0), 3000, seed=trial)
        assert abs(mean_m - exact_m) <= 3.0 * se_m


def test_contraction_sanity():
    # multiplying by gradients |c_t| <= 1 can only shrink the expectation
    rng = substream(5, "contraction")
    for _ in range(10):
        zs = rng.normal(size=(9, 3))
        cs = rng.uniform(-1, 1, size=9)
        assert rad_exact(cs[:, None] * zs, LpTag(2.0)) <= rad_exact(zs, LpTag(2.0)) + 1e-12


def test_umd_scalar_p2_identity():
    rng = substream(6, "umd")
    for depth in (3, 6, 10):
        tree = DyadicTree.random_gaussian(depth, 1, rng)
        report = umd_check(2.0, ABS, tree, n_patterns=16, seed=depth)
        assert report.exact
        for _, lhs, _, ratio in report.patterns:
            assert ratio == pytest.approx(1.0, abs=1e-12)
        assert report.max_ratio_root == pytest.approx(1.0, abs=1e-12)


def test_umd_single_step_any_p():
    tree = DyadicTree.random_gaussian(1, 2, substream(7, "one"))
    for p in (1.5, 2.0, 3.0):
        report = umd_check(p, LpTag(2.0), tree, seed=0)
        assert report.max_ratio_root == pytest.approx(1.0, abs=1e-12)


def test_umd_sup_norm_report():
    tree = DyadicTree.random_gaussian(8, 16, substream(8, "sup"))
    report = umd_check(2.0, SupTag(), tree, n_patterns=16, seed=0)
    assert np.isfinite(report.max_ratio_root)
    assert report.max_ratio_root >= 1.0 - 1e-9
    assert report.reference["value"] == pytest.approx(np.log(16))


def test_umd_degenerate_tree_rejected():
    tree = constant_tree(3, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        umd_check(2.0, LpTag(2.0), tree, seed=0)


def test_hitczenko_depth_one_and_constant():
    tree = constant_tree(1, np.array([[0.7]]))
    rep = hitczenko_check(tree, p=2.0)
    assert rep.exact
    assert rep.lhs_mean == pytest.approx(rep.rhs_mean)
    assert rep.empirical_constant == pytest.approx(1.0)

    tree = constant_tree(6, np.linspace(0.2, 1.0, 6)[:, None])
    for p in (1.0, 2.0, 4.0):
        rep = hitczenko_check(tree, p=p)
        assert rep.lhs_mean == pytest.approx(rep.rhs_mean, rel=1e-12)


def magnitude_tree(depth):
    """Scalar tree whose magnitudes adapt to the walk: x_t = 1 + |prefix|/2."""
    levels = [np.ones((1, 1))]
    prefix = np.zeros(1)
    for t in range(1, depth):
        parent_vals = levels[t - 1][:, 0]
        new_prefix = np.empty(2**t)
        for parent in range(2 ** (t - 1)):
            for bit, eps in ((0, -1.0), (1, 1.0)):
                child = parent | (bit << (t - 1))
                new_prefix[child] = prefix[parent] + eps * parent_vals[parent]
        levels.append((1.0 + 0.5 * np.abs(new_prefix))[:, None])
        prefix = new_prefix
    return DyadicTree(levels)


def test_hitczenko_sign_adaptive_tree_is_walk_like():
    # predictable +-1 multipliers preserve the law of the random walk, so
    # both sides coincide even for the prefix-sign tree
    tree = DyadicTree.prefix_sign(8)
    rep = hitczenko_check(tree, p=1.0)
    assert rep.exact
    assert rep.bound_ok
    assert rep.empirical_constant == pytest.approx(1.0, rel=1e-12)
    # Monte Carlo agrees with the exact double enumeration
    mc = hitczenko_check(tree, p=1.0, k_samples=20000, seed=3, exact=False)
    assert abs(mc.lhs_mean - rep.lhs_mean) <= 3.0 * max(mc.lhs_se, 1e-12)
    assert abs(mc.rhs_mean - rep.rhs_mean) <= 3.0 * max(mc.rhs_se, 1e-12)


def test_hitczenko_magnitude_adaptive_tree_separates():
    tree = magnitude_tree(8)
    # p = 2 is an exact identity by orthogonality of the differences
    assert hitczenko_check(tree, p=2.0).empirical_constant == pytest.approx(1.0, rel=1e-12)
    # away from p = 2 the decoupled side genuinely differs
    rep4 = hitczenko_check(tree, p=4.0)
    assert rep4.empirical_constant > 1.05
    assert rep4.bound_ok
    rep1 = hitczenko_check(tree, p=1.0)
    assert rep1.empirical_constant < 0.95
    assert rep1.bound_ok


def _double_enumeration(tree, p):
    """Both sides of the decoupling check from the path table: the mean over
    every path eps, and over every pair (eps', eps) of paths."""
    signs = _shift_and_mask_signs(tree.depth)
    terms = signs * tree.path_values(signs)[..., 0]
    return np.mean(np.abs(terms.sum(axis=1)) ** p), np.mean(np.abs(signs @ terms.T) ** p)


DECOUPLING_TREES = {
    "random": lambda depth: [DyadicTree.random_gaussian(depth, 1, substream(depth, "dec-walk", i)) for i in range(3)],
    "prefix-sign": lambda depth: [DyadicTree.prefix_sign(depth)],
    "magnitude": lambda depth: [magnitude_tree(depth)],
}


@pytest.mark.parametrize("kind", DECOUPLING_TREES)
def test_exact_decoupling_walk_equals_double_enumeration(kind):
    for depth in range(1, 9):
        for tree in DECOUPLING_TREES[kind](depth):
            for p in (1.0, 1.5, 2.0, 3.0, 4.0):
                rep = hitczenko_check(tree, p=p)
                assert rep.exact
                lhs, rhs = _double_enumeration(tree, p)
                assert rep.lhs_mean == pytest.approx(lhs, rel=1e-15, abs=0.0)
                assert rep.rhs_mean == pytest.approx(rhs, rel=1e-15, abs=0.0)


def test_hitczenko_requires_scalar_tree():
    tree = DyadicTree.random_gaussian(3, 2, substream(9, "vec"))
    with pytest.raises(ValueError):
        hitczenko_check(tree, p=2.0)


DENSE_GRAM = np.array([[2.0, 0.3, -0.2, 0.1], [0.3, 1.5, 0.4, 0.0], [-0.2, 0.4, 1.2, -0.3], [0.1, 0.0, -0.3, 1.8]])
WALK_TAGS = {"l2": LpTag(2.0), "l3": LpTag(3.0), "sup": SupTag(), "one": OneTag(), "gram": GramTag(DENSE_GRAM)}


@pytest.mark.parametrize("tag", WALK_TAGS.values(), ids=WALK_TAGS.keys())
def test_maximal_tree_walk_equals_path_enumeration(tag):
    # the walk computes each prefix norm once; the path table recomputes it
    # on every leaf below, with the same adds in the same order
    rng = substream(10, "walk")
    for n in range(1, 11):
        zs = rng.normal(size=(n, 4))
        assert maximal_rad_exact(zs, tag) == _prefix_max_norms(_shift_and_mask_signs(n), zs, tag).mean()


@pytest.mark.parametrize("tag", WALK_TAGS.values(), ids=WALK_TAGS.keys())
def test_rad_tree_walk_equals_path_enumeration(tag):
    # the walk adds in step order and the path table's product may not, so
    # the two may differ in the last bits
    rng = substream(12, "rad-walk")
    for n in range(1, 15):
        for dim in (4,) if isinstance(tag, GramTag) else (1, 2, 4, 10):
            zs = rng.normal(size=(n, dim))
            table = _sum_norms(_shift_and_mask_signs(n), zs, tag).mean()
            assert rad_exact(zs, tag) == pytest.approx(table, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("per_prefix", [False, True], ids=["shared-steps", "per-prefix-steps"])
def test_tree_walk_levels_equal_concatenation(per_prefix):
    # the walk writes each level into one buffer in place; every level as it
    # is yielded must hold the bits of concatenate([prefix - v, prefix + v])
    rng = substream(14, "walk-levels", int(per_prefix))
    for n in range(1, 13):
        steps = [rng.normal(size=(2**t, 3) if per_prefix else (3,)) for t in range(n)]
        prefix = np.zeros((1, 3))
        depth = 0
        for v, level in zip(steps, _tree_sums(steps, (3,))):
            prefix = np.concatenate([prefix - v, prefix + v])
            assert level.tobytes() == prefix.tobytes(), (n, depth)
            depth += 1
        assert depth == n


MATRIX_TAGS = {"l2": LpTag(2.0), "sup": SupTag(), "one": OneTag(), "group-p2": GroupP2Tag(3.0)}


@pytest.mark.parametrize("tag", MATRIX_TAGS.values(), ids=MATRIX_TAGS.keys())
def test_rad_tree_walk_on_matrix_points(tag):
    rng = substream(13, "rad-walk-matrix")
    for n in (1, 2, 5, 9, 12):
        zs = rng.normal(size=(n, 3, 2))
        table = _sum_norms(_shift_and_mask_signs(n), zs, tag).mean()
        assert rad_exact(zs, tag) == pytest.approx(table, rel=1e-15, abs=0.0)


def _term_tensor_moments(report, tree, tag):
    """Each pattern's exact moment from the (2^n, n, dim) tensor of terms
    eps_t x_t(eps) on all sign paths, summed over t."""
    signs = _shift_and_mask_signs(tree.depth)
    terms = signs[:, :, np.newaxis] * tree.path_values(signs)
    moments = []
    for pattern, _, _, _ in report.patterns:
        sums = (terms * np.asarray(pattern, dtype=float)[np.newaxis, :, np.newaxis]).sum(axis=1)
        moments.append(float(np.mean(tag.norm_batch(sums) ** report.p)))
    return moments


UMD_WALK_CASES = [(name, dim, depth) for name in WALK_TAGS for dim, depth in [(2, 6), (4, 12), (16, 9), (4, 13), (4, 14)] if name != "gram" or dim == 4]


@pytest.mark.parametrize("name, dim, depth", UMD_WALK_CASES)
def test_umd_tree_walk_equals_term_tensor(name, dim, depth):
    tag = WALK_TAGS[name]
    tree = DyadicTree.random_gaussian(depth, dim, substream(depth, "umd-walk", dim))
    for p in (1.5, 3.0):
        report = umd_check(p, tag, tree, n_patterns=6, seed=dim)
        assert report.exact
        assert [row[1] for row in report.patterns] == _term_tensor_moments(report, tree, tag)
        assert report.rhs_mean == report.patterns[0][1]


@pytest.mark.parametrize("depth", [3, 8, 12])
def test_umd_tree_walk_on_scalar_trees(depth):
    # numpy sums a (2^n, n, 1) term tensor over t pairwise once n >= 8,
    # while the walk adds level by level, so scalar moments may differ in
    # the last bits
    tree = DyadicTree.random_gaussian(depth, 1, substream(depth, "umd-walk-scalar"))
    for p in (1.5, 2.0, 3.0):
        report = umd_check(p, ABS, tree, n_patterns=6, seed=depth)
        walked = np.array([row[1] for row in report.patterns])
        assert np.allclose(walked, _term_tensor_moments(report, tree, ABS), rtol=1e-15, atol=0.0)


# (1, 7) is the old (7,) draw; (301, 151) spans six 54-row blocks, the last
# 31 rows long with an odd number of signs; (5, 4097) takes two rows a block,
# each longer than half the buffer; (101, 3) and (100, 7) fit in one block
SIGN_SHAPES = [(1000, 150), (101, 3), (1, 7), (1000, 151), (301, 151), (5, 4097), (100, 7)]


@pytest.mark.parametrize("k, n", SIGN_SHAPES)
def test_blocked_signs_are_the_integer_draw(k, n):
    # pins the Philox layout the raw read relies on: integers(0, 2) is the
    # top bit of each 32-bit half of the raw words, low half first, and the
    # blocks continue one another's draw
    blocks = [(start, signs.copy()) for start, signs in _sign_blocks(substream(11, "fresh", k, n), k, n)]
    assert [start for start, _ in blocks] == list(range(0, k, len(blocks[0][1])))
    drawn = np.concatenate([signs for _, signs in blocks])
    assert np.array_equal(drawn, substream(11, "fresh", k, n).integers(0, 2, (k, n)) * 2.0 - 1.0)
    assert np.array_equal(drawn, rademacher(substream(11, "fresh", k, n), (k, n)).astype(float))


def test_mean_se_of_equal_samples_is_their_value_with_se_zero():
    # the plain mean of 1000 copies of this value rounds away from it
    assert np.full(1000, 1.8453053645765378).mean() != 1.8453053645765378
    for value in (1.8453053645765378, 0.1, 1e300, -3.0, 0.0):
        for size in (2, 3, 1000, 4097):
            assert _mean_se(np.full(size, value)) == (value, 0.0)


@pytest.mark.parametrize("k, n", [(1000, 150), (301, 151), (100, 7)])
def test_maximal_estimate_equals_the_unblocked_reduction(k, n):
    # a row's running prefix and norms do not depend on the rows next to it,
    # so the blocked estimate is the one-array reduction bit for bit
    zs = substream(12, "unblocked", k, n).normal(size=(n, 3))
    tag = LpTag(3.0)
    samples = _prefix_max_norms(rademacher(substream(13, "maximal-rad"), (k, n)).astype(float), zs, tag)
    assert maximal_rad_estimate(zs, tag, k, seed=13) == _mean_se(samples)
    # the plain estimate's product sums a block of rows in BLAS's order,
    # which may differ from the full product's in the last bits
    samples = _sum_norms(rademacher(substream(13, "rad"), (k, n)).astype(float), zs, tag)
    assert np.allclose(rad_estimate(zs, tag, k, seed=13), (samples.mean(), np.std(samples, ddof=1) / np.sqrt(k)), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("estimate", [rad_estimate, maximal_rad_estimate])
def test_estimate_memory_does_not_grow_with_samples(estimate):
    # one (20000, 150) sign array alone is 24 MB; the blocked draw holds a
    # 64 KiB buffer and the (k,) statistics
    zs = substream(14, "memory").normal(size=(150, 10))
    tracemalloc.start()
    try:
        estimate(zs, LpTag(2.0), 20_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
