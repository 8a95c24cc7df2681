import json
import math
import pathlib
import re

import numpy as np
import pytest

from zigzag import harness
from zigzag.harness import (
    AdaptiveGD,
    ConfigError,
    FixedStream,
    SignFlip,
    brute_force_minimax,
    make_adversary,
    offline_comparator,
    run_experiment,
    write_outputs,
    merge_reports,
    SUMMARY_KEYS,
)
from zigzag.burkholder import make_spec
from zigzag.learner import BLOCK, ZigZagLearner, run_episode
from zigzag.linalg import GramTag, LpTag
from zigzag.rademacher import rad_exact
from zigzag.rng import substream


def test_adversaries_emit_unit_ball_instances():
    specs = [
        {"construction": "scalar-p", "p": 3.0},
        {"construction": "lp-sum", "p": 3.0, "d": 6},
        {"construction": "hilbert", "p": 2.0, "d": 6},
        {"construction": "weighted-l2", "weight": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]},
        {"construction": "even-power", "k": 4},
    ]
    for spec in map(make_spec, specs):
        fixed = [(x / spec.norm_batch(x)).tolist() for x in spec.sample_points(substream(3, "fixed"), 79)]
        for cfg in (
            {"kind": "iid-gaussian"},
            {"kind": "iid-rademacher-coords"},
            {"kind": "sign-flip"},
            {"kind": "low-rank-stream", "rank": 2},
            {"kind": "fixed-file", "xs": fixed, "ys": [1.0] * 79},
        ):
            adv = make_adversary(cfg, shape=spec.point_shape, tag=spec.tag, seeds=[3])
            for t in range(1, 80):
                x = adv.next_x(t)
                assert np.shape(x) == spec.point_shape, (spec.construction, cfg["kind"])
                assert spec.tag.norm_batch([x])[0] <= 1.0 + 1e-12


def test_no_normalize_escape_hatch_keeps_the_raw_scale():
    tag = LpTag(2.0)
    largest = {}
    for normalize in (False, True):
        adv = make_adversary({"kind": "iid-gaussian", "normalize": normalize}, shape=(6,), tag=tag, seeds=[0])
        largest[normalize] = max(tag.norm_batch([adv.next_x(t)])[0] for t in range(1, 41))
    assert largest[False] > 1.0  # raw gaussian draws exceed the unit ball
    assert largest[True] <= 1.0 + 1e-12


def test_sign_flip_labels():
    adv = make_adversary({"kind": "sign-flip"}, shape=(3,), tag=LpTag(2.0), seeds=[0])
    assert adv.next_y(1, None, 0.7) == -1.0
    assert adv.next_y(1, None, -0.2) == 1.0
    assert adv.next_y(1, None, 0.0) == 1.0  # tie toward +1


SIGN_FLIP_BASES = [
    {"base": "low-rank-stream", "rank": 2},
    {"base": "fixed-file", "xs": (0.2 * substream(9, "fixed").uniform(-1.0, 1.0, size=(6, 4))).tolist(), "ys": [1.0] * 6},
]


@pytest.mark.parametrize("base", SIGN_FLIP_BASES, ids=[b["base"] for b in SIGN_FLIP_BASES])
def test_sign_flip_base_takes_its_own_keys(base):
    flip = make_adversary({"kind": "sign-flip", **base}, shape=(4,), tag=LpTag(3.0), seeds=[9])
    own = {k: v for k, v in base.items() if k != "base"}
    plain = make_adversary(dict(own, kind=base["base"]), shape=(4,), tag=LpTag(3.0), seeds=[9])
    for t in range(1, 7):
        assert np.array_equal(flip.next_x(t), plain.next_x(t))
    assert flip.next_y(1, None, np.array([0.5, -0.5, 0.0])).tolist() == [-1.0, 1.0, 1.0]
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
        "loss": "hinge",
        "adversary": {"kind": "sign-flip", **base},
        "n": 6,
        "seeds": [0, 1],
        "certify": True,
    }
    summary = run_experiment(config)
    assert {k for k in summary if not k.startswith("_")} == set(SUMMARY_KEYS)
    assert all(cell["cert_worst_slack"] >= -1e-8 for cell in summary["_cells"])


BLOCK_DRAW_SOURCES = [
    ({"base": "iid-gaussian"}, ()),
    ({"base": "iid-gaussian"}, (10,)),
    ({"base": "iid-rademacher-coords"}, (5,)),  # odd d: a drawn word's second half serves the next round
    ({"base": "low-rank-stream", "rank": 3}, (6,)),
]


@pytest.mark.parametrize("lanes", [1, 8])
@pytest.mark.parametrize("source, shape", BLOCK_DRAW_SOURCES, ids=lambda v: str(v.get("base", v)) if isinstance(v, dict) else str(v))
def test_sign_flip_block_draws_are_the_per_round_draws(source, shape, lanes):
    """A sign-flip base draws BLOCK rounds of instances at a time; over
    n = 37 rounds, not a multiple of BLOCK, they are byte for byte the
    instances of the same source drawn one round at a time."""
    seeds = list(range(3, 3 + lanes))
    flip = make_adversary({"kind": "sign-flip", **source}, shape=shape, tag=LpTag(3.0), seeds=seeds)
    own = {k: v for k, v in source.items() if k != "base"}
    plain = make_adversary(dict(own, kind=source["base"]), shape=shape, tag=LpTag(3.0), seeds=seeds)
    for t in range(1, 38):
        x, want = flip.next_x(t), plain.next_x(t)
        assert np.shape(x) == np.shape(want) == ((lanes,) if lanes > 1 else ()) + shape
        assert x.tobytes() == want.tobytes(), t


class CountedDraws:
    """A generator that counts its ``normal`` calls."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("kind, draws", [("sign-flip", math.ceil(150 / BLOCK)), ("iid-gaussian", 150)])
def test_instance_draws_per_lane_in_an_episode(kind, draws):
    """A 150-round sign-flip episode draws each lane's instances once per
    block of BLOCK rounds; an iid-gaussian source, which draws its own labels
    from the same generators, draws once a round."""
    spec = make_spec({"construction": "lp-sum", "p": 3.0, "d": 4})
    adversary = make_adversary({"kind": kind}, shape=spec.point_shape, tag=spec.tag, seeds=[0, 1])
    source = adversary.base if kind == "sign-flip" else adversary
    source.rngs = [CountedDraws(rng) for rng in source.rngs]
    learner = ZigZagLearner(spec, 0.5, [substream(seed, "learner") for seed in (0, 1)])
    run_episode(learner, "hinge", adversary, 150)
    assert [rng.normal_calls for rng in source.rngs] == [draws, draws]


def test_low_rank_stream_lives_in_subspace():
    adv = make_adversary({"kind": "low-rank-stream", "rank": 2}, shape=(8,), tag=LpTag(2.0), seeds=[5])
    xs = np.stack([adv.next_x(t) for t in range(1, 30)])
    assert np.linalg.matrix_rank(xs, tol=1e-8) == 2


def test_adaptive_gd_basics():
    from zigzag.losses import loss

    gd = AdaptiveGD(3)
    # zero gradients: the iterate never moves
    for _ in range(5):
        gd.update(np.ones(3), 0.0)
    assert np.allclose(gd.w, 0.0)
    # one step: regret against the best fixed w is at most 2 ||x||
    x = np.array([0.6, 0.0, 0.0])
    y = 1.0
    (yhat,) = gd.predict(x)
    assert yhat == 0.0
    gd.update(x, -1.0)  # gradient for hinge with y=+1, margin active
    assert np.linalg.norm(gd.w) <= 1.0 + 1e-12
    best = min(loss("hinge", float(w1 * x[0]), y) for w1 in np.linspace(-1, 1, 4001))
    assert loss("hinge", yhat, y) - best <= 2.0 * np.linalg.norm(x) + 1e-12


def test_adaptive_gd_rejects_certify():
    config = {
        "algorithm": "adaptive-gd",
        "d": 4,
        "loss": "hinge",
        "adversary": {"kind": "iid-gaussian"},
        "n": 10,
        "seeds": [0],
        "certify": True,
    }
    with pytest.raises(ConfigError, match="adaptive-gd.*certify"):
        run_experiment(config)


SPECTRAL = {"algorithm": "spectral", "d": 3, "r": 1, "tau": 3.0, "n": 30, "net_size": 40}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"algorithm": "zigzag-tripling"}, "unknown algorithm 'zigzag-tripling'"),
        ({"adversary": {"kind": "adaptive"}}, "unknown adversary.kind 'adaptive'"),
        ({"adversary": {"kind": "sign-flip", "base": "adaptive"}}, "unknown adversary.base 'adaptive'"),
        ({"loss": "squared"}, "unknown loss 'squared'"),
        (dict(SPECTRAL, n=0), "n must be at least 1, got 0"),
        (dict(SPECTRAL, tau=0.0), "tau must be a finite number > 0, got 0.0"),
        (dict(SPECTRAL, tau=-1.0), "tau must be a finite number > 0, got -1.0"),
        (dict(SPECTRAL, d=0), "d must be at least 1, got 0"),
        (dict(SPECTRAL, r=0), "r must be at least 1, got 0"),
        (dict(SPECTRAL, entry_distribution="bogus"), "unknown entry_distribution 'bogus'"),
        (dict(SPECTRAL, entry_distribution="explicit"), "unknown entry_distribution 'explicit'"),
        (dict(SPECTRAL, net_size=0), "net_size must be at least 1, got 0"),
        ({"n": 0}, "n must be at least 1, got 0"),
        ({"etaa": 0.5}, "unknown config key 'etaa'"),
        ({"adversary": {"kind": "low-rank-stream", "rnak": 2}}, "unknown adversary key 'rnak'"),
        (dict(SPECTRAL, net_sise=40), "unknown config key 'net_sise'"),
    ],
)
def test_unknown_names_are_rejected_before_any_adversary_or_learner(change, message, monkeypatch):
    _assert_rejected_before_building(change, message, monkeypatch)


MISSING = object()  # a change value that deletes the key from the config


def _assert_rejected_before_building(change, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built before the config was checked")

    monkeypatch.setattr(harness, "make_adversary", never)
    monkeypatch.setattr(harness, "_build_learner", never)
    monkeypatch.setattr(harness, "run_spectral", never)
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
        "loss": "hinge",
        "adversary": {"kind": "iid-gaussian"},
        "n": 5,
        "seeds": [0],
    }
    with pytest.raises(ConfigError, match=message):
        run_experiment({k: v for k, v in {**config, **change}.items() if v is not MISSING})


BAD_NUMBERS = {
    "eta-zero": ({"eta": 0}, "eta must be a finite number > 0, got 0"),
    "eta-nan": ({"eta": float("nan")}, "eta must be a finite number > 0, got nan"),
    "eta-negative": ({"eta": -0.5}, "eta must be a finite number > 0"),
    "eta-overflows-psi": ({"spec": {"construction": "scalar-p", "p": 1.01}, "eta": 1e-9}, "eta = 1e-09 with p = 1.01 overflows"),
    "fw-iters-negative": ({"fw_iters": -1}, "fw_iters must be at least 0, got -1"),
    "fw-iters-nan": ({"fw_iters": float("nan")}, "fw_iters must be at least 0, got nan"),
    "rad-samples-few": ({"rad_samples": 10}, "rad_samples must be at least 100, got 10"),
    "mc-paths-few": ({"algorithm": "zigzag-doubling-expected", "mc_paths": 10}, "mc_paths must be at least 100, got 10"),
    "eta0-zero": ({"algorithm": "zigzag-doubling-realized", "eta0": 0.0}, "eta0 must be a finite number > 0"),
    "eta0-negative": ({"algorithm": "zigzag-doubling-expected", "eta0": -1}, "eta0 must be a finite number > 0"),
    "default-eta0-underflows": ({"algorithm": "zigzag-doubling-realized", "spec": {"construction": "scalar-p", "p": 100}},
                                r"the default eta0 = \(beta p\)\^-p = 0.0 with p = 100.0 is not > 0; give eta0"),
    "spectral-tau-squared-overflows": (dict(SPECTRAL, tau=1e300), "tau = 1e.300 with n = 30 rounds overflows tau"),
    "spectral-net-radius-overflows": (dict(SPECTRAL, tau=1e-300, d=2, r=2), "tau = 1e-300 with n = 30 rounds overflows"),
    "spectral-net-radius-one": (dict(SPECTRAL, tau=0.005, n=200), r"tau = 0.005 with n = 200 rounds gives the net radius 1/\(n tau\) = 1; .* needs n tau > 1"),
    "spectral-net-radius-above-one": (dict(SPECTRAL, tau=0.001, n=200), r"gives the net radius 1/\(n tau\) = 5; .* needs n tau > 1"),
    "spectral-eta-zero": (dict(SPECTRAL, eta=0.0), "eta must be a finite number > 0"),
    "spec-d-zero": ({"spec": {"construction": "lp-sum", "p": 3.0, "d": 0}}, "spec.d must be at least 1, got 0"),
    "spec-d-fraction": ({"spec": {"construction": "hilbert", "p": 2.5, "d": 2.5}}, "spec.d must be at least 1, got 2.5"),
    "spec-k-fraction": ({"spec": {"construction": "even-power", "k": 4.5}}, "spec.k must be at least 1, got 4.5; it takes a whole number"),
    "spec-p-nan": ({"spec": {"construction": "scalar-p", "p": math.nan}}, "spec.p must be a finite number > 0, got nan"),
    "spec-p-inf": ({"spec": {"construction": "lp-sum", "p": math.inf, "d": 4}}, "spec.p must be a finite number > 0, got inf"),
    "spec-p-text": ({"spec": {"construction": "hilbert", "p": "2.5", "d": 4}}, "spec.p must be a finite number > 0, got '2.5'"),
    "spec-d-over-point-size": ({"spec": {"construction": "lp-sum", "p": 3.0, "d": 1025}}, "has points of 1025 entries; a point has at most 1024"),
    "spec-shape-over-point-size": ({"spec": {"construction": "group-p2", "p": 3.0, "shape": [5, 205]}}, "has points of 1025 entries; a point has at most 1024"),
    "spec-group-d-over-point-size": ({"spec": {"construction": "group-p2", "p": 3.0, "d": 33}}, "has points of 1089 entries; a point has at most 1024"),
    "spec-shape-fraction": ({"spec": {"construction": "group-p2", "p": 3.0, "shape": [2, 2.5]}}, "spec.shape must be at least 1, got 2.5"),
    "spec-gram-inf": ({"spec": {"construction": "hilbert", "gram": [[1.0, 0.0], [0.0, math.inf]]}}, "gram must have finite entries"),
    "spec-B-inf": ({"spec": {"construction": "l1-composed", "a": 4.0, "d": 3, "B": math.inf, "eps": 0.1}}, "spec.B must be a finite number > 0, got inf"),
    "adaptive-gd-d-zero": ({"algorithm": "adaptive-gd", "d": 0}, "d must be at least 1, got 0"),
    "adaptive-gd-d-over-point-size": ({"algorithm": "adaptive-gd", "d": 100_000_000}, "has points of 100000000 entries; a point has at most 1024"),
    "spectral-factor-over-point-size": (dict(SPECTRAL, d=100_000, r=1000), "has points of 100000000 entries; a point has at most 1024"),
    "spectral-factor-just-over-point-size": (dict(SPECTRAL, d=513, r=2), "has points of 1026 entries; a point has at most 1024"),
    "rank-zero": ({"adversary": {"kind": "low-rank-stream", "rank": 0}}, "adversary.rank must be at least 1, got 0"),
    "rank-negative": ({"adversary": {"kind": "low-rank-stream", "rank": -1}}, "adversary.rank must be at least 1, got -1"),
    "n-fraction": ({"n": 2.7}, "n must be at least 1, got 2.7; it takes a whole number"),
    "n-text": ({"n": "abc"}, "n must be at least 1, got 'abc'"),
    "spectral-n-fraction": (dict(SPECTRAL, n=2.7), "n must be at least 1, got 2.7"),
    "eta-text": ({"eta": "abc"}, "eta must be a finite number > 0, got 'abc'"),
    "eta-bool": ({"eta": True}, "eta must be a finite number > 0, got True"),
    "eta0-text": ({"algorithm": "zigzag-doubling-realized", "eta0": "abc"}, "eta0 must be a finite number > 0, got 'abc'"),
    "fw-iters-text": ({"fw_iters": "abc"}, "fw_iters must be at least 0, got 'abc'"),
    "fw-iters-inf": ({"fw_iters": math.inf}, "fw_iters must be at least 0, got inf"),
    "fw-iters-fraction": ({"fw_iters": 2.5}, "fw_iters must be at least 0, got 2.5; it takes a whole number"),
    "rad-samples-inf": ({"rad_samples": math.inf}, "rad_samples must be at least 100, got inf"),
    "rad-samples-fraction": ({"rad_samples": 150.7}, "rad_samples must be at least 100, got 150.7; it takes a whole number"),
    "mc-paths-fraction": ({"algorithm": "zigzag-doubling-expected", "mc_paths": 150.5}, "mc_paths must be at least 100, got 150.5"),
    "spectral-tau-text": (dict(SPECTRAL, tau="x"), "tau must be a finite number > 0, got 'x'"),
    "spectral-eta-text": (dict(SPECTRAL, eta="x"), "eta must be a finite number > 0, got 'x'"),
    "seeds-fraction": ({"seeds": [0.5]}, r"seeds must be a list of distinct integers, got \[0.5\]"),
    "seeds-repeated": ({"seeds": [0, 0]}, r"seeds must be a list of distinct integers, got \[0, 0\]"),
    "seeds-text": ({"seeds": "ab"}, "seeds must be a list of distinct integers, got 'ab'"),
    "seeds-number": ({"seeds": 3}, "seeds must be a list of distinct integers, got 3"),
    "spectral-seeds-repeated": (dict(SPECTRAL, seeds=[1, 1]), "seeds must be a list of distinct integers"),
}


@pytest.mark.parametrize("change, message", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_numbers_are_rejected_before_any_adversary_or_learner(change, message, monkeypatch):
    _assert_rejected_before_building(change, message, monkeypatch)


MISSING_OR_UNBUILDABLE = {
    "no-n": ({"n": MISSING}, "algorithm 'zigzag' needs 'n'"),
    "no-spec": ({"spec": MISSING}, "algorithm 'zigzag' needs 'spec'"),
    "spec-no-d": ({"spec": {"construction": "lp-sum", "p": 3.0}}, "needs the key 'd'"),
    "no-adversary": ({"adversary": MISSING}, "algorithm 'zigzag' needs 'adversary'"),
    "adversary-no-kind": ({"adversary": {}}, "adversary needs 'kind'"),
    "low-rank-no-rank": ({"adversary": {"kind": "low-rank-stream"}}, "adversary kind 'low-rank-stream' needs 'rank'"),
    "sign-flip-low-rank-no-rank": ({"adversary": {"kind": "sign-flip", "base": "low-rank-stream"}}, "needs 'rank'"),
    "adaptive-gd-no-d": ({"algorithm": "adaptive-gd"}, "algorithm 'adaptive-gd' needs 'd'"),
    "spectral-no-tau": (dict(SPECTRAL, tau=MISSING), "algorithm 'spectral' needs 'tau'"),
    "construction-lp": ({"spec": {"construction": "lp", "p": 3.0, "d": 4}}, "unknown construction 'lp'"),
    "group-d-and-shape": ({"spec": {"construction": "group-p2", "p": 3.0, "d": 2, "shape": [2, 3]}}, "exactly one of d .* or shape"),
    "group-no-d-or-shape": ({"spec": {"construction": "group-p2", "p": 3.0}}, "exactly one of d .* or shape"),
    "hilbert-d-and-gram": ({"spec": {"construction": "hilbert", "p": 2.5, "d": 7, "gram": [[1.0, 0.0], [0.0, 1.0]]}}, "exactly one of dim or gram"),
    "lp-sum-p1": ({"spec": {"construction": "lp-sum", "p": 1.0, "d": 4}}, "cannot be built: .*p > 1"),
    "scalar-p-beta-p-overflows": ({"spec": {"construction": "scalar-p", "p": 200}}, "cannot be built: its constants overflow a float"),
    "lp-sum-beta-p-overflows": ({"spec": {"construction": "lp-sum", "p": 150, "d": 2}}, "cannot be built: its constants overflow a float"),
    "even-power-constants-overflow": ({"spec": {"construction": "even-power", "k": 50}}, "cannot be built: its constants overflow a float"),
    "spec-text": ({"spec": "lp"}, "spec must be a JSON object, got 'lp'"),
    "adversary-text": ({"adversary": "sign-flip"}, "adversary must be a JSON object, got 'sign-flip'"),
    "certify-text": ({"certify": "false"}, "certify must be true or false, got 'false'"),
    "normalize-text": ({"adversary": {"kind": "iid-gaussian", "normalize": "false"}}, "adversary.normalize must be true or false, got 'false'"),
    "spec-unknown-key": ({"spec": {"construction": "lp-sum", "p": 3.0, "d": 4, "dd": 9}}, "unknown spec key 'dd' for construction 'lp-sum', which takes p, d"),
    "spectral-certify-false": (dict(SPECTRAL, certify=False), "a spectral run always certifies every round; it cannot run with certify: false"),
    "out-dir-number": ({"out_dir": 5}, "out_dir must be non-empty text, got 5"),
}


@pytest.mark.parametrize("change, message", MISSING_OR_UNBUILDABLE.values(), ids=MISSING_OR_UNBUILDABLE.keys())
def test_missing_keys_and_unbuildable_specs_are_rejected_before_any_adversary_or_learner(change, message, monkeypatch):
    _assert_rejected_before_building(change, message, monkeypatch)


def test_null_eta_keeps_the_default_rate():
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
        "loss": "hinge",
        "adversary": {"kind": "iid-gaussian"},
        "n": 5,
        "seeds": [0],
        "fw_iters": 20,
        "rad_samples": 100,
    }
    regrets = [run_experiment(dict(config, **eta))["regret"] for eta in ({}, {"eta": None}, {"eta": 1.0})]
    assert regrets[0] == regrets[1] == regrets[2]


def test_a_run_whose_numbers_overflow_is_rejected_before_any_output():
    """scalar-p p = 120 plays every round, but its residual's bound
    beta^p ||M||^p overflows a float: one ConfigError naming the seed and
    the key, not a summary that JSON cannot hold."""
    config = {"algorithm": "zigzag", "spec": {"construction": "scalar-p", "p": 120}, "adversary": {"kind": "sign-flip"}, "n": 20, "seeds": [0, 1]}
    with pytest.raises(ConfigError, match=r"^seed 0: residual holds -inf, not a finite number; the run overflowed a float$"):
        run_experiment(config)


def test_a_run_that_predicts_nan_is_rejected_in_that_round():
    """scalar-p p = 140 predicts NaN in round 195 of 200; sign-flip cannot
    label it, so the run ends there with one ConfigError naming the seeds
    and the round, not a ValueError from the loss."""
    config = {"algorithm": "zigzag", "spec": {"construction": "scalar-p", "p": 140}, "adversary": {"kind": "sign-flip"}, "loss": "hinge", "n": 200, "seeds": [0]}
    message = r"^seeds \[0\]: round 195 predicted NaN, which sign-flip cannot label; the run overflowed a float$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match=message):
        run_experiment(config)
    with pytest.raises(ConfigError, match=r"^seeds \[3, 5\]: round 7 predicted NaN"):
        SignFlip(None, [3, 5]).next_y(7, None, np.array([1.0, np.nan]))


FIXED_FILE_FAULTS = {
    "too-few-rows": ({"xs": [[0.5, 0.0, 0.0, 0.0]] * 2, "ys": [1.0, -1.0]}, "2 rows cannot serve n = 5"),
    "not-point-shape": ({"xs": [[0.5, 0.0, 0.0]] + [[0.5, 0.0, 0.0, 0.0]] * 4, "ys": [1.0] * 5}, "instance 0 is not of the point shape"),
    "label-not-a-sign": ({"xs": [[0.5, 0.0, 0.0, 0.0]] * 5, "ys": [1.0, -1.0, 0.5, 1.0, 1.0]}, "hinge loss needs labels"),
    "no-xs": ({"ys": [1.0] * 5}, "a fixed-file stream needs 'xs'"),
    "xs-text": ({"xs": "abcde", "ys": [1.0] * 5}, "needs lists of numbers for xs and ys: could not convert string to float: 'a'"),
    "ys-number": ({"xs": [[0.5, 0.0, 0.0, 0.0]] * 5, "ys": 5}, "needs lists of numbers for xs and ys: 'int' object is not iterable"),
    "missing-file": ({"path": str(pathlib.Path(__file__).with_name("no-such-stream.json"))}, "no-such-stream.json' cannot be read as a JSON stream"),
    "not-json": ({"path": __file__}, "test_harness.py' cannot be read as a JSON stream"),
}


@pytest.mark.parametrize("data, message", FIXED_FILE_FAULTS.values(), ids=FIXED_FILE_FAULTS.keys())
def test_fixed_file_faults_are_rejected_before_the_first_round(data, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached before the fixed-file stream was checked")

    monkeypatch.setattr(harness, "_build_learner", never)
    monkeypatch.setattr(harness, "run_episode", never)
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
        "loss": "hinge",
        "adversary": {"kind": "fixed-file", **data},
        "n": 5,
        "seeds": [0],
    }
    with pytest.raises(ConfigError, match=message):
        run_experiment(config)


def test_a_fixed_file_stream_is_read_once_per_run(tmp_path, monkeypatch):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"xs": [[0.5, 0.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0]] * 3, "ys": [1.0, -1.0] * 3}))
    reads = []
    read_text = pathlib.Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counted)
    for kind in ({"kind": "fixed-file"}, {"kind": "sign-flip", "base": "fixed-file"}):
        config = {
            "algorithm": "zigzag",
            "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
            "adversary": dict(kind, path=str(path)),
            "n": 5,
            "seeds": [0, 1],
            "rad_samples": 100,
            "fw_iters": 5,
        }
        reads.clear()
        summary = run_experiment(config)
        assert reads == [path]
        assert len(summary["regret"]) == 2


def test_readme_names_every_key_of_the_config_table():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    keys = re.search(r"a top-level key other than\s(.*?),\sor an `adversary` key other than\s(.*?),\sraises", readme, re.DOTALL)
    documented = [re.findall(r"`([^`]+)`", keys.group(i)) for i in (1, 2)]
    assert documented == [list(harness.CONFIG_TABLE["config"]), list(harness.CONFIG_TABLE["adversary"])]


CONSTRUCTIONS = [
    {"construction": "scalar-p", "p": 3.0},
    {"construction": "lp-sum", "p": 3.0, "d": 4},
    {"construction": "hilbert", "p": 2.5, "d": 4},
    {"construction": "hilbert", "p": 2.0, "gram": [[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]]},
    {"construction": "weighted-l2", "weight": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]},
    {"construction": "group-p2", "p": 3.0, "d": 3},
    {"construction": "even-power", "k": 4},
    {"construction": "l1-weak", "a": 10.0, "d": 3},
    {"construction": "l1-composed", "a": 10.0, "d": 3, "B": 2.0, "eps": 0.5},
]
CROSS_ALGORITHMS = [(algorithm, spec) for spec in CONSTRUCTIONS for algorithm in ("zigzag", "zigzag-doubling-realized", "zigzag-doubling-expected")]
CROSS_ALGORITHMS.append(("adaptive-gd", None))


@pytest.mark.parametrize(
    "algorithm, spec",
    CROSS_ALGORITHMS,
    ids=[f"{algorithm}-{spec['construction'] + '-gram' * ('gram' in spec) if spec else 'gd'}" for algorithm, spec in CROSS_ALGORITHMS],
)
def test_documented_cross_product_runs_or_is_rejected_before_any_round(algorithm, spec):
    """Every documented construction x algorithm x adversary kind x loss x
    certify either runs to the fixed summary schema or raises ConfigError
    before any round, and exactly the three constructions that cannot run
    and adaptive-gd with certify: true are rejected."""
    shape = (3,) if spec is None else make_spec(spec).point_shape
    rng = substream(4, "cross-product")
    fixed = {"xs": (0.3 * rng.uniform(-1.0, 1.0, size=(3, *shape))).tolist(), "ys": [1.0, -1.0, 1.0]}
    adversaries = [
        {"kind": "iid-gaussian"},
        {"kind": "iid-rademacher-coords"},
        {"kind": "low-rank-stream", "rank": 2},
        {"kind": "fixed-file", **fixed},
        {"kind": "sign-flip"},
        {"kind": "sign-flip", "base": "low-rank-stream", "rank": 2},
        {"kind": "sign-flip", "base": "fixed-file", **fixed},
    ]
    base = {"algorithm": algorithm, "n": 3, "seeds": [0, 1], "fw_iters": 5, "rad_samples": 100, "mc_paths": 100}
    base.update({"d": 3} if spec is None else {"spec": spec})
    cannot_run = spec is not None and spec["construction"] in ("group-p2", "l1-weak", "l1-composed")
    for adversary in adversaries:
        for loss_name in ("hinge", "absolute", "linear"):
            for certify in (True, False):
                config = dict(base, adversary=adversary, loss=loss_name, certify=certify)
                try:
                    summary = run_experiment(config)
                except ConfigError as exc:
                    assert cannot_run or (spec is None and certify), (config, exc)
                    assert not cannot_run or repr(spec["construction"]) in str(exc)
                else:
                    assert not cannot_run and not (spec is None and certify), config
                    assert {k for k in summary if not k.startswith("_")} == set(SUMMARY_KEYS)


def test_adaptive_gd_sqrt_regret_on_random_stream():
    rng = substream(7, "gd")
    d, n = 10, 1000
    gd = AdaptiveGD(d)
    xs, ys, dls = [], [], []
    total = 0.0
    from zigzag.losses import dloss, loss

    for t in range(n):
        x = rng.normal(size=d)
        x = x / np.linalg.norm(x)
        y = float(rng.choice([-1.0, 1.0]))
        (yhat,) = gd.predict(x)
        total += loss("hinge", yhat, y)
        dl = dloss("hinge", yhat, y)
        gd.update(x, dl)
        xs.append(x)
        ys.append(y)
        dls.append(dl)
    fw = offline_comparator(xs, ys, LpTag(2.0), "hinge", iters=400)
    regret = total - fw["best_loss"]
    grad_norm = math.sqrt(sum(d_**2 * float(x @ x) for d_, x in zip(dls, xs)))
    assert regret <= 3.0 * max(grad_norm, 1.0)


def test_offline_comparator_linear_loss_closed_form():
    rng = substream(8, "fw")
    xs = [rng.normal(size=4) for _ in range(50)]
    xs = [x / np.linalg.norm(x) for x in xs]
    ys = [float(rng.choice([-1.0, 1.0])) for _ in range(50)]
    fw = offline_comparator(xs, ys, LpTag(2.0), "linear", iters=2000)
    target = -float(np.linalg.norm(sum(y * x for x, y in zip(xs, ys))))
    assert fw["best_loss"] == pytest.approx(target, rel=1e-3)
    assert fw["lower"] <= fw["best_loss"] + 1e-12 * abs(fw["best_loss"])


@pytest.mark.parametrize("loss_name, c", [("hinge", 1.0), ("absolute", 1.0), ("linear", 0.0)])
@pytest.mark.parametrize("tag", [LpTag(2.0), LpTag(3.0), GramTag(np.diag([2.0, 1.0, 0.5, 3.0]))], ids=["l2", "l3", "gram"])
def test_offline_comparator_known_answer_on_unit_streams(tag, loss_name, c):
    """On unit-norm instances with sign labels every |<w, x_t>| <= 1 on the
    ball, so each loss is c - y_t <w, x_t> there and the optimum is
    c n - ||sum_t y_t x_t||; Frank-Wolfe's first step lands on it."""
    rng = substream(10, "fw-known", tag.name, loss_name)
    x = rng.normal(size=(3, 60, 4))
    x = x / tag.norm_batch(x.reshape(-1, 4)).reshape(3, 60, 1)
    y = rng.choice([-1.0, 1.0], size=(3, 60))
    target = c * 60 - tag.norm_batch(np.sum(y[..., np.newaxis] * x, axis=1))
    fw = offline_comparator(x, y, tag, loss_name, iters=500)
    np.testing.assert_allclose(fw["best_loss"], target, rtol=1e-12)
    assert np.all(fw["lower"] <= fw["best_loss"] + 1e-12 * np.abs(fw["best_loss"]))
    np.testing.assert_array_equal(offline_comparator(x, y, tag, loss_name, iters=1)["best_loss"], fw["best_loss"])


def _grid_search_hinge(xs, ys):
    """The least hinge loss over a dense polar grid of the unit disc."""
    best = float("inf")
    for rad in np.linspace(0, 1, 60):
        for ang in np.linspace(0, 2 * np.pi, 240, endpoint=False):
            w = rad * np.array([np.cos(ang), np.sin(ang)])
            val = sum(max(0.0, 1.0 - float(w @ x) * y) for x, y in zip(xs, ys))
            best = min(best, val)
    return best


def test_offline_comparator_hinge_matches_grid_search():
    rng = substream(9, "fw-grid")
    xs = [rng.normal(size=2) for _ in range(40)]
    xs = [x / np.linalg.norm(x) for x in xs]
    ys = [1.0] * 40
    fw = offline_comparator(xs, ys, LpTag(2.0), "hinge", iters=3000)
    assert fw["best_loss"] <= _grid_search_hinge(xs, ys) + 1e-3


def test_offline_comparator_lower_bounds_a_non_normalized_hinge_stream():
    """Instances of norm up to 3 clip the hinge, so the bound does not close
    at once; it still lies below every feasible loss."""
    rng = substream(9, "fw-grid-raw")
    xs = [rng.uniform(0.2, 3.0) * rng.normal(size=2) for _ in range(40)]
    ys = [float(rng.choice([-1.0, 1.0])) for _ in range(40)]
    fw = offline_comparator(xs, ys, LpTag(2.0), "hinge", iters=500)
    assert fw["lower"] <= _grid_search_hinge(xs, ys)


def test_offline_comparator_bound_before_any_step():
    fw = offline_comparator([[0.5, 0.5]], [1.0], LpTag(2.0), "hinge", iters=0)
    assert fw["best_loss"] == 1.0 and fw["lower"] == -np.inf


def test_offline_comparator_empty():
    fw = offline_comparator([], [], LpTag(2.0), "hinge", iters=500)
    assert fw["best_loss"] == 0.0 and fw["lower"] == 0.0


def test_minimax_oracle_values():
    # single round, x = 1, absolute loss: best play 0, worst label costs 1
    assert brute_force_minimax([1.0], "absolute") == pytest.approx(1.0)
    # all-zero instances: nothing to learn, nothing to regret
    assert brute_force_minimax([0.0, 0.0, 0.0], "linear") == pytest.approx(0.0)
    assert brute_force_minimax([0.0, 0.0], "absolute") == pytest.approx(0.0)
    # n = 4, the documented limit; exact values pin the induction's arithmetic
    assert brute_force_minimax([0.9, -0.4, 0.6, 0.3], "hinge") == 1.0000000000000007
    assert brute_force_minimax([0.5, 0.5, -0.7, 1.0], "absolute") == 1.2000000000000002
    assert brute_force_minimax([-0.2, 0.8, 0.45, -0.6], "linear") == 0.9500000000000002
    with pytest.raises(ValueError):
        brute_force_minimax([0.1] * 5, "absolute")
    with pytest.raises(ValueError):
        brute_force_minimax([2.0], "absolute")


def test_rad_exact_of_a_scalar_pair():
    assert rad_exact(np.array([[1.0], [1.0]]), LpTag(2.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("loss_name", ["absolute", "hinge", "linear"])
def test_sequence_optimality_on_random_sequences(loss_name):
    rng = substream(10, "minimax", loss_name)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        xs = rng.uniform(-1, 1, size=n)
        value = brute_force_minimax(xs, loss_name)
        assert rad_exact(xs[:, np.newaxis], LpTag(2.0)) <= value + 0.05


def test_run_experiment_summary_schema(tmp_path):
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "hilbert", "d": 4, "p": 2.0},
        "loss": "hinge",
        "adversary": {"kind": "iid-gaussian"},
        "n": 30,
        "eta": 0.5,
        "seeds": [0, 1],
        "rad_samples": 200,
        "fw_iters": 100,
    }
    summary = run_experiment(config)
    for key in SUMMARY_KEYS:
        assert key in summary
    assert len(summary["regret"]) == 2
    assert summary["residual_mean"] is not None

    paths = write_outputs(summary, tmp_path / "out")
    names = {p.split("/")[-1] for p in paths}
    assert names == {"episode_seed0.csv", "episode_seed1.csv", "summary.json"}
    data = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(data) == set(SUMMARY_KEYS)
    csv_text = (tmp_path / "out" / "episode_seed0.csv").read_text()
    assert csv_text.splitlines()[0] == "t,yhat,y,loss,dloss,eps,rel_value,cum_loss"
    assert len(csv_text.splitlines()) == 31

    digest = merge_reports(tmp_path)
    assert len(digest["runs"]) == 1


def test_run_experiment_empty_seed_list():
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "scalar-p", "p": 2.0},
        "loss": "linear",
        "adversary": {"kind": "iid-gaussian"},
        "n": 5,
        "eta": 1.0,
        "seeds": [],
    }
    summary = run_experiment(config)
    assert summary["regret"] == []
    assert summary["residual_mean"] is None


def test_spectral_summary_keeps_fixed_schema(tmp_path):
    config = {
        "algorithm": "spectral",
        "d": 3,
        "r": 1,
        "tau": 3.0,
        "n": 30,
        "net_size": 40,
        "seeds": [0],
    }
    summary = run_experiment(config)
    paths = write_outputs(summary, tmp_path / "spec-run")
    data = json.loads((tmp_path / "spec-run" / "summary.json").read_text())
    assert set(data) == set(SUMMARY_KEYS)
    sidecar = json.loads((tmp_path / "spec-run" / "spectral.json").read_text())
    assert sidecar[0]["cert_violations"] == 0


def test_merge_reports_doubling_rate_ratio(tmp_path):
    config = {
        "algorithm": "zigzag-doubling-realized",
        "spec": {"construction": "scalar-p", "p": 2.0},
        "loss": "linear",
        "adversary": {"kind": "sign-flip"},
        "n": 50,
        "seeds": [0],
        "eta0": 8.0,
        "rad_samples": 300,
        "fw_iters": 50,
    }
    write_outputs(run_experiment(config), tmp_path / "dbl")
    digest = merge_reports(tmp_path)
    run = digest["runs"][0]
    assert "doubling_rate_ratio" in run
    assert len(run["doubling_rate_ratio"]) == 1


def test_run_experiment_reproducible(tmp_path):
    config = {
        "algorithm": "zigzag-doubling-realized",
        "spec": {"construction": "lp-sum", "p": 3.0, "d": 4},
        "loss": "hinge",
        "adversary": {"kind": "sign-flip"},
        "n": 40,
        "seeds": [3],
        "rad_samples": 200,
        "fw_iters": 50,
    }
    a = run_experiment(config)
    b = run_experiment(config)
    write_outputs(a, tmp_path / "a")
    write_outputs(b, tmp_path / "b")
    assert (tmp_path / "a" / "summary.json").read_text() == (tmp_path / "b" / "summary.json").read_text()
    assert (tmp_path / "a" / "episode_seed3.csv").read_text() == (tmp_path / "b" / "episode_seed3.csv").read_text()


def test_fixed_stream_adversary():
    adv = FixedStream([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
    assert np.allclose(adv.next_x(1), [1.0, 0.0])
    assert adv.next_y(2, None, 0.0) == -1.0
    with pytest.raises(ValueError):
        FixedStream([[1.0]], [1.0, 2.0])


SEED_LANE_SPECS = [
    {"construction": "scalar-p", "p": 3.0},
    {"construction": "lp-sum", "p": 3.0, "d": 4},
    {"construction": "hilbert", "p": 2.5, "d": 4},
    {"construction": "weighted-l2", "weight": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]]},
    {"construction": "even-power", "k": 4},
]
GRAM_HILBERT = {
    "construction": "hilbert",
    "p": 2.5,
    "gram": [[3.0, 0.4, -0.7, 0.2], [0.4, 2.0, 0.3, -0.5], [-0.7, 0.3, 4.0, 0.6], [0.2, -0.5, 0.6, 1.5]],
}
SEED_LANE_ADVERSARIES = [
    {"kind": "sign-flip"},
    {"kind": "iid-gaussian"},
    {"kind": "low-rank-stream", "rank": 2},
    {"kind": "fixed-file"},
    {"kind": "iid-rademacher-coords"},
    {"kind": "iid-gaussian", "normalize": False},
]


def _adversary_id(adversary):
    return adversary["kind"] + ("-unnormalized" if adversary.get("normalize") is False else "")


def _lane_id(algorithm, spec, adversary, extra):
    parts = [algorithm, spec["construction"] if spec else "gd", _adversary_id(adversary), *extra]
    return "-".join(parts + ["gram"] * (spec is not None and "gram" in spec))


def _seed_lane_config(algorithm, spec, adversary, extra):
    n = 25
    shape, norm = (4,), np.linalg.norm
    if spec is not None:
        built = make_spec(spec)
        shape, norm = built.point_shape, built.norm_batch
    if adversary["kind"] == "fixed-file":
        rng = substream(21, "seed-lanes")
        xs = [rng.normal(size=shape) for _ in range(n)]
        adversary = dict(adversary, xs=[(x / norm(x)).tolist() for x in xs], ys=rng.choice([-1.0, 1.0], size=n).tolist())
    config = {"algorithm": algorithm, "loss": "hinge", "adversary": adversary, "n": n, "fw_iters": 60, "rad_samples": 100}
    if spec is None:
        return dict(config, d=4)
    return {**config, "spec": spec, "certify": algorithm == "zigzag", "eta": 0.7, **extra}


SEED_LANE_CONFIGS = (
    [("zigzag", spec, adversary, {}) for spec in SEED_LANE_SPECS + [GRAM_HILBERT] for adversary in SEED_LANE_ADVERSARIES]
    + [("adaptive-gd", None, adversary, {}) for adversary in SEED_LANE_ADVERSARIES]
    + [
        ("zigzag-doubling-realized", SEED_LANE_SPECS[1], {"kind": "iid-gaussian"}, {}),
        ("zigzag-doubling-realized", SEED_LANE_SPECS[1], {"kind": "sign-flip"}, {"eta0": 50.0}),
        ("zigzag-doubling-expected", SEED_LANE_SPECS[1], {"kind": "iid-gaussian"}, {"mc_paths": 100}),
        ("zigzag-doubling-expected", SEED_LANE_SPECS[1], {"kind": "fixed-file"}, {"mc_paths": 100, "eta0": 0.9}),
        ("zigzag-doubling-realized", GRAM_HILBERT, {"kind": "iid-gaussian"}, {"certify": True}),
    ]
)


@pytest.mark.parametrize(
    "algorithm, spec, adversary, extra",
    SEED_LANE_CONFIGS,
    ids=[_lane_id(*config) for config in SEED_LANE_CONFIGS],
)
def test_seed_lanes_match_one_seed_runs(algorithm, spec, adversary, extra, tmp_path):
    """Seeds run together as lanes write the same cells as seeds run one at
    a time: byte-identical traces and identical summary values, the batched
    Frank-Wolfe comparator and dense Gram norms included.  With a large eta0
    the doubling lanes restart on schedules of their own, not in lockstep."""
    config = _seed_lane_config(algorithm, spec, adversary, extra)
    seeds = [0, 1, 2, 3]
    together = run_experiment(dict(config, seeds=seeds))
    if "eta0" in extra:
        assert len({tuple(phase["start"] for phase in lane) for lane in together["phases"]}) > 1
    write_outputs(together, tmp_path / "together")
    for i, seed in enumerate(seeds):
        alone = run_experiment(dict(config, seeds=[seed]))
        write_outputs(alone, tmp_path / f"alone{seed}")
        name = f"episode_seed{seed}.csv"
        assert (tmp_path / "together" / name).read_bytes() == (tmp_path / f"alone{seed}" / name).read_bytes()
        cell, want = together["_cells"][i], alone["_cells"][0]
        for key in ("regret", "comparator_fw", "rad_mean", "benchmark_linearized", "residual", "cert_worst_slack", "phases"):
            assert cell[key] == want[key], key
