import json
import math

import numpy as np
import pytest

from zigzag.harness import (
    AdaptiveGD,
    FixedStream,
    brute_force_minimax,
    make_adversary,
    offline_comparator,
    rad_exact_scalar,
    run_experiment,
    write_outputs,
    merge_reports,
    SUMMARY_KEYS,
)
from zigzag.burkholder import make_spec
from zigzag.linalg import LpTag
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
        fixed = [(x / spec.norm(x)).tolist() for x in spec.sample_points(substream(3, "fixed"), 79)]
        for cfg in (
            {"kind": "iid-gaussian"},
            {"kind": "iid-rademacher-coords"},
            {"kind": "sign-flip"},
            {"kind": "low-rank-stream", "rank": 2},
            {"kind": "fixed-file", "xs": fixed, "ys": [1.0] * 79},
        ):
            adv = make_adversary(cfg, shape=spec.point_shape, tag=spec.tag, seed=3)
            rng = substream(3, "check")
            for t in range(1, 80):
                x = adv.next_x(t, rng)
                assert np.shape(x) == spec.point_shape, (spec.construction, cfg["kind"])
                assert spec.tag.norm(x) <= 1.0 + 1e-12


def test_no_normalize_escape_hatch_reports_scale(tmp_path):
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "hilbert", "d": 6, "p": 2.0},
        "loss": "hinge",
        "adversary": {"kind": "iid-gaussian", "normalize": False},
        "n": 40,
        "eta": 0.2,
        "seeds": [0],
        "rad_samples": 200,
        "fw_iters": 50,
    }
    summary = run_experiment(config)
    cell = summary["_cells"][0]
    assert cell["max_x_norm"] > 1.0  # raw gaussian draws exceed the unit ball
    normalized = dict(config, adversary={"kind": "iid-gaussian"})
    cell = run_experiment(normalized)["_cells"][0]
    assert cell["max_x_norm"] <= 1.0 + 1e-12


def test_sign_flip_labels():
    adv = make_adversary({"kind": "sign-flip"}, shape=(3,), tag=LpTag(2.0), seed=0)
    rng = substream(0, "y")
    assert adv.next_y(1, None, 0.7, rng) == -1.0
    assert adv.next_y(1, None, -0.2, rng) == 1.0
    assert adv.next_y(1, None, 0.0, rng) == 1.0  # tie toward +1


def test_low_rank_stream_lives_in_subspace():
    adv = make_adversary({"kind": "low-rank-stream", "rank": 2}, shape=(8,), tag=LpTag(2.0), seed=5)
    rng = substream(5, "lr")
    xs = np.stack([adv.next_x(t, rng) for t in range(1, 30)])
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
    with pytest.raises(ValueError, match="adaptive-gd.*certify"):
        run_experiment(config)


def test_every_construction_runs_or_is_rejected_before_any_round():
    specs = [
        {"construction": "scalar-p", "p": 3.0},
        {"construction": "lp-sum", "p": 3.0, "d": 4},
        {"construction": "hilbert", "p": 2.5, "d": 4},
        {"construction": "weighted-l2", "weight": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]},
        {"construction": "group-p2", "p": 3.0, "d": 3},
        {"construction": "even-power", "k": 4},
        {"construction": "l1-weak", "a": 10.0, "d": 3},
        {"construction": "l1-composed", "a": 10.0, "d": 3, "B": 2.0, "eps": 0.5},
    ]
    rejected = set()
    for spec in specs:
        for algorithm in ("zigzag", "zigzag-doubling-realized", "zigzag-doubling-expected"):
            config = {
                "algorithm": algorithm,
                "spec": spec,
                "loss": "hinge",
                "adversary": {"kind": "sign-flip"},
                "n": 5,
                "seeds": [0],
                "mc_paths": 100,
            }
            try:
                summary = run_experiment(config)
            except ValueError as exc:
                assert repr(spec["construction"]) in str(exc)
                rejected.add(spec["construction"])
            else:
                assert {k for k in summary if not k.startswith("_")} == set(SUMMARY_KEYS)
    assert rejected == {"group-p2", "l1-weak", "l1-composed"}


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
    assert fw["gap"] >= -1e-9


def test_offline_comparator_hinge_matches_grid_search():
    rng = substream(9, "fw-grid")
    xs = [rng.normal(size=2) for _ in range(40)]
    xs = [x / np.linalg.norm(x) for x in xs]
    ys = [1.0] * 40
    fw = offline_comparator(xs, ys, LpTag(2.0), "hinge", iters=3000)
    # dense polar grid over the unit disc
    best = float("inf")
    for rad in np.linspace(0, 1, 60):
        for ang in np.linspace(0, 2 * np.pi, 240, endpoint=False):
            w = rad * np.array([np.cos(ang), np.sin(ang)])
            val = sum(max(0.0, 1.0 - float(w @ x) * y) for x, y in zip(xs, ys))
            best = min(best, val)
    assert fw["best_loss"] <= best + 1e-3


def test_offline_comparator_empty():
    fw = offline_comparator([], [], LpTag(2.0), "hinge")
    assert fw["best_loss"] == 0.0


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


def test_rad_exact_scalar_pair():
    assert rad_exact_scalar([1.0, 1.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("loss_name", ["absolute", "hinge", "linear"])
def test_sequence_optimality_on_random_sequences(loss_name):
    rng = substream(10, "minimax", loss_name)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        xs = rng.uniform(-1, 1, size=n)
        value = brute_force_minimax(xs, loss_name)
        assert rad_exact_scalar(xs) <= value + 0.05


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
    rng = substream(0, "fs")
    assert np.allclose(adv.next_x(1, rng), [1.0, 0.0])
    assert adv.next_y(2, None, 0.0, rng) == -1.0
    with pytest.raises(ValueError):
        FixedStream([[1.0]], [1.0, 2.0])
