"""Replay the benchmark's recorded pools through ``run_experiment`` and
``run_spectral``.

``perfbench/reference`` holds the outputs of every pool seed of the
benchmark's workloads.  This test only reads those files: it runs every pool
seed of the ``episodes`` groups and of both doubling groups (``realized``
and ``expected``), all seeds of a group as the lanes of one config, and
checks them the way the benchmark does:
``regret``, ``rad_mean`` and ``residual`` to 1e-9 relative, the doubling
phases exactly, and a certificate worst slack of at least -1e-8.  Of the
``spectral`` pools it runs every seed of the d=6, r=2 group, where the
order of the rank sums matters, and seeds 0-3 of each desk group: ``regret``
and ``radius_achieved`` to 1e-9 relative, ``net_size`` and
``cert_violations`` exactly.
"""

import json
import pathlib

import pytest

from zigzag.harness import SUMMARY_KEYS, run_experiment
from zigzag.spectral import run_spectral

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"
FLOAT_RTOL = 1e-9
CERT_TOL = 1e-8


def _groups():
    episodes = json.loads((REFERENCE / "episodes.json").read_text())["groups"]
    doubling = json.loads((REFERENCE / "doubling.json").read_text())["groups"]
    return [("episodes", g) for g in episodes] + [("doubling", g) for g in doubling]


GROUPS = _groups()


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want))


@pytest.mark.parametrize("workload, group", GROUPS, ids=[f"{w}-{g['id']}" for w, g in GROUPS])
def test_run_experiment_replays_recorded_pool(workload, group):
    seeds = sorted(int(seed) for seed in group["cells"])
    summary = run_experiment(dict(group["config"], seeds=seeds))
    assert [cell["seed"] for cell in summary["_cells"]] == seeds
    for cell in summary["_cells"]:
        want = group["cells"][str(cell["seed"])]
        where = (group["id"], cell["seed"])
        assert sorted(k for k in summary if not k.startswith("_")) == want["summary_keys"] == sorted(SUMMARY_KEYS)
        assert cell["trace_csv"].split("\n", 1)[0] == want["csv_header"]
        assert _close(cell["regret"], want["regret"]), where
        if workload == "episodes":
            assert _close(cell["rad_mean"], want["rad_mean"]), where
            assert _close(cell["residual"], want["residual"]), where
            if want["certify"]:
                assert cell["cert_worst_slack"] >= -CERT_TOL, where
        else:
            assert [[p["start"], p["end"], p["eta"]] for p in cell["phases"]] == want["phases"], where


def _spectral_runs():
    groups = json.loads((REFERENCE / "spectral.json").read_text())["groups"]
    runs = []
    for g in groups:
        seeds = sorted(int(seed) for seed in g["cells"])
        if g["id"].startswith("desk"):
            seeds = seeds[:4]
        runs += [(g, seed) for seed in seeds]
    return runs


SPECTRAL_RUNS = _spectral_runs()


@pytest.mark.parametrize("group, seed", SPECTRAL_RUNS, ids=[f"{g['id']}-{seed}" for g, seed in SPECTRAL_RUNS])
def test_run_spectral_replays_recorded_pool(group, seed):
    c = group["config"]
    res = run_spectral(
        d=c["d"], r=c["r"], tau=c["tau"], n=c["n"], stream_kind=c["entry_distribution"],
        loss_name=c["loss"], seed=seed, max_net=c["net_size"],
    )
    want = group["cells"][str(seed)]
    assert res.coverage.size == want["net_size"]
    assert res.cert_violations == want["cert_violations"]
    assert _close(res.regret, want["regret"])
    assert _close(res.coverage.radius_achieved, want["radius_achieved"])
