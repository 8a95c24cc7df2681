"""Replay the benchmark's recorded pools through ``run_experiment``.

``perfbench/reference`` holds the outputs of every pool seed of the
benchmark's workloads.  This test only reads those files: it runs every pool
seed of the ``episodes`` groups and of the ``realized`` doubling group, all
seeds of a group in one config, and checks them the way the benchmark does:
``regret``, ``rad_mean`` and ``residual`` to 1e-9 relative, the doubling
phases exactly, and a certificate worst slack of at least -1e-8.
"""

import json
import pathlib

import pytest

from zigzag.harness import SUMMARY_KEYS, run_experiment

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"
FLOAT_RTOL = 1e-9
CERT_TOL = 1e-8


def _groups():
    episodes = json.loads((REFERENCE / "episodes.json").read_text())["groups"]
    doubling = json.loads((REFERENCE / "doubling.json").read_text())["groups"]
    return [("episodes", g) for g in episodes] + [("doubling", g) for g in doubling if g["id"] == "realized"]


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
