"""The benchmark's tracer still binds the program's boundaries.

``perfbench/tracer.py`` wraps public functions and methods by name, so a
rename or a deletion in the program breaks ``perfbench/run.py --trace 1``.
This test only reads ``perfbench/``: it installs the tracer, runs one tiny
config of each doubling mode, one certified ``zigzag`` config and one
spectral run, checks that both interval-sup trackers, the Burkholder
queries (defined once, on ``BurkholderSpec``), the learner's certificate,
the Frank-Wolfe comparator and the spectral net, round and certificate were
seen, then checks that
``uninstall`` puts every original back.
"""

import pathlib

from zigzag.harness import run_experiment
from zigzag.spectral import run_spectral

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_sees_the_trackers_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def bound():
        methods = {(cls, m): vars(cls).get(m) for _, classes, names, _ in tracer.METHODS for cls in classes for m in names}
        functions = {(mod, attr): value for mod in tracer.MODULES for attr, value in vars(mod).items() if callable(value)}
        return methods, functions

    before = bound()
    t = tracer.Tracer()
    t.install()
    try:
        assert bound() != before
        for mode in ("expected", "realized"):
            run_experiment({
                "algorithm": f"zigzag-doubling-{mode}",
                "spec": {"construction": "hilbert", "p": 2.5, "d": 4},
                "loss": "hinge",
                "adversary": {"kind": "iid-gaussian"},
                "n": 20,
                "seeds": [0, 1],
                "mc_paths": 100,
                "fw_iters": 20,
                "rad_samples": 100,
            })
        run_experiment({
            "algorithm": "zigzag",
            "spec": {"construction": "lp-sum", "p": 3.0, "d": 3},
            "adversary": {"kind": "sign-flip"},
            "n": 10,
            "seeds": [0],
            "certify": True,
            "fw_iters": 20,
            "rad_samples": 100,
        })
        run_spectral(3, 1, 3.0, 5, stream_kind="uniform", loss_name="hinge", max_net=5)
        values = t.layer_values()
    finally:
        t.uninstall()
    assert values["tuning.expected_append.calls"] > 0
    assert values["linalg.interval_sup_append.calls"] > 0
    assert values["burkholder.value_batch.calls"] > 0
    assert values["learner.certificate.calls"] > 0
    assert values["harness.offline_comparator.calls"] > 0
    for layer in ("spectral.certificate", "spectral.round", "spectral.build_net"):
        assert values[f"{layer}.calls"] > 0
    assert bound() == before
