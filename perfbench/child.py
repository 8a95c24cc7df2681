"""One workload process: set up, run timed passes, report.

    child.py run --workload W --inputs IN.json --out DIR --result OUT.json
                 [--seconds S] [--trace 0|1] [--setup-only]
    child.py record --workload W

``run.py`` starts this file with ``src`` on ``PYTHONPATH``, one BLAS thread
and ``ZIGZAG_WORKERS`` unset.  In ``run`` mode the process imports numpy and
zigzag, reads the generated configs and builds their specs, then notes the
time just before its first timed call: ``run.py`` subtracts the time it
spawned the process to get ``setup_s``.  It then runs whole passes over the
workload's units until ``--seconds`` have gone by.  With ``--trace 1`` it
alternates untraced and traced passes so the tracing overhead can be taken
from the same process; the first pass, which pays for cold caches and a cold
allocator, is left out of both.  Observations of every unit of every pass go
back to ``run.py``, which checks them.

``record`` runs every unit of the workload's pools once and writes
``reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
import traceback

import numpy as np

from zigzag import burkholder, cli, harness, spectral

import plan

HERE = pathlib.Path(__file__).resolve().parent


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# workloads: the constructor is set-up (it builds what the configs need),
# run() is one timed pass, observe(raw) turns its results into checkable values


class ExperimentWorkload:
    """``episodes`` and ``doubling``: ``harness.run_experiment`` plus
    ``write_outputs`` per unit; a unit of the check is one seed cell."""

    def __init__(self, units, out: pathlib.Path):
        self.units = units
        self.out = out
        # spec construction is part of set-up; run_experiment builds its own
        self.specs = [burkholder.make_spec(u["config"]["spec"]) for u in units if "spec" in u["config"]]

    def run(self):
        raw = []
        for i, unit in enumerate(self.units):
            try:
                summary = harness.run_experiment(unit["config"])
                harness.write_outputs(summary, self.out / f"unit{i}")
            except Exception as exc:  # a unit that raises is a failed unit, not a crash of the benchmark
                raw.append(_error(exc))
            else:
                raw.append(summary)
        return raw

    def observe(self, raw):
        obs = []
        for i, (unit, summary) in enumerate(zip(self.units, raw)):
            config = unit["config"]
            if isinstance(summary, str):
                obs += [{"group": unit["group"], "seed": s, "error": summary} for s in config["seeds"]]
                continue
            out = self.out / f"unit{i}"
            keys = sorted(json.loads((out / "summary.json").read_text()))
            for cell in summary["_cells"]:
                with open(out / f"episode_seed{cell['seed']}.csv") as fh:
                    header = fh.readline().strip()
                obs.append({
                    "group": unit["group"],
                    "seed": cell["seed"],
                    "summary_keys": keys,
                    "csv_header": header,
                    "certify": bool(config.get("certify")),
                    "regret": cell["regret"],
                    "rad_mean": cell["rad_mean"],
                    "residual": cell["residual"],
                    "cert_worst_slack": cell["cert_worst_slack"],
                    "phases": [[p["start"], p["end"], p["eta"]] for p in cell["phases"]],
                })
        return obs


class SpectralWorkload:
    """``spectral.run_spectral`` per unit; a unit is one spectral run."""

    def __init__(self, units, out: pathlib.Path):
        self.units = units

    def run(self):
        raw = []
        for unit in self.units:
            c = unit["config"]
            try:
                raw.append(spectral.run_spectral(
                    d=c["d"], r=c["r"], tau=c["tau"], n=c["n"], stream_kind=c["entry_distribution"],
                    loss_name=c["loss"], seed=c["seeds"][0], max_net=c["net_size"],
                ))
            except Exception as exc:
                raw.append(_error(exc))
        return raw

    def observe(self, raw):
        obs = []
        for unit, res in zip(self.units, raw):
            entry = {"group": unit["group"], "seed": unit["config"]["seeds"][0]}
            if isinstance(res, str):
                obs.append(dict(entry, error=res))
                continue
            obs.append(dict(
                entry,
                cert_violations=res.cert_violations,
                regret=res.regret,
                radius_achieved=res.coverage.radius_achieved,
                net_size=res.coverage.size,
            ))
        return obs


def _numbers(payload) -> list:
    """Numeric leaves of a JSON payload in sorted-key order."""
    if isinstance(payload, dict):
        return [x for k in sorted(payload) for x in _numbers(payload[k])]
    if isinstance(payload, list):
        return [x for v in payload for x in _numbers(v)]
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return [float(payload)]
    return []


class VerifyWorkload:
    """``zigzag check`` verifiers through ``cli.main``; a unit is one
    invocation."""

    def __init__(self, units, out: pathlib.Path):
        self.units = units
        self.out = out
        parser = cli.build_parser()
        self.argvs = []
        for i, unit in enumerate(units):
            argv = unit["config"]["argv"] + ["--out", str(out / f"unit{i}.json")]
            parser.parse_args(argv)
            self.argvs.append(argv)

    def run(self):
        raw = []
        for argv in self.argvs:
            try:
                raw.append(cli.main(argv))
            except SystemExit as exc:
                raw.append(f"SystemExit({exc.code})")
            except Exception as exc:
                raw.append(_error(exc))
        return raw

    def observe(self, raw):
        obs = []
        for i, (unit, code) in enumerate(zip(self.units, raw)):
            entry = {"group": unit["group"], "seed": unit["config"]["seed"]}
            if isinstance(code, str):
                obs.append(dict(entry, error=code))
                continue
            payload = json.loads((self.out / f"unit{i}.json").read_text())
            obs.append(dict(
                entry,
                exit_code=code,
                flags={k: payload[k] for k in ("ok", "bound_ok") if k in payload},
                numbers=_numbers(payload),
                game_sizes=sorted(len(t["xs"]) for t in payload["trials"]) if unit["group"].startswith("minimax") else None,
            ))
        return obs


WORKLOADS = {
    "episodes": ExperimentWorkload,
    "doubling": ExperimentWorkload,
    "spectral": SpectralWorkload,
    "verify": VerifyWorkload,
}


# ---------------------------------------------------------------------------
# run mode


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _phases(obs) -> int:
    return sum(len(o.get("phases") or []) for o in obs)


def run(args) -> None:
    out = pathlib.Path(args.out)
    inputs = json.loads(pathlib.Path(args.inputs).read_text())
    workload = WORKLOADS[args.workload](inputs["units"], out)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"t_ready": t_ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing  # imported only for traced runs, after t_ready

            tracer = tracing.Tracer()
        passes = []
        deadline = time.perf_counter() + args.seconds
        traced = False
        while True:
            if traced:
                tracer.install()
                start = time.perf_counter()
                raw = tracer.root(workload.run)
                wall = time.perf_counter() - start
                tracer.uninstall()
            else:
                start = time.perf_counter()
                raw = workload.run()
                wall = time.perf_counter() - start
            obs = workload.observe(raw)
            record = {"wall_s": wall, "traced": traced, "units": obs}
            if traced:
                tracer.counts["tuning.phases"] += _phases(obs)
                record["layers"] = tracer.layer_values()
            passes.append(record)
            done = time.perf_counter() >= deadline
            if tracer is not None:
                # pass 0 warms the caches and the allocator and is left out of
                # the trace medians; after it, traced and untraced passes alternate
                done = done and {p["traced"] for p in passes[1:]} == {True, False}
                traced = not traced if len(passes) > 1 else True
            if done:
                break
        result["passes"] = passes
        if tracer is not None:
            tracer.write_spans(out / "spans.csv.gz")  # the last traced pass
            result["computed"] = tracing.COMPUTED
            result["counts"] = sorted(tracing.COUNTS)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["environment"] = _environment()
    pathlib.Path(args.result).write_text(json.dumps(result))


# ---------------------------------------------------------------------------
# record mode


def _record_group(name: str, group: dict, out: pathlib.Path) -> dict:
    cells, excluded = {}, {}
    config = group["config"]
    if name in ("episodes", "doubling"):
        units = [{"group": group["id"], "config": dict(config, seeds=group["seeds"])}]
    elif name == "spectral":
        units = [{"group": group["id"], "config": dict(config, seeds=[s])} for s in group["seeds"]]
    else:
        units = None
    if units is not None:
        workload = WORKLOADS[name](units, out)
        for o in workload.observe(workload.run()):
            if o.get("error"):
                raise RuntimeError(f"{group['id']} seed {o['seed']} raised at record time: {o['error']}")
            problems = plan.check_unit(name, o, o)
            if problems:
                raise RuntimeError(f"{group['id']} seed {o['seed']} fails its invariants: {problems}")
            cells[str(o["seed"])] = {k: v for k, v in o.items() if k not in ("group", "seed")}
        return {"cells": cells, "excluded": excluded}
    # verify: one invocation per candidate seed.  Keep seeds that exit 0 (the
    # Monte Carlo checks use 3-standard-error bands, which a fixed seed can
    # miss by chance) and, for minimax, whose games have the fixed lengths.
    seed = -1
    while len(cells) < plan.VERIFY_POOL:
        seed += 1
        unit = {"group": group["id"], "config": {"argv": config["argv"] + ["--seed", str(seed)], "seed": seed}}
        workload = VerifyWorkload([unit], out)
        (o,) = workload.observe(workload.run())
        if o.get("error"):
            raise RuntimeError(f"{group['id']} seed {seed} raised at record time: {o['error']}")
        if o["game_sizes"] not in (None, plan.MINIMAX_SIZES):
            continue  # other game lengths are another amount of work, not a failure
        if problems := plan.check_unit(name, o, o):
            excluded[str(seed)] = "; ".join(problems)
        else:
            cells[str(seed)] = {k: v for k, v in o.items() if k not in ("group", "seed")}
    return {"cells": cells, "excluded": excluded}


def record(args) -> None:
    out = HERE / "out" / f"record-{args.workload}"
    out.mkdir(parents=True, exist_ok=True)
    groups = []
    for group in plan.pool_groups(args.workload):
        start = time.perf_counter()
        recorded = _record_group(args.workload, group, out)
        print(f"{args.workload}/{group['id']}: {len(recorded['cells'])} cells, "
              f"{len(recorded['excluded'])} excluded, {time.perf_counter() - start:.1f} s", flush=True)
        groups.append({"id": group["id"], "config": group["config"], "fingerprint": group["fingerprint"], **recorded})
    plan.REFERENCE_DIR.mkdir(exist_ok=True)
    path = plan.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload, "groups": groups}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_run.add_argument("--inputs", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--result", required=True)
    p_run.add_argument("--seconds", type=float, default=0.0)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--setup-only", action="store_true")
    p_rec = sub.add_parser("record")
    p_rec.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args()
    if args.mode == "run":
        run(args)
    else:
        record(args)


if __name__ == "__main__":
    main()
