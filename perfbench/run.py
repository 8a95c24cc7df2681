"""The zigzag benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N          # all four workloads in turn
    python3 perfbench/run.py --record W        # re-record reference/W.json
    python3 perfbench/run.py --write-manifest  # regenerate BENCHMARK.json

Run from the root of a checkout of the repository.  One run:

1. turns ``--seed`` into the workload's configs (``plan.make_inputs``);
2. starts ``SETUP_PROBES`` fresh single-threaded child processes that only
   set up (interpreter, numpy and zigzag imports, config and spec
   construction) and one more that sets up and then runs whole passes over
   the workload for ``--seconds``; ``setup_s`` is the median over all of them;
3. checks every unit of every pass against the recorded reference;
4. prints each metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the child alternates untraced and traced passes and the metrics are the
per-module split from ``tracer.py`` plus ``trace.overhead_s``, the traced
minus the untraced median pass time.  A run's full record (environment,
every pass time, quartiles, failures) goes to
``perfbench/out/<workload>-seed<N>-trace<T>/result.json``.

``failed_ratio`` is printed but travels as ``failed``/``attempted`` in the
JSON line, because a metric of the benchmark may never read zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import plan

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

RUN_SECONDS = 20
SETUP_PROBES = 7
DEADLINE_S = 170  # the whole run, children included, ends before this
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# (name, unit, better, bound): bound is the share of the parent commit's
# median by which a later change may worsen the metric
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("rounds_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


class BenchmarkError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("ZIGZAG_WORKERS", None)  # the harness default of 1 applies
    return env


def _spawn(args: list[str], result: pathlib.Path, deadline: float) -> tuple[float, dict]:
    """Run one child to completion; return its spawn time and its result."""
    cmd = [sys.executable, str(HERE / "child.py"), "run", *args, "--result", str(result)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("a workload process overran the run's deadline and was stopped")
    if code != 0:
        raise BenchmarkError(f"a workload process exited with code {code}")
    return spawned, json.loads(result.read_text())


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _check(workload: str, passes: list[dict], ref: dict) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for k, p in enumerate(passes):
        for obs in p["units"]:
            found = plan.check_unit(workload, obs, plan.expected_for(ref, obs["group"], obs["seed"]))
            if found:
                failed += 1
                problems.append(f"pass {k} {obs['group']} seed {obs['seed']}: {'; '.join(found)}")
    return failed, problems


def run(workload: str, args) -> None:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "zigzag" / "__init__.py").is_file():
        raise BenchmarkError(f"no zigzag sources under {SRC}: run from the root of a repository checkout")
    ref = plan.load_reference(workload)
    manifest = json.loads(MANIFEST.read_text())
    inputs = plan.make_inputs(workload, args.seed, ref)
    rounds = plan.rounds_per_pass(inputs)

    out = HERE / "out" / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1))
    common = ["--workload", workload, "--inputs", str(out / "inputs.json"), "--out", str(out)]

    setups = []
    for k in range(SETUP_PROBES):
        spawned, res = _spawn(common + ["--setup-only"], out / f"setup{k}.json", deadline)
        setups.append(res["t_ready"] - spawned)
    spawned, res = _spawn(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], out / "child.json", deadline
    )
    setups.append(res["t_ready"] - spawned)
    passes = res["passes"]

    failed, problems = _check(workload, passes, ref)
    attempted = sum(len(p["units"]) for p in passes)
    # with tracing on, pass 0 is a warm-up for the traced/untraced comparison
    untraced = [p["wall_s"] for p in passes[1 if args.trace else 0:] if not p["traced"]]
    wall = statistics.median(untraced)
    q1, q3 = _quartiles(untraced)
    correct = failed == 0
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"({len(passes)} passes, {rounds} rounds and {attempted // len(passes)} units per pass)")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            if name in res["counts"]:
                if any(v != values[0] for v in values):
                    correct = False
                    problems.append(f"count {name} differs between passes: {values}")
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
        names = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
        computed = set(res["computed"])
        metrics = {}
        for name, unit in names:
            if name not in layers:
                raise BenchmarkError(f"the traced run produced no value for {name}")
            metrics[name] = {"value": layers[name], "unit": unit}
            label = "  (computed)" if name in computed else ""
            print(f"  {name:48s} {layers[name]:>16.6g} {unit}{label}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "rounds_per_s": rounds / wall,
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"median of {len(untraced)} repeats; q1 {q1:.4f}, q3 {q3:.4f}",
            "rounds_per_s": f"{rounds} rounds per repeat",
            "peak_rss_mb": "ru_maxrss of the measuring process",
        }
        metrics = {}
        for m in manifest["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:14s} {values[m['name']]:>14.6g} {m['unit']:4s} ({notes[m['name']]})")
    print(f"  {'failed_ratio':14s} {failed / attempted:>14.6g}      ({failed} of {attempted} units failed)")
    for line in problems[:20]:
        print(f"  FAILED {line}")

    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": dict(
            res["environment"],
            git_revision=_git_revision(),
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            blas_threads={var: "1" for var in BLAS_THREAD_VARS},
            zigzag_workers="unset (harness default 1)",
            processes="one workload process at a time",
        ),
        "rounds_per_pass": rounds,
        "setup_s_samples": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "wall_s_quartiles": [q1, q3],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "excluded_combinations": plan.EXCLUDED,
        "computed_counts": res.get("computed", []),
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def record(workload: str) -> int:
    env = _child_env()
    return subprocess.run([sys.executable, str(HERE / "child.py"), "record", "--workload", workload], env=env, cwd=ROOT).returncode


def write_manifest() -> int:
    sys.path.insert(0, str(SRC))
    import tracer  # needs zigzag importable

    per_layer = []
    for name in tracer.BOUNDARIES:
        per_layer += [
            {"name": f"{name}.calls", "unit": "count", "better": "lower"},
            {"name": f"{name}.total_s", "unit": "s", "better": "lower"},
            {"name": f"{name}.self_s", "unit": "s", "better": "lower"},
        ]
    per_layer += [{"name": k, "unit": unit, "better": "lower"} for k, (unit, _) in tracer.COUNTS.items()]
    per_layer.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": why} for k, why in plan.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": per_layer,
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(plan.WORKLOADS), help="default: all four, one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", choices=sorted(plan.WORKLOADS), help="re-record the reference of a workload")
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args()
    if args.write_manifest:
        return write_manifest()
    if args.record:
        return record(args.record)
    status = 0
    for workload in [args.workload] if args.workload else list(plan.WORKLOADS):
        try:
            run(workload, args)
        except (BenchmarkError, plan.StaleReference, OSError) as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
