"""Command-line entry points.

Subcommands:

- ``run CONFIG.json``: execute a configured experiment, writing per-seed
  trace CSVs and a summary.json into the configured (or flagged) out dir
- ``check burkholder|umd|decoupling|rad-oracle|minimax``: statistical and
  exact verifiers, JSON report to stdout or a file; each target takes only
  the flags it reads (``CHECK_FLAGS``), besides --seed and --out
- ``spectral``: the desk-scale matrix prediction run
- ``report DIR``: digest all summary.json files under a directory

A config, spec or file that cannot be used, a flag outside its bound or a
check that would build an array of more than ``MAX_FLOATS`` floats
(``ConfigError``) ends the command with one line on stderr and exit code 2,
as a usage error does.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import pathlib
import sys

import numpy as np

from .burkholder import check_majorization, check_zigzag
from .harness import CONFIG_TABLE, ConfigError, Key, brute_force_minimax, build_spec, check_config, checked, entry_triples, load_json
from .harness import merge_reports, run_experiment, spectral_result, write_outputs
from .linalg import LpTag, OneTag, SupTag
from .losses import LOSSES
from .rademacher import DECOUPLING_EXACT_DEPTH, MAX_DEPTH, MAX_EXACT_DEPTH, MIN_SAMPLES
from .rademacher import DyadicTree, hitczenko_check, umd_check
from .rademacher import maximal_rad_estimate, maximal_rad_exact, rad_estimate, rad_exact
from .rng import substream

_TAGS = {"l2": lambda: LpTag(2.0), "l3": lambda: LpTag(3.0), "sup": SupTag, "one": OneTag}

# The flags of each ``check`` target besides --seed and --out, as config-table
# rows: a flag's kind and bounds, and its default, whose type is the flag's
# argparse type.  A target takes only the flags it reads.
_P, _DIM, _TRIALS = Key("positive", 2.0), Key("count", 4), Key("count", 10)
_DEPTH, _SAMPLES = Key("count", 8, high=MAX_DEPTH), Key("count", 4000, low=MIN_SAMPLES)
CHECK_FLAGS = {
    "burkholder": {"spec": Key("text", '{"construction": "scalar-p", "p": 3.0}'), "probes": Key("count", 10_000)},
    "umd": {"p": _P, "norm": Key("name", "l2", names=tuple(sorted(_TAGS))), "depth": _DEPTH, "dim": _DIM},
    "decoupling": {"p": _P, "depth": _DEPTH, "tree": Key("name", "random", names=("random", "prefix-sign")), "samples": _SAMPLES},
    "rad-oracle": {"depth": _DEPTH._replace(high=MAX_EXACT_DEPTH), "dim": _DIM, "samples": _SAMPLES, "trials": _TRIALS},
    "minimax": {"trials": _TRIALS, "loss": Key("name", "absolute", names=LOSSES)},
}
MAX_FLOATS = 2**24  # floats in the largest array one check builds: 134 MB


def _check_size(args, point_size: int = 1) -> None:
    """Raise ``ConfigError`` before a check builds an array of more than
    ``MAX_FLOATS`` floats.  The largest arrays: the sums on every leaf of
    umd's and rad-oracle's tree walks, rad-oracle's per-sample statistics,
    decoupling's sampled path terms above its exact depth (its exact walk
    holds 4^depth <= 2^16 floats) and burkholder's probe points."""
    arrays = []  # (floats, their factors, what they are and who holds them)
    if args.target in ("umd", "rad-oracle"):
        arrays.append((2**args.depth * args.dim, f"2^{args.depth} sign paths x --dim {args.dim}", "leaf sums; a tree walk holds"))
    if args.target == "rad-oracle":
        arrays.append((args.samples, f"--samples {args.samples}", "statistics; a Monte Carlo estimate keeps"))
    if args.target == "decoupling" and args.depth > DECOUPLING_EXACT_DEPTH:
        arrays.append((args.samples * args.depth, f"--samples {args.samples} x depth {args.depth} x dim 1", "path terms; a Monte Carlo check draws"))
    if args.target == "burkholder":
        arrays.append((args.probes * point_size, f"--probes {args.probes} x point size {point_size}", "coordinates; a probe array holds"))
    for floats, factors, what in arrays:
        if floats > MAX_FLOATS:
            raise ConfigError(f"{factors} = {floats} {what} at most {MAX_FLOATS}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable, allow_nan=False)
    if out:
        pathlib.Path(out).write_text(text)
    else:
        print(text)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _cmd_run(args) -> int:
    config = load_json(pathlib.Path(args.config).read_text, f"config {args.config!r} cannot be read as JSON")
    with np.errstate(over="ignore", invalid="ignore"):  # a run that overflows ends in one ConfigError line, with no warnings
        summary = run_experiment(config)
    for path in write_outputs(summary, args.out or summary["_settings"]["out_dir"]):
        print(path)
    return 0


def _cmd_check(args) -> int:
    for flag, row in CHECK_FLAGS[args.target].items():
        checked(f"--{flag}", row, getattr(args, flag))
    if args.target == "burkholder":
        spec = build_spec(load_json(lambda: args.spec, f"--spec {args.spec!r} is not JSON"))
        _check_size(args, math.prod(spec.point_shape))
        maj = check_majorization(spec, n_probes=args.probes, seed=args.seed)
        zz = check_zigzag(spec, n_probes=args.probes, seed=args.seed)
        payload = {"construction": spec.construction, "majorization": maj, "zigzag": zz}
        _emit(payload, args.out)
        return 0 if (maj.ok and zz.midpoint_violations == 0) else 1
    _check_size(args)
    if args.target == "umd":
        rng = substream(args.seed, "cli-umd-tree")
        tree = DyadicTree.random_gaussian(args.depth, args.dim, rng)
        tag = _TAGS[args.norm]()
        report = umd_check(args.p, tag, tree, seed=args.seed)
        payload = {
            "p": report.p,
            "max_ratio_root": report.max_ratio_root,
            "reference": report.reference,
            "exact": report.exact,
            "rhs_mean": report.rhs_mean,
        }
        _emit(payload, args.out)
        return 0
    if args.target == "decoupling":
        tree = DyadicTree.prefix_sign(args.depth) if args.tree == "prefix-sign" else DyadicTree.random_gaussian(args.depth, 1, substream(args.seed, "cli-dec-tree"))
        report = hitczenko_check(tree, p=args.p, k_samples=args.samples, seed=args.seed)
        _emit(dataclasses.asdict(report), args.out)
        return 0 if report.bound_ok else 1
    if args.target == "rad-oracle":
        rng = substream(args.seed, "cli-rad")
        ok = True
        rows = []
        for trial in range(args.trials):
            zs = rng.normal(size=(args.depth, args.dim))
            exact = rad_exact(zs, LpTag(2.0))
            mean, se = rad_estimate(zs, LpTag(2.0), args.samples, seed=trial)
            exact_m = maximal_rad_exact(zs, LpTag(2.0))
            mean_m, se_m = maximal_rad_estimate(zs, LpTag(2.0), args.samples, seed=trial)
            ok &= abs(mean - exact) <= 3 * se and abs(mean_m - exact_m) <= 3 * se_m
            rows.append({"exact": exact, "mc": mean, "se": se, "exact_max": exact_m, "mc_max": mean_m, "se_max": se_m})
        _emit({"ok": ok, "trials": rows}, args.out)
        return 0 if ok else 1
    if args.target == "minimax":
        rng = substream(args.seed, "cli-minimax")
        rows = []
        ok = True
        for _ in range(args.trials):
            n = int(rng.integers(1, 4))
            xs = rng.uniform(-1, 1, size=n)
            value = brute_force_minimax(xs, args.loss)
            rad = rad_exact(xs[:, np.newaxis], LpTag(2.0))
            ok &= rad <= value + 0.05
            rows.append({"xs": xs.tolist(), "minimax": value, "rad_exact": rad})
        _emit({"ok": ok, "trials": rows}, args.out)
        return 0 if ok else 1


def _cmd_spectral(args) -> int:
    config = {"algorithm": "spectral", "d": args.d, "r": args.r, "tau": args.tau, "n": args.n, "seeds": [args.seed],
              "net_size": args.net_size, "eta": args.eta, "loss": args.loss}
    entries = None
    if args.entry_distribution == "adversarial-file":
        if args.file is None:
            args.usage_error("--entry-distribution adversarial-file needs --file")
        entries = load_json(pathlib.Path(args.file).read_text, f"--file {args.file!r} cannot be read as JSON")
        if isinstance(entries, list) and entries:
            config["n"] = len(entries)  # the file's rounds, not --n, set the net radius
    else:
        config["entry_distribution"] = args.entry_distribution
    settings = check_config({key: value for key, value in config.items() if value is not None})
    if entries is not None:
        entries = entry_triples(entries, settings["d"], settings["loss"])
    payload = dataclasses.asdict(spectral_result(settings, args.seed, entries))
    payload.pop("rows")
    _emit(payload, args.out)
    return 0


def _cmd_report(args) -> int:
    digest = merge_reports(args.directory)
    out = pathlib.Path(args.directory) / "report.json"
    out.write_text(json.dumps(digest, indent=2, sort_keys=True, allow_nan=False))
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zigzag", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run, usage_error=p_run.error)

    p_check = sub.add_parser("check", help="statistical / exact verifiers")
    p_check.set_defaults(func=_cmd_check)
    targets = p_check.add_subparsers(dest="target", required=True)
    for target, flags in CHECK_FLAGS.items():
        p_target = targets.add_parser(target, allow_abbrev=False)  # --p must not stand for --probes
        for flag, row in flags.items():
            p_target.add_argument(f"--{flag}", type=type(row.default), default=row.default, choices=row.names or None)
        p_target.add_argument("--seed", type=int, default=0)
        p_target.add_argument("--out", default=None)
        p_target.set_defaults(usage_error=p_target.error)

    p_spec = sub.add_parser("spectral", help="matrix prediction run")
    p_spec.add_argument("--d", type=int, default=3)
    p_spec.add_argument("--r", type=int, default=1)
    p_spec.add_argument("--tau", type=float, default=3.0)
    p_spec.add_argument("--n", type=int, default=200)
    p_spec.add_argument("--net-size", type=int)
    p_spec.add_argument("--seed", type=int, default=0)
    p_spec.add_argument("--eta", type=float)
    p_spec.add_argument("--loss", choices=LOSSES)
    entry = CONFIG_TABLE["config"]["entry_distribution"]
    p_spec.add_argument("--entry-distribution", choices=[*entry.names, "adversarial-file"], default=entry.default)
    p_spec.add_argument("--file", default=None, help="entry triples JSON for adversarial-file")
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=_cmd_spectral, usage_error=p_spec.error)

    p_rep = sub.add_parser("report", help="digest summary.json files under a directory")
    p_rep.add_argument("directory")
    p_rep.set_defaults(func=_cmd_report, usage_error=p_rep.error)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:  # reported by the sub-command's parser, with its usage line
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"zigzag: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
