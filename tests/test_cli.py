import dataclasses
import json
import math
import pathlib
import shlex

import pytest

from zigzag import burkholder, cli, harness
from zigzag.cli import main
from zigzag.spectral import run_spectral


def test_check_burkholder(capsys):
    rc = main(["check", "burkholder", "--spec", '{"construction": "scalar-p", "p": 3.0}', "--probes", "2000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["majorization"]["violations"] == 0


def test_check_umd(capsys):
    rc = main(["check", "umd", "--depth", "6", "--dim", "1", "--p", "2.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_ratio_root"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", ["0.5", "1"])
def test_check_umd_reports_no_lp_reference_at_p_up_to_1(p, capsys):
    rc = main(["check", "umd", "--depth", "4", "--dim", "2", "--p", p, "--norm", "l3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reference"] == {"value": None, "order_only": False}
    assert payload["max_ratio_root"] >= 1.0


def test_check_decoupling(capsys):
    rc = main(["check", "decoupling", "--depth", "7", "--tree", "prefix-sign", "--p", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound_ok"]


def test_check_rad_oracle(capsys):
    rc = main(["check", "rad-oracle", "--depth", "8", "--dim", "2", "--trials", "3", "--samples", "3000"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_check_rad_oracle_passes_at_depth_one(capsys):
    # every sample is |z_1|: the estimate is that value with an SE of 0, so
    # the 3-SE check holds exactly rather than failing on a last-bit mean
    rc = main(["check", "rad-oracle", "--depth", "1", "--dim", "3", "--samples", "1000", "--trials", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["ok"]
    for trial in payload["trials"]:
        assert trial["mc"] == trial["exact"] and trial["se"] == 0.0
        assert trial["mc_max"] == trial["exact_max"] and trial["se_max"] == 0.0


def test_check_minimax(capsys):
    rc = main(["check", "minimax", "--trials", "5", "--loss", "absolute"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_main_builds_its_parser_once_and_a_usage_error_leaves_it_unchanged(tmp_path, monkeypatch, capsys):
    argvs = {"umd": ["check", "umd", "--depth", "6", "--dim", "2"], "minimax": ["check", "minimax", "--trials", "3"]}

    def call(name, label):
        out = tmp_path / f"{label}-{name}.json"
        return main([*argvs[name], "--out", str(out)]), out.read_text()

    fresh = {}
    for name in argvs:
        cli._parser.cache_clear()
        fresh[name] = call(name, "fresh")
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: builds.append(1) or build())
    cli._parser.cache_clear()
    assert call("umd", "first") == fresh["umd"]
    assert call("minimax", "second") == fresh["minimax"]
    for bad in (["check", "umd", "--norm", "l9"], ["check", "minimax", "--probes", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert call("umd", "third") == fresh["umd"]
    assert builds == [1]
    cli._parser.cache_clear()


def test_spectral_command(tmp_path, capsys):
    out = tmp_path / "spectral.json"
    rc = main(
        ["spectral", "--d", "3", "--r", "1", "--tau", "3.0", "--n", "30", "--net-size", "40", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["cert_violations"] == 0
    assert "rows" not in payload


def test_spectral_adversarial_file_needs_a_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--entry-distribution", "adversarial-file", "--n", "5"])
    assert exc.value.code == 2
    assert "needs --file" in capsys.readouterr().err


def test_run_and_report(tmp_path, capsys):
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "scalar-p", "p": 2.0},
        "loss": "hinge",
        "adversary": {"kind": "sign-flip"},
        "n": 20,
        "eta": 1.0,
        "seeds": [0],
        "rad_samples": 200,
        "fw_iters": 50,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["run", str(cfg_path), "--out", str(tmp_path / "runs")])
    assert rc == 0
    assert (tmp_path / "runs" / "summary.json").exists()
    rc = main(["report", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["runs"]) == 1


def _assert_one_line_error(rc, capsys, message):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("zigzag: error: "), err
    assert message in err and "Traceback" not in err


def test_a_bad_config_or_spec_exits_2_with_one_line(tmp_path, capsys):
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "lp-sum", "p": 3.0, "d": 4, "dd": 9},
        "adversary": {"kind": "iid-gaussian"},
        "n": 5,
        "seeds": [0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    cases = [
        (["run", str(cfg_path)], "unknown spec key 'dd'"),
        (["check", "burkholder", "--spec", '{"construction": "lp"}'], "unknown construction 'lp'"),
        (["check", "burkholder", "--spec", '{"construction": "hilbert", "p": 2.5, "d": 7, "gram": [[1.0, 0.0], [0.0, 1.0]]}'], "exactly one of dim or gram"),
        (["check", "burkholder", "--spec", "notjson"], "--spec 'notjson' is not JSON"),
        (["run", str(tmp_path / "missing.json")], "missing.json' cannot be read as JSON"),
    ]
    for argv, message in cases:
        _assert_one_line_error(main(argv), capsys, message)


DOUBLING_SUMMARY = {
    "config": {"algorithm": "zigzag-doubling-expected", "spec": {"construction": "lp-sum", "p": 3.0}, "n": 20},
    "regret": [1.0],
    "rad_mean": [2.0],
    "phases": [[{"start": 1, "end": 20}]],
}


@pytest.mark.parametrize("summary, message", [
    (None, "missing' is not a directory"),
    ("{not json", "summary.json' cannot be read as JSON"),
    (json.dumps(DOUBLING_SUMMARY), "needs the key 'd'"),
    ('{"config": [], "regret": [1.0]}', "config must be a JSON object, got []"),
    ('{"config": {}, "regret": [1.0, "x"]}', "regret must be a list of finite numbers or nulls, got [1.0, 'x']"),
    ('{"config": {}, "rad_mean": 2.0}', "rad_mean must be a list of finite numbers or nulls, got 2.0"),
    ('{"config": {}, "regret": [1.0], "residual_mean": -Infinity}', "residual_mean must be a finite number or null, got -inf"),
    ('{"config": {}, "regret": [1.0], "phases": 5}', "phases must be a list, got 5"),
    (json.dumps(dict(DOUBLING_SUMMARY, config=dict(DOUBLING_SUMMARY["config"], spec={"construction": "scalar-p", "p": 3.0}, n="x"))),
     "config.n must be at least 1, got 'x'"),
    ('{"config": {}, "regret": [1e308], "rad_mean": [1e-10]}', "summary.json': a regret / rad_mean ratio overflows a float"),
], ids=["missing-directory", "malformed-summary", "spec-without-d", "config-list", "regret-text", "rad-mean-number",
        "residual-infinite", "phases-number", "doubling-n-text", "ratio-overflows"])
def test_report_errors_exit_2_with_one_line(summary, message, tmp_path, capsys):
    directory = tmp_path / "missing"
    if summary is not None:
        (directory / "run").mkdir(parents=True)
        (directory / "run" / "summary.json").write_text(summary)
    _assert_one_line_error(main(["report", str(directory)]), capsys, message)
    assert not (directory / "report.json").exists()


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--r", "r must be at least 1, got 0"),
        ("--d", "d must be at least 1, got 0"),
        ("--n", "n must be at least 1, got 0"),
        ("--tau", "tau must be a finite number > 0, got 0.0"),
        ("--eta", "eta must be a finite number > 0, got 0.0"),
        ("--net-size", "net_size must be at least 1, got 0"),
    ],
)
def test_spectral_flags_follow_the_spectral_config_rules(flag, message, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the flags were checked")

    monkeypatch.setattr(harness, "run_spectral", never)
    _assert_one_line_error(main(["spectral", flag, "0"]), capsys, message)


def test_spectral_adversarial_file_replays_its_entries(tmp_path):
    entries = [[0, 1, 1.0], [2, 2, -1.0], [1, 0, 1.0], [0, 1, -1.0]]
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(entries))
    out = tmp_path / "spectral.json"
    argv = ["spectral", "--entry-distribution", "adversarial-file", "--file", str(path), "--net-size", "20", "--out", str(out)]
    assert main(argv) == 0
    want = dataclasses.asdict(run_spectral(3, 1, 3.0, n=200, stream_kind="explicit", loss_name="hinge", max_net=20, entries=entries))
    want.pop("rows")
    assert json.loads(out.read_text()) == json.loads(json.dumps(want, default=lambda a: a.tolist()))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[0, 5, 1.0]], "entry 0 is [0, 5, 1.0]; entries are [i, j, y] with whole numbers i, j that index a 3 x 3 matrix"),
        ([[0, 1, 1.0], [0, 1]], "entry 1 is [0, 1]"),
        ([], "an entry file needs a non-empty list of [i, j, y] triples"),
        ([[0, 1, 0.5]], "hinge loss needs labels in {-1, +1}"),
    ],
)
def test_spectral_entry_file_errors_exit_2_before_any_round(entries, message, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the entries were checked")

    monkeypatch.setattr(harness, "run_spectral", never)
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(entries))
    rc = main(["spectral", "--entry-distribution", "adversarial-file", "--file", str(path)])
    _assert_one_line_error(rc, capsys, message)


def test_an_entry_file_sets_the_rounds_of_the_net_radius(tmp_path, capsys, monkeypatch):
    # with --n 200 the squared net radius (1/(n tau))^2 is finite; the file has one round
    def never(*args, **kwargs):
        raise AssertionError("ran before the entries were checked")

    monkeypatch.setattr(harness, "run_spectral", never)
    path = tmp_path / "entries.json"
    path.write_text(json.dumps([[0, 1, 1.0]]))
    rc = main(["spectral", "--tau", "1e-155", "--entry-distribution", "adversarial-file", "--file", str(path)])
    _assert_one_line_error(rc, capsys, "tau = 1e-155 with n = 1 rounds overflows")


def test_an_entry_file_of_n_tau_1_rounds_is_rejected(tmp_path, capsys, monkeypatch):
    # with --n 200 tau = 0.25 runs; the file's 4 rounds put the net radius at 1
    def never(*args, **kwargs):
        raise AssertionError("ran before the entries were checked")

    monkeypatch.setattr(harness, "run_spectral", never)
    path = tmp_path / "entries.json"
    path.write_text(json.dumps([[0, 1, 1.0]] * 4))
    rc = main(["spectral", "--tau", "0.25", "--entry-distribution", "adversarial-file", "--file", str(path)])
    _assert_one_line_error(rc, capsys, "tau = 0.25 with n = 4 rounds gives the net radius 1/(n tau) = 1; a spectral run needs n tau > 1")


def test_run_writes_to_the_config_out_dir(tmp_path, monkeypatch, capsys):
    config = {
        "algorithm": "zigzag",
        "spec": {"construction": "scalar-p", "p": 2.0},
        "adversary": {"kind": "sign-flip"},
        "n": 5,
        "seeds": [0],
        "rad_samples": 100,
        "fw_iters": 5,
    }
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps(dict(config, out_dir="mine")))
    (tmp_path / "b.json").write_text(json.dumps(config))
    assert main(["run", "a.json"]) == 0 and main(["run", "b.json"]) == 0
    assert (tmp_path / "mine" / "summary.json").exists() and (tmp_path / "runs" / "summary.json").exists()


ROOT = pathlib.Path(__file__).resolve().parents[1]
# each check target's flags besides --seed and --out
CHECK_TARGET_FLAGS = {
    "burkholder": {"spec", "probes"},
    "umd": {"p", "norm", "depth", "dim"},
    "decoupling": {"p", "depth", "tree", "samples"},
    "rad-oracle": {"depth", "dim", "samples", "trials"},
    "minimax": {"trials", "loss"},
}


# what each check target calls first once its flags pass their bounds
# (burkholder builds its spec before its bound, which needs the point size)
VERIFIERS = ("check_majorization", "substream", "umd_check", "hitczenko_check", "rad_exact", "brute_force_minimax")


def _replace_verifiers(monkeypatch, fn, names=VERIFIERS):
    for name in names:
        monkeypatch.setattr(cli, name, fn)


def _never(*args, **kwargs):
    raise AssertionError("ran before the flags were checked")


@pytest.fixture
def no_verifier(monkeypatch):
    """Make the first call of every check target raise, so a test sees a
    flag rejected before any verifier ran."""
    _replace_verifiers(monkeypatch, _never, ("build_spec", *VERIFIERS))


def test_check_targets_take_26_target_flag_pairs():
    assert {target: set(flags) for target, flags in cli.CHECK_FLAGS.items()} == CHECK_TARGET_FLAGS
    assert sum(len(flags) + 2 for flags in CHECK_TARGET_FLAGS.values()) == 26


@pytest.mark.parametrize("target", CHECK_TARGET_FLAGS)
def test_a_check_flag_the_target_does_not_read_is_a_usage_error(target, capsys, no_verifier):
    others = set().union(*CHECK_TARGET_FLAGS.values(), {"tol"}) - CHECK_TARGET_FLAGS[target]
    for flag in sorted(others):
        with pytest.raises(SystemExit) as exc:
            main(["check", target, f"--{flag}", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, usage",
    [
        ("check umd --dim 5 --tree random", "usage: zigzag check umd "),
        ("check minimax --probes 3", "usage: zigzag check minimax "),
        ("spectral --tree random", "usage: zigzag spectral "),
        ("run config.json --tree random", "usage: zigzag run "),
        ("report out --tree random", "usage: zigzag report "),
    ],
)
def test_an_unread_flag_is_reported_with_the_sub_command_usage_line(argv, usage, capsys, no_verifier):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert "unrecognized arguments: " in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("umd --depth 0", "--depth must be at least 1 and at most 14, got 0"),
        ("umd --depth 15", "--depth must be at least 1 and at most 14, got 15"),
        ("decoupling --depth 0", "--depth must be at least 1 and at most 14, got 0"),
        ("decoupling --depth 15", "--depth must be at least 1 and at most 14, got 15"),
        ("rad-oracle --depth 0", "--depth must be at least 1 and at most 20, got 0"),
        ("rad-oracle --depth 21", "--depth must be at least 1 and at most 20, got 21"),
        ("umd --dim 0", "--dim must be at least 1, got 0"),
        ("rad-oracle --dim 0", "--dim must be at least 1, got 0"),
        ("burkholder --probes 0", "--probes must be at least 1, got 0"),
        ("decoupling --samples 99", "--samples must be at least 100, got 99"),
        ("rad-oracle --samples 99", "--samples must be at least 100, got 99"),
        ("rad-oracle --trials 0", "--trials must be at least 1, got 0"),
        ("minimax --trials 0", "--trials must be at least 1, got 0"),
        ("umd --p 0", "--p must be a finite number > 0, got 0.0"),
        ("decoupling --p 0", "--p must be a finite number > 0, got 0.0"),
        ("decoupling --p nan", "--p must be a finite number > 0, got nan"),
        ("umd --depth 14 --dim 1025", "5 copies x 2^14 sign paths x --dim 1025 = 83968000 floats of leaf sums; a tree walk holds at most 16777216"),
        ("decoupling --depth 9 --samples 2000000",
         "5 copies x --samples 2000000 x depth 9 x dim 1 = 90000000 floats of path terms; a Monte Carlo check holds at most 16777216"),
    ],
)
def test_a_check_flag_outside_its_bound_exits_2_with_one_line(argv, message, capsys, no_verifier):
    _assert_one_line_error(main(["check", *argv.split()]), capsys, message)


class Ran(Exception):
    """Raised by a verifier a test put in place: the flags passed their bounds."""


def _ran(*args, **kwargs):
    raise Ran


def test_exact_depths_take_any_sample_count(monkeypatch):
    """The path-term cap holds only where a check draws paths: decoupling
    up to depth 8 takes exact means."""
    monkeypatch.setattr(cli, "hitczenko_check", _ran)
    with pytest.raises(Ran):
        main(["check", "decoupling", "--depth", "8", "--samples", "1000000000"])


def test_readme_and_perfbench_check_commands_parse(monkeypatch):
    """Every README and perfbench ``verify`` check command parses and passes
    its flags' bounds and the memory bound, up to the first verifier call."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import plan

    readme = [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("zigzag check ")]
    assert len(readme) == 5
    parser = cli.build_parser()
    _replace_verifiers(monkeypatch, _ran)
    for argv in readme + list(plan.VERIFY_COMMANDS.values()):
        assert parser.parse_args(argv).target == argv[1]
        with pytest.raises(Ran):
            main(argv)


def _flag_doc(flag, row):
    bound = {"count": f"{row.low}..{row.high}" if row.high else f">= {row.low}", "positive": "> 0",
             "name": " | ".join(row.names), "text": "JSON"}[row.kind]
    return f"`--{flag}` {bound} (default `{row.default}`)"


def test_readme_lists_every_check_flag_with_its_bound_and_default():
    readme = (ROOT / "README.md").read_text()
    for target, flags in cli.CHECK_FLAGS.items():
        assert f"- `{target}`: " + ", ".join(_flag_doc(flag, row) for flag, row in flags.items()) + "\n" in readme


# argv lists over the memory bound; the sweep runs them with every verifier
# replaced, so a bound that let one through fails the test, not the machine
OVER_THE_BOUND = [
    ["check", "decoupling", "--depth", "13", "--samples", "1000000000"],
    ["check", "umd", "--depth", "14", "--dim", "1025"],
    ["check", "rad-oracle", "--depth", "20", "--dim", "17"],
    ["check", "rad-oracle", "--depth", "1", "--samples", "16777217"],
    ["check", "burkholder", "--spec", '{"construction": "hilbert", "p": 2.5, "d": 64}', "--probes", "262145"],
    # under the bound in their largest array alone, over it in the copies of it the check holds
    ["check", "decoupling", "--depth", "13", "--samples", "1000000"],
    ["check", "umd", "--depth", "14", "--dim", "512"],
    ["check", "rad-oracle", "--depth", "20", "--dim", "8"],
    ["check", "burkholder", "--spec", '{"construction": "hilbert", "p": 2.5, "d": 64}', "--probes", "100000"],
]

# l1-composed specs of ceil(B / eps) = 10^9, 10^7 and 10^4 levels
L1_CHECKS = [
    ["check", "burkholder", "--spec", '{"construction": "l1-composed", "a": 4, "d": 3, "B": 1e6, "eps": 1e-3}', "--probes", "100"],
    ["check", "burkholder", "--spec", '{"construction": "l1-composed", "a": 4, "d": 3, "B": 1e4, "eps": 1e-3}'],
    ["check", "burkholder", "--spec", '{"construction": "l1-composed", "a": 4, "d": 3, "B": 100, "eps": 0.01}', "--probes", "100"],
]

# (config, the error it ends in): runs that cannot go on, over a sign-flip
# adversary for 5 rounds unless the config says otherwise
UNRUNNABLE = {
    "expected-first-threshold": ({"algorithm": "zigzag-doubling-expected", "spec": {"construction": "lp-sum", "p": 1.0001, "d": 2}},
                                 "eta0 = 0.5 with p = 1.0001 overflows the first phase's threshold eta0^-(p'-1)"),
    "realized-first-threshold": ({"algorithm": "zigzag-doubling-realized", "spec": {"construction": "lp-sum", "p": 1.01, "d": 2}, "eta0": 1e-10},
                                 "eta0 = 1e-10 with p = 1.01 overflows the first phase's threshold eta0^-(p'-1)"),
    "restart-cap": ({"algorithm": "zigzag-doubling-expected", "spec": {"construction": "hilbert", "p": 2.5, "d": 3}, "eta0": 1e300},
                    "seeds [0]: round 1 crossed more than 200 doubling thresholds of seed 0; eta0 = 1e+300 is too large"),
    "l1-composed-levels": ({"algorithm": "zigzag", "spec": {"construction": "l1-composed", "a": 4, "d": 3, "B": 1e6, "eps": 1e-3}},
                           "has B / eps = 1e+09 levels; an l1-composed spec has at most 1000"),
    "fixed-file-nan": ({"algorithm": "zigzag", "spec": {"construction": "hilbert", "p": 2.5, "d": 2}, "n": 2,
                        "adversary": {"kind": "fixed-file", "xs": [[0.1, 0.2], [math.nan, 0.0]], "ys": [1.0, -1.0]}},
                       "fixed-file instance 1 holds nan, not a finite number"),
    "sign-flip-base-inf": ({"algorithm": "zigzag", "spec": {"construction": "scalar-p", "p": 3.0}, "n": 2,
                            "adversary": {"kind": "sign-flip", "base": "fixed-file", "xs": [0.1, math.inf], "ys": [1.0, 1.0]}},
                           "fixed-file instance 1 holds inf, not a finite number"),
}


def _run_argv(tmp_path, name, config):
    """``zigzag run`` on ``config`` (NaN and Infinity written as JSON reads them)."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"adversary": {"kind": "sign-flip"}, "n": 5, "seeds": [0]} | config))
    return ["run", str(path), "--out", str(tmp_path / f"out-{name}")]


@pytest.mark.parametrize("name", UNRUNNABLE)
def test_a_run_that_cannot_go_on_exits_2_with_one_line(name, tmp_path, capsys):
    config, message = UNRUNNABLE[name]
    _assert_one_line_error(main(_run_argv(tmp_path, name, config)), capsys, message)


def test_an_l1_composed_spec_of_too_many_levels_is_refused_before_it_is_built(capsys, monkeypatch):
    monkeypatch.setattr(burkholder.ComposedL1U, "__init__", _never)
    for argv in L1_CHECKS:
        _assert_one_line_error(main(argv), capsys, "levels; an l1-composed spec has at most 1000")


def _front_door_sweep(tmp_path):
    """argv lists at the edges of every check target's flags, of spectral's
    tau, rounds and net size, of specs whose constants overflow a float and
    of runs whose numbers do."""
    depth = str(cli.CHECK_FLAGS["umd"]["depth"].high)
    for p in ("1e-6", "0.5", "1", "1.5", "50"):
        for norm in cli.CHECK_FLAGS["umd"]["norm"].names:
            yield ["check", "umd", "--p", p, "--norm", norm, "--depth", "1", "--dim", "1"]
            yield ["check", "umd", "--p", p, "--norm", norm, "--depth", depth, "--dim", "1"]
        for tree in ("random", "prefix-sign"):
            yield ["check", "decoupling", "--p", p, "--tree", tree, "--depth", "1"]
            yield ["check", "decoupling", "--p", p, "--tree", tree, "--depth", depth, "--samples", "100"]
    yield from OVER_THE_BOUND
    yield from L1_CHECKS
    yield ["check", "rad-oracle", "--depth", "1", "--dim", "1", "--trials", "1", "--samples", "100"]
    yield ["check", "rad-oracle", "--depth", "20", "--dim", "4", "--trials", "1", "--samples", "100"]  # the deepest exact oracle
    for loss in ("hinge", "absolute", "linear"):
        yield ["check", "minimax", "--trials", "1", "--loss", loss]
    specs = [
        {"construction": "scalar-p", "p": 3.0},
        {"construction": "scalar-p", "p": 200},
        {"construction": "lp-sum", "p": 150, "d": 2},
        {"construction": "even-power", "k": 50},
    ]
    for spec in specs:
        yield ["check", "burkholder", "--spec", json.dumps(spec), "--probes", "1"]
    for flags in (["--tau", "1e300"], ["--tau", "1e-300", "--d", "2", "--r", "2"], ["--tau", "1e150"], ["--tau", "1e-150"], ["--net-size", "1"]):
        yield ["spectral", "--n", "30", *flags]
    for tau in ("0.005", "0.001"):  # n tau <= 1: a net radius of 1 or more
        yield ["spectral", "--n", "200", "--tau", tau]
    runs = [
        ("zigzag", {"construction": "scalar-p", "p": 200}, 5),
        ("zigzag", {"construction": "even-power", "k": 50}, 5),
        ("zigzag-doubling-realized", {"construction": "scalar-p", "p": 150}, 5),
        ("zigzag-doubling-realized", {"construction": "scalar-p", "p": 100}, 5),
        ("zigzag", {"construction": "scalar-p", "p": 120}, 20),  # plays every round, then its residual overflows
        ("zigzag", {"construction": "scalar-p", "p": 140}, 200),  # predicts NaN in round 195
    ]
    for i, (algorithm, spec, n) in enumerate(runs):
        yield _run_argv(tmp_path, f"config{i}", {"algorithm": algorithm, "spec": spec, "n": n})
    for name, (config, _) in UNRUNNABLE.items():
        yield _run_argv(tmp_path, name, config)


def test_front_doors_end_in_json_or_one_error_line(tmp_path, capsys, monkeypatch):
    """Every call exits 0 or 1 with JSON on stdout (a run's summary.json is
    the last path it prints), or 2 with one ``zigzag: error:`` line; no
    exception escapes."""
    argvs = list(_front_door_sweep(tmp_path))
    assert len(argvs) == 100
    for argv in argvs:
        with monkeypatch.context() as guard:
            if argv in OVER_THE_BOUND:
                _replace_verifiers(guard, _never)
            rc = main(argv)
        out, err = capsys.readouterr()
        if rc == 2:
            assert err.count("\n") == 1 and err.startswith("zigzag: error: "), (argv, err)
            continue
        assert rc in (0, 1) and err == "", (argv, rc, err)
        json.loads(pathlib.Path(out.splitlines()[-1]).read_text() if argv[0] == "run" else out)
