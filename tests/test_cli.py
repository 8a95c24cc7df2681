import json

import pytest

from zigzag.cli import main


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


def test_check_decoupling(capsys):
    rc = main(["check", "decoupling", "--depth", "7", "--tree", "prefix-sign", "--p", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound_ok"]


def test_check_rad_oracle(capsys):
    rc = main(["check", "rad-oracle", "--depth", "8", "--dim", "2", "--trials", "3", "--samples", "3000"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_check_minimax(capsys):
    rc = main(["check", "minimax", "--trials", "5", "--loss", "absolute"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"]


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
