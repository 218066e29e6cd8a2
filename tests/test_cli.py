import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import qdetect.assignment
import qdetect.cli
import qdetect.detection
import qdetect.ensemble
from qdetect import (
    CMatrix,
    DensityOperator,
    Projection,
    Scenario,
    build_example_44,
    joint_distribution,
    save_scenario,
)
from qdetect.cli import main

from support import count_commutation_checks


def test_ghsz_text_output(capsys):
    assert main(["ghsz"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] no-go:identification" in out
    assert "0 of 128" in out
    assert "summary: 16 passed, 0 failed" in out


def test_ghsz_json_output(capsys):
    assert main(["ghsz", "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"passed": 16, "failed": 0}
    assert all("pass" in c for c in doc["checks"])
    assert doc["command"] == "ghsz"


def test_ghsz_json_byte_identical(capsys):
    main(["ghsz", "--output", "json"])
    first = capsys.readouterr().out
    main(["ghsz", "--output", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_ghsz_csv_output(capsys):
    assert main(["ghsz", "--output", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,pass,residual,ref,detail"
    assert len(lines) == 17
    assert all(",true," in line for line in lines[1:])


def test_detect_pass(ghsz_file, capsys):
    assert main(["detect", ghsz_file, "M", "G_alpha"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] detection-holds" in out
    assert "[PASS] probability-route-agrees" in out
    assert "[PASS] complement-lemma" in out
    for name in ("E_alpha", "F", "L_alpha"):
        assert f"[PASS] simulation:{name}" in out
    assert "summary: 10 passed, 0 failed" in out


def test_detect_fail_is_exit_one(ghsz_file, capsys):
    assert main(["detect", ghsz_file, "F", "G_alpha"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] detection-holds" in out
    # The route-equivalence check compares verdicts, so it passes even here.
    assert "[PASS] probability-route-agrees" in out
    assert "simulation:" not in out


def test_detect_non_commuting_pair(ghsz_file, capsys):
    assert main(["detect", ghsz_file, "E_alpha", "E_beta"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] commutation" in out
    assert "discordance-10" not in out


def test_detect_unknown_observable(ghsz_file, capsys):
    assert main(["detect", ghsz_file, "Bogus", "F"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Bogus" in err


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["detect", str(tmp_path / "nope.json"), "M", "F"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_oversized_dim_is_input_error(tmp_path, capsys):
    # The state is malformed too: the dim cap must fire before any parsing.
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "name": "huge",
                "dim": 4097,
                "state": {"type": "pure", "vector": "not an array"},
                "observables": {"T": [], "E": []},
                "claims": [],
            }
        )
    )
    assert main(["detect", str(path), "T", "E"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "dim 4097 exceeds the 4096 limit" in err


@pytest.mark.parametrize("digits", [400, 5000])
def test_oversize_integer_is_input_error(tmp_path, capsys, digits):
    # 400 digits overflow a float; 5000 exceed what json will parse at all.
    text = json.dumps(
        {
            "name": "big",
            "dim": 1,
            "state": {"type": "pure", "vector": [[1.0, 0.0]]},
            "observables": {"E": [[[1.0, "BIG"]]]},
            "claims": [],
        }
    ).replace('"BIG"', "1" + "0" * (digits - 1))
    path = tmp_path / "big.json"
    path.write_text(text)
    assert main(["detect", str(path), "E", "E"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_detect_runs_detects_twice(ghsz_file, monkeypatch, capsys):
    # cmd_detect's own check and the complemented pair of the complement
    # lemma; the probability route, the lemma's direct side and the
    # simulation-equality precondition are read off cmd_detect's check.
    calls = []
    original = qdetect.detection.detects

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (qdetect.cli, qdetect.detection, qdetect.assignment):
        monkeypatch.setattr(module, "detects", counting)
    assert main(["detect", ghsz_file, "M", "G_alpha"]) == 0
    assert "[PASS] probability-route-agrees" in capsys.readouterr().out
    assert len(calls) == 2


def test_detect_checks_each_commutation_once(ghsz_file, monkeypatch, capsys):
    # detects (two calls, one commutator each) and the candidate filter,
    # which checks each other observable against T, then E; the 3 F it
    # keeps are not checked again by the simulation equalities.
    calls = count_commutation_checks(monkeypatch)
    assert main(["detect", ghsz_file, "M", "G_alpha"]) == 0
    assert capsys.readouterr().out.count("[PASS] simulation:") == 3
    assert len(calls) == 17


def test_bad_tolerance_is_input_error(capsys):
    assert main(["ghsz", "--tol", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_example44_default_angle(capsys):
    assert main(["example44"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] hidden-inconsistency" in out
    assert "[PASS] sum-rule:mixture" in out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_example44_degenerate_angle(capsys):
    assert main(["example44", "--theta", repr(math.pi / 4.0)]) == 0
    assert "no hidden-inconsistency" in capsys.readouterr().out


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
def test_example44_non_finite_theta_is_input_error(theta):
    proc = subprocess.run(
        [sys.executable, "-m", "qdetect", "example44", f"--theta={theta}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "theta" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_c3_commuting_pair(ghsz_file, capsys):
    assert main(["c3", ghsz_file, "G_alpha", "F"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] sum-rule" in out
    assert "[PASS] extension" in out


def test_c3_non_commuting_pair(tmp_path, capsys):
    path = tmp_path / "ex44.json"
    save_scenario(build_example_44(math.pi / 6.0), path)
    assert main(["c3", str(path), "E", "F"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] sum-rule" in out
    assert "extension" not in out


def test_simulate_writes_csv_and_audits(ghsz_file, tmp_path, capsys):
    csv_path = tmp_path / "ens.csv"
    code = main(
        [
            "simulate",
            ghsz_file,
            "M",
            "G_alpha",
            "--samples",
            "2000",
            "--seed",
            "5",
            "--csv-out",
            str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] discordant:M~G_alpha" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "id,M,G_alpha"
    assert len(lines) == 2001


def test_simulate_worker_invariance(ghsz_file, tmp_path, capsys):
    args = ["simulate", ghsz_file, "E_alpha", "F", "--samples", "400", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv-out", str(a), "--workers", "1"]) == 0
    assert main(args + ["--csv-out", str(b), "--workers", "3"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "family, digest",
    [
        (("M", "G_alpha"), "a5c2b3214fffefebca5238baf41503f0e01121e0d9f0f4b5f8b5c6b65013465d"),
        (
            ("E_alpha", "F", "G_beta", "L_alpha"),
            "1aceee9f57f7cbf4b218e1ec092e84035ac00bfaf26902ba95952badc7086ea0",
        ),
    ],
    ids=["pair", "four-members"],
)
def test_simulate_csv_digest_is_pinned(ghsz_file, tmp_path, capsys, family, digest):
    # An ensemble depends only on (distribution, n, seed). A new route to the
    # atoms may move them by rounding, but it must not move a single record.
    csv_path = tmp_path / "ens.csv"
    args = ["simulate", ghsz_file, *family, "--samples", "5000", "--seed", "11"]
    assert main(args + ["--csv-out", str(csv_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "family, digest",
    [
        (("M", "G_alpha"), "dfc62530fc4f595d1223d73cc4532843eb37dcce8ac3203febc23592cce2e9e0"),
        (
            ("E_alpha", "F", "G_beta", "L_alpha"),
            "11dcf6f2b5662274d68176d0e44586408334a8122d76913963bf9419cecf8e3f",
        ),
    ],
    ids=["pair", "four-members"],
)
def test_simulate_json_report_digest_is_pinned(
    ghsz_file, tmp_path, monkeypatch, capsys, family, digest
):
    # The report echoes --csv-out, so a relative path keeps tmp paths out of it.
    monkeypatch.chdir(tmp_path)
    args = ["simulate", ghsz_file, *family, "--samples", "5000", "--seed", "11"]
    assert main(args + ["--csv-out", "ens.csv", "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("z", ["nan", "-1", "0", "inf"])
def test_simulate_rejects_meaningless_z(ghsz_file, tmp_path, capsys, monkeypatch, z):
    # NaN would reach the JSON report as a bare NaN token, which strict
    # parsers reject; a negative z would print negative bands. z is checked
    # before the file is read or anything is drawn.
    def refuse(*args):
        raise AssertionError("worked before checking z")

    monkeypatch.setattr(qdetect.cli, "load_scenario", refuse)
    monkeypatch.setattr(qdetect.ensemble, "_uniforms", refuse)
    csv_path = tmp_path / "ens.csv"
    args = ["simulate", ghsz_file, "M", "G_alpha", "--samples", "200"]
    code = main(args + ["--z", z, "--csv-out", str(csv_path), "--output", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "z must be" in captured.err
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "ensemble size must be"),
        ("--samples", "100000000", "ensemble size must be"),
        ("--seed", "-1", "seed must be"),
        ("--seed", str(2**64), "seed must be"),
        ("--workers", "0", "worker count must be"),
    ],
)
def test_simulate_refuses_bad_request_before_reading_file(
    ghsz_file, tmp_path, capsys, monkeypatch, flag, value, message
):
    def refuse(*args):
        raise AssertionError("worked before checking the request")

    monkeypatch.setattr(qdetect.cli, "load_scenario", refuse)
    monkeypatch.setattr(qdetect.cli, "joint_distribution", refuse)
    monkeypatch.setattr(qdetect.ensemble, "_uniforms", refuse)
    csv_path = tmp_path / "ens.csv"
    args = ["simulate", ghsz_file, "M", "G_alpha", flag, value, "--csv-out", str(csv_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not csv_path.exists()


def test_simulate_caps_samples_before_drawing(ghsz_file, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew before checking the sample cap")

    monkeypatch.setattr(qdetect.ensemble, "_uniforms", refuse)
    samples = str(qdetect.ensemble.MAX_SAMPLES + 1)
    args = ["simulate", ghsz_file, "M", "G_alpha", "--samples", samples]
    assert main(args + ["--csv-out", str(tmp_path / "x.csv")]) == 2
    assert "at most" in capsys.readouterr().err


def test_simulate_clamps_atom_between_minus_gate_and_minus_eig_cut(tmp_path, capsys):
    # At dim 256 the gate (2.56e-8) exceeds eig_cut (1e-8): a state with one
    # eigenvalue -2e-8 passes validation, and its atom must be clamped to 0
    # rather than reach the frequency band's square root.
    dim = 256
    weights = np.full(dim, (1.0 + 2e-8) / (dim - 1))
    weights[1] = -2e-8
    rho = DensityOperator(CMatrix(np.diag(weights)), name="rho")
    bits = np.zeros(dim)
    bits[1] = 1.0
    e = Projection(CMatrix(np.diag(bits)), name="E")
    assert joint_distribution([e], rho).prob((1,)) == 0.0
    path = tmp_path / "negative.json"
    save_scenario(Scenario("negative", dim, rho, {"E": e}), path)
    args = ["simulate", str(path), "E", "--samples", "200"]
    assert main(args + ["--csv-out", str(tmp_path / "x.csv")]) in (0, 1)
    assert "[PASS] atom-empty:1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, digest",
    [
        (["ghsz"], "560c7a95027265b96861d044611f0f76c5107125749a488ecb1b2ff35ee13bb7"),
        (["example44"], "e2135a49239fbd16f5a6f088101d1ec42afad5e5716cc88e3c63834acf2fa845"),
        (["detect", "M", "G_alpha"], "c5837877cee3d51cc2387a3bf7d108431d31761cd44aade92058f2457ca52807"),
        (["c3", "E_alpha", "E_beta"], "0a965a10f502de1c38aec27a6361b381e6893836383cfc456ccb1d706c5626b7"),
    ],
    ids=["ghsz", "example44", "detect", "c3"],
)
def test_json_report_bytes_are_pinned(ghsz_file, capsys, args, digest):
    # A cheaper route to a residual may not move a single byte of a report.
    if args[0] in ("detect", "c3"):
        args = [args[0], ghsz_file, *args[1:]]
    main(args + ["--output", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_refuses_non_commuting_family(ghsz_file, tmp_path, capsys):
    code = main(
        [
            "simulate",
            ghsz_file,
            "E_alpha",
            "E_beta",
            "--csv-out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "commute" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qdetect", "ghsz", "--output", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
