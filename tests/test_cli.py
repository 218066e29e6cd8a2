import hashlib
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qdetect.cli
import qdetect.detection
import qdetect.ensemble
import qdetect.scenarios
from qdetect import (
    CMatrix,
    DEFAULT_TOL,
    DensityOperator,
    DetectionClaim,
    Projection,
    Scenario,
    build_example_44,
    check_C3,
    joint_distribution,
    load_scenario,
    save_scenario,
    verify_scenario,
)
from qdetect.cli import main

from support import count_commutation_checks, count_products, pair_library, planted_discordance


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
    # One detection line, then the simulation lines of the three other
    # observables that commute with both.
    assert main(["detect", ghsz_file, "M", "G_alpha"]) == 0
    out = capsys.readouterr().out
    assert "\n[PASS] detection:M->G_alpha  residual=0.000e+00\n" in out
    for name in ("E_alpha", "F", "L_alpha"):
        assert f"[PASS] simulation:{name}" in out
    assert "summary: 4 passed, 0 failed" in out


def test_detect_fail_is_exit_one(ghsz_file, capsys):
    # F and G_alpha act on different qubits: they commute, but the state
    # defect and both discordances are 1/4.
    gate = DEFAULT_TOL.gate(16)
    assert main(["detect", ghsz_file, "F", "G_alpha"]) == 1
    out = capsys.readouterr().out
    line = "[FAIL] detection:F->G_alpha  residual=2.500e-01  "
    assert f"{line}(state defect (E-T).rho = 2.500e-01 > gate {gate:.3e};" in out
    assert "simulation:" not in out
    assert "summary: 0 passed, 1 failed" in out


def test_detect_discordance_alone_fails_the_report(tmp_path, capsys):
    # The state defect max|(E - T).rho| is the discordant weight times the
    # largest squared entry of one Haar vector, well below that weight: at
    # 5 gates of discordance the state defect is within the gate, while the
    # discordance Tr(rho.T'.E) is not, and the detection line judges both.
    dim = 64
    gate = DEFAULT_TOL.gate(dim)
    t, e, rho = planted_discordance(np.random.default_rng(3), dim, 5.0)
    path = tmp_path / "discordant.json"
    save_scenario(Scenario("discordant", dim, rho, {"T": t, "E": e}), path)
    assert main(["detect", str(path), "T", "E", "--output", "json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "detection:T->E"
    assert not check["pass"]
    assert check["residual"] == pytest.approx(5.0 * gate, rel=1e-6)
    assert check["detail"] == f"Tr(rho.T'.E) = {check['residual']:.3e} > gate {gate:.3e}"


def test_detect_non_commuting_pair(ghsz_file, capsys):
    # Without commutation there are no joint outcomes: only the commutator
    # is named.
    assert main(["detect", ghsz_file, "E_alpha", "E_beta", "--output", "json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert not check["pass"]
    assert check["detail"] == f"commutator [T,E] = 5.000e-01 > gate {DEFAULT_TOL.gate(16):.3e}"


def test_detect_unknown_observable(ghsz_file, capsys):
    # The message as written, not quoted as a KeyError's would be.
    declared = "E_alpha, E_beta, F, G_alpha, G_beta, L_alpha, L_beta, M, N, R, S"
    for args in (["detect", ghsz_file, "Bogus", "F"], ["c3", ghsz_file, "E_alpha", "Bogus"]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: no observable named 'Bogus'; scenario declares: {declared}\n"


def test_detect_and_c3_are_one_claim_lines(tmp_path, capsys):
    # detect's line is verify_scenario's line for the same detection claim,
    # and its exit code follows that line (F commutes with neither T nor E,
    # so there are no simulation lines); c3's verdict is check_C3's.
    for i, (t, e, f, rho) in enumerate(
        pair_library(np.random.default_rng(127), dims=(2, 3, 4, 7, 16, 33, 64))
    ):
        path = tmp_path / f"pair{i}.json"
        save_scenario(Scenario(f"pair{i}", t.dim, rho, {"T": t, "E": e, "F": f}), path)
        scn = load_scenario(path)
        want = verify_scenario(replace(scn, declared_claims=[DetectionClaim("T", "E")]))
        code = main(["detect", str(path), "T", "E", "--output", "json"])
        assert json.loads(capsys.readouterr().out)["checks"] == [want.checks[0].to_dict()]
        assert code == want.exit_code
        code = main(["c3", str(path), "E", "F", "--output", "json"])
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        holds = check_C3(scn.observable("E"), scn.observable("F"), scn.state)
        assert check["pass"] == holds and code == (0 if holds else 1)


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["detect", str(tmp_path / "nope.json"), "M", "F"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_scenario_file_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff"}')
    assert main(["detect", str(path), "A", "B"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not UTF-8 text" in err


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


def test_detect_runs_detects_once(ghsz_file, monkeypatch, capsys):
    # The detection claim's one check; the simulation-equality precondition
    # is read off its line.
    calls = []
    original = qdetect.detection._detects

    def counting(*args):
        calls.append(1)
        return original(*args)

    for module in (qdetect.scenarios, qdetect.detection):
        monkeypatch.setattr(module, "_detects", counting)
    assert main(["detect", ghsz_file, "M", "G_alpha"]) == 0
    assert "[PASS] detection:M->G_alpha" in capsys.readouterr().out
    assert len(calls) == 1


def test_detect_checks_each_commutation_once(ghsz_file, monkeypatch, capsys):
    # detects (one commutator) and the candidate filter,
    # which checks each other observable against T, then E; the 3 F it
    # keeps are not checked again by the simulation equalities.
    calls = count_commutation_checks(monkeypatch)
    assert main(["detect", ghsz_file, "M", "G_alpha"]) == 0
    assert capsys.readouterr().out.count("[PASS] simulation:") == 3
    assert len(calls) == 16


def test_bad_tolerance_is_input_error(capsys):
    assert main(["ghsz", "--tol", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["ghsz", "detect", "example44", "c3", "simulate"])
def test_tol_is_the_one_numerical_option(command, capsys):
    # The eigenvalue cut is the constant EIG_CUT: no option sets it.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "--tol" in help_text and "eig" not in help_text


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ghsz", "--eig-cut", "1e-6"])
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


def test_example44_range_warning_is_one_stderr_line(capsys):
    assert main(["example44", "--theta", "1.0"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: theta=1.0")
    assert ".py:" not in captured.err
    assert "[PASS] hidden-inconsistency" in captured.out


def test_example44_range_warning_made_an_error_is_input_error(capsys):
    # Under a filter that turns the warning into an error, the command stops
    # with one error line, as for any input it cannot use.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["example44", "--theta", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: theta=1.0")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("entry, code", [("1e308", 0), ("Infinity", 2)])
def test_state_vector_entries_near_the_float_limit(tmp_path, entry, code):
    # A huge finite vector loads; an infinite entry is an input error. Under
    # -W error a RuntimeWarning from either would end in a traceback.
    text = json.dumps(
        {
            "name": "edge",
            "dim": 2,
            "state": {"type": "pure", "vector": [["X", 0.0], ["X", 0.0]]},
            "observables": {"E": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            "claims": [],
        }
    ).replace('"X"', entry)
    path = tmp_path / "edge.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdetect", "detect", str(path), "E", "E"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr == "error: pure state vector entries must be finite\n"


def test_c3_commuting_pair(ghsz_file, capsys):
    # For a commuting pair the extension residual is half the sum-rule
    # residual, so the sum rule is the one line.
    assert main(["c3", ghsz_file, "G_alpha", "F"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] sum-rule:G_alpha~F" in out
    assert "extension" not in out
    assert "summary: 1 passed, 0 failed" in out


@pytest.mark.parametrize(
    "pair", [("G_alpha", "F"), ("E_alpha", "E_beta")], ids=["commuting", "non-commuting"]
)
def test_c3_takes_two_products_after_loading(ghsz_file, monkeypatch, capsys, pair):
    # rho.E and rho.E.F; every trace reads its last factor without a product.
    products = count_products(monkeypatch)
    loaded = []
    load = qdetect.cli.load_scenario

    def load_and_mark(*args):
        scn = load(*args)
        loaded.append(len(products))
        return scn

    monkeypatch.setattr(qdetect.cli, "load_scenario", load_and_mark)
    assert main(["c3", ghsz_file, *pair]) == 0
    capsys.readouterr()
    assert len(products) - loaded[0] == 2


def test_c3_non_commuting_pair(tmp_path, capsys):
    path = tmp_path / "ex44.json"
    save_scenario(build_example_44(math.pi / 6.0), path)
    assert main(["c3", str(path), "E", "F"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] sum-rule:E~F" in out
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


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_simulate_unwritable_csv_out_is_input_error(ghsz_file, tmp_path, capsys, where):
    # The ensemble is drawn before --csv-out is opened; a path that cannot
    # be written is still the user's input, not a failed check.
    target = tmp_path / "nope" / "x.csv" if where == "missing-directory" else tmp_path
    args = ["simulate", ghsz_file, "M", "G_alpha", "--samples", "200"]
    assert main(args + ["--csv-out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(target) in captured.err


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
    assert joint_distribution([e], rho).probs[0b1] == 0.0
    path = tmp_path / "negative.json"
    save_scenario(Scenario("negative", dim, rho, {"E": e}), path)
    args = ["simulate", str(path), "E", "--samples", "200"]
    assert main(args + ["--csv-out", str(tmp_path / "x.csv")]) in (0, 1)
    assert "[PASS] atom-empty:1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, digest",
    [
        (["ghsz"], "99758e3e27fe357d4f964fa1acbc17e3104d1a1acc8a50a898a573312db40af8"),
        (["example44"], "e2135a49239fbd16f5a6f088101d1ec42afad5e5716cc88e3c63834acf2fa845"),
        (["detect", "M", "G_alpha"], "3ed28baed7dc654e1c0f23501864c39ee138672fe6f85843aeae488cb1d685d2"),
        (["c3", "E_alpha", "E_beta"], "c890ef7f8c9dc87aa8460c22f46a437087a575b156e7109cfe0ead70520e59a4"),
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


def test_simulate_refuses_empty_observable_name(ghsz_file, tmp_path, capsys):
    # An empty name would be replaced by an invented one in the CSV header.
    with open(ghsz_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["observables"][""] = doc["observables"].pop("M")
    doc["claims"].append({"kind": "detect", "t": "", "e": "G_alpha"})
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps(doc))
    csv_path = tmp_path / "x.csv"
    assert main(["simulate", str(path), "", "G_alpha", "--csv-out", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: observables: an observable name must not be empty\n"
    assert not csv_path.exists()


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
