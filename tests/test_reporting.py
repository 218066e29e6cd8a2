import csv
import io
import json
import math
import random

from qdetect import CheckResult, Report


def _sample_report() -> Report:
    report = Report(command="demo", inputs={"n": 3, "arg": "x"})
    report.add("alpha", True, residual=0.0, ref="r1", detail="fine")
    report.add("beta", False, residual=2.5e-3, ref="r2", detail="off by a, lot")
    report.add("gamma", True)
    return report


def test_check_result_dict_uses_pass_key():
    d = CheckResult(name="x", passed=True, residual=None).to_dict()
    assert d["pass"] is True
    assert d["residual"] is None
    assert set(d) == {"name", "pass", "residual", "ref", "detail"}


def test_report_counts_and_exit_code():
    report = _sample_report()
    assert report.passed_count == 2
    assert report.failed_count == 1
    assert report.exit_code == 1
    report.checks[:] = [c for c in report.checks if c.passed]
    assert report.exit_code == 0


def test_report_add_coerces_types():
    report = Report(command="demo")
    added = report.add("x", passed=1, residual=1)
    assert added.passed is True
    assert isinstance(added.residual, float)


def test_json_is_deterministic_and_parseable():
    one = _sample_report().to_json()
    two = _sample_report().to_json()
    assert one == two
    doc = json.loads(one)
    assert doc["summary"] == {"failed": 1, "passed": 2}
    assert doc["checks"][1]["pass"] is False
    # sort_keys: top-level keys arrive alphabetically.
    assert list(doc) == sorted(doc)


def test_csv_escapes_commas_in_detail():
    text = _sample_report().to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "name,pass,residual,ref,detail"
    assert lines[2] == 'beta,false,0.0025,r2,"off by a, lot"'
    assert lines[3] == "gamma,true,,,"
    assert text.endswith("\n")


def test_csv_rows_round_trip():
    report = Report(command="demo")
    names = ["plain", "a,b", 'say "hi"', "two\nlines", 'all, "of"\nthem', ""]
    for i, name in enumerate(names):
        report.add(name, i % 2 == 0, residual=i * 0.5, ref=f"r,{i}", detail=name[::-1])
    report.add("none", True)
    rows = list(csv.reader(io.StringIO(report.to_csv_text())))
    assert rows[0] == ["name", "pass", "residual", "ref", "detail"]
    assert rows[1:] == [
        [c.name, str(c.passed).lower(), "" if c.residual is None else repr(c.residual), c.ref, c.detail]
        for c in report.checks
    ]


def test_text_format():
    text = _sample_report().to_text()
    lines = text.splitlines()
    assert lines[0] == "command: demo"
    assert "  arg = x" in lines and "  n = 3" in lines
    assert any(line.startswith("[PASS] alpha") for line in lines)
    assert any(line.startswith("[FAIL] beta") for line in lines)
    assert lines[-1] == "summary: 2 passed, 1 failed"


def _random_text(rng: random.Random) -> str:
    # Quotes, backslashes, control and non-ASCII characters, a lone surrogate.
    alphabet = ["a", "Z", '"', "\\", "\n", "\t", "\x00", " ", ","]
    alphabet += ["\u00e9", "\u2192", "\U0001F600", "\ud800"]
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))


def test_json_matches_json_dumps_on_random_reports():
    rng = random.Random(20)
    residuals = [None, math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 2.5e-3, 0.1, 7]
    inputs = [[1, 2.5, "x"], [], None, 3.5, {"b": [1], "a": "y"}, "z"]
    for _ in range(500):
        report = Report(
            command=_random_text(rng),
            inputs={_random_text(rng): rng.choice(inputs) for _ in range(rng.randrange(4))},
        )
        for _ in range(rng.randrange(6)):  # no checks at all in about one report in six
            report.checks.append(
                CheckResult(
                    _random_text(rng),
                    rng.random() < 0.5,
                    rng.choice(residuals),
                    _random_text(rng),
                    _random_text(rng),
                )
            )
        assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True)
