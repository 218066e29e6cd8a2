"""Self-checks of the benchmark's oracles, tracer and percentile rule.

Run from the root of a checkout: python3 -m pytest bench -q
"""

from __future__ import annotations

import functools
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import qdetect  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "dense-verify": workloads.DenseVerify(dim=16, symbols=6, equations=4),
    "simulate-records": workloads.Simulate("simulate-records", inputs.records_scenario, samples=3000, dim=16),
    "simulate-family": workloads.Simulate(
        "simulate-family", functools.partial(inputs.family_scenario, size=6), samples=3000, dim=16
    ),
}


def test_tail_has_ten_ops_beyond_it():
    lat = [float(x) for x in range(1, 21)]
    assert run.tail(lat) == (10.0, 50.0)
    assert run.tail(lat[:11]) == (1.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _brute_force_count(names, eqs) -> int:
    index = {n: i for i, n in enumerate(names)}
    count = 0
    for signs in itertools.product((1, -1), repeat=len(names)):
        ok = all(
            np.prod([signs[index[s]] for s in left]) == sign * np.prod([signs[index[s]] for s in right])
            for left, right, sign in eqs
        )
        count += ok
    return count


@pytest.mark.parametrize("seed", range(12))
def test_gf2_count_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    names, eqs = inputs.sign_system(rng, 7, 6)
    if seed % 2:  # random signs: often inconsistent
        eqs = [(l, r, int(rng.choice([1, -1]))) for l, r, _ in eqs]
    assert inputs.gf2_solution_count(names, eqs) == _brute_force_count(names, eqs)


def test_c3_oracle_matches_library():
    p = inputs.detection_scenario(np.random.default_rng(5), 12)
    e, g = (qdetect.Projection(qdetect.CMatrix(p.observables[n])) for n in "EG")
    rho = qdetect.DensityOperator(qdetect.CMatrix(p.rho))
    got = qdetect.assignment_probs(e, g, rho).c3_residual
    assert got == pytest.approx(inputs.c3_residual(p.rho, p.observables["E"], p.observables["G"]), abs=1e-12)
    assert got > 1e-6


def _flip_last(verdicts):
    *head, (name, passed) = verdicts
    return [*head, (name, not passed)]


CORRUPT = {
    "dense-verify": ("verdicts", _flip_last),
    "simulate-records": ("digest", lambda digest: "0" * 64),
    "simulate-family": ("digest", lambda digest: "0" * 64),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_op_passes_and_a_corrupted_expectation_fails_it(name, tmp_path):
    w = SMALL[name]
    prep = w.setup(3, tmp_path)
    result = w.op(prep)
    assert w.check(prep, result) == []
    key, corrupt = CORRUPT[name]
    prep.expect[key] = corrupt(prep.expect[key])
    assert w.check(prep, result)


def test_simulate_gate_rejects_a_missing_zero_mass_check(tmp_path):
    w = SMALL["simulate-records"]
    prep = w.setup(4, tmp_path)
    result = w.op(prep)
    assert prep.expect["zero_mass"] == 8
    prep.expect["zero_mass"] += 1
    assert w.check(prep, result)


def test_tracer_attributes_every_second_and_restores_the_package():
    original = qdetect.detects
    p = inputs.detection_scenario(np.random.default_rng(1), 8)
    t, e = (qdetect.Projection(qdetect.CMatrix(p.observables[n])) for n in "TE")
    rho = qdetect.DensityOperator(qdetect.CMatrix(p.rho))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qdetect.detects is not original
        tracer.op = 0
        tracer.span("op", lambda: qdetect.detects(t, e, rho))
    finally:
        tracer.uninstall()
    assert qdetect.detects is original and qdetect.detection.complement.__name__ == "complement"
    row = tracer.per_op()[0]
    names = {s[3] for s in tracer.spans}
    assert {"detection.detects", "observables.complement", "numerics.CMatrix.__matmul__"} <= names
    self_total = sum(row[f"{layer}.self_s"] for layer in tracing.LAYERS)
    root = next(s for s in tracer.spans if s[3] == "op")
    top = sum(s[5] - s[4] for s in tracer.spans if s[2] == root[1])
    assert self_total == pytest.approx(top, rel=1e-9)


def _result(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_benchmark_json(trace, section, capsys, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setitem(workloads.WORKLOADS, "simulate-records", SMALL["simulate-records"])
    code = run.main(["--workload", "simulate-records", "--seed", "2", "--seconds", "1", "--trace", str(trace)])
    result = _result(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace:
        counts = result["metrics"]
        assert counts["assignment.joint_distribution_atoms"]["value"] == 16
        assert counts["ensemble.to_csv_bytes"]["value"] > 3000


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
