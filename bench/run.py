"""qdetect benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense-verify --seed 1 --seconds 35 --trace 0

The program is imported from the checkout's own src/ tree; without it the
benchmark exits with code 2. Inputs come from --seed alone (bench/inputs.py).
Each workload runs as a closed loop, one client in one process: the next op
starts when the previous one has finished and been checked. The timed phase
lasts --seconds, then goes on until it holds at least MIN_OPS ops.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. setup_s is the
import time plus the median of SETUP_REPEATS input generations plus one
warm-up op. --trace 1 alternates untraced ops and ops traced by
bench/tracing.py for --seconds, then probes single calls of each
layer at the workload's size; it reports the per-layer metrics and writes
every span to .bench_run/traces/. A per-op layer metric is 0 on a workload
whose op never calls that function.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the machine and
the details behind each metric. The exit code is 0 when every op was correct.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# The tail percentile needs ten ops beyond it, so at least eleven ops.
MIN_OPS = 11
# Hard stop for a phase, well inside the 180 s a run may take.
PHASE_CAP_S = 90.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it.

    Returns (value, percentile). With n sorted latencies that is the
    (n - 10)-th smallest; with ten or fewer ops no such percentile exists
    and the slowest op is reported at percentile 100.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 10
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def blas_record(np) -> dict:
    """BLAS library from numpy's build record; thread count from the loaded library."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def machine_record(np) -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(np),
    }


class Runner:
    """Runs one workload's ops and keeps the tally of attempted and failed ops."""

    def __init__(self, workload, prep):
        self.workload, self.prep = workload, prep
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def one(self, i: int, call=None) -> float:
        """Run op i (through `call` if given), check it, return its latency."""
        self.attempted += 1
        gc.collect()  # each op starts from a clean heap, as a fresh CLI process would
        start = time.perf_counter()
        try:
            result = call(self.workload.op, self.prep, i) if call else self.workload.op(self.prep)
            latency = time.perf_counter() - start
            problems = self.workload.check(self.prep, result)
        except Exception:  # an op that raises counts as failed; keep measuring
            latency = time.perf_counter() - start
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return latency

    def phase(self, seconds: float) -> tuple[list[float], float]:
        """Closed loop for `seconds`, then until MIN_OPS ops are done."""
        latencies: list[float] = []
        begin = time.perf_counter()
        while True:
            latencies.append(self.one(len(latencies)))
            elapsed = time.perf_counter() - begin
            if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= PHASE_CAP_S:
                return latencies, elapsed


def interleaved(runner, tracer, seconds: float) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced ops for `seconds`.

    Alternating keeps the two sets side by side in time, so a machine that
    speeds up or slows down during the run shifts both alike.
    """

    def traced_op(op, prep, i):
        tracer.op = i
        return tracer.span("op", op, prep)

    untraced: list[float] = []
    traced: list[float] = []
    begin = time.perf_counter()
    while True:
        untraced.append(runner.one(len(untraced) + len(traced)))
        tracer.install()
        try:
            traced.append(runner.one(len(untraced) + len(traced), traced_op))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - begin
        if (elapsed >= seconds and len(traced) >= 2) or elapsed >= PHASE_CAP_S:
            return untraced, traced


def timeit(fn, min_reps: int = 5, min_s: float = 0.2) -> float:
    """Median seconds of one call, over at least min_reps calls and min_s."""
    times: list[float] = []
    begin = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - begin < min_s and len(times) < 1000):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_layers(qd, prep) -> dict:
    """Single-call costs of each layer on this workload's own matrices."""
    p, names = prep.planted, prep.probe
    mats = {n: qd.CMatrix(m) for n, m in p.observables.items()}
    proj = {n: qd.Projection(m, name=n) for n, m in mats.items()}
    rho = qd.DensityOperator(qd.CMatrix(p.rho), name="rho")
    t, e, g = proj[names["t"]], proj[names["e"]], proj[names["g"]]
    f_list = [proj[n] for n in names["f_list"]]
    raw = p.observables[names["t"]]
    m = {
        "numerics.matmul_ms": 1e3 * timeit(lambda: t.matrix @ e.matrix),
        "numerics.CMatrix_us": 1e6 * timeit(lambda: qd.CMatrix(raw)),
        "observables.Projection_ms": 1e3 * timeit(lambda: qd.Projection(t.matrix)),
        "observables.DensityOperator_ms": 1e3 * timeit(lambda: qd.DensityOperator(rho.matrix)),
        "observables.commutator_defect_ms": 1e3 * timeit(lambda: qd.commutator_defect(t.matrix, g.matrix)),
        "detection.detects_ms": 1e3 * timeit(lambda: qd.detects(t, e, rho)),
        "detection.complement_lemma_check_ms": 1e3 * timeit(lambda: qd.complement_lemma_check(t, e, rho)),
        "assignment.assignment_probs_ms": 1e3 * timeit(lambda: qd.assignment_probs(e, g, rho)),
        "assignment.simulation_equalities_ms": 1e3 * timeit(lambda: qd.simulation_equalities(t, e, rho, f_list)),
        "ensemble.sample_ensemble_w1_s": 0.0,
        "ensemble.sample_ensemble_mb": 0.0,
    }
    m["numerics.matmul_gflops_computed"] = 8 * p.dim**3 / (m["numerics.matmul_ms"] * 1e-3) / 1e9
    m["detection.detects_matmul_equiv"] = m["detection.detects_ms"] / m["numerics.matmul_ms"]
    if "family" in names:
        dist = qd.joint_distribution([proj[n] for n in names["family"]], rho)
        n, seed = names["samples"], names["seed"]
        start = time.perf_counter()
        qd.sample_ensemble(dist, n, seed, workers=1)
        m["ensemble.sample_ensemble_w1_s"] = time.perf_counter() - start
        tracemalloc.start()
        try:
            qd.sample_ensemble(dist, n, seed, workers=2)
            m["ensemble.sample_ensemble_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return m


# Per-op totals taken straight from the traced op: metric -> span or counter.
TRACED = {
    "assignment.joint_distribution_s": "assignment.joint_distribution",
    "assignment.joint_distribution_atoms": "assignment.joint_distribution_atoms",
    "scenarios.load_scenario_s": "scenarios.load_scenario",
    "scenarios.verify_scenario_s": "scenarios.verify_scenario",
    "scenarios.enumerate_constraints_s": "scenarios.enumerate_constraints",
    "scenarios.enumerate_constraints_tried": "scenarios.enumerate_constraints_tried",
    "scenarios.enumerate_constraints_satisfying": "scenarios.enumerate_constraints_satisfying",
    "ensemble.sample_ensemble_w2_s": "ensemble.sample_ensemble",
    "ensemble.check_support_statements_s": "ensemble.check_support_statements",
    "ensemble.check_support_statements_checks": "ensemble.check_support_statements_checks",
    "ensemble.check_support_statements_frequency_checks": "ensemble.check_support_statements_frequency_checks",
    "ensemble.check_support_statements_band_failures": "ensemble.check_support_statements_band_failures",
    "ensemble.to_csv_s": "ensemble.Ensemble.to_csv",
    "ensemble.to_csv_bytes": "ensemble.to_csv_bytes",
    "ensemble.detection_frequency_audit_s": "ensemble.detection_frequency_audit",
    "reporting.checks": "reporting.checks",
}


def per_layer(tracer, untraced: list[float], traced: list[float], probes: dict) -> dict:
    """Per-layer metrics: medians over the traced ops, plus probes."""
    import tracing

    rows = [row for op, row in sorted(tracer.per_op().items()) if op >= 0]
    for row in rows:
        row["reporting.render"] = sum(row.get(n, 0.0) for n in tracing.RENDER)

    def med(key: str) -> float:
        return statistics.median(row.get(key, 0.0) for row in rows)

    m = {f"{layer}.self_s": med(f"{layer}.self_s") for layer in tracing.LAYERS}
    m.update({name: med(key) for name, key in TRACED.items()})
    m.update(probes)
    atoms, load_s, base = m["assignment.joint_distribution_atoms"], m["scenarios.load_scenario_s"], statistics.median(untraced)
    m["assignment.joint_distribution_nonzero_ratio"] = med("assignment.joint_distribution_nonzero") / atoms if atoms else 0.0
    m["scenarios.load_scenario_mb_per_s"] = med("scenarios.load_scenario_bytes") / 1e6 / load_s if load_s else 0.0
    m["reporting.render_s"] = med("reporting.render")
    m["cli.unattributed_s"] = base - med("layers_s")
    m["tracing.overhead_s"] = statistics.median(traced) - base
    return m


UNITS = {"_per_s": "1/s", "_bytes": "bytes", "_ms": "ms", "_us": "us", "_s": "s", "_mb": "MB", "_mb_per_s": "MB/s", "_gflops_computed": "GFLOP/s"}


def unit(name: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    return "ratio" if name.endswith(("_ratio", "_equiv")) else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qdetect" / "__init__.py").is_file():
        print(f"error: no qdetect sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import qdetect
    import workloads

    if Path(qdetect.__file__).resolve().parent != (src / "qdetect").resolve():
        print(f"error: imported qdetect from {qdetect.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, metrics, runner = measure(qdetect, workload, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine_record(np)
    record["failures"] = runner.problems[:5]
    for p in runner.problems[:5]:
        print(f"FAILED {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload.name:16s} {name:50s} {value:.6g} {unit(name)}")
    print(json.dumps({"record": record}))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def measure(qd, workload, args, workdir: Path, import_s: float):
    reps = 1 if args.trace else SETUP_REPEATS
    setup_times = []
    for _ in range(reps):
        start = time.perf_counter()
        prep = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    runner = Runner(workload, prep)
    warmup_s = runner.one(0)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        "import_s": import_s,
        "setup_generation_s": setup_times,
        "warmup_op_s": warmup_s,
        "input_file_bytes": prep.file_bytes,
    }
    if not args.trace:
        latencies, wall = runner.phase(args.seconds)
        tail_s, pct = tail(latencies)
        record.update(ops=len(latencies), latencies_s=latencies, op_tail_percentile=pct, fail_ratio=runner.failed / runner.attempted)
        return record, {
            "setup_s": import_s + statistics.median(setup_times) + warmup_s,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "ops_per_s": len(latencies) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, runner

    import tracing

    tracer = tracing.Tracer()
    untraced, traced = interleaved(runner, tracer, args.seconds)
    probes = probe_layers(qd, prep)
    out = ROOT / ".bench_run" / "traces" / f"{workload.name}-seed{args.seed}-{os.getpid()}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out)
    record.update(untraced_ops=len(untraced), traced_ops=len(traced), spans=len(tracer.spans), trace_file=str(out))
    return record, per_layer(tracer, untraced, traced, probes), runner


if __name__ == "__main__":
    sys.exit(main())
