"""Benchmark harness for holopath: three closed-loop workloads, measured end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-kappa --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    sweep-kappa        `holopath sweep --scheme two-loop` over a seeded 100x100 (epsilon, kappa) grid
    survey-schemes     1000 seeded targets: solve three schemes, four fidelity pairs each, fit coefficients
    oracle-crosscheck  8 criterion-7 points x 3 schemes x 2 envelopes, 1e5 oracle steps per segment

All three are closed loops with one client: each repetition runs one
workload instance, point after point, in a fresh single-threaded Python
process (``workloads.py``).  Repetitions follow one another for as long as
the next one is expected to end within ``--seconds``, with at least
MIN_REPS of them, and medians are reported.  The host this runs on is
shared, and its speed drifts by tens of percent over minutes, so the
times are reported in seconds of a fixed reference host: each
repetition's setup_s and wall_s are multiplied, and its points_per_s
divided, by the host speed a fixed probe kernel measures around it
(``hostprobe.py``).  The medians as measured are printed beside them and
kept in the report.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
repetitions, so it can report the tracing overhead and compare output
digests between the two.

A full report (machine metadata, digests, every repetition) is written to
``.bench_out/`` in the checkout, next to a digest ledger that flags an
output digest differing between runs of the same source tree and seed,
and, for traced runs, the spans of the last traced repetition.

``--size tiny`` shrinks every workload for the smoke tests (``smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: each child is single-threaded, and so is this process's host probe; these pin
#: every BLAS/OpenMP pool numpy may load, so they are set before numpy is imported
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import hostprobe  # noqa: E402
from tracer import LAYERS, self_times  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
#: measured per repetition from outside the child, reported as medians
END_TO_END = ("setup_s", "wall_s", "points_per_s", "peak_rss_mb")
#: of those, the times scaled to the reference host's speed (see hostprobe.py)
HOST_SCALED = ("setup_s", "wall_s")
#: the host probe kernel whose speed tracks each workload's: the oracle's
#: large-array products, or the interpreter-bound small products of the others
HOST_KERNEL = {"sweep-kappa": "interp", "survey-schemes": "interp", "oracle-crosscheck": "array"}
#: every child must finish well inside the 180 s a whole run may take
CHILD_TIMEOUT_S = 150

#: functions reported with .calls and .self_s (span names as the tracer records them)
TRACED_FUNCTIONS = (
    "linalg.expm",
    "linalg.gate_fidelity",
    "schemes.two_loop_ideal",
    "schemes.two_loop_errored",
    "schemes.two_loop_errored_relative",
    "schemes.single_loop_ideal",
    "schemes.single_loop_errored",
    "schemes.single_shot_ideal",
    "schemes.single_shot_errored",
    "schemes.phi_b_of",
    "analytic.fidelity_pair",
    "analytic.fid2_relative",
    "analytic.extract_quadratic_coefficient",
    "pathfinder.solve_two_loop",
    "pathfinder.solve_single_loop",
    "pathfinder.solve_single_shot",
    "oracle.propagate",
    "oracle.PulseEnvelope.amplitude",
)
CONTRACTS = ("linalg.require_hermitian", "linalg.require_unitary")

#: functions a workload never calls; a nonzero count is reported as a violation, not gated
PREDICTED_ZEROS = {
    "sweep-kappa": (
        "oracle.propagate", "oracle.PulseEnvelope.amplitude", "analytic.extract_quadratic_coefficient",
        "pathfinder.solve_single_loop", "pathfinder.solve_single_shot", "schemes.single_loop_errored",
        "schemes.single_shot_errored", "schemes.two_loop_errored",
    ),
    "survey-schemes": (
        "oracle.propagate", "oracle.PulseEnvelope.amplitude", "cli.cmd_sweep", "cli.main",
        "analytic.fid2_relative", "schemes.two_loop_errored_relative",
    ),
    "oracle-crosscheck": (
        "analytic.fidelity_pair", "analytic.extract_quadratic_coefficient", "cli.main",
        "pathfinder.solve_two_loop", "pathfinder.solve_single_loop", "pathfinder.solve_single_shot",
    ),
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_ENV)


def _python(args) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def warm_up() -> None:
    """Import holopath once (fills the bytecode cache) and insist it is the checkout's copy."""
    if not (SRC / "holopath" / "__init__.py").is_file():
        raise BenchError(f"no holopath sources under {SRC}")
    found = Path(_python(["-c", "import holopath.cli, holopath.verify; print(holopath.__file__)"]).stdout.strip())
    if found.resolve().parent != (SRC / "holopath").resolve():
        raise BenchError(f"imported holopath from {found}, not from {SRC}")


def run_rep(workload: str, seed: int, size: str, trace: bool, work_dir: Path) -> dict:
    """One fresh-process repetition; times count from the moment of spawning."""
    args = [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(int(trace)), "--work-dir", str(work_dir)]
    spawned = time.monotonic()
    rep = json.loads(_python(args).stdout.strip().splitlines()[-1])
    rep["trace"] = trace
    rep["setup_s"] = rep["t_setup"] - spawned
    rep["wall_s"] = rep["t_end"] - spawned
    rep["points_per_s"] = rep["points"] / (rep["wall_s"] - rep["setup_s"])
    rep["peak_rss_mb"] = rep["maxrss_kb"] / 1024.0
    return rep


def scipy_import_s() -> float:
    """Seconds spent importing scipy modules under `import holopath`, from -X importtime."""
    stderr = _python(["-X", "importtime", "-c", "import holopath"]).stderr
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if self_us.isdigit() and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(self_us)
    return total_us / 1e6


def layer_metrics(workload: str, rep: dict, spans) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition, and the predicted zeros it violated."""
    names, calls, inclusive, own = self_times(spans)
    index = {name: i for i, name in enumerate(names)}

    def count(name: str) -> int:
        return int(calls[index[name]]) if name in index else 0

    def self_s(name: str) -> float:
        return float(own[index[name]]) if name in index else 0.0

    def total_s(name: str) -> float:
        return float(inclusive[index[name]]) if name in index else 0.0


    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = count(name)
        metrics[f"{name}.self_s"] = self_s(name)
    expm_calls, points = count("linalg.expm"), rep["points"]
    contracts = sum(count(n) for n in CONTRACTS)
    propagate_s = total_s("oracle.propagate")
    metrics.update({
        "linalg.expm.us_per_call": 1e6 * total_s("linalg.expm") / expm_calls if expm_calls else 0.0,
        "linalg.contracts.calls": contracts,
        "linalg.contracts_per_point": contracts / points,
        "schemes.expm_per_point": expm_calls / points,
        "oracle.propagate.steps_per_s": rep["oracle_steps"] / propagate_s if propagate_s else 0.0,
        "oracle.schedule.self_s": sum(self_s(n) for n in names if n.startswith("oracle.schedule_for_")),
        "cli.cmd_sweep.self_s": self_s("cli.cmd_sweep"),
        "cli.output_bytes": rep["output_bytes"],
        "setup.import_s": total_s("setup.import"),
        "setup.inputs_s": total_s("setup.inputs"),
        "setup.self_s": rep["setup_s"],
        "check.worst_ratio": rep["worst_ratio"],
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(sum(own[i] for n, i in index.items() if n.split(".")[0] == layer))
    violations = [f"{n}.calls = {count(n)}" for n in PREDICTED_ZEROS[workload] if count(n)]
    return metrics, violations


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "holopath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(rep: dict, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **rep["versions"],
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "blas_threads": THREAD_ENV,
    }


def check_ledger(key: str, digests: dict) -> list[str]:
    """Record this run's digests; return the ones that differ from an earlier run with the same key."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key, {})
    changed = [f"{name}: {earlier[name]} -> {value}" for name, value in digests.items()
               if name in earlier and earlier[name] != value]
    ledger[key] = {**earlier, **digests}
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return changed


def declared_metrics() -> dict:
    """BENCHMARK.json's metric names and units: the result line reports exactly these."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def measure(args, spans_copy: Path) -> list[dict]:
    """Run rounds of repetitions while the next round is expected to end within --seconds.

    A round is one untraced repetition, followed by one traced repetition
    in a traced run; traced repetitions carry their layer metrics.  The host
    probe kernel runs before the first repetition and after each one; a
    repetition's host speed is the geometric mean of the two around it.
    """
    reps, rounds = [], 0
    min_rounds = 1 if args.trace else MIN_REPS
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        started = time.monotonic()
        kernel = HOST_KERNEL[args.workload]
        speed_before = hostprobe.speed(kernel)
        while True:
            rounds += 1
            for trace in (False, True) if args.trace else (False,):
                rep = run_rep(args.workload, args.seed, args.size, trace, work_dir)
                speed_after = hostprobe.speed(kernel)
                rep["host_speed"] = math.sqrt(speed_before * speed_after)
                speed_before = speed_after
                if trace:
                    spans_file = work_dir / "spans.npz"
                    with np.load(spans_file) as spans:
                        rep["layer"], rep["zero_violations"] = layer_metrics(args.workload, rep, spans)
                    shutil.copyfile(spans_file, spans_copy)
                reps.append(rep)
            elapsed = time.monotonic() - started
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                return reps
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def host_scaled(rep: dict, name: str) -> float:
    """An end-to-end metric of one repetition in terms of the reference host (see hostprobe.py)."""
    if name in HOST_SCALED:
        return rep[name] * rep["host_speed"]
    if name == "points_per_s":
        return rep[name] / rep["host_speed"]
    return rep[name]


def summarize(args, reps: list[dict]) -> tuple[dict, dict]:
    """The result line and the full report of one run."""
    declared = declared_metrics()
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    attempted = sum(r["points"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {key: sorted({r[key] for r in reps}) for key in ("output_digest", "inputs_digest")}
    problems = [f"{key} differs between repetitions: {values}" for key, values in digests.items() if len(values) > 1]
    if failed:
        problems.append(f"{failed} of {attempted} points failed their correctness check")

    values = {name: statistics.median(host_scaled(r, name) for r in plain) for name in END_TO_END}
    values["failed_frac"] = failed / attempted
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(reps[0], args.seed),
        "output_digest": digests["output_digest"][0], "inputs_digest": digests["inputs_digest"][0],
        "end_to_end": values,
        "end_to_end_measured": {name: statistics.median(r[name] for r in plain) for name in END_TO_END},
        "host_kernel": HOST_KERNEL[args.workload],
        "host_speed": statistics.median(r["host_speed"] for r in reps),
    }
    kind = "end_to_end"
    if traced:
        layer = {name: statistics.median_low(r["layer"][name] for r in traced) for name in traced[0]["layer"]}
        violations = sorted({v for r in traced for v in r["zero_violations"]})
        layer["setup.scipy_import_s"] = scipy_import_s()
        traced_wall_s = statistics.median(host_scaled(r, "wall_s") for r in traced)
        layer["trace.overhead_frac"] = traced_wall_s / values["wall_s"] - 1.0
        layer["host.speed"] = report["host_speed"]
        layer["host.measured_wall_s"] = report["end_to_end_measured"]["wall_s"]
        layer["trace.zero_violations"] = len(violations)
        report.update(per_layer=layer, zero_violations=violations)
        values, kind = layer, "per_layer"
    report["digest_changed"] = check_ledger(
        f"{report['machine']['source_digest']}:{args.workload}:{args.size}:{args.seed}",
        {key: report[key] for key in ("output_digest", "inputs_digest")},
    )
    report["problems"] = problems
    report["repetitions"] = [{k: v for k, v in r.items() if k != "versions"} for r in reps]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared[kind].items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}, report


def print_summary(args, result: dict, report: dict, report_path: Path) -> None:
    reps = report["repetitions"]
    plain = [r for r in reps if not r["trace"]]
    e2e, measured = report["end_to_end"], report["end_to_end_measured"]
    print(f"holopath benchmark: {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"repetitions={len(plain)} untraced + {len(reps) - len(plain)} traced; "
          f"host speed {report['host_speed']:.3f} of the reference host")
    print("  (medians on the reference host's scale; as measured on this host in brackets)")
    print(f"  setup_s      {e2e['setup_s']:.4f} s  ({measured['setup_s']:.4f})")
    print(f"  wall_s       {e2e['wall_s']:.4f} s  ({measured['wall_s']:.4f})")
    print(f"  points_per_s {e2e['points_per_s']:.2f} 1/s  ({measured['points_per_s']:.2f}; "
          f"{plain[0]['points']} points per repetition)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {e2e['failed_frac']:g}  ({result['failed']} of {result['attempted']} points)")
    print(f"  output sha256 {report['output_digest']}  inputs sha256 {report['inputs_digest']}")
    if args.trace:
        layer = report["per_layer"]
        print(f"  trace overhead {layer['trace.overhead_frac']:+.3f}; layer self time (s): "
              + ", ".join(f"{name} {layer[name + '.self_s']:.3f}" for name in ("setup", *LAYERS)))
        for line in report["zero_violations"]:
            print(f"  WARNING predicted zero violated: {line}")
    for line in report["digest_changed"]:
        print(f"  WARNING digest differs from an earlier run of the same sources and seed: {line}")
    for line in report["problems"]:
        print(f"  FAILED {line}")
    print(f"  report: {report_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    try:
        warm_up()
        OUT.mkdir(exist_ok=True)
        reps = measure(args, OUT / f"{name}.spans.npz")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result, report = summarize(args, reps)
    report_path = OUT / f"{name}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_summary(args, result, report, report_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
