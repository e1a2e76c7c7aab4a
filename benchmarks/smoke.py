"""Smoke tests of the benchmark harness, every workload at a tiny size.

    python3 benchmarks/smoke.py

For each workload, a traced run and two untraced runs must succeed with
correct results and report exactly the metrics BENCHMARK.json declares.
Then:

- the span self times of a traced repetition sum to no more than its wall_s;
- the same seed gives the same output and input digests, traced or not;
- a different seed gives different inputs.

Last, the harness must fail, printing no result, in a directory that holds
only BENCHMARK.json and this directory.  These checks are not part of the
repository's pytest suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import HERE, OUT, ROOT, declared_metrics
from tracer import self_times
from workloads import WORKLOADS

TIMEOUT_S = 300


class SmokeFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def harness(args, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def run_tiny(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = harness(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                    "--size", "tiny"])
    expect(proc.returncode == 0, f"{workload} seed={seed} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((OUT / f"{workload}-tiny-seed{seed}-trace{trace}.json").read_text())
    return result, report


def check_workload(workload: str) -> None:
    declared = declared_metrics()
    traced, traced_report = run_tiny(workload, 1, 1)
    plain, plain_report = run_tiny(workload, 1, 0)
    other, other_report = run_tiny(workload, 2, 0)
    for result, kind in ((traced, "per_layer"), (plain, "end_to_end"), (other, "end_to_end")):
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, f"incorrect: {result}")
        expect(list(result["metrics"]) == list(declared[kind]), f"{kind} metrics differ from BENCHMARK.json")

    rep = [r for r in traced_report["repetitions"] if r["trace"]][-1]
    with np.load(OUT / f"{workload}-tiny-seed1-trace1.spans.npz") as spans:
        _, _, _, own = self_times(spans)
    expect(0.0 < own.sum() <= rep["wall_s"], f"span self times {own.sum():.4f} s vs wall_s {rep['wall_s']:.4f} s")

    for key in ("output_digest", "inputs_digest"):
        expect(traced_report[key] == plain_report[key], f"same seed, different {key}")
    expect(other_report["inputs_digest"] != plain_report["inputs_digest"], "different seeds, same inputs")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = harness(["--workload", "sweep-kappa", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=Path(bare))
    expect(proc.returncode != 0, "harness succeeded without holopath sources")
    expect('"correct"' not in proc.stdout, "harness printed a result without holopath sources")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    checks = [(f"workload {w}", lambda w=w: check_workload(w)) for w in WORKLOADS]
    checks.append(("fails without sources", check_fails_without_sources))
    failures = 0
    for name, check in checks:
        try:
            check()
            print(f"PASS {name}")
        except SmokeFailure as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
