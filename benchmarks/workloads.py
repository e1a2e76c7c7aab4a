"""One workload instance in a fresh process: make inputs, run holopath, check, report.

``run.py`` starts this script once per repetition, with ``PYTHONPATH``
pointing at the checkout's ``src``:

    python3 benchmarks/workloads.py --workload sweep-kappa --seed 1 --size full \
        --trace 0 --work-dir .bench_out/work

It prints one JSON object on stdout.  Times are ``time.monotonic()``
readings, a clock shared by every process on the machine, so the parent
can measure from the moment it spawned this process.  With ``--trace 1``
every public function of holopath's layers is wrapped in a span (see
``tracer.py``) and the spans are written to ``spans.npz`` in the work
directory.

Only plain numbers are generated during set-up; every holopath object,
path solve and propagator is built inside the timed region.  The
correctness checks run after the timed region and use only the outputs
and formulas of the paper, never the code under test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

WORKLOADS = ("sweep-kappa", "survey-schemes", "oracle-crosscheck")

#: sweep grid side, survey target count, oracle point count and steps per segment
SIZES = {
    "full": {"grid": 100, "targets": 1000, "points": 8, "steps": 100_000},
    "tiny": {"grid": 10, "targets": 20, "points": 2, "steps": 1_000},
}

#: sweep-kappa target: theta_gate = pi/4 about (1, 1, 1), as CLI arguments in units of pi
SWEEP_TARGET = ("0.25", "1,1,1")
SWEEP_EPSILON_MAX = 0.05
SWEEP_KAPPA_MAX = 0.02

SURVEY_THETA_RANGE = (0.05, math.pi / 2)
SURVEY_EPSILONS = (1e-3, -1e-3, 1e-2, -1e-2)
SURVEY_SCHEMES = ("two-loop", "single-loop", "single-shot")
#: criteria 2 and 3: extracted coefficient within 1e-3 (relative) of f_k pi^2 / 3
COEFF_RTOL = 1e-3

ORACLE_SHAPES = ("square", "sine-squared")
#: criterion 7: max-entry deviation of the stepped propagator from its closed form
ORACLE_ATOL = 1e-8


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _hex(values) -> bytes:
    return ",".join(float(v).hex() for v in values).encode()


def _fidelity_ok(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


# --- sweep-kappa: `holopath sweep --scheme two-loop` over a seeded (epsilon, kappa) grid


def sweep_inputs(rng, size):
    n = size["grid"]
    epsilon = [float(v) for v in rng.uniform(-SWEEP_EPSILON_MAX, SWEEP_EPSILON_MAX, n)]
    kappa = [float(v) for v in rng.uniform(-SWEEP_KAPPA_MAX, SWEEP_KAPPA_MAX, n)]
    return {"epsilon": epsilon, "kappa": kappa}, _hex(epsilon + kappa)


def sweep_run(hp, inputs, work_dir: Path):
    out = work_dir / "sweep.json"
    argv = [
        "sweep", "--scheme", "two-loop", "--theta-gate", SWEEP_TARGET[0], "--axis", SWEEP_TARGET[1],
        # the "=" form, since a list that starts with a minus sign would read as a flag
        "--epsilon=" + ",".join(map(repr, inputs["epsilon"])),
        "--kappa=" + ",".join(map(repr, inputs["kappa"])),
        "--out", str(out),
    ]
    return {"exit_code": hp.cli.main(argv), "out": out}


def sweep_check(inputs, output):
    """Each record: both fidelities in [0, 1], |F_exact - F''| <= C (|eps| + |kappa|)^3."""
    from holopath.verify import CUBIC_BOUND_CONSTANT

    grid = [(e, k) for e in sorted(inputs["epsilon"]) for k in sorted(inputs["kappa"])]
    raw = output["out"].read_bytes() if output["exit_code"] == 0 and output["out"].exists() else b""
    records = json.loads(raw) if raw else []
    failed, worst = 0, 0.0
    for index, (eps, kappa) in enumerate(grid):
        record = records[index] if index < len(records) else {}
        exact, approx = record.get("fidelity_exact", math.nan), record.get("fidelity_analytic2", math.nan)
        ok = (record.get("epsilon"), record.get("kappa")) == (eps, kappa)
        ok = ok and _fidelity_ok(exact) and _fidelity_ok(approx)
        if ok:
            ratio = abs(exact - approx) / (CUBIC_BOUND_CONSTANT * (abs(eps) + abs(kappa)) ** 3)
            worst = max(worst, ratio)
            ok = ratio <= 1.0
        failed += not ok
    failed += max(0, len(records) - len(grid))
    return {"points": len(grid), "failed": failed, "worst_ratio": worst,
            "output_digest": _sha256(raw), "output_bytes": len(raw)}


# --- survey-schemes: solve three schemes per random target, extract quadratic coefficients


def survey_inputs(rng, size):
    n = size["targets"]
    theta = rng.uniform(*SURVEY_THETA_RANGE, n)
    axis = rng.normal(size=(n, 3))
    return {"theta": theta, "axis": axis}, theta.tobytes() + axis.tobytes()


def survey_run(hp, inputs, work_dir: Path):
    solvers = {
        "two-loop": lambda target: hp.pathfinder.solve_two_loop(target).path,
        "single-loop": hp.pathfinder.solve_single_loop,
        "single-shot": hp.pathfinder.solve_single_shot,
    }
    groups = []
    for theta, axis in zip(inputs["theta"], inputs["axis"]):
        target = hp.analytic.TargetGate(float(theta), axis)
        for scheme in SURVEY_SCHEMES:
            try:
                path = solvers[scheme](target)
                pairs = [hp.analytic.fidelity_pair(scheme, path, hp.schemes.RabiError(e)) for e in SURVEY_EPSILONS]
                coeff = hp.analytic.extract_quadratic_coefficient(
                    [(e, exact) for e, (exact, _) in zip(SURVEY_EPSILONS, pairs)]
                )
            except ValueError:
                pairs, coeff = [], math.nan
            groups.append((scheme, float(theta), pairs, coeff))
    return groups


def _paper_coefficient(scheme: str, t: float) -> float:
    """f_k(theta) pi^2 / 3 for the paper's three error shapes."""
    if scheme == "two-loop":
        shape = 2.0 - 2.0 * math.cos(t / 2.0)
    elif scheme == "single-loop":
        shape = 0.5 * (1.0 - math.cos(2.0 * t))
    else:
        shape = 16.0 * t * t * (1.0 - t / math.pi) ** 2 / math.pi**2
    return shape * math.pi**2 / 3.0


def survey_check(inputs, groups):
    """Per scheme and target: fidelities in [0, 1], coefficient within COEFF_RTOL of f_k pi^2 / 3."""
    failed, worst, chunks = 0, 0.0, []
    for scheme, theta, pairs, coeff in groups:
        values = [v for pair in pairs for v in pair]
        chunks.append(_hex(values + [coeff]))
        ok = len(pairs) == len(SURVEY_EPSILONS) and all(_fidelity_ok(v) for v in values) and math.isfinite(coeff)
        if ok:
            ratio = abs(coeff / _paper_coefficient(scheme, theta) - 1.0) / COEFF_RTOL
            worst = max(worst, ratio)
            ok = ratio <= 1.0
        failed += 0 if ok else len(SURVEY_EPSILONS)
    return {"points": len(groups) * len(SURVEY_EPSILONS), "failed": failed, "worst_ratio": worst,
            "output_digest": _sha256(*chunks), "output_bytes": 0}


# --- oracle-crosscheck: criterion 7's random points, time-stepped vs closed form


def oracle_inputs(rng, size):
    """Draws in criterion 7's order; the first point has zero error."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    tau = 2 * math.pi
    points = []
    for index in range(size["points"]):
        eps = 0.0 if index == 0 else u(-0.05, 0.05)
        kappa = 0.0 if index == 0 else u(-0.05, 0.05)
        two_loop = [u(0, math.pi), u(0, tau), u(0, tau), u(0, math.pi), u(0, tau), u(0, tau)]
        single_loop = [u(0, math.pi), u(0, tau), u(0, tau), u(0, tau)]
        single_shot = [u(0, math.pi / 2), u(0, tau), u(0, tau), u(-math.pi / 2, math.pi / 2)]
        points.append({"eps": eps, "kappa": kappa, "two_loop": two_loop,
                       "single_loop": single_loop, "single_shot": single_shot})
    return {"points": points, "steps": size["steps"]}, json.dumps(points).encode()


def oracle_run(hp, inputs, work_dir: Path):
    s, o = hp.schemes, hp.oracle
    steps, results = inputs["steps"], []
    for p in inputs["points"]:
        relative, common = s.RabiError(p["eps"], p["kappa"]), s.RabiError(p["eps"])
        loops = p["two_loop"]
        two_loop = s.TwoLoopPath(s.LoopParams(*loops[:3]), s.LoopParams(*loops[3:]))
        single_loop = s.SingleLoopPath(*p["single_loop"])
        single_shot = s.SingleShotPath(*p["single_shot"])
        closed = (
            s.two_loop_errored_relative(two_loop, relative),
            s.single_loop_errored(single_loop, common),
            s.single_shot_errored(single_shot, common),
        )
        for shape in ORACLE_SHAPES:
            schedules = (
                o.schedule_for_two_loop(two_loop, relative, shape),
                o.schedule_for_single_loop(single_loop, common, shape),
                o.schedule_for_single_shot(single_shot, common, shape),
            )
            for schedule, reference in zip(schedules, closed):
                results.append((o.propagate(schedule, steps), reference, steps * len(schedule.segments)))
    return results


def oracle_check(inputs, results):
    """Each propagation: finite and within ORACLE_ATOL (max entry) of its closed form."""
    import numpy as np

    failed, worst = 0, 0.0
    for stepped, reference, _ in results:
        deviation = float(np.max(np.abs(stepped - reference)))
        ok = math.isfinite(deviation) and deviation <= ORACLE_ATOL
        if math.isfinite(deviation):
            worst = max(worst, deviation / ORACLE_ATOL)
        failed += not ok
    expected = len(inputs["points"]) * len(ORACLE_SHAPES) * 3
    return {"points": expected, "failed": failed + max(0, expected - len(results)), "worst_ratio": worst,
            "output_digest": _sha256(*(np.ascontiguousarray(r[0]).tobytes() for r in results)),
            "output_bytes": 0, "oracle_steps": sum(r[2] for r in results)}


WORKLOAD_FUNCTIONS = {
    "sweep-kappa": (sweep_inputs, sweep_run, sweep_check),
    "survey-schemes": (survey_inputs, survey_run, survey_check),
    "oracle-crosscheck": (oracle_inputs, oracle_run, oracle_check),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    make_inputs, run, check = WORKLOAD_FUNCTIONS[args.workload]

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    with span("setup.import"):
        import numpy as np

        import holopath
        import holopath.cli  # noqa: F401  (not imported by the package itself)
    if tracer:
        tracer.install()
    with span("setup.inputs"):
        inputs, input_bytes = make_inputs(np.random.default_rng(args.seed), SIZES[args.size])
    t_setup = time.monotonic()

    output = run(holopath, inputs, args.work_dir)

    t_end = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"oracle_steps": 0, **check(inputs, output)}
    if tracer:
        tracer.dump(str(args.work_dir / "spans.npz"))
    scipy = sys.modules.get("scipy")
    result.update(
        t_setup=t_setup,
        t_end=t_end,
        maxrss_kb=maxrss_kb,
        inputs_digest=_sha256(input_bytes),
        holopath_file=holopath.__file__,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__ if scipy else None,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
