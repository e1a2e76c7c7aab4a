"""Checks live where outside input enters, and only there.

The range rule (in [lo, hi], clipped within 1e-12, NaN refused) is
``schemes._in_range``; the path dataclasses, ``TargetGate`` and
``f1/f2/f3`` call it.  Phases of a path must be finite.  The bright-state
helpers take angles that are valid by construction and check nothing.
"""

import ast
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holopath
from holopath import analytic, cli, linalg, oracle, pathfinder, schemes, verify
from holopath.analytic import (
    TargetGate,
    extract_quadratic_coefficient,
    f1,
    f2,
    f3,
    fidelity_pair,
)
from holopath.schemes import LoopParams, RabiError, SingleLoopPath, SingleShotPath, TwoLoopPath, phi_b_of

BOUNDARY_SETTINGS = settings(max_examples=40, deadline=None)
SLACK = 1e-12

AXIS = np.array([0.0, 0.0, 1.0])

# (name, lo, hi, build): build(value) feeds value to one range-checked field
RANGED = [
    ("theta", 0.0, math.pi, lambda v: LoopParams(v, 0.0, 0.0).theta),
    ("theta", 0.0, math.pi, lambda v: SingleLoopPath(v, 0.0, 0.0, 0.0).theta),
    ("alpha", 0.0, math.pi / 2, lambda v: SingleShotPath(v, 0.0, 0.0, 0.0).alpha),
    ("gamma", -math.pi / 2, math.pi / 2, lambda v: SingleShotPath(0.0, 0.0, 0.0, v).gamma),
    ("theta_gate", 0.0, math.pi / 2, lambda v: TargetGate(v, AXIS).theta_gate),
    ("theta_gate", 0.0, math.pi / 2, f1),
    ("theta_gate", 0.0, math.pi / 2, f2),
    ("theta_gate", 0.0, math.pi / 2, f3),
]
RANGED_IDS = ["LoopParams", "SingleLoopPath", "alpha", "gamma", "TargetGate", "f1", "f2", "f3"]

# (field, build): build(value) feeds value to one phase field
PHASES = [
    ("psi", lambda v: LoopParams(1.0, v, 0.0)),
    ("phi", lambda v: LoopParams(1.0, 0.0, v)),
    ("psi", lambda v: SingleLoopPath(1.0, v, 0.0, 0.0)),
    ("phi", lambda v: SingleLoopPath(1.0, 0.0, v, 0.0)),
    ("phi_prime", lambda v: SingleLoopPath(1.0, 0.0, 0.0, v)),
    ("beta0", lambda v: SingleShotPath(0.5, v, 0.0, 0.0)),
    ("beta1", lambda v: SingleShotPath(0.5, 0.0, v, 0.0)),
]


def _message(name, lo, hi, got):
    return re.escape(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {got:.6g}")


def outside(lo, hi):
    """Values more than twice the slack outside [lo, hi], infinities included."""
    return st.floats(hi + 2 * SLACK, math.inf) | st.floats(-math.inf, lo - 2 * SLACK)


@pytest.mark.parametrize("name, lo, hi, build", RANGED, ids=RANGED_IDS)
def test_range_boundary_rejects_nan(name, lo, hi, build):
    with pytest.raises(ValueError, match=_message(name, lo, hi, math.nan)):
        build(math.nan)


@pytest.mark.parametrize("name, lo, hi, build", RANGED, ids=RANGED_IDS)
@BOUNDARY_SETTINGS
@given(data=st.data())
def test_range_boundary_rejects_out_of_range(name, lo, hi, build, data):
    value = data.draw(outside(lo, hi))
    with pytest.raises(ValueError, match=_message(name, lo, hi, value)):
        build(value)


@pytest.mark.parametrize("name, lo, hi, build", RANGED, ids=RANGED_IDS)
@BOUNDARY_SETTINGS
@given(excess=st.floats(0.0, 0.999 * SLACK))  # the slack's last ulps depend on rounding
def test_range_boundary_clips_within_slack(name, lo, hi, build, excess):
    assert build(lo - excess) == build(lo)
    assert build(hi + excess) == build(hi)


@pytest.mark.parametrize("shape", [f1, f2, f3])
@BOUNDARY_SETTINGS
@given(
    inside=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=5),
    bad=st.lists(outside(0.0, math.pi / 2) | st.just(math.nan), min_size=1, max_size=3),
    at=st.integers(0, 5),
    data=st.data(),
)
def test_shape_names_first_failing_entry(shape, inside, bad, at, data):
    # later entries may be any value: the first failing one is named
    values = inside[:at] + bad + data.draw(st.lists(st.floats(allow_nan=True), max_size=3))
    with pytest.raises(ValueError, match=_message("theta_gate", 0.0, math.pi / 2, bad[0])):
        shape(np.array(values).reshape(1, -1))


@pytest.mark.parametrize("shape", [f1, f2, f3])
def test_shape_clips_array_within_slack(shape):
    edges = np.array([-0.5 * SLACK, math.pi / 2 + 0.5 * SLACK])
    np.testing.assert_array_equal(shape(edges), shape(np.array([0.0, math.pi / 2])))


@pytest.mark.parametrize("field, build", PHASES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_must_be_finite(field, build, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value!r}$"):
        build(value)


@pytest.mark.parametrize("field, build", PHASES)
@BOUNDARY_SETTINGS
@given(value=st.floats(-1e6, 1e6))
def test_finite_phase_is_reduced(field, build, value):
    reduced = getattr(build(value), field)
    assert 0.0 <= reduced < 2 * math.pi


def _orthogonal_path():
    return TwoLoopPath(LoopParams(0.0, 0.0, 0.0), LoopParams(math.pi, 0.0, 0.3))


def test_fid2_two_loop_at_eta_pi_matches_relative_formula():
    # at eta = pi phi_b is NaN, and the quadratic form takes m = cos(eta/2) cos(phi_b) as 0: finite, no NaN
    dec = phi_b_of(_orthogonal_path())
    assert dec.degenerate and math.isnan(dec.phi_b)
    eps = 0.01
    expected = fidelity_pair("two-loop", _orthogonal_path(), RabiError(eps))[1]
    assert abs(expected - 0.99934) < 1e-5
    a, b, c = analytic.SCHEMES["two-loop"].quadratic_form(_orthogonal_path())
    assert all(math.isfinite(x) for x in (a, b, c))
    assert abs(1.0 - a * eps * eps - expected) <= 1e-12
    # m = 0 at loops theta = 0 and pi: a = (2/3) pi^2, b = (pi^2/3)(cos 0 + cos pi) = 0,
    # c = (pi^2/3)(cos^2 0 + cos^2 pi) = (2/3) pi^2
    assert a == (2.0 / 3.0) * math.pi**2
    assert b == 0.0
    assert c == pytest.approx((2.0 / 3.0) * math.pi**2, rel=1e-15)


def test_extract_quadratic_coefficient_refuses_nan_fidelity():
    samples = [(1e-3, 0.999), (-1e-3, math.nan), (1e-4, 0.99999), (-1e-4, 0.99999)]
    with pytest.raises(ValueError, match=r"fidelities must lie in \(0, 1\]"):
        extract_quadratic_coefficient(samples)


PAIR_1E3 = [(1e-3, 1 - 1e-6), (-1e-3, 1 - 1e-6)]


@pytest.mark.parametrize(
    "samples, message",
    [
        ([(math.inf, 0.9), (-math.inf, 0.9)] + PAIR_1E3, "epsilon samples must be finite, got inf"),
        ([(-math.inf, 0.9), (1e-3, 0.99), (-1e-3, 0.99)], "epsilon samples must be finite, got -inf"),
        ([(math.nan, 0.9)] + PAIR_1E3, "epsilon samples must be finite, got nan"),
        # eps^2 underflows to 0: a silent NaN before
        ([(1e-200, 1.0), (-1e-200, 1.0)] + PAIR_1E3, "epsilon magnitude 1e-200 cannot be fitted: eps^2 = 0.0"),
        ([(1e200, 0.9), (-1e200, 0.9)] + PAIR_1E3, "epsilon magnitude 1e+200 cannot be fitted: eps^2 = inf"),
        # eps^2 is subnormal, and (1 - F)/eps^2 overflows
        (
            [(1e-160, 0.9), (-1e-160, 0.9)] + PAIR_1E3,
            "epsilon magnitude 1e-160 cannot be fitted: eps^2 = 1e-320, (1 - F)/eps^2 = inf",
        ),
        # each point is fine, but the fitted line overflows
        (
            [(1e-150, 1 - 1e-6), (-1e-150, 1 - 1e-6), (1e150, 0.9), (-1e150, 0.9)],
            "ill-conditioned sample set: no finite fit",
        ),
    ],
    ids=["inf", "minus-inf", "nan", "square-underflow", "square-overflow", "quotient-overflow", "fit-overflow"],
)
def test_extract_quadratic_coefficient_refuses_extreme_epsilon(samples, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        extract_quadratic_coefficient(samples)


def test_extract_quadratic_coefficient_accepts_exact_fidelity_at_tiny_epsilon():
    # F = 1 gives (1 - F)/eps^2 = 0 even where eps^2 is subnormal: a valid point, not a refusal
    assert extract_quadratic_coefficient([(1e-160, 1.0), (-1e-160, 1.0), (-1e-160, 1.0)]) == 0.0


# --- where the checks are -----------------------------------------------------

MODULES = (analytic, cli, linalg, oracle, pathfinder, schemes, verify)
RANGE_CALLERS = {
    "schemes.LoopParams.__post_init__",
    "schemes.SingleLoopPath.__post_init__",
    "schemes.SingleShotPath.__post_init__",
    "schemes.TargetGate.__post_init__",
    "analytic.f1",
    "analytic.f2",
    "analytic.f3",
}
UNCHECKED = ("bright_state", "relative_error_angles", "_bright_coupling", "two_loop_gates", "phi_b_of")
VALIDATORS = {
    "_in_range", "_phase", "RabiError", "TargetGate",
    "require_hermitian", "require_unitary",
}


def _called_names(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _functions(module):
    """(qualified name, def node) of every function of the module, methods as Class.method."""
    tree = ast.parse(inspect.getsource(module))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _reached_names(node):
    """Every attribute and bare name the node's code mentions."""
    reached = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return reached | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_range_rule_is_called_only_at_the_boundary():
    callers = {
        f"{module.__name__.split('.')[-1]}.{name}"
        for module in MODULES
        for name, node in _functions(module)
        if "_in_range" in _called_names(node)
    }
    assert callers == RANGE_CALLERS


def test_bright_state_helpers_call_no_validator():
    functions = dict(_functions(schemes))
    for name in UNCHECKED:
        called = set(_called_names(functions[name]))
        assert not called & VALIDATORS, (name, called & VALIDATORS)


#: one-point hot paths that must stay array code: a scalar-only (math.*) fork would not take a stack of paths
ARRAY_BODIES = {
    schemes: ("bright_state", "_bright_frame", "_bright_coupling", "_pulse", "_pulse_pair_gates",
              "relative_error_angles", "single_shot_gates", "phi_b_of"),
    analytic: ("_two_loop_form", "_single_loop_form", "_single_shot_form"),
}


def test_hot_paths_reach_no_math_name():
    for module, names in ARRAY_BODIES.items():
        functions = dict(_functions(module))
        for name in names:
            assert "math" not in _reached_names(functions[name]), (module.__name__, name)


def test_no_comparison_on_a_scheme_name():
    # every scheme-specific choice is read from analytic.SCHEMES, never picked by comparing a name
    names = set(analytic.SCHEMES)
    for module in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Compare):
                operands = (node.left, *node.comparators)
                literals = {n.value for o in operands for n in ast.walk(o) if isinstance(n, ast.Constant)}
                assert not literals & names, (module.__name__, node.lineno, literals & names)


def test_schemes_runs_no_eigendecomposition():
    # every pulse is schemes._pulse's closed form; linalg.expm stays the independent reference
    tree = ast.parse(inspect.getsource(schemes))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "expm" not in imported
    for name, node in _functions(schemes):
        reached = _reached_names(node)
        assert not reached & {"expm", "linalg"}, (name, reached & {"expm", "linalg"})


def test_closed_forms_call_no_blas():
    # BLAS products, dots and norms change their last bits with the kernel picked for the CPU; the closed
    # forms sum elementwise instead, so their answers are the same on every host (see test_blas_kernels.py)
    blas = {"matmul", "dot", "vdot", "vecdot", "norm", "trace", "einsum", "inner", "tensordot"}
    solvers = {
        "solve_two_loop", "solve_single_loop", "solve_single_shot", "_circle_frame", "_polar_of", "_pair_at_phi_b",
    }
    bodies = [node for module in (schemes, analytic, cli) for _, node in _functions(module)]
    bodies += [node for name, node in _functions(pathfinder) if name in solvers]
    bodies += [node for name, node in _functions(linalg) if name in {"product", "_trace_fidelity"}]
    forms = {"_two_loop_form", "_single_loop_form", "_single_shot_form"}
    assert {entry.quadratic_form.__name__ for entry in analytic.SCHEMES.values()} == forms
    assert forms <= {node.name for node in bodies}
    for node in bodies:
        assert not any(isinstance(n, ast.MatMult) for n in ast.walk(node)), node.name
        called = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert not called & blas, (node.name, called & blas)


def test_oracle_propagate_reuses_no_closed_form_shortcut():
    # the oracle multiplies per-step factors; summing areas or calling a closed form would not check them.
    # propagate combines the segments that _step_segment steps, so the rule covers both bodies
    functions = dict(_functions(oracle))
    shortcuts = {"sum", "cumsum", "expm", "_pulse", "closed_form_limit", "area"}
    for name in ("propagate", "_step_segment"):
        reached = _reached_names(functions[name])
        assert not reached & shortcuts, (name, reached & shortcuts)


def test_oracle_shares_no_helper_of_the_closed_forms():
    # the schedules write the bare-basis drives themselves, so criterion 7 checks the closed forms' error model
    tree = ast.parse(inspect.getsource(oracle))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.level == 1 and node.module is None and "schemes" in {a.name for a in node.names})
    helpers = {
        "relative_error_angles", "bright_state", "bright_dark", "_bright_coupling", "_bright_frame", "_pulse",
    }
    for name, node in _functions(oracle):
        assert not _reached_names(node) & helpers, (name, _reached_names(node) & helpers)


# --- the package API ----------------------------------------------------------

BUILDERS = {"two_loop_gates", "single_loop_gates", "single_shot_gates"}
#: kept in schemes beside the builders, and only there: the benchmark's oracle-crosscheck calls them by name
ERRORED_VIEWS = {"two_loop_errored_relative", "single_loop_errored", "single_shot_errored"}
DELETED = {
    "two_loop_ideal", "single_loop_ideal", "single_shot_ideal", "fid2_single_loop", "fid2_single_shot",
    "fid2_relative", "RelativeErrorBreakdown", "bright_decomposition", "bright_dark",
    "quad_coeff_two_loop", "fid2_two_loop", "dF_dkappa_at_zero",
    "_ErroredPulses", "_fid2_errored_loops", "_fid2_errored_segments", "_fid2_errored_pulse", "_square",
    "_overlap_angles", "_rotation_tilt_coeff", "_DEGENERATE_ANGLE",
    "FidelityReport", "fidelity_report", "quad_coeff_single_loop", "quad_coeff_single_shot",
}


def test_package_exports_one_builder_per_scheme():
    exported = set(holopath.__all__)
    assert BUILDERS <= exported
    assert not exported & (ERRORED_VIEWS | DELETED)
    assert not [name for name in ERRORED_VIEWS | DELETED if hasattr(holopath, name)]


def test_errored_views_are_schemes_attributes_only():
    for name in ERRORED_VIEWS:
        assert callable(getattr(schemes, name))
        assert not [module.__name__ for module in MODULES if module is not schemes and hasattr(module, name)]


def test_one_second_order_model_per_scheme():
    # the second order is 1 - Q of the quadratic form: no Scheme field reads a builder's record, and each
    # builder returns the ideal and the errored gates only
    assert "second_order" not in {field.name for field in dataclasses.fields(analytic.Scheme)}
    for entry in analytic.SCHEMES.values():
        path = entry.random_path(np.random.default_rng(0))
        for error in (RabiError(0.01, 0.002), RabiError(np.array([0.01, -0.02]), 0.002)):
            assert len(entry.build(path, error)) == 2


def test_no_single_gate_ideal_and_no_test_only_helper_in_the_package():
    assert not [name for name in vars(schemes) if name.endswith("_ideal")]
    for module in MODULES:
        assert not {"coupling_generator", "bright_dark", "projector", *DELETED} & set(vars(module)), module.__name__


def test_every_command_solves_through_the_scheme_table():
    # one construction per scheme, reached through SCHEMES[name].solve; no command picks its own solver
    solvers = {"solve_two_loop", "solve_single_loop", "solve_single_shot"}
    for name, node in _functions(cli):
        assert not _reached_names(node) & solvers, (name, _reached_names(node) & solvers)
    assert pathfinder.TwoLoopSolution._fields == ("path",)
    assert "_DEGENERATE_ANGLE" in DELETED
