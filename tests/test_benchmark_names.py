"""The names the benchmark reads from holopath still resolve.

``benchmarks/workloads.py`` reaches holopath through the module it is handed (``hp``), the aliases it
assigns from it (``s, o = hp.schemes, hp.oracle``) and ``from holopath... import`` lines, and
``benchmarks/tracer.py`` wraps the modules named in its ``LAYERS``.  Both files are parsed, never
imported, so a name deleted from the package fails here rather than as a failed benchmark run.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import holopath
import holopath.cli  # noqa: F401  (the benchmark imports it; the package does not)
from holopath import oracle, pathfinder, schemes

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
#: the workloads' names for the holopath module: their run functions' parameter and main's import
ROOT_NAMES = {"hp", "holopath"}


def _parse(name):
    return ast.parse((BENCHMARKS / name).read_text())


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"], or None when the innermost value is not a bare name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _workload_chains():
    """Every maximal attribute chain rooted at the holopath module or at an alias assigned from it."""
    tree = _parse("workloads.py")
    aliases = {name: [name] for name in ROOT_NAMES}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            targets, values = node.targets[0], node.value
            pairs = [(targets, values)]
            if isinstance(targets, ast.Tuple) and isinstance(values, ast.Tuple):
                pairs = zip(targets.elts, values.elts)
            for target, value in pairs:
                chain = _chain(value)
                if isinstance(target, ast.Name) and chain and chain[0] in ROOT_NAMES and len(chain) > 1:
                    aliases[target.id] = chain
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _chain(node)
            if chain and chain[0] in aliases:
                chains.add(tuple(aliases[chain[0]] + chain[1:]))
    return aliases, chains


def _resolve(chain):
    obj = holopath
    for attr in chain[1:]:
        obj = getattr(obj, attr)
    return obj


def test_workload_attribute_chains_resolve():
    aliases, chains = _workload_chains()
    assert aliases["s"] == ["hp", "schemes"] and aliases["o"] == ["hp", "oracle"]
    # the chains each workload is known to read, so that a parse that finds nothing fails
    assert {("hp", "cli", "main"), ("hp", "analytic", "TargetGate"), ("hp", "schemes", "two_loop_errored_relative"),
            ("hp", "oracle", "propagate")} <= chains
    missing = []
    for chain in sorted(chains):
        try:
            _resolve(chain)
        except AttributeError:
            missing.append(".".join(chain))
    assert not missing


def test_workload_imports_from_holopath_resolve():
    imports = [node for node in ast.walk(_parse("workloads.py"))
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "holopath"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        assert not [alias.name for alias in node.names if not hasattr(module, alias.name)], node.module


def test_workload_call_results_have_the_attributes_read():
    # survey-schemes reads solve_two_loop(target).path; oracle-crosscheck reads each schedule's segments
    target = schemes.TargetGate(0.7, np.array([1.0, 1.0, 1.0]))
    two_loop = pathfinder.solve_two_loop(target).path
    assert isinstance(two_loop, schemes.TwoLoopPath)
    error = schemes.RabiError(0.01, 0.002)
    paths = {
        oracle.schedule_for_two_loop: two_loop,
        oracle.schedule_for_single_loop: pathfinder.solve_single_loop(target),
        oracle.schedule_for_single_shot: pathfinder.solve_single_shot(target),
    }
    for schedule_for, path in paths.items():
        for shape in oracle.SHAPES:
            segments = schedule_for(path, error, shape).segments
            assert segments and all(isinstance(seg, oracle.ScheduleSegment) for seg in segments)


def test_tracer_layers_import():
    assignments = [node for node in _parse("tracer.py").body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    assert len(assignments) == 1
    layers = ast.literal_eval(assignments[0].value)
    assert layers
    for layer in layers:
        importlib.import_module(f"holopath.{layer}")
