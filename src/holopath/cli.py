"""Command-line interface: figure1 | sweep | optimize | verify.

Angle-valued flags are given in units of pi (``--theta-gate 0.5`` means
pi/2) so the special angles are exact.  Options may also come from a plain
``key=value`` config file (``--config``).  A config key is the flag's name
with ``_`` for ``-`` (``theta_gate`` for ``--theta-gate``), converted and
checked against its choices by the same ``_OPTIONS`` entry that declares
the flag; explicit flags win over config values, and unknown config keys
are rejected.  Exit codes: 0 success, 2 usage error, 3 verification
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import analytic, pathfinder
from .pathfinder import PathConstraints
from .schemes import RabiError, TargetGate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IO = 4


class UsageError(argparse.ArgumentTypeError, ValueError):
    """A bad option or option value; when a flag's converter raises it, argparse shows its message."""


def _parse_axis(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--axis expects three comma-separated components, got {text!r}")
    try:
        axis = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"--axis components must be numbers: {exc}") from None
    norm = np.sqrt((axis * axis).sum())
    if norm == 0.0:
        raise UsageError("--axis must be a nonzero vector")
    return axis / norm


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated list of numbers: {exc}") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def load_config(path: str) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# the one declaration of each option, per command: name -> (converter from string,
# default or _REQUIRED, choices or None, help); it builds the flag and reads the config key
_REQUIRED = object()

_OPTIONS = {
    "figure1": {
        "samples": (int, 101, None, "number of rotation-angle samples (>= 2)"),
        "out": (str, _REQUIRED, None, "output CSV path"),
    },
    "sweep": {
        "scheme": (str, _REQUIRED, analytic.SCHEMES, None),
        "theta_gate": (float, _REQUIRED, None, "rotation angle in units of pi"),
        "axis": (_parse_axis, _REQUIRED, None, "rotation axis as x,y,z (normalized)"),
        "phi_b": (float, 1.0, None, "two-loop decomposition phase in units of pi"),
        "balanced": (_parse_bool, True, None, "balanced two-loop solution (cos t1 + cos t2 = 0)"),
        "epsilon": (_parse_float_list, _REQUIRED, None, "comma-separated average-error list"),
        "kappa": (_parse_float_list, [0.0], None, "comma-separated relative-difference list"),
        "out": (str, _REQUIRED, None, "output JSON path"),
    },
    "optimize": {
        "theta_gate": (float, _REQUIRED, None, "rotation angle in units of pi"),
        "axis": (_parse_axis, _REQUIRED, None, "rotation axis as x,y,z (normalized)"),
        "phi_b": (float, 1.0, None, "forced decomposition phase in units of pi"),
        "balanced": (_parse_bool, True, None, None),
        "orientation_sign": (int, 1, pathfinder.ORIENTATION_SIGNS, None),
        "out": (str, None, None, "output JSON path (default: stdout)"),
    },
    "verify": {"level": (str, "fast", ("fast", "full"), None), "seed": (int, None, None, None)},
}

_COMMAND_HELP = {
    "figure1": "write the f1/f2/f3 scheme-comparison curves as CSV",
    "sweep": "exact vs second-order fidelity over an error grid (JSON)",
    "optimize": "solve the robustness-optimal paths for a target gate (JSON)",
    "verify": "run the acceptance suite",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holopath",
        description="Robust-path analysis of holonomic one-qubit gates under Rabi amplitude errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for name, (convert, _, choices, help_text) in table.items():
            # every flag defaults to None, so _resolve_options can tell a given flag from an absent one
            if convert is _parse_bool:
                kind = {"action": argparse.BooleanOptionalAction}
            else:
                kind = {"type": convert, "choices": choices}
            p.add_argument("--" + name.replace("_", "-"), **kind, default=None, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file supplying defaults")
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI flags, config-file values and builtin defaults (in that order)."""
    table = _OPTIONS[args.command]
    config = load_config(args.config) if args.config else {}
    unknown = set(config) - set(table)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for name, (convert, default, choices, _) in table.items():
        value = getattr(args, name)
        if value is None and name in config:
            value = convert(config[name])
            if choices is not None and value not in choices:
                raise UsageError(f"expected one of {', '.join(map(str, choices))}, got {config[name]!r}")
        if value is None and default is _REQUIRED:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        resolved[name] = default if value is None else value
    return resolved


def _json_dump(payload, out: str | None) -> None:
    # strict JSON: a NaN or infinity raises ValueError before the file is opened
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_figure1(opts: dict) -> int:
    table = analytic.comparison_table(opts["samples"])
    with open(opts["out"], "w", encoding="ascii", newline="") as handle:
        handle.write("theta,f1,f2,f3\n")
        for row in table:
            handle.write(",".join(f"{value:.15g}" for value in row) + "\n")
    return EXIT_OK


def cmd_sweep(opts: dict) -> int:
    kappas = sorted(opts["kappa"])
    epsilons = sorted(opts["epsilon"])
    name = opts["scheme"]
    scheme = analytic.SCHEMES[name]
    target = TargetGate(opts["theta_gate"] * np.pi, opts["axis"])
    # --phi-b and --balanced pin the two-loop gauge; the other solvers ignore them
    path = scheme.solve(target, PathConstraints(force_phi_b=opts["phi_b"] * np.pi, force_balanced=opts["balanced"]))
    params = scheme.params(path)
    # the whole sorted grid, epsilon major, as one fidelity_pair call (which walks it in blocks)
    grid = RabiError(np.repeat(epsilons, len(kappas)), np.tile(kappas, len(epsilons)))
    exact, second_order = analytic.fidelity_pair(name, path, grid)
    values = {"fidelity_exact": exact, "fidelity_analytic2": second_order, "abs_gap": np.abs(exact - second_order)}
    _write_sweep(name, params, epsilons, kappas, values, opts["out"])
    return EXIT_OK


#: sweep records converted to text, and written, at a time by _write_sweep
_BLOCK_ROWS = 128


def _write_sweep(scheme: str, params: dict, epsilons, kappas, values: dict, out: str) -> None:
    """Write the epsilon-major grid's records in the bytes of ``json.dump(records, indent=2, sort_keys=True)``.

    ``values`` holds the fidelity_exact, fidelity_analytic2 and abs_gap columns, one entry per point
    of the outer product of ``epsilons`` and ``kappas``.  Each coordinate's text is made once per list
    position (never looked up by value: 0.0 == -0.0), and the ``params`` and ``scheme`` text shared by
    every record is encoded once; floats go through ``repr``, the ``float.__repr__`` that json calls.
    Records are joined and written ``_BLOCK_ROWS`` at a time.  Strict JSON: a NaN or infinity raises
    ValueError before the file is opened.
    """
    for name, column in {"epsilon": epsilons, "kappa": kappas, **values}.items():
        if not np.isfinite(column).all():
            raise ValueError(f"Out of range float values are not JSON compliant: {name} is not finite")
    params_text = json.dumps(params, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n    ")
    tail = f'{params_text},\n    "scheme": {json.dumps(scheme)}\n  }}'
    # the text of each list position, from Python floats (the repr of a numpy float is np.float64(...))
    texts = ([repr(x) for x in np.asarray(axis, dtype=float).tolist()] for axis in (epsilons, kappas))
    coordinates = itertools.product(*texts)
    columns = [values[name] for name in ("abs_gap", "fidelity_analytic2", "fidelity_exact")]
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        separator = "[\n"
        # one chunk of records as text at a time, one write each
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            chunk = [column[start : start + _BLOCK_ROWS].tolist() for column in columns]
            records = ",\n".join([
                f'  {{\n    "abs_gap": {g!r},\n    "epsilon": {e},\n    "fidelity_analytic2": {a!r},\n'
                f'    "fidelity_exact": {x!r},\n    "kappa": {k},\n    "params": {tail}'
                for (e, k), g, a, x in zip(itertools.islice(coordinates, _BLOCK_ROWS), *chunk)
            ])
            handle.write(separator + records)
            separator = ",\n"
        handle.write("[]\n" if separator == "[\n" else "\n]\n")


def cmd_optimize(opts: dict) -> int:
    target = TargetGate(opts["theta_gate"] * np.pi, opts["axis"])
    constraints = PathConstraints(
        force_phi_b=opts["phi_b"] * np.pi,
        force_balanced=opts["balanced"],
        orientation_sign=opts["orientation_sign"],
    )
    payload = {"target": {"theta_gate": target.theta_gate, "axis": list(target.axis)}, "quadratic_form": {}}
    for name, scheme in analytic.SCHEMES.items():
        key, path = name.replace("-", "_"), scheme.solve(target, constraints)
        payload[key] = scheme.params(path)
        # the printed path's own (a, b, c) of 1 - F = a eps^2 + 2 b eps kappa + c kappa^2
        payload["quadratic_form"][key] = dict(zip("abc", scheme.quadratic_form(path)))
    _json_dump(payload, opts["out"])
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    from . import verify

    seed = opts["seed"] if opts["seed"] is not None else verify.DEFAULT_SEED
    results = verify.run_suite(level=opts["level"], seed=seed)  # refuses a bad seed before anything is printed
    print(f"holopath acceptance suite: level={opts['level']} seed={seed}")
    for result in results:
        print(result.line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_VERIFY if failed else EXIT_OK


_COMMANDS = {
    "figure1": cmd_figure1,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _resolve_options(args)
        return _COMMANDS[args.command](opts)
    except ValueError as exc:
        print(f"holopath: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"holopath: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
