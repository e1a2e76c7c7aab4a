import argparse
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holopath import analytic, cli
from holopath.schemes import LoopParams, RabiError, SingleLoopPath, SingleShotPath, TwoLoopPath


def run(args):
    return cli.main([str(a) for a in args])


# -------------------------------------------------------------------- figure1


def test_figure1_two_samples_endpoints(tmp_path):
    out = tmp_path / "fig.csv"
    assert run(["figure1", "--samples", 2, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,f1,f2,f3"
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[2].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0]
    assert last[0] == pytest.approx(np.pi / 2, abs=1e-14)
    assert last[1] == pytest.approx(2 - np.sqrt(2), abs=1e-12)
    assert last[2] == pytest.approx(1.0, abs=1e-12)
    assert last[3] == pytest.approx(1.0, abs=1e-12)


def test_figure1_monotone_and_dominant(tmp_path):
    out = tmp_path / "fig.csv"
    assert run(["figure1", "--samples", 101, "--out", out]) == 0
    data = np.genfromtxt(out, delimiter=",", skip_header=1)
    theta, c1, c2, c3 = data.T
    assert np.all(np.diff(c1) >= 0) and np.all(np.diff(c2) >= 0) and np.all(np.diff(c3) >= 0)
    inner = theta > 0
    assert np.all(c1[inner] < c2[inner]) and np.all(c1[inner] < c3[inner])


def test_figure1_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["figure1", "--samples", 33, "--out", a])
    run(["figure1", "--samples", 33, "--out", b])
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_figure1_bad_samples(tmp_path, capsys):
    # the library's rule and text, mapped to exit 2 by main; no file is written
    out = tmp_path / "x.csv"
    assert run(["figure1", "--samples", 1, "--out", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "holopath: error: samples must be >= 2\n"


def test_figure1_unwritable_path(tmp_path):
    assert run(["figure1", "--samples", 5, "--out", tmp_path / "no_dir" / "x.csv"]) == 4


def test_figure1_missing_out():
    assert run(["figure1", "--samples", 5]) == 2


# ---------------------------------------------------------------------- sweep


def test_sweep_two_loop_fixture(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(
        ["sweep", "--scheme", "two-loop", "--theta-gate", 0.5, "--axis", "0,0,1",
         "--epsilon", "0,0.001", "--out", out]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 2
    zero, small = records
    assert zero["epsilon"] == 0.0
    assert zero["fidelity_exact"] == pytest.approx(1.0, abs=1e-12)
    assert small["fidelity_exact"] == pytest.approx(1 - 1.9272e-6, abs=1e-9)
    assert small["abs_gap"] <= 1e-9
    assert small["params"]["phi_b"] == pytest.approx(np.pi, abs=1e-12)


def test_sweep_record_count_and_order(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(
        ["sweep", "--scheme", "two-loop", "--theta-gate", 0.25, "--axis", "1,0,0",
         "--epsilon", "0.01,-0.01,0.001", "--kappa", "0,0.005", "--out", out]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 6
    keys = [(r["epsilon"], r["kappa"]) for r in records]
    assert keys == sorted(keys)


def test_sweep_kappa_accepted_for_single_loop(tmp_path):
    out = tmp_path / "x.json"
    code = run(
        ["sweep", "--scheme", "single-loop", "--theta-gate", 0.25, "--axis", "1,0,0",
         "--epsilon", "0.01", "--kappa", "0.001", "--out", out]
    )
    assert code == 0
    (record,) = json.loads(out.read_text())
    assert (record["epsilon"], record["kappa"]) == (0.01, 0.001)
    assert 0.0 < record["fidelity_exact"] < 1.0


def test_sweep_single_shot(tmp_path):
    out = tmp_path / "ss.json"
    code = run(
        ["sweep", "--scheme", "single-shot", "--theta-gate", 0.25, "--axis", "1,0,0",
         "--epsilon", "0.001", "--out", out]
    )
    assert code == 0
    (record,) = json.loads(out.read_text())
    assert record["params"]["gamma"] == pytest.approx(np.pi / 6, abs=1e-12)
    assert record["fidelity_exact"] == pytest.approx(1 - 1.8506e-6, abs=1e-9)


@pytest.mark.parametrize(
    "scheme, grid",
    [("two-loop", ["--epsilon="]), ("single-loop", ["--epsilon="]), ("single-shot", ["--epsilon="]),
     ("two-loop", ["--epsilon", "0.01", "--kappa="])],
)
def test_sweep_empty_grid_writes_empty_list(tmp_path, scheme, grid):
    out = tmp_path / "empty.json"
    code = run(["sweep", "--scheme", scheme, "--theta-gate", 0.25, "--axis", "1,0,0", *grid, "--out", out])
    assert code == 0
    assert out.read_text() == "[]\n"


@pytest.mark.parametrize(
    "scheme, grid, message",
    [
        ("two-loop", ["--epsilon=0.01,0.2"], "|epsilon| must be <= 0.1, got 0.2"),
        ("single-loop", ["--epsilon=0.01,-0.3"], "|epsilon| must be <= 0.1, got -0.3"),
        ("two-loop", ["--epsilon=nan"], "|epsilon| must be <= 0.1, got nan"),
        ("two-loop", ["--epsilon=0.01", "--kappa=0,0.11"], "|kappa| must be <= 0.1, got 0.11"),
        # the first failing point of the sorted grid: (0.01, 0.5) before (0.2, 0.5)
        ("two-loop", ["--epsilon=0.2,0.01", "--kappa=0.5"], "|kappa| must be <= 0.1, got 0.5"),
    ],
)
def test_sweep_grid_value_out_of_range(tmp_path, capsys, scheme, grid, message):
    out = tmp_path / "bad.json"
    code = run(["sweep", "--scheme", scheme, "--theta-gate", 0.25, "--axis", "1,0,0", *grid, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == f"holopath: error: {message}\n"
    assert not out.exists()


SWEEP_EPSILONS = "0.05,-0.05,0.0071,0.0,-0.003"
# the north star's boundary inputs: theta_gate 0 and pi/2, axis +/-z, both errors at the cap |0.1|
BOUNDARY_SWEEPS = [
    pytest.param(scheme, "-0.1,0,0.1", theta_gate, axis, "-0.1,-0.0,0.1", id=f"{scheme}-{theta_gate}-{axis}-cap")
    for scheme in analytic.SCHEMES
    for theta_gate in (0, 0.5)
    for axis in ("0,0,1", "0,0,-1")
]


@pytest.mark.parametrize(
    "scheme, kappa, theta_gate, axis, epsilon",
    [
        # a general target and axis, named by scheme and kappa
        pytest.param(scheme, kappa, 0.3, "-1,2,0.5", SWEEP_EPSILONS, id=f"{scheme}-{kappa}")
        for scheme, kappa in [("two-loop", "-0.02,0,0.013"), ("single-loop", "0"), ("single-shot", "0"),
                              ("single-loop", "-0.01,0,0.01"), ("single-shot", "-0.01,0,0.01")]
    ]
    + BOUNDARY_SWEEPS,
)
def test_sweep_records_equal_per_point_fidelity_pair(tmp_path, scheme, kappa, theta_gate, axis, epsilon):
    # the grid evaluation against the loop over its points, value for value, in json.dumps's bytes
    from holopath.schemes import LoopParams, RabiError, SingleLoopPath, SingleShotPath, TwoLoopPath

    out = tmp_path / "sweep.json"
    code = run(["sweep", "--scheme", scheme, "--theta-gate", theta_gate, f"--axis={axis}",
                f"--epsilon={epsilon}", f"--kappa={kappa}", "--out", out])
    assert code == 0
    raw = out.read_bytes()
    records = json.loads(raw)
    assert raw == (json.dumps(records, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    params = records[0]["params"]
    if scheme == "two-loop":
        path = TwoLoopPath(*(LoopParams(*(params[f"{k}{i}"] for k in ("theta", "psi", "phi"))) for i in (1, 2)))
    else:
        path = (SingleLoopPath if scheme == "single-loop" else SingleShotPath)(**params)
    grid = [(e, k) for e in sorted(map(float, epsilon.split(","))) for k in sorted(map(float, kappa.split(",")))]
    assert [(r["epsilon"], r["kappa"]) for r in records] == grid
    for record in records:
        assert 0.0 <= record["fidelity_exact"] <= 1.0 and 0.0 <= record["fidelity_analytic2"] <= 1.0
        exact, second_order = analytic.fidelity_pair(scheme, path, RabiError(record["epsilon"], record["kappa"]))
        assert (record["fidelity_exact"], record["fidelity_analytic2"]) == (exact, second_order)
        assert record["abs_gap"] == abs(exact - second_order)


def reference_sweep_bytes(scheme, params, epsilons, kappas, values):
    # the records and the json.dump call that sweep wrote before it streamed its records
    grid = [(e, k) for e in epsilons for k in kappas]
    rows = zip(*(column.tolist() for column in values.values()))
    records = [
        {"scheme": scheme, "params": params, "epsilon": e, "kappa": k, **dict(zip(values, row))}
        for (e, k), row in zip(grid, rows, strict=True)
    ]
    buffer = io.StringIO()
    json.dump(records, buffer, indent=2, sort_keys=True, allow_nan=False)
    return (buffer.getvalue() + "\n").encode()


VALUE_COLUMNS = ("fidelity_exact", "fidelity_analytic2", "abs_gap")
PARAM_KEYS = {
    "two-loop": ("theta1", "psi1", "phi1", "theta2", "psi2", "phi2", "eta", "phi_b", "cos_theta_sum"),
    "single-loop": ("theta", "psi", "phi", "phi_prime"),
    "single-shot": ("alpha", "beta0", "beta1", "gamma"),
}
special_floats = st.sampled_from([-0.1, -0.02, -0.0, 0.0, 5e-324, 1e-300, 1e16, 0.1])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | special_floats


@st.composite
def sweep_payloads(draw):
    scheme = draw(st.sampled_from(tuple(analytic.SCHEMES)))
    params = {key: draw(finite_floats) for key in PARAM_KEYS[scheme]}
    if scheme == "two-loop" and draw(st.booleans()):
        params["phi_b"] = None
    # coordinates may repeat, as a sweep's own lists may
    epsilons, kappas = (draw(st.lists(finite_floats, max_size=4)) for _ in range(2))
    size = len(epsilons) * len(kappas)
    values = {name: np.array(draw(st.lists(finite_floats, min_size=size, max_size=size))) for name in VALUE_COLUMNS}
    return scheme, params, epsilons, kappas, values


def write_sweep(tmp_path, payload):
    out = tmp_path / "sweep.json"
    cli._write_sweep(*payload, str(out))
    return out.read_bytes()


@settings(max_examples=200, deadline=None)
@given(payload=sweep_payloads())
@example(payload=("two-loop", dict.fromkeys(PARAM_KEYS["two-loop"], 0.5) | {"phi_b": None},
                  [-0.0, 0.0, 5e-324, 1e16], [1e16, 0.0, -0.0, 5e-324],
                  dict(zip(VALUE_COLUMNS, np.array([[-0.0, 5e-324, 1e-300, 1e16] * 4] * 3)))))
@example(payload=("single-shot", dict.fromkeys(PARAM_KEYS["single-shot"], -0.0), [0.01], [],
                  {name: np.array([]) for name in VALUE_COLUMNS}))
def test_sweep_writer_bytes_equal_json_dump(tmp_path_factory, payload):
    assert write_sweep(tmp_path_factory.mktemp("sweep"), payload) == reference_sweep_bytes(*payload)


def test_sweep_writer_blocks_of_rows_equal_json_dump(tmp_path, monkeypatch, rng):
    # a 3x4 grid in chunks of five records: the chunk boundaries fall inside the second and third epsilon rows
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)
    payload = ("single-loop", dict.fromkeys(PARAM_KEYS["single-loop"], 0.25), [-0.01, 0.0, 0.02],
               [-0.0, 0.0, 0.005, 0.1], {name: rng.uniform(-1.0, 1.0, 12) for name in VALUE_COLUMNS})
    assert write_sweep(tmp_path, payload) == reference_sweep_bytes(*payload)


@pytest.mark.parametrize("size", [0, 1, 127, 128, 129, 300])
def test_sweep_writer_writes_whole_chunks(tmp_path, monkeypatch, size):
    # at most one write per chunk of _BLOCK_ROWS records, plus the opening and the closing bracket
    writes = []

    def counting_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        write = handle.write
        handle.write = lambda text: writes.append(text) or write(text)
        return handle

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    payload = ("two-loop", dict.fromkeys(PARAM_KEYS["two-loop"], 0.5), [0.01] * size, [0.0],
               {name: np.full(size, 0.5) for name in VALUE_COLUMNS})
    assert write_sweep(tmp_path, payload) == reference_sweep_bytes(*payload)
    assert 1 <= len(writes) <= math.ceil(size / cli._BLOCK_ROWS) + 2


@pytest.mark.parametrize("column, value", [("fidelity_exact", math.nan), ("fidelity_analytic2", math.inf)])
def test_sweep_rejects_non_finite_column_and_writes_nothing(tmp_path, capsys, monkeypatch, column, value):
    real_pair = analytic.fidelity_pair

    def corrupted_pair(scheme, path, error):
        pair = dict(zip(("fidelity_exact", "fidelity_analytic2"), real_pair(scheme, path, error)))
        pair[column] = pair[column].copy()
        pair[column][-1] = value
        return pair["fidelity_exact"], pair["fidelity_analytic2"]

    monkeypatch.setattr(analytic, "fidelity_pair", corrupted_pair)
    out = tmp_path / "bad.json"
    code = run(["sweep", "--scheme", "two-loop", "--theta-gate", 0.25, "--axis", "1,0,0",
                "--epsilon=0.01,0.02", "--out", out])
    assert code == 2
    assert capsys.readouterr().err == (
        f"holopath: error: Out of range float values are not JSON compliant: {column} is not finite\n"
    )
    assert not out.exists()


def test_sweep_rejects_non_finite_params_and_writes_nothing(tmp_path, monkeypatch):
    two_loop = dataclasses.replace(analytic.SCHEMES["two-loop"], params=lambda path: {"eta": math.nan})
    monkeypatch.setitem(analytic.SCHEMES, "two-loop", two_loop)
    out = tmp_path / "bad.json"
    code = run(["sweep", "--scheme", "two-loop", "--theta-gate", 0.25, "--axis", "1,0,0",
                "--epsilon=0.01", "--out", out])
    assert code == 2
    assert not out.exists()


# ------------------------------------------------------------------- optimize


def test_optimize_quarter_pi_z_axis(tmp_path, capsys):
    assert run(["optimize", "--theta-gate", 0.5, "--axis", "0,0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    two = payload["two_loop"]
    assert two["theta1"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert two["theta2"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert two["phi_b"] == pytest.approx(np.pi, abs=1e-12)
    assert abs(two["cos_theta_sum"]) <= 1e-12
    forms = payload["quadratic_form"]
    assert forms["two_loop"]["a"] == pytest.approx(1.9272, abs=1e-4)
    assert forms["single_loop"]["a"] == pytest.approx(3.2899, abs=1e-4)
    assert forms["single_shot"]["a"] == pytest.approx(3.2899, abs=1e-4)


@pytest.mark.parametrize("balanced", ["--balanced", "--no-balanced"])
def test_optimize_reports_each_printed_paths_own_quadratic_form(capsys, balanced):
    # at phi_b = 0 the two-loop a is not the paper's f1 pi^2 / 3: every reported (a, b, c) is that of the
    # path printed beside it, as the exact probe coefficients along eps, kappa and eps = kappa read it
    assert run(["optimize", "--theta-gate", 0.25, "--axis", "0.3,-0.5,0.8", "--phi-b", 0, balanced]) == 0
    payload = json.loads(capsys.readouterr().out)
    two = payload["two_loop"]
    paths = {
        "two-loop": TwoLoopPath(*(LoopParams(two[f"theta{k}"], two[f"psi{k}"], two[f"phi{k}"]) for k in (1, 2))),
        "single-loop": SingleLoopPath(**payload["single_loop"]),
        "single-shot": SingleShotPath(**payload["single_shot"]),
    }
    for name, path in paths.items():
        form = payload["quadratic_form"][name.replace("-", "_")]
        for u, v in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            probe = analytic.probe_quadratic_coefficient(name, path, (u, v))
            reported = (form["a"] * u * u + 2.0 * form["b"] * u * v + form["c"] * v * v) / (u * u + v * v)
            assert reported == pytest.approx(probe, rel=1e-6), (name, u, v)
    assert (abs(payload["quadratic_form"]["two_loop"]["b"]) <= 1e-12) == (balanced == "--balanced")


def test_optimize_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["optimize", "--theta-gate", 0.3, "--axis", "0.2,-0.5,0.6", "--out", a])
    run(["optimize", "--theta-gate", 0.3, "--axis", "0.2,-0.5,0.6", "--out", b])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("phi_b, a", [(1, 0.0), (0, 4 * np.pi**2 / 3)], ids=["phi_b-pi", "phi_b-0"])
def test_optimize_identity_takes_the_general_construction(capsys, phi_b, a):
    # theta_gate = 0 is no special case: two loops that undo each other at phi_b = pi, and --phi-b still applies
    assert run(["optimize", "--theta-gate", 0, "--axis", "0,0,1", "--phi-b", phi_b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"target", "quadratic_form", "two_loop", "single_loop", "single_shot"}
    assert "degenerate" not in payload["two_loop"]
    assert payload["two_loop"]["phi_b"] == pytest.approx(phi_b * np.pi, abs=1e-12)
    form = payload["quadratic_form"]["two_loop"]
    assert (form["a"], form["b"], form["c"]) == pytest.approx((a, 0.0, 0.0), rel=1e-12, abs=1e-15)


def test_optimize_bad_axis():
    assert run(["optimize", "--theta-gate", 0.5, "--axis", "0,0"]) == 2
    assert run(["optimize", "--theta-gate", 0.5, "--axis", "0,0,0"]) == 2


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--axis=0,0", "--axis expects three comma-separated components, got '0,0'"),
        ("--axis=0,0,0", "--axis must be a nonzero vector"),
        ("--epsilon=abc", "expected a comma-separated list of numbers: could not convert string to float: 'abc'"),
    ],
    ids=["axis-two-components", "axis-zero", "epsilon-not-a-number"],
)
def test_flag_error_shows_converter_message(capsys, flag, message):
    # the same text as for the value given in a config file, not argparse's generic "invalid value"
    assert run(["sweep", flag]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag.split('=')[0]}: {message}\n")


def test_json_output_rejects_nan_and_writes_nothing(tmp_path):
    out = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        cli._json_dump({"fidelity_exact": float("nan")}, str(out))
    assert not out.exists()


# --------------------------------------------------------------------- config


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# figure1 settings\nsamples = 11\nout = {}\n".format(tmp_path / "cfg.csv"))
    assert run(["figure1", "--config", cfg]) == 0
    assert (tmp_path / "cfg.csv").exists()
    lines = (tmp_path / "cfg.csv").read_text().splitlines()
    assert len(lines) == 12


def test_config_flag_overrides_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"samples=11\nout={tmp_path / 'a.csv'}\n")
    assert run(["figure1", "--samples", 3, "--config", cfg]) == 0
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 4


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=11\nbogus=1\n")
    assert run(["figure1", "--config", cfg, "--out", tmp_path / "x.csv"]) == 2


def test_config_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples 11\n")
    assert run(["figure1", "--config", cfg, "--out", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize(
    "command, line",
    [("sweep", "scheme=bogus"), ("optimize", "orientation_sign=2"), ("verify", "level=bogus")],
)
def test_config_choices_checked_like_flags(tmp_path, capsys, command, line):
    out = tmp_path / "out.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    args = {
        # an empty error grid reaches no scheme dispatch that could reject the name
        "sweep": ["--theta-gate", 0.5, "--axis", "0,0,1", "--epsilon=", "--out", out],
        "optimize": ["--theta-gate", 0.5, "--axis", "0,0,1", "--out", out],
        "verify": [],
    }[command]
    assert run([command, "--config", cfg, *args]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_config_orientation_sign_accepted(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orientation_sign=-1\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["optimize", "--theta-gate", 0.3, "--axis", "0.2,-0.5,0.6", "--config", cfg, "--out", a]) == 0
    assert run(["optimize", "--theta-gate", 0.3, "--axis", "0.2,-0.5,0.6", "--orientation-sign", -1, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


# one sample value per option of every command, none of them the default
OPTION_SAMPLES = {
    "figure1": {"samples": "7", "out": "curves.csv"},
    "sweep": {
        "scheme": "single-shot", "theta_gate": "0.25", "axis": "1,-2,0.5", "phi_b": "0.3",
        "balanced": "false", "epsilon": "0.01,-0.02", "kappa": "-0.0,0.005", "out": "sweep.json",
    },
    "optimize": {
        "theta_gate": "-0.5", "axis": "0,0,-1", "phi_b": "0.5", "balanced": "false",
        "orientation_sign": "-1", "out": "paths.json",
    },
    "verify": {"level": "full", "seed": "7"},
}


def test_option_samples_cover_every_option():
    assert {c: list(t) for c, t in OPTION_SAMPLES.items()} == {c: list(t) for c, t in cli._OPTIONS.items()}


@pytest.mark.parametrize("command, name", [(c, n) for c, table in OPTION_SAMPLES.items() for n in table])
def test_flag_and_config_key_resolve_alike(tmp_path, command, name):
    # the other options come from the config file in both forms; only `name` moves
    samples = OPTION_SAMPLES[command]
    others = "".join(f"{key}={text}\n" for key, text in samples.items() if key != name)
    flag_cfg, config_cfg = tmp_path / "flag.cfg", tmp_path / "config.cfg"
    flag_cfg.write_text(others)
    config_cfg.write_text(others + f"{name}={samples[name]}\n")
    if cli._OPTIONS[command][name][0] is cli._parse_bool:
        flag = ["--balanced" if samples[name] == "true" else "--no-balanced"]
    else:
        flag = [f"--{name.replace('_', '-')}={samples[name]}"]
    parser = cli.build_parser()
    by_flag = cli._resolve_options(parser.parse_args([command, "--config", str(flag_cfg), *flag]))
    by_config = cli._resolve_options(parser.parse_args([command, "--config", str(config_cfg)]))
    np.testing.assert_equal(by_flag, by_config)
    assert not np.array_equal(by_config[name], cli._OPTIONS[command][name][1])


def test_each_flag_is_declared_by_the_option_table():
    # a flag added outside _OPTIONS, or a config key with no flag, fails here
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(cli._OPTIONS)
    for command, subparser in subparsers.choices.items():
        table = cli._OPTIONS[command]
        actions = {action.dest: action for action in subparser._actions}
        assert list(actions) == ["help", *table, "config"]
        assert actions["help"].option_strings == ["-h", "--help"]
        assert actions["config"].option_strings == ["--config"]
        for name, (convert, _, choices, _) in table.items():
            flag = "--" + name.replace("_", "-")
            negated = ["--no-" + flag[2:]] if convert is cli._parse_bool else []
            assert actions[name].option_strings == [flag, *negated]
            # the flag's choices are the ones a config value is checked against
            assert actions[name].choices == choices


def test_unknown_command_usage_error():
    assert run(["frobnicate"]) == 2


# --------------------------------------------------------------------- verify


def test_verify_negative_control_corrupted_f1(monkeypatch, capsys):
    # corrupting f1 must break the dominance criterion and exit nonzero
    monkeypatch.setattr(analytic, "f1", lambda theta: 3.0 * np.asarray(theta, dtype=float) ** 0)
    code = run(["verify", "--level", "fast"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out
    assert "criterion-1 figure1" in out
    assert "dominance" in out


def test_verify_reports_all_criteria_names(monkeypatch, capsys):
    # stub out the heavy checks: this test only exercises the reporting shell
    from holopath import verify

    def fake_suite(level="fast", seed=0):
        return [verify.CheckResult(f"criterion-{i}", [verify.Gate("stub", 0.0, 0.0)], 0.0) for i in range(1, 9)]

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "8/8 criteria passed" in out


def test_verify_a_check_that_raises_fails_its_criterion_and_the_rest_still_run(monkeypatch, capsys):
    # stubbed checks only: a raising check reads FAIL with the exception as its note, and verify exits 3, not 2
    from holopath import verify

    def passing(level, seed):
        return verify.CheckResult("criterion-1 stub", [verify.Gate("stub", 0.0, 0.0)], 0.0)

    def raising(level, seed):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(verify, "ALL_CHECKS", (passing, raising, passing))
    results = verify.run_suite(level="fast", seed=0)
    assert [r.passed for r in results] == [True, False, True]
    assert (results[1].name, results[1].gates) == ("criterion-2 raising", [])
    assert results[1].note == "raised LinAlgError: eigh did not converge"
    assert run(["verify"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[2].startswith("[FAIL] criterion-2 raising: raised LinAlgError: eigh did not converge [")
    assert [line[:6] for line in lines[1:4]] == ["[PASS]", "[FAIL]", "[PASS]"]
    assert lines[4] == "2/3 criteria passed"
    assert err == ""


def test_verify_refuses_a_negative_seed_before_any_check_runs(monkeypatch, capsys):
    # the checks seed numpy's default_rng(seed + k), which raises for seed + k < 0: -1 is refused up front
    from holopath import verify

    def never(level, seed):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "ALL_CHECKS", (never,))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -100"):
        verify.run_suite(level="fast", seed=-100)
    assert run(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "holopath: error: seed must be a non-negative integer, got -1\n"


def test_verify_writes_nothing_on_stdout_for_a_negative_seed(capsys):
    # like every other usage error: the header is printed only once the suite has run
    assert run(["verify", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "holopath: error: seed must be a non-negative integer, got -1\n"
