"""Print digests of holopath's answers, and of one numpy matmul, under whatever BLAS kernel this process got.

Run as ``python tests/kernel_digests.py OUTDIR`` (with ``src`` on PYTHONPATH); the sweep files are
written into OUTDIR.  Each line is ``name digest``.  ``matmul_probe`` is a stacked complex
``np.matmul`` on fixed data: its bits change with the BLAS kernel, so two runs that differ in it
ran under different kernels.  test_blas_kernels.py runs this under several OPENBLAS_CORETYPE values.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from holopath import analytic, cli
from holopath.schemes import RabiError

#: (theta_gate in units of pi, axis) of each optimize and sweep run
TARGETS = [("0.25", "1,0,0"), ("0.37", "0.3,-1.2,0.8"), ("0.5", "0,0,1"), ("0.11", "-2,1,0.5")]


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def fidelity_chunks(rng):
    for name, scheme in analytic.SCHEMES.items():
        path = scheme.random_path(rng)
        for epsilon, kappa in rng.uniform(-0.1, 0.1, (20, 2)):
            yield np.array(analytic.fidelity_pair(name, path, RabiError(epsilon, kappa))).tobytes()
        grid = RabiError(rng.uniform(-0.1, 0.1, (9, 1)), rng.uniform(-0.1, 0.1, 7))
        yield np.array(analytic.fidelity_pair(name, path, grid)).tobytes()


def optimize_chunks():
    for theta_gate, axis in TARGETS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["optimize", f"--theta-gate={theta_gate}", f"--axis={axis}"]) == 0
        yield out.getvalue().encode()


def sweep_chunks(outdir: Path):
    for scheme, (theta_gate, axis) in zip(analytic.SCHEMES, TARGETS):
        out = outdir / f"sweep-{scheme}.json"
        argv = ["sweep", f"--scheme={scheme}", f"--theta-gate={theta_gate}", f"--axis={axis}",
                "--epsilon=-0.1,-0.03,0.0,0.02,0.07", "--kappa=-0.05,0.0,0.01,0.1", f"--out={out}"]
        assert cli.main(argv) == 0
        yield out.read_bytes()


def main(outdir: Path) -> None:
    rng = np.random.default_rng(20261020)
    probe = rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3))
    print("fidelity_pair", digest(fidelity_chunks(rng)))
    print("optimize", digest(optimize_chunks()))
    print("sweep", digest(sweep_chunks(outdir)))
    print("matmul_probe", digest([np.matmul(probe, probe).tobytes()]))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
