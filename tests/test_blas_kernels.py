"""The closed forms' answers do not depend on the kernel OpenBLAS picks for the CPU.

OPENBLAS_CORETYPE, read once per process, forces a kernel; kernel_digests.py prints digests of
fidelity_pair values, optimize output and sweep files, and of one stacked np.matmul as a probe.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: the kernel OpenBLAS picks for this CPU, the AVX2 kernel and the SSE3 one
KERNELS = (None, "Haswell", "Prescott")


def _env(kernel):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def test_answers_are_the_same_under_every_blas_kernel(tmp_path):
    runs = []
    for kernel in KERNELS:
        outdir = tmp_path / (kernel or "default")
        outdir.mkdir()
        runs.append(subprocess.Popen([sys.executable, str(ROOT / "tests" / "kernel_digests.py"), str(outdir)],
                                     env=_env(kernel), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    digests = []
    for kernel, run in zip(KERNELS, runs):
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 0, (kernel, stderr)
        digests.append(dict(line.split() for line in stdout.splitlines()))
    probes = {d.pop("matmul_probe") for d in digests}
    if len(probes) == 1:
        pytest.skip(f"this numpy's BLAS ignores OPENBLAS_CORETYPE: np.matmul gave the same bits under {KERNELS}")
    for kernel, d in zip(KERNELS[1:], digests[1:]):
        assert d == digests[0], (kernel, d, digests[0])
