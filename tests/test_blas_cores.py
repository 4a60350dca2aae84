"""Golden report bytes under other OpenBLAS kernels.

numpy's OpenBLAS picks its BLAS and LAPACK kernels by CPU type, and
``OPENBLAS_CORETYPE`` forces one for a process. Each case reruns
``tests/test_golden.py`` in a child process with only the child's
``OPENBLAS_CORETYPE`` set, so the goldens must not depend on the kernels
of the machine that wrote them. Skipped when numpy's BLAS is not
OpenBLAS.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagrangia

TESTS = Path(__file__).parent
CORE_TYPES = ("Haswell", "Sandybridge", "SkylakeX")


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 has no dict mode
        return ""
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("core", CORE_TYPES)
def test_goldens_hold_under_core_type(core):
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    src = str(Path(lagrangia.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_golden.py")]
    run = subprocess.run(
        [sys.executable, *argv],
        cwd=TESTS.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
