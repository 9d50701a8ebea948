import os
import subprocess
import sys

import numpy as np
import pytest

from condgrad import _kernels

pytestmark = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


class TestImplementationParity:
    def test_curvature_scalars(self):
        for t in (-0.5, -1e-5, 0.0, 1e-6, 9e-5, 2e-4, 0.5, 3.0):
            assert _kernels.omega_nb(t) == pytest.approx(_kernels.omega_np(t), rel=1e-12, abs=1e-18)
        for t in (-3.0, -1e-5, 0.0, 1e-6, 9e-5, 2e-4, 0.5, 0.999):
            assert _kernels.omega_star_nb(t) == pytest.approx(
                _kernels.omega_star_np(t), rel=1e-12, abs=1e-18
            )

    def test_lloo_core(self):
        gen = np.random.default_rng(12)
        for n in (2, 3, 5, 9):
            for _ in range(30):
                e = -np.log(gen.uniform(1e-9, 1, size=n))
                x = e / e.sum()
                d = 10.0 ** gen.uniform(-3, 0.5)
                c = gen.normal(size=n)
                a = _kernels.lloo_simplex_core_nb(x, d, c)
                b = _kernels.lloo_simplex_core_np(x, d, c)
                assert np.allclose(a, b, atol=1e-14)


class TestEnvFlagSelection:
    def test_default_uses_numba(self):
        code = "from condgrad import _kernels; print(_kernels.USING_NUMBA)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "CONDGRAD_NUMBA": "1"},
        )
        assert out.stdout.strip() == "True"

    def test_flag_forces_numpy_path(self):
        code = (
            "from condgrad import _kernels; import numpy as np;"
            "print(_kernels.USING_NUMBA,"
            " _kernels.omega is _kernels.omega_np)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "CONDGRAD_NUMBA": "0"},
        )
        assert out.stdout.strip() == "False True"
