"""Shared fixtures."""

import pytest


@pytest.fixture
def blas_spread():
    """Every loaded OpenBLAS at a distinct count above one (2, 3, …), the
    prior counts restored afterwards; yields ``{path: count}``.  Skips
    where no controllable OpenBLAS is loaded (MKL, Accelerate, non-Linux)."""
    import scipy.linalg  # noqa: F401  (maps SciPy's own OpenBLAS, if any)

    from repro.utils.blas import blas_pools

    pools = blas_pools()
    if not pools:
        pytest.skip("no controllable OpenBLAS loaded")
    prior = {p.path: p.get_threads() for p in pools}
    try:
        for i, p in enumerate(pools):
            p.set_threads(2 + i)
        yield {p.path: p.get_threads() for p in pools}
    finally:
        for p in pools:
            p.set_threads(prior[p.path])
