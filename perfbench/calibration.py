"""A fixed reference kernel timed between ops, to take host speed drift out of op times.

On a shared 2-vCPU host the same op's wall time drifts by 25% or more
from one minute to the next, and the run-to-run spread of a 25-second
run's median follows that drift.  The kernel below does no pmclab work.
It mixes the kinds of work the solvers spend their time on:

- numpy calls on 64x64 arrays, where per-call overhead dominates, with the
  finiteness check and read-only copy every pmclab field makes;
- ``math.fsum`` over a field's values, as ``geometry.integrate`` does;
- interpreter-bound Python;
- BLAS level-2 products on an 8192 x 60 block, like GMRES orthogonalization.

It drifts with the host, so the ratio of a run's median op time to the
median kernel time moves less than either does alone.  Scaled by
``REFERENCE_S``, the ratio reads as op seconds on a host where one pass
of the kernel takes that long.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the median time of one pass (0.09-0.12 s) on the 2-vCPU Xeon host the
# baseline was recorded on
REFERENCE_S = 0.1


class Calibration:
    """Inputs of the reference kernel, built once per run from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self.metric = rng.uniform(0.5, 1.5, (64, 64, 2, 2))
        self.partials = rng.standard_normal((64, 64, 2))
        self.field = rng.standard_normal((64, 64))
        self.basis = rng.standard_normal((8192, 60))

    def seconds(self) -> float:
        """Wall seconds of one pass of the kernel."""
        start = time.perf_counter()
        for _ in range(150):
            contra = np.einsum("...ij,...j->...i", self.metric, self.partials)
            tilt = np.sqrt(1.0 + np.abs(np.einsum("...i,...i->...", self.partials, contra)))
            flux = np.array((np.roll(self.field, 1, 0) - np.roll(self.field, -1, 0)) * 0.5 / tilt)
            bool(np.isfinite(flux).all())
            flux.setflags(write=False)
            float(np.abs(flux).max())
        for _ in range(25):
            math.fsum((1.0001 * self.field).ravel().tolist())
        counts: dict[int, int] = {}
        for i in range(150_000):
            counts[i & 255] = counts.get(i & 255, 0) + i % 7
        x = self.basis[:, 0].copy()
        for _ in range(100):
            x = self.basis @ (self.basis.T @ x)
            x /= np.linalg.norm(x)
        return time.perf_counter() - start
