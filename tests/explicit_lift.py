"""The explicit circle lift: a 2-D torus crossed with a circle of grid nodes.

The package evaluates the lift on the 2-D fiber itself
(``geometry.circle_lift_laplacian``); the tests keep this cross product
as the oracle that it replaces, and as a source of genuine 3-D fibers.
"""

import math

import numpy as np

from pmclab import FiberGrid, GridKind, GridMismatchError, MetricField, ScalarField


def lift_to_circle(grid2d: FiberGrid, metric: MetricField, n_circle: int):
    """Cross a 2-D torus with a unit circle: block metric ``sigma + d theta^2``.

    Returns the 3-D grid with ``n_circle`` nodes on the circle, its
    metric, and a map sending a 2-D scalar field (a warping, a height) to
    its circle-invariant lift.
    """
    if grid2d.kind is not GridKind.torus2d:
        raise GridMismatchError("only 2-D torus fibers can be crossed with a circle")
    metric.grid.require_same(grid2d, "lift_to_circle")
    n_circle = int(n_circle)
    grid3 = FiberGrid(GridKind.torus3d_lifted, grid2d.dims + (n_circle,),
                      grid2d.extents + (2.0 * math.pi,))
    mat3 = np.zeros(grid3.shape + (3, 3))
    mat3[..., :2, :2] = metric.mat[:, :, None, :, :]
    mat3[..., 2, 2] = 1.0
    metric3 = MetricField(grid3, mat3)

    def lift_map(f: ScalarField) -> ScalarField:
        grid2d.require_same(f.grid, "lift_map")
        return ScalarField(grid3, np.repeat(f.values[:, :, None], n_circle, axis=2))

    return grid3, metric3, lift_map
