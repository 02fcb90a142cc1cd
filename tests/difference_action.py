"""The Jacobian action by central differences of the residual.

The package assembles the exact Jacobian (``solver._Problem.jacobian``);
the tests keep this matrix-free action as the oracle that it is checked
against, on a problem's packing and guarded residual.
"""

import numpy as np

# Central differencing balances truncation against rounding near the cube
# root of machine epsilon; this keeps the Jacobian action accurate enough
# that its own error stays below the O(eps^2) comparisons made against it.
_FD_STEP = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)


def jacobian_action(prob, u_arr: np.ndarray, dof: np.ndarray) -> np.ndarray:
    """Central difference of ``prob``'s packed residual at ``u_arr`` along ``dof``, unprojected."""
    vn = float(np.abs(dof).max()) if dof.size else 0.0
    if vn == 0.0:
        return np.zeros_like(dof)
    eps = _FD_STEP * (1.0 + float(np.abs(u_arr).max())) / max(vn, 1e-30)
    step = eps * prob.scatter(dof)
    rp = prob.residual_full(u_arr + step)
    rm = prob.residual_full(u_arr - step)
    if rp is None or rm is None:
        raise FloatingPointError("a differenced residual is not finite")
    return prob.pack(rp - rm) / (2.0 * eps)
