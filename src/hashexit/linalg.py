"""Dense kernels used by the encoder and the clustered hash.

All kernels take and return 2-D float64 numpy arrays (row-major), never
mutate their inputs, and are pure: safe to call concurrently.
"""

import numpy as np

from .errors import ShapeError

__all__ = ["softmax_rows", "layer_norm", "relu"]


def _as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, raising ShapeError otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def softmax_rows(a) -> np.ndarray:
    """Row-wise softmax, computed with max-subtraction for stability."""
    a = _as_matrix(a)
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """Per-row standardization followed by the affine map gain*x + bias.

    Rows are centered to mean 0 and scaled by 1/sqrt(var + eps), where var
    is the population variance of the row. gain and bias are length-d
    vectors broadcast across rows.
    """
    a = _as_matrix(a)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if gain.shape != (a.shape[1],) or bias.shape != (a.shape[1],):
        raise ShapeError(
            f"layer_norm: gain/bias must have length {a.shape[1]}, "
            f"got {gain.shape} and {bias.shape}"
        )
    mean = a.mean(axis=1, keepdims=True)
    var = a.var(axis=1, keepdims=True)
    normed = (a - mean) / np.sqrt(var + eps)
    return normed * gain + bias


def relu(a) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(_as_matrix(a), 0.0)
