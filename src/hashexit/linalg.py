"""Dense kernels used by the encoder.

Each kernel takes a 2-D matrix, overwrites it with its result and returns
it. A float64 numpy array (a view included) is updated in place; anything
else (a list, another dtype) is first converted into one new float64
array, which is then overwritten and returned, and the caller's object is
left alone. Apart from that array, no kernel mutates anything.
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
    a -= a.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return a


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
    a -= a.mean(axis=1, keepdims=True)
    # the population variance of the centred rows, as np.var takes it
    var = np.square(a).sum(axis=1, keepdims=True)
    var /= a.shape[1]
    var += eps
    a /= np.sqrt(var, out=var)
    a *= gain
    a += bias
    return a


def relu(a) -> np.ndarray:
    """Elementwise max(0, x)."""
    a = _as_matrix(a)
    return np.maximum(a, 0.0, out=a)
