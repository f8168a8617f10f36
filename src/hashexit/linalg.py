"""Dense kernels used by the encoder and the clustered hash.

All kernels take and return 2-D float64 numpy arrays (row-major). By
default each allocates its result. Given out=, a float64 array of the
input's shape, it writes the result there instead; out may be the input
itself, which is then updated in place. Both forms run the same
operations in the same order, so they give the same bits. Apart from out,
no kernel mutates anything.
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


def _out(a, out) -> np.ndarray:
    """The array a kernel over `a` writes its result into."""
    if out is None:
        return np.empty_like(a)
    if out.shape != a.shape or out.dtype != np.float64:
        raise ShapeError(f"out must be a float64 array of shape {a.shape}, "
                         f"got {out.dtype} {out.shape}")
    return out


def softmax_rows(a, out=None) -> np.ndarray:
    """Row-wise softmax, computed with max-subtraction for stability."""
    a = _as_matrix(a)
    out = _out(a, out)
    np.subtract(a, a.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def layer_norm(a, gain, bias, eps: float = 1e-5, out=None) -> np.ndarray:
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
    out = _out(a, out)
    mean = a.mean(axis=1, keepdims=True)
    var = a.var(axis=1, keepdims=True)
    np.subtract(a, mean, out=out)
    var += eps
    out /= np.sqrt(var, out=var)
    out *= gain
    out += bias
    return out


def relu(a, out=None) -> np.ndarray:
    """Elementwise max(0, x)."""
    a = _as_matrix(a)
    return np.maximum(a, 0.0, out=_out(a, out))
