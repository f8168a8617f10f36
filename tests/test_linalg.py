import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hashexit.errors import ShapeError
from hashexit.linalg import layer_norm, relu, softmax_rows


class TestSoftmaxRows:
    def test_symmetric_row(self):
        assert np.allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_large_values_stable(self):
        out = softmax_rows([[1000.0, 1000.0]])
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        # exp(ln 1) : exp(ln 3) = 1 : 3
        out = softmax_rows([[math.log(1.0), math.log(3.0)]])
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        a = rng.normal(scale=5.0, size=(40, 7))
        sums = softmax_rows(a).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = rng.normal(size=(5, 6))
            c = rng.normal()
            assert np.max(np.abs(softmax_rows(a + c) - softmax_rows(a))) < 1e-12


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        out = layer_norm([[4.0, 4.0, 4.0]], np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_two_point_row(self):
        # mean 2, population std 1: [1,3] standardizes to [-1,1]
        out = layer_norm([[1.0, 3.0]], np.ones(2), np.zeros(2), eps=0.0)
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-12)

    def test_zero_gain_broadcasts_bias(self):
        bias = np.array([5.0, -2.0, 0.5])
        out = layer_norm([[1.0, 9.0, 4.0]], np.zeros(3), bias)
        assert np.allclose(out, bias[None, :], atol=1e-15)

    def test_row_statistics(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(30, 9))
        out = layer_norm(a, np.ones(9), np.zeros(9), eps=0.0)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-10
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.ones((2, 3)), np.ones(2), np.zeros(3))


class TestRelu:
    def test_mixed_signs(self):
        assert np.array_equal(relu([[-1.0, 0.0, 2.0]]), [[0.0, 0.0, 2.0]])

    def test_all_negative(self):
        assert np.array_equal(relu([[-3.0, -0.5]]), [[0.0, 0.0]])

    def test_all_positive_identity(self):
        a = np.array([[0.5, 2.0, 7.0]])
        assert np.array_equal(relu(a), a)


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_gain_bias(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    a = draw(arrays(np.float64, (rows, cols), elements=FINITE))
    gain, bias = (draw(arrays(np.float64, cols, elements=FINITE))
                  for _ in range(2))
    return a, gain, bias


KERNELS = {
    "softmax_rows": lambda a, gain, bias, **out: softmax_rows(a, **out),
    "layer_norm": layer_norm,
    "relu": lambda a, gain, bias, **out: relu(a, **out),
}


class TestInPlace:
    """out= writes the result in place, with the bits of the allocating
    form, and leaves the input alone unless it is the out array."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(args=matrix_gain_bias())
    def test_bit_equal_to_allocating_form(self, name, args):
        kernel = KERNELS[name]
        a, gain, bias = args
        before = a.copy()
        want = kernel(a, gain, bias)
        assert np.array_equal(a, before)
        elsewhere = np.empty_like(a)
        assert kernel(a, gain, bias, out=elsewhere) is elsewhere
        assert elsewhere.tobytes() == want.tobytes()
        assert np.array_equal(a, before)
        assert kernel(a, gain, bias, out=a) is a
        assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_out_of_another_shape(self, name):
        a = np.ones((2, 3))
        for out in (np.empty((3, 2)), np.empty((2, 3), dtype=np.float32)):
            with pytest.raises(ShapeError):
                KERNELS[name](a, np.ones(3), np.zeros(3), out=out)
