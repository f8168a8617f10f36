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

    @staticmethod
    def by_row_max(a):
        """softmax_rows with every row's max taken along the row."""
        a = a.copy()
        a -= a.max(axis=1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=1, keepdims=True)
        return a

    # rows NARROW_ROWS = 32 wide and narrower take their max from a
    # transposed copy; on both sides of 32 every entry keeps the bits of
    # the max taken along each row. A NaN stays a NaN in the same place,
    # but its sign may differ unless the input's NaNs are all np.nan:
    # numpy's row reduction returns np.nan for a row with any NaN
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_row_max_by_width_is_bit_exact(self, data):
        width = data.draw(st.integers(1, 80), label="width")
        rows = data.draw(st.integers(0, 24), label="rows")
        entries = st.one_of(
            st.floats(allow_nan=data.draw(st.booleans(), label="any NaN")),
            st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
        a = data.draw(arrays(np.float64, (rows, width), elements=entries),
                      label="a")
        if rows:
            a[data.draw(st.lists(st.integers(0, rows - 1), max_size=3),
                        label="all -inf")] = -np.inf
        with np.errstate(all="ignore"):
            want = self.by_row_max(a)
            got = softmax_rows(a.copy())
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()
        canonical = np.float64(np.nan).view(np.uint64)
        if (a[np.isnan(a)].view(np.uint64) == canonical).all():
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [31, 32, 33, 64])
    def test_row_max_on_both_sides_of_the_narrow_width(self, width):
        rng = np.random.default_rng(width)
        a = rng.normal(scale=30.0, size=(200, width))
        assert softmax_rows(a.copy()).tobytes() == self.by_row_max(a).tobytes()


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
    "softmax_rows": lambda a, gain, bias: softmax_rows(a),
    "layer_norm": layer_norm,
    "relu": lambda a, gain, bias: relu(a),
}


class TestInPlace:
    """A kernel overwrites the float64 array it is given, a view included,
    and returns it. Any other input is converted into a new float64 array,
    which gets the same bits, and is left alone."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(args=matrix_gain_bias())
    def test_bit_equal_to_allocating_form(self, name, args):
        kernel = KERNELS[name]
        a, gain, bias = args
        listed = a.tolist()
        want = kernel(listed, gain, bias)
        assert listed == a.tolist()
        assert kernel(a, gain, bias) is a
        assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_other_dtype_is_left_alone(self, name):
        a = np.arange(-3, 3, dtype=np.float32).reshape(2, 3)
        got = KERNELS[name](a, np.ones(3), np.zeros(3))
        assert got.dtype == np.float64
        assert np.array_equal(a, np.arange(-3, 3).reshape(2, 3))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_view_is_updated_in_place(self, name):
        a = np.arange(-6.0, 6.0).reshape(3, 4)
        before = a.copy()
        view = a[:, 1:3]
        want = KERNELS[name](view.copy(), np.ones(2), np.zeros(2))
        assert KERNELS[name](view, np.ones(2), np.zeros(2)) is view
        assert np.array_equal(a[:, 1:3], want)
        assert np.array_equal(a[:, [0, 3]], before[:, [0, 3]])
