"""segments.linear_sum_assignment against scipy.optimize.linear_sum_assignment.

scipy is the oracle here only: the port must return the same pairs, in the
same order, for every matrix, ties included, so that fusion's label mapping
and the DER's speaker mapping do not move.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_assignment

from farfield.errors import DataError, NumericalError
from farfield.segments import linear_sum_assignment

MATRICES_PER_KIND = 1000


def _integer_ties(rng, shape):
    return rng.integers(0, 3, size=shape).astype(float)


def _real(rng, shape):
    return rng.standard_normal(shape)


def _negated_overlaps(rng, shape):
    # the matcher's input: minus a co-activity matrix, mostly zeros and exact ties
    return -np.where(rng.random(shape) < 0.4, np.round(rng.random(shape), 1), 0.0)


def _constant(rng, shape):
    return np.full(shape, float(rng.integers(-2, 3)))


def _wide_integers(rng, shape):
    return rng.integers(-50, 50, size=shape).astype(float)


@pytest.mark.parametrize("seed, make", enumerate([_integer_ties, _real, _negated_overlaps,
                                                  _constant, _wide_integers]))
def test_equals_scipy(seed, make):
    rng = np.random.default_rng(seed)
    for _ in range(MATRICES_PER_KIND):
        # square, wide and tall shapes, 0 x n and n x 0 among them
        cost = make(rng, tuple(rng.integers(0, 9, size=2)))
        want = scipy_assignment(cost)
        got = linear_sum_assignment(cost)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w, err_msg=f"cost {cost.tolist()}")
            assert g.dtype == w.dtype


def test_large_square_and_rectangular():
    rng = np.random.default_rng(7)
    for shape in ((20, 20), (12, 30), (30, 12)):
        cost = rng.integers(0, 4, size=shape).astype(float)
        for w, g in zip(scipy_assignment(cost), linear_sum_assignment(cost)):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes(shape):
    rows, cols = linear_sum_assignment(np.zeros(shape))
    assert rows.size == cols.size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cost_is_numerical_error(bad):
    cost = np.ones((3, 3))
    cost[1, 2] = bad
    for part in (cost, cost[:2], cost[:, 1:]):  # square, wide and tall
        with pytest.raises(NumericalError, match="non-finite"):
            linear_sum_assignment(part)


def test_not_a_matrix_rejected():
    with pytest.raises(DataError):
        linear_sum_assignment(np.ones(3))
