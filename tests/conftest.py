"""Shared samplers and reference fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from permrealize import Spectrum, make_spectrum


def random_suleimanova_values(
    rng: np.random.Generator, n: int, scale: float = 1e6
) -> list[float]:
    """One random Suleimanova sample: n - 1 entries in [-scale, 0] and a
    positive head chosen so the trace lands in [0, scale]."""
    tail = rng.uniform(-scale, 0.0, size=n - 1)
    head = float(-tail.sum() + rng.uniform(0.0, scale))
    return [head] + [float(v) for v in tail]


def random_suleimanova(
    rng: np.random.Generator, n: int, scale: float = 1e6
) -> Spectrum:
    return make_spectrum(random_suleimanova_values(rng, n, scale))


def _diag_sum(arr: np.ndarray):
    # numpy scalars keep sum() on plain additions on every Python version:
    # its compensated float path (3.12 on) needs an exact float start.
    d = [arr[i, i] for i in range(arr.shape[0])]
    return sum(d[1:], start=d[0])


def float_char_poly_reference(A: np.ndarray) -> tuple:
    """The float64 Faddeev-LeVerrier recurrence as char_poly_coeffs first ran
    it: the reference whose rounding the explorer's trajectories follow."""
    n = A.shape[0]
    eye = np.eye(n)
    coeffs = [1.0] * (n + 1)
    B = A.copy()
    coeffs[n - 1] = -_diag_sum(B)
    for k in range(2, n + 1):
        B = np.dot(A, B + coeffs[n - k + 1] * eye)
        coeffs[n - k] = -_diag_sum(B) / float(k)
    return tuple(coeffs)


@pytest.fixture
def sigma_integer_example() -> Spectrum:
    """Spectrum {10, -1, -2, -3}; realized by an integer permutative matrix."""
    return make_spectrum([10, -1, -2, -3])


@pytest.fixture
def matrix_integer_example() -> list[list[int]]:
    """The known integer realization of {10, -1, -2, -3}."""
    return [[1, 2, 3, 4], [2, 1, 3, 4], [3, 2, 1, 4], [4, 2, 3, 1]]


@pytest.fixture
def sigma_zero_trace_example() -> Spectrum:
    """Spectrum {6, -1, -2, -3}; trace zero, zero-diagonal realization."""
    return make_spectrum([6, -1, -2, -3])


@pytest.fixture
def matrix_zero_trace_example() -> list[list[int]]:
    """The known zero-diagonal realization of {6, -1, -2, -3}."""
    return [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0]]
