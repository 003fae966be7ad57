"""Reference vectors pinning the Philox generator and derived samplers."""

from __future__ import annotations

import numpy as np
import pytest

from hyperlab.errors import InvalidInput
from hyperlab.rng import (make_rng, random_complex, random_hermitian, random_normal_matrix,
                          random_ucp_kraus, random_unit_vector, random_unitary)

# First four raw 63-bit integers of Philox keyed with 42; any conforming
# implementation must reproduce these exactly.
PHILOX_42_INTS = [7564992661660189703, 1745482797296139455,
                  8002758497458615937, 3639371699266686764]

PHILOX_42_NORMALS = [0.33757145, -0.78215348, -0.3160252, -2.10121534]


def test_philox_reference_integers():
    got = make_rng(42).integers(0, 2 ** 63, 4, dtype=np.int64)
    assert list(got) == PHILOX_42_INTS


def test_philox_reference_normals():
    got = make_rng(42).standard_normal(4)
    assert np.allclose(got, PHILOX_42_NORMALS, atol=1e-8)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_out_of_range_seed_is_invalid_input(seed):
    with pytest.raises(InvalidInput, match="seed"):
        make_rng(seed)


def test_largest_seed_is_accepted():
    assert make_rng(2 ** 64 - 1).integers(0, 2 ** 63, dtype=np.int64) >= 0


def test_same_seed_same_stream():
    a = random_complex(make_rng(123), 4, 4)
    b = random_complex(make_rng(123), 4, 4)
    assert np.array_equal(a, b)
    c = random_complex(make_rng(124), 4, 4)
    assert not np.array_equal(a, c)


def test_random_hermitian_is_hermitian():
    A = random_hermitian(make_rng(1), 5)
    assert np.allclose(A, A.conj().T)


def test_random_unitary_is_unitary():
    U = random_unitary(make_rng(2), 6)
    assert np.allclose(U.conj().T @ U, np.eye(6), atol=1e-12)


def test_random_unit_vector_norm():
    v = random_unit_vector(make_rng(4), 7)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_random_normal_matrix_is_normal():
    T = random_normal_matrix(make_rng(5), 4)
    assert np.allclose(T @ T.conj().T, T.conj().T @ T, atol=1e-12)


def test_random_ucp_kraus_is_unital():
    ops = random_ucp_kraus(make_rng(6), 3, 4)
    S = sum(K @ K.conj().T for K in ops)
    assert np.allclose(S, np.eye(3), atol=1e-12)
