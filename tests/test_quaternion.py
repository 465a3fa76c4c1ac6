import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qspeech.quaternion import (I, J, K, ONE, Quaternion, conjugate, from_matrix_column,
                                hamilton_product, norm, to_real_matrix)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_basis_relations_exact():
    minus_one = Quaternion(-1, 0, 0, 0)
    assert hamilton_product(I, J) == K
    assert hamilton_product(J, K) == I
    assert hamilton_product(K, I) == J
    assert hamilton_product(I, I) == minus_one
    assert hamilton_product(J, J) == minus_one
    assert hamilton_product(K, K) == minus_one
    # i j k = -1
    assert hamilton_product(hamilton_product(I, J), K) == minus_one


def test_identity_element():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert hamilton_product(q, ONE) == q
    assert hamilton_product(ONE, q) == q


def test_known_product():
    # independently derived through the matrix representation
    out = hamilton_product(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8))
    assert out == Quaternion(-60, 12, 30, 24)


def test_non_commutative():
    ij = hamilton_product(I, J)
    ji = hamilton_product(J, I)
    assert ij == -ji == K


@given(quats, quats)
def test_matrix_column_oracle(a, b):
    # M(a) is left multiplication in the matrix's own column coordinates:
    # its first column is (r, -x, -y, -z).
    ref = from_matrix_column(to_real_matrix(a) @ to_real_matrix(b)[:, 0])
    got = hamilton_product(a, b)
    assert np.allclose(got.as_tuple(), ref.as_tuple(), rtol=0, atol=1e-9)


@given(quats, quats)
def test_matrix_is_ring_homomorphism(a, b):
    lhs = to_real_matrix(a) @ to_real_matrix(b)
    rhs = to_real_matrix(hamilton_product(a, b))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-9)


@given(quats, quats, quats)
def test_associativity(a, b, c):
    lhs = hamilton_product(hamilton_product(a, b), c)
    rhs = hamilton_product(a, hamilton_product(b, c))
    scale = max(1.0, norm(lhs), norm(rhs))
    assert all(abs(l - r) / scale < 1e-12
               for l, r in zip(lhs.as_tuple(), rhs.as_tuple()))


@given(quats, quats)
def test_norm_multiplicative(a, b):
    lhs = norm(hamilton_product(a, b))
    rhs = norm(a) * norm(b)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(quats, quats)
def test_conjugate_antihomomorphism(a, b):
    lhs = conjugate(hamilton_product(a, b))
    rhs = hamilton_product(conjugate(b), conjugate(a))
    assert np.allclose(lhs.as_tuple(), rhs.as_tuple(), rtol=0, atol=1e-9)


def test_conjugate_values():
    assert conjugate(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)
    assert conjugate(Quaternion(5, 0, 0, 0)) == Quaternion(5, 0, 0, 0)


def test_norm_values():
    assert norm(Quaternion(0, 0, 0, 0)) == 0.0
    assert norm(Quaternion(1, 1, 1, 1)) == 2.0
    tiny = 5.053700834401319e-160   # tiny * tiny is subnormal
    assert norm(Quaternion(0.0, 0.0, 0.0, tiny)) == tiny


def test_matrix_layout():
    m = to_real_matrix(ONE)
    assert np.array_equal(m, np.eye(4))
    mi = to_real_matrix(I)
    # 1-indexed positions (1,2)=1, (2,1)=-1, (3,4)=-1, (4,3)=1
    expected = np.zeros((4, 4))
    expected[0, 1] = 1
    expected[1, 0] = -1
    expected[2, 3] = -1
    expected[3, 2] = 1
    assert np.array_equal(mi, expected)


def test_matrix_first_row_lists_components():
    m = to_real_matrix(Quaternion(1, 2, 3, 4))
    assert np.array_equal(m[0], [1, 2, 3, 4])
    assert np.array_equal(m[:, 0], [1, -2, -3, -4])
    assert math.isclose(np.trace(m), 4.0)
