"""Tests for the exact Toeplitz (Laurent-band + tail) algebra."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import toeplitz
from hyperlab.errors import InvalidInput, NotIsometry
from hyperlab.rng import make_rng


def random_element(rng, max_deg=3, tail_n=4):
    sym = {}
    for _ in range(int(rng.integers(0, 4))):
        k = int(rng.integers(-max_deg, max_deg + 1))
        sym[k] = [int(rng.integers(-3, 4)), int(rng.integers(-3, 4))]
    tail = {}
    for _ in range(int(rng.integers(0, 4))):
        i, j = int(rng.integers(0, tail_n)), int(rng.integers(0, tail_n))
        tail[(i, j)] = [str(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))),
                        int(rng.integers(-2, 3))]
    return toeplitz.add(toeplitz.ToeplitzElement(sym), toeplitz.from_tail(tail))


def test_shift_identities_exact():
    S = toeplitz.shift()
    assert toeplitz.mul(toeplitz.adj(S), S) == toeplitz.identity()
    expected = toeplitz.sub(toeplitz.identity(), toeplitz.from_tail({(0, 0): 1}))
    assert toeplitz.mul(S, toeplitz.adj(S)) == expected
    assert toeplitz.mul(S, S) == toeplitz.ToeplitzElement({2: 1})


def test_adjoint_laws():
    S = toeplitz.shift()
    assert toeplitz.adj(S).symbol == {-1: toeplitz.GQ_ONE}
    assert toeplitz.adj(toeplitz.adj(S)) == S
    defect = toeplitz.sub(toeplitz.identity(), toeplitz.mul(S, toeplitz.adj(S)))
    assert toeplitz.adj(defect) == defect  # I - SS* = E_00 is self-adjoint
    assert toeplitz.add(S, toeplitz.scale(-1, S)) == toeplitz.zero()


def test_essential_unitarity():
    S = toeplitz.shift()
    assert toeplitz.is_essentially_unitary(S)
    dl = toeplitz.sub(toeplitz.identity(), toeplitz.mul(toeplitz.adj(S), S))
    dr = toeplitz.sub(toeplitz.identity(), toeplitz.mul(S, toeplitz.adj(S)))
    assert dl == toeplitz.zero()
    assert dr == toeplitz.from_tail({(0, 0): 1})

    # (3/5 + 4/5 i) z^2 is a unimodular Gaussian-rational monomial.
    A = toeplitz.ToeplitzElement({2: ["3/5", "4/5"]})
    assert toeplitz.is_essentially_unitary(A)
    assert not toeplitz.is_essentially_unitary(toeplitz.ToeplitzElement({0: 1, 1: 1}))


def test_ring_axioms_exact_battery():
    rng = make_rng(30)
    for _ in range(200):
        A, B, C = (random_element(rng) for _ in range(3))
        assert toeplitz.mul(toeplitz.mul(A, B), C) == toeplitz.mul(A, toeplitz.mul(B, C))
        assert toeplitz.mul(A, toeplitz.add(B, C)) == toeplitz.add(toeplitz.mul(A, B),
                                                                  toeplitz.mul(A, C))
        assert toeplitz.mul(toeplitz.add(A, B), C) == toeplitz.add(toeplitz.mul(A, C),
                                                                   toeplitz.mul(B, C))
        assert toeplitz.adj(toeplitz.mul(A, B)) == toeplitz.mul(toeplitz.adj(B), toeplitz.adj(A))


def test_truncation_examples():
    S = toeplitz.shift()
    T3 = toeplitz.truncate(S, 3)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(T3, expected)
    defect = toeplitz.sub(toeplitz.identity(), toeplitz.mul(S, toeplitz.adj(S)))
    E00 = np.zeros((3, 3))
    E00[0, 0] = 1.0
    assert np.array_equal(toeplitz.truncate(defect, 3), E00)
    assert np.array_equal(toeplitz.truncate(toeplitz.zero(), 2), np.zeros((2, 2)))
    with pytest.raises(InvalidInput):
        toeplitz.truncate(S, 0)


def test_truncation_consistency_with_products():
    rng = make_rng(31)
    n, m = 6, 8  # m exceeds the bandwidths involved
    for _ in range(50):
        A, B = random_element(rng), random_element(rng)
        left = toeplitz.truncate(toeplitz.mul(A, B), n)
        right = (toeplitz.truncate(A, n + m) @ toeplitz.truncate(B, n + m))[:n, :n]
        assert np.max(np.abs(left - right)) <= 1e-12


def test_semicommutator_support_vs_dense():
    """Correction entries live in [0, maxdeg p) x [0, -mindeg q); check
    against dense 50x50 truncated products."""
    rng = make_rng(32)
    for _ in range(20):
        p = {int(k): [int(rng.integers(-3, 4)), int(rng.integers(-3, 4))]
             for k in rng.integers(-3, 4, size=3)}
        q = {int(k): [int(rng.integers(-3, 4)), int(rng.integers(-3, 4))]
             for k in rng.integers(-3, 4, size=3)}
        A, B = toeplitz.ToeplitzElement(p), toeplitz.ToeplitzElement(q)
        prod = toeplitz.mul(A, B)
        mp = max((k for k in A.symbol), default=0)
        mq = -min((k for k in B.symbol), default=0)
        for (i, j) in prod.tail:
            assert 0 <= i < max(mp, 1) and 0 <= j < max(mq, 1)
        n = 50
        dense = toeplitz.truncate(A, n) @ toeplitz.truncate(B, n)
        exact = toeplitz.truncate(prod, n)
        # Interior rows/cols (away from the truncation edge) must agree.
        inner = slice(0, n - 8)
        assert np.max(np.abs(dense[inner, inner] - exact[inner, inner])) <= 1e-12


def test_tail_operator_norm():
    defect = toeplitz.from_tail({(0, 0): 1})
    assert toeplitz.tail_operator_norm(defect) == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        toeplitz.tail_operator_norm(toeplitz.shift())


def test_compression_counterexample():
    S = toeplitz.shift()
    SS = toeplitz.mul(S, toeplitz.adj(S))
    res = toeplitz.compression_counterexample(
        S, [S, toeplitz.adj(S), SS, toeplitz.identity()])
    assert res[0].agrees and res[1].agrees and res[3].agrees
    moved = res[2]
    assert not moved.agrees
    assert moved.image == toeplitz.identity()
    assert moved.difference == toeplitz.from_tail({(0, 0): 1})
    assert moved.difference_norm == pytest.approx(1.0)


def test_compression_requires_isometry():
    SS = toeplitz.mul(toeplitz.shift(), toeplitz.adj(toeplitz.shift()))
    with pytest.raises(NotIsometry):
        toeplitz.compression_counterexample(SS, [toeplitz.identity()])


def test_exact_coefficient_parsing():
    A = toeplitz.ToeplitzElement({0: ["1/3", "-2/7"]})
    c = A.symbol[0]
    assert c.re == Fraction(1, 3) and c.im == Fraction(-2, 7)
    # Floats and booleans are not exact rationals.
    for bad in (0.5, "1/0", "x", [0.5, 0], ["1", 0.5], True, [False, "1/2"]):
        with pytest.raises(InvalidInput):
            toeplitz.ToeplitzElement({0: bad})
    # The quarter-plane check runs before zero entries are dropped.
    for entries in ({(-1, 0): 1}, {(-1, 0): 0}):
        with pytest.raises(InvalidInput):
            toeplitz.from_tail(entries)


def test_difference_with_itself_is_empty():
    A = toeplitz.add(toeplitz.ToeplitzElement({-1: ["1/2", 1], 2: 3}),
                     toeplitz.from_tail({(0, 1): ["1/3", 0], (2, 2): [0, -1]}))
    Z = toeplitz.add(A, toeplitz.scale(-1, A))
    assert Z == toeplitz.zero() and Z.is_zero()
    assert Z.to_json() == {"symbol": {}, "tail": {}}


def test_json_round_shapes():
    A = toeplitz.add(toeplitz.ToeplitzElement({-1: ["1/2", 0]}), toeplitz.from_tail({(1, 2): [0, "3/4"]}))
    js = A.to_json()
    assert js["symbol"] == {"-1": ["1/2", "0"]}
    assert js["tail"] == {"1,2": ["0", "3/4"]}


def _canonical(got: toeplitz.GQ, re: Fraction, im: Fraction) -> bool:
    """The stored triple is (re, im) over their least common denominator."""
    a, b, m = got
    return m > 0 and gcd(a, b, m) == 1 and (Fraction(a, m), Fraction(b, m)) == (re, im)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.fractions(), b=st.fractions(), c=st.fractions(), d=st.fractions())
@example(a=Fraction(-22, 7), b=Fraction(12), c=Fraction(0), d=Fraction(-1))
@example(a=Fraction(0), b=Fraction(-1, 2), c=Fraction(-5), d=Fraction(3, 10))
def test_gq_arithmetic_matches_fraction_formulas(a, b, c, d):
    """GQ's integer arithmetic against the componentwise Fraction formulas.
    The stored triple must come out reduced with a positive denominator, so
    that ==, hashing and as_strings agree with a GQ built from the
    reference Fractions.  The examples pin as_strings on 0, negative
    integers and negative fractions."""
    x, y = toeplitz.GQ(a, b), toeplitz.GQ(c, d)
    cases = [
        (x, (a, b)),
        (x * y, (a * c - b * d, a * d + b * c)),
        (x + y, (a + c, b + d)),
        (-x, (-a, -b)),
        (x.conj(), (a, -b)),
    ]
    for got, (re, im) in cases:
        want = toeplitz.GQ(re, im)
        assert _canonical(got, re, im)
        assert (got.re, got.im) == (re, im)
        assert got == want and hash(got) == hash(want)
        assert got.as_strings() == [str(re), str(im)]
        assert got.to_complex() == complex(re) + 1j * complex(im)


def test_gq_is_immutable():
    x = toeplitz.GQ(Fraction(1, 2), -3)
    for name in ("re", "im", "den"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(1))
    with pytest.raises(TypeError):
        x[0] = 7
    assert x == toeplitz.GQ(Fraction(1, 2), -3)
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_gq_equal_values_are_equal_and_hash_equal():
    half = toeplitz.GQ(Fraction(1, 2), 0)
    for same in (toeplitz.GQ(Fraction(2, 4), 0),
                 toeplitz.GQ(Fraction(1, 4), 0) + toeplitz.GQ(Fraction(1, 4), 0),
                 toeplitz.GQ(Fraction(3, 2), 1) * toeplitz.GQ(Fraction(3, 13), Fraction(-2, 13))):
        assert same == half and hash(same) == hash(half)
    assert toeplitz.GQ(Fraction(1, 2), Fraction(1, 3)) != toeplitz.GQ(Fraction(1, 2), 0)


def test_gq_equals_only_a_gq():
    """A GQ is a tuple, but it neither equals its plain triple nor orders
    or repeats like one."""
    x = toeplitz.GQ(1, 0)
    assert x != (1, 0, 1) and (1, 0, 1) != x and not x == (1, 0, 1)
    for op in (lambda: 2 * x, lambda: x < x, lambda: x >= x):
        with pytest.raises(TypeError):
            op()


_small = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(lambda t: Fraction(*t))
_coeffs = st.lists(_small, min_size=2, max_size=2)
_elements = st.builds(
    toeplitz.ToeplitzElement,
    st.dictionaries(st.integers(-3, 3), _coeffs, max_size=4),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeffs, max_size=4),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(A=_elements, B=_elements, c=st.sampled_from([0, -1, ["1/2", "-2/3"], [0, 0]]))
def test_arithmetic_results_are_canonical(A, B, c):
    """mul, add, sub, adj and scale build their results without the
    constructor; each must equal what the constructor makes of its maps and
    hold no zero coefficient (scale by a zero coefficient included)."""
    for r in (toeplitz.mul(A, B), toeplitz.add(A, B), toeplitz.sub(A, B), toeplitz.sub(A, A),
              toeplitz.adj(A), toeplitz.scale(c, A)):
        assert r == toeplitz.ToeplitzElement(r.symbol, r.tail)
        assert all(type(v) is toeplitz.GQ and v for v in (*r.symbol.values(), *r.tail.values()))
        assert all(type(k) is int for k in r.symbol)
        assert all(type(i) is int and type(j) is int and i >= 0 and j >= 0 for i, j in r.tail)
