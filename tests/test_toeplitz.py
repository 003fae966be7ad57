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


def test_indices_must_be_integers():
    """A float or bool degree, tail index or truncation size is rejected,
    not truncated by int(); numpy integers are stored as int."""
    for bad in (lambda: toeplitz.ToeplitzElement({0.5: 1, 1: 2}),
                lambda: toeplitz.ToeplitzElement({True: 1}),
                lambda: toeplitz.from_tail({(0.9, 1): 1}),
                lambda: toeplitz.from_tail({(1, 2.0): 1}),
                lambda: toeplitz.from_tail({(False, 1): 1}),
                lambda: toeplitz.truncate(toeplitz.shift(), 2.5),
                lambda: toeplitz.truncate(toeplitz.shift(), True)):
        with pytest.raises(InvalidInput, match="must be an integer"):
            bad()
    A = toeplitz.ToeplitzElement({np.int64(-1): 1}, {(np.int32(2), np.int64(0)): "1/2"})
    assert A == toeplitz.ToeplitzElement({-1: 1}, {(2, 0): "1/2"})
    assert [type(k) for k in A.symbol] == [int]
    assert [type(i) for ij in A.tail for i in ij] == [int, int]
    assert np.array_equal(toeplitz.truncate(A, np.int64(3)), toeplitz.truncate(A, 3))


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


def _reference_collect(pairs) -> dict:
    out: dict = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def _reference_conv(p: dict, q: dict) -> dict:
    return _reference_collect((dp + dq, cp * cq) for dp, cp in p.items() for dq, cq in q.items())


def _reference_mul(A, B):
    """The product with one reduced GQ product and sum per term."""
    p, q = A.symbol, B.symbol
    tail: list = []
    for dp, cp in p.items():
        if dp > 0:
            for dq, cq in q.items():
                if dq < 0:
                    c = -(cp * cq)
                    tail += [((dp + k, k - dq), c) for k in range(max(-dp, dq), 0)]
    tail += [((dp + r, c), cp * t) for (r, c), t in B.tail.items()
             for dp, cp in p.items() if dp + r >= 0]
    tail += [((r, c - dq), t * cq) for (r, c), t in A.tail.items()
             for dq, cq in q.items() if c >= dq]
    tail += [((r, c), t1 * t2) for (r, k1), t1 in A.tail.items()
             for (k2, c), t2 in B.tail.items() if k1 == k2]
    return toeplitz.ToeplitzElement(_reference_conv(p, q), _reference_collect(tail))


_mixed = st.tuples(st.integers(-50, 50), st.integers(1, 12)).map(lambda t: Fraction(*t))
_mixed_coeffs = st.lists(_mixed, min_size=2, max_size=2)
_mixed_elements = st.builds(
    toeplitz.ToeplitzElement,
    st.dictionaries(st.integers(-3, 3), _mixed_coeffs, max_size=4),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _mixed_coeffs, max_size=4),
)
# S + (2/3) E00 times S* + (3/2) E00: the semicommutator's -1 at (0, 0)
# cancels against the tail product's 1.
_CANCEL_TAIL = (toeplitz.ToeplitzElement({1: 1}, {(0, 0): "2/3"}),
                toeplitz.ToeplitzElement({-1: 1}, {(0, 0): "3/2"}))
# (1/2 + z/3)(3/5 - 2z/5): the z coefficient cancels.
_CANCEL_SYMBOL = (toeplitz.ToeplitzElement({0: "1/2", 1: "1/3"}),
                  toeplitz.ToeplitzElement({0: "3/5", 1: "-2/5"}))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(A=_mixed_elements, B=_mixed_elements)
@example(A=_CANCEL_TAIL[0], B=_CANCEL_TAIL[1])
@example(A=_CANCEL_SYMBOL[0], B=_CANCEL_SYMBOL[1])
@example(A=toeplitz.ToeplitzElement({2: ["3/5", "4/5"]}, {(1, 0): "5/7"}), B=toeplitz.zero())
def test_mul_matches_per_term_reference(A, B):
    """mul and is_essentially_unitary on numerators over one denominator
    against the per-term GQ product: equal elements, equal keys in the same
    order, and equal to_json, with denominators up to 12 (so the lcm
    scaling runs) and the examples' sums that cancel to zero."""
    got, want = toeplitz.mul(A, B), _reference_mul(A, B)
    assert got == want and got.to_json() == want.to_json()
    assert list(got.symbol) == list(want.symbol) and list(got.tail) == list(want.tail)
    for X in (A, B, got):
        unitary = _reference_conv(X.symbol, toeplitz.adj(X).symbol) == {0: toeplitz.GQ_ONE}
        assert toeplitz.is_essentially_unitary(X) == unitary


def test_reference_examples_cancel():
    """The examples above do cancel, so the zero filter after the sums runs."""
    got = toeplitz.mul(*_CANCEL_TAIL)
    assert (0, 0) not in got.tail and got.tail and got.symbol == {0: toeplitz.GQ_ONE}
    got = toeplitz.mul(*_CANCEL_SYMBOL)
    assert set(got.symbol) == {0, 2} and not got.tail
    assert toeplitz.is_essentially_unitary(toeplitz.ToeplitzElement({2: ["3/5", "4/5"]}))
