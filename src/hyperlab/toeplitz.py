"""Exact arithmetic in the Laurent-band + finite-tail algebra on l2(N).

An element is T(p) + t where p is a Laurent polynomial over Gaussian
rationals (T(p)_{ij} = p_{i-j} for i, j >= 0) and t a finitely supported
matrix.  The algebra is closed under products because the semicommutator
of two Laurent-polynomial Toeplitz operators is finitely supported:

    (T(p) T(q))_{ij} - T(p q)_{ij} = - sum_{k < 0} p_{i-k} q_{k-j},

nonzero only for 0 <= i < maxdeg(p), 0 <= j < -mindeg(q).  All coefficients
are exact, so identities like S*S = I and S S* = I - E_00 hold bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InvalidInput, NotIsometry


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational literal {x!r}: {exc}") from exc
    raise InvalidInput(f"exact coefficients must be int, Fraction or 'p/q' string, got {type(x).__name__}")


@dataclass(frozen=True)
class GQ:
    """Gaussian rational re + im*i with exact Fraction components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def make(re=0, im=0) -> "GQ":
        return GQ(_frac(re), _frac(im))

    def __add__(self, other: "GQ") -> "GQ":
        return GQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GQ") -> "GQ":
        return GQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def __mul__(self, other: "GQ") -> "GQ":
        return GQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GQ":
        return GQ(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def as_strings(self) -> list:
        return [str(self.re), str(self.im)]


GQ_ZERO = GQ.make(0)
GQ_ONE = GQ.make(1)


def _coeff(x) -> GQ:
    if isinstance(x, GQ):
        return x
    if isinstance(x, (int, Fraction, str)):
        return GQ.make(x)
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return GQ.make(x[0], x[1])
    raise InvalidInput(f"cannot interpret {x!r} as a Gaussian rational")


class LaurentPoly:
    """Finitely supported map degree -> Gaussian rational, zero-pruned."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        pruned = {}
        for k, c in (coeffs or {}).items():
            c = _coeff(c)
            if c:
                pruned[int(k)] = c
        self.coeffs = pruned

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: GQ_ONE})

    @staticmethod
    def monomial(degree: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({degree: _coeff(coeff)})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: GQ_ONE}

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, GQ_ZERO) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, GQ_ZERO) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c) -> "LaurentPoly":
        c = _coeff(c)
        return LaurentPoly({k: c * v for k, v in self.coeffs.items()})

    def adjoint(self) -> "LaurentPoly":
        """(p*)_k = conj(p_{-k})."""
        return LaurentPoly({-k: c.conj() for k, c in self.coeffs.items()})

    def to_json(self) -> dict:
        return {str(k): self.coeffs[k].as_strings() for k in sorted(self.coeffs)}


class ToeplitzElement:
    """T(symbol) + tail acting on l2(N); tail is a sparse exact matrix."""

    __slots__ = ("symbol", "tail", "N")

    def __init__(self, symbol: LaurentPoly | None = None, tail: dict | None = None):
        self.symbol = symbol if symbol is not None else LaurentPoly.zero()
        pruned = {}
        for (i, j), c in (tail or {}).items():
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise InvalidInput(f"tail index ({i},{j}) outside the quarter plane")
            c = _coeff(c)
            if c:
                pruned[(i, j)] = c
        self.tail = pruned
        self.N = 1 + max((max(i, j) for (i, j) in pruned), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToeplitzElement)
            and self.symbol == other.symbol
            and self.tail == other.tail
        )

    def is_zero(self) -> bool:
        return self.symbol.is_zero() and not self.tail

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol.to_json(),
            "tail": {f"{i},{j}": c.as_strings() for (i, j), c in sorted(self.tail.items())},
        }


def zero() -> ToeplitzElement:
    return ToeplitzElement()


def identity() -> ToeplitzElement:
    return ToeplitzElement(LaurentPoly.one())


def shift() -> ToeplitzElement:
    """The unilateral shift: symbol z, empty tail."""
    return ToeplitzElement(LaurentPoly.monomial(1))


def from_symbol(coeffs: dict) -> ToeplitzElement:
    return ToeplitzElement(LaurentPoly(coeffs))


def from_tail(entries: dict) -> ToeplitzElement:
    return ToeplitzElement(LaurentPoly.zero(), entries)


def add(A: ToeplitzElement, B: ToeplitzElement) -> ToeplitzElement:
    tail = dict(A.tail)
    for ij, c in B.tail.items():
        tail[ij] = tail.get(ij, GQ_ZERO) + c
    return ToeplitzElement(A.symbol + B.symbol, tail)


def scale(c, A: ToeplitzElement) -> ToeplitzElement:
    c = _coeff(c)
    return ToeplitzElement(
        A.symbol.scale(c),
        {ij: c * v for ij, v in A.tail.items()},
    )


def sub(A: ToeplitzElement, B: ToeplitzElement) -> ToeplitzElement:
    return add(A, scale(-1, B))


def adj(A: ToeplitzElement) -> ToeplitzElement:
    return ToeplitzElement(
        A.symbol.adjoint(),
        {(j, i): c.conj() for (i, j), c in A.tail.items()},
    )


def mul(A: ToeplitzElement, B: ToeplitzElement) -> ToeplitzElement:
    """Exact product; the symbol multiplies and four tail pieces collect:

    semicommutator correction, T(p) tail_B, tail_A T(q), tail_A tail_B.
    """
    p, q = A.symbol, B.symbol
    tail: dict = {}

    def bump(i, j, c):
        if i >= 0 and j >= 0 and c:
            key = (i, j)
            tail[key] = tail.get(key, GQ_ZERO) + c

    # Semicommutator: -sum_{k<0} p_{i-k} q_{k-j} at (i, j) = (dp + k, k - dq).
    for dp, cp in p.coeffs.items():
        for dq, cq in q.coeffs.items():
            lo = max(-dp, dq)
            for k in range(lo, 0):
                bump(dp + k, k - dq, -(cp * cq))
    # T(p) tail_B: (T(p) t)_{i c} = sum_r p_{i-r} t_{r c}.
    for (r, c), t in B.tail.items():
        for dp, cp in p.coeffs.items():
            bump(dp + r, c, cp * t)
    # tail_A T(q): (t T(q))_{r j} = sum_c t_{r c} q_{c-j}.
    for (r, c), t in A.tail.items():
        for dq, cq in q.coeffs.items():
            bump(r, c - dq, t * cq)
    # tail_A tail_B.
    for (r, k1), t1 in A.tail.items():
        for (k2, c), t2 in B.tail.items():
            if k1 == k2:
                bump(r, c, t1 * t2)
    return ToeplitzElement(p * q, tail)


def is_essentially_unitary(A: ToeplitzElement) -> bool:
    """True iff the symbol is unimodular as a Laurent polynomial: p p* = 1.

    Then both I - A*A and I - AA* are pure tails (compact), exactly.
    """
    return (A.symbol * A.symbol.adjoint()).is_one()


def truncate(A: ToeplitzElement, n: int) -> np.ndarray:
    """Upper-left n x n corner P_n A P_n as a float matrix."""
    if n < 1:
        raise InvalidInput("truncation size must be >= 1")
    M = np.zeros((n, n), dtype=complex)
    for k, c in A.symbol.coeffs.items():
        z = c.to_complex()
        for j in range(max(0, -k), min(n, n - k)):
            M[j + k, j] += z
    for (i, j), c in A.tail.items():
        if i < n and j < n:
            M[i, j] += c.to_complex()
    return M


def tail_operator_norm(A: ToeplitzElement) -> float:
    """Operator norm of a pure-tail (compact, finitely supported) element."""
    if not A.symbol.is_zero():
        raise InvalidInput("operator norm is only offered for pure-tail elements")
    if not A.tail:
        return 0.0
    return linalg.op_norm(truncate(A, A.N))


@dataclass(frozen=True)
class ProbeResult:
    index: int
    image: ToeplitzElement
    difference: ToeplitzElement
    agrees: bool
    difference_norm: float | None  # operator norm, when the difference is a pure tail


def compression_counterexample(V: ToeplitzElement, probes: list) -> list:
    """Exact images of probes under a |-> V* a V, flagging disagreements.

    Requires V*V = I exactly; the compression then agrees with the identity
    on V and V* (checked) but may move other elements, e.g. VV* |-> I.
    """
    if mul(adj(V), V) != identity():
        raise NotIsometry("V*V != I exactly; V is not an isometry")

    def compress(a):
        return mul(mul(adj(V), a), V)

    for anchor in (V, adj(V)):
        if compress(anchor) != anchor:
            raise NotIsometry("compression fails to fix V or V*; inconsistent isometry")

    results = []
    for idx, a in enumerate(probes):
        image = compress(a)
        diff = sub(image, a)
        norm = tail_operator_norm(diff) if diff.symbol.is_zero() else None
        results.append(
            ProbeResult(
                index=idx,
                image=image,
                difference=diff,
                agrees=diff.is_zero(),
                difference_norm=norm,
            )
        )
    return results
