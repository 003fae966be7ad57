"""Exact arithmetic in the Laurent-band + finite-tail algebra on l2(N).

An element is T(p) + t where p is a Laurent polynomial over Gaussian
rationals (T(p)_{ij} = p_{i-j} for i, j >= 0) and t a finitely supported
matrix.  Both are stored the same way, as sparse maps to nonzero Gaussian
rationals: the symbol maps a degree k to p_k, the tail maps (i, j) to t_ij.
The algebra is closed under products because the semicommutator of two
Laurent-polynomial Toeplitz operators is finitely supported:

    (T(p) T(q))_{ij} - T(p q)_{ij} = - sum_{k < 0} p_{i-k} q_{k-j},

nonzero only for 0 <= i < maxdeg(p), 0 <= j < -mindeg(q).  All coefficients
are exact, so identities like S*S = I and S S* = I - E_00 hold bit-exactly.
A coefficient (``GQ``) is two integer numerators over one integer
denominator, reduced by one gcd per sum or product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import linalg
from .errors import InvalidInput, NotIsometry


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational literal {x!r}: {exc}") from exc
    raise InvalidInput(f"exact coefficients must be int, Fraction or 'p/q' string, got {type(x).__name__}")


class GQ(tuple):
    """Gaussian rational (re_num + im_num*i) / den, stored as the triple
    ``(re_num, im_num, den)`` of integers with den > 0 and
    gcd(re_num, im_num, den) = 1, so that equal values have equal triples.

    A GQ is a tuple, so it is immutable and hashes as its triple.  It
    equals only another GQ, and ordering and ``int * GQ`` repetition raise
    TypeError; the rest of the tuple protocol (indexing, unpacking, json
    writing it as a list) stays.  A sum or product puts both components
    over one denominator and divides out one three-argument gcd; negation
    and ``conj`` keep the triple reduced and need none.  ``GQ(re, im)``
    takes two rationals (int or Fraction); ``re`` and ``im`` read them back
    as Fractions.
    """

    __slots__ = ()

    def __new__(cls, re, im) -> "GQ":
        den = lcm(re.denominator, im.denominator)
        return _reduced(re.numerator * (den // re.denominator),
                        im.numerator * (den // im.denominator), den)

    def __getnewargs__(self) -> tuple:
        return self.re, self.im

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    def __repr__(self) -> str:
        return f"GQ({self.re!r}, {self.im!r})"

    # False, not NotImplemented, for other tuples: a plain tuple's own
    # comparison would otherwise match it against the triple.
    def __eq__(self, other) -> bool:
        return type(other) is GQ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not GQ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __rmul__(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = __rmul__

    def __add__(self, other: "GQ") -> "GQ":
        a, b, m = self
        c, d, n = other
        return _reduced(a * n + c * m, b * n + d * m, m * n)

    def __neg__(self) -> "GQ":
        a, b, m = self
        return _new(GQ, (-a, -b, m))

    def __mul__(self, other: "GQ") -> "GQ":
        # (a + bi)/m * (c + di)/n = ((ac - bd) + (ad + bc)i) / (mn).
        a, b, m = self
        c, d, n = other
        return _reduced(a * c - b * d, a * d + b * c, m * n)

    def conj(self) -> "GQ":
        a, b, m = self
        return _new(GQ, (a, -b, m))

    def __bool__(self) -> bool:
        return self[0] != 0 or self[1] != 0

    def to_complex(self) -> complex:
        a, b, m = self
        return complex(a / m, b / m)

    def as_strings(self) -> list:
        """[str(re), str(im)]: "p" or "p/q" in lowest terms."""
        a, b, m = self
        return [_ratio_str(a, m), _ratio_str(b, m)]


_new = tuple.__new__


def _ratio_str(a: int, m: int) -> str:
    """str(Fraction(a, m)) for m > 0, after one gcd and no Fraction."""
    g = gcd(a, m)
    return str(a // m) if g == m else f"{a // g}/{m // g}"


def _reduced(a: int, b: int, m: int) -> GQ:
    """The GQ (a + bi)/m for m > 0, with the common factor divided out."""
    g = gcd(a, b, m)
    if g != 1:
        a, b, m = a // g, b // g, m // g
    return _new(GQ, (a, b, m))


def _coeff(x) -> GQ:
    """A GQ, a rational (int, Fraction or "p/q") or an [re, im] pair of them."""
    if isinstance(x, GQ):
        return x
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return GQ(_frac(x[0]), _frac(x[1]))
    if isinstance(x, (int, Fraction, str)):
        return GQ(_frac(x), 0)
    raise InvalidInput(f"cannot interpret {x!r} as a Gaussian rational")


GQ_ONE = _coeff(1)


def _collect(pairs) -> dict:
    """The map key -> sum of the GQs given for that key, zeros dropped.

    A key's first coefficient is stored as it is: adding it to zero would
    cost a GQ addition, with its gcd, per entry.
    """
    out: dict = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def _conv(p: dict, q: dict) -> dict:
    """The product of two Laurent polynomials: (pq)_k = sum_{i+j=k} p_i q_j."""
    return _collect((dp + dq, cp * cq) for dp, cp in p.items() for dq, cq in q.items())


def _quarter(i, j) -> tuple:
    i, j = int(i), int(j)
    if i < 0 or j < 0:
        raise InvalidInput(f"tail index ({i},{j}) outside the quarter plane")
    return i, j


class ToeplitzElement:
    """T(symbol) + tail acting on l2(N).

    ``symbol`` maps degrees to coefficients and ``tail`` maps (i, j) with
    i, j >= 0 to coefficients.  The constructor checks the keys, coerces the
    coefficients (see ``_coeff``) and drops the zeros; the arithmetic below
    builds its results with ``_element`` instead, from maps that are
    already in that form.
    """

    __slots__ = ("symbol", "tail")

    def __init__(self, symbol: dict | None = None, tail: dict | None = None):
        self.symbol = _collect((int(k), _coeff(c)) for k, c in (symbol or {}).items())
        self.tail = _collect((_quarter(i, j), _coeff(c)) for (i, j), c in (tail or {}).items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToeplitzElement)
            and self.symbol == other.symbol
            and self.tail == other.tail
        )

    def is_zero(self) -> bool:
        return not self.symbol and not self.tail

    def to_json(self) -> dict:
        return {
            "symbol": {str(k): self.symbol[k].as_strings() for k in sorted(self.symbol)},
            "tail": {f"{i},{j}": c.as_strings() for (i, j), c in sorted(self.tail.items())},
        }


def _element(symbol: dict, tail: dict) -> ToeplitzElement:
    """T(symbol) + tail from maps that are already canonical: GQ values,
    int degrees, (i, j) keys with i, j >= 0 and no zero coefficient."""
    A = ToeplitzElement.__new__(ToeplitzElement)
    A.symbol, A.tail = symbol, tail
    return A


def zero() -> ToeplitzElement:
    return ToeplitzElement()


def identity() -> ToeplitzElement:
    return ToeplitzElement({0: GQ_ONE})


def shift() -> ToeplitzElement:
    """The unilateral shift: symbol z, empty tail."""
    return ToeplitzElement({1: GQ_ONE})


def from_tail(entries: dict) -> ToeplitzElement:
    return ToeplitzElement({}, entries)


def add(A: ToeplitzElement, B: ToeplitzElement) -> ToeplitzElement:
    return _element(_collect([*A.symbol.items(), *B.symbol.items()]),
                    _collect([*A.tail.items(), *B.tail.items()]))


def scale(c, A: ToeplitzElement) -> ToeplitzElement:
    """c A; a nonzero c times a nonzero GQ is nonzero, so only c = 0 drops
    coefficients."""
    c = _coeff(c)
    if not c:
        return zero()
    return _element({k: c * v for k, v in A.symbol.items()},
                    {ij: c * v for ij, v in A.tail.items()})


def sub(A: ToeplitzElement, B: ToeplitzElement) -> ToeplitzElement:
    return add(A, scale(-1, B))


def adj(A: ToeplitzElement) -> ToeplitzElement:
    """The adjoint: (p*)_k = conj(p_{-k}) and the conjugate transpose tail."""
    return _element({-k: c.conj() for k, c in A.symbol.items()},
                    {(j, i): c.conj() for (i, j), c in A.tail.items()})


def mul(A: ToeplitzElement, B: ToeplitzElement) -> ToeplitzElement:
    """Exact product; the symbol multiplies and four tail pieces collect:

    semicommutator correction, T(p) tail_B, tail_A T(q), tail_A tail_B.
    """
    p, q = A.symbol, B.symbol
    tail: list = []
    # Semicommutator: -sum_{k<0} p_{i-k} q_{k-j} at (i, j) = (dp + k, k - dq),
    # nonempty only for dp > 0 > dq; one coefficient -p_dp q_dq per pair.
    for dp, cp in p.items():
        if dp > 0:
            for dq, cq in q.items():
                if dq < 0:
                    c = -(cp * cq)
                    tail += [((dp + k, k - dq), c) for k in range(max(-dp, dq), 0)]
    # T(p) tail_B: (T(p) t)_{i c} = sum_r p_{i-r} t_{r c}.
    tail += [((dp + r, c), cp * t) for (r, c), t in B.tail.items()
             for dp, cp in p.items() if dp + r >= 0]
    # tail_A T(q): (t T(q))_{r j} = sum_c t_{r c} q_{c-j}.
    tail += [((r, c - dq), t * cq) for (r, c), t in A.tail.items()
             for dq, cq in q.items() if c >= dq]
    # tail_A tail_B.
    tail += [((r, c), t1 * t2) for (r, k1), t1 in A.tail.items()
             for (k2, c), t2 in B.tail.items() if k1 == k2]
    return _element(_conv(p, q), _collect(tail))


def is_essentially_unitary(A: ToeplitzElement) -> bool:
    """True iff the symbol is unimodular as a Laurent polynomial: p p* = 1.

    Then both I - A*A and I - AA* are pure tails (compact), exactly.
    """
    return _conv(A.symbol, adj(A).symbol) == {0: GQ_ONE}


def truncate(A: ToeplitzElement, n: int) -> np.ndarray:
    """Upper-left n x n corner P_n A P_n as a float matrix."""
    if n < 1:
        raise InvalidInput("truncation size must be >= 1")
    M = np.zeros((n, n), dtype=complex)
    for k, c in A.symbol.items():
        z = c.to_complex()
        for j in range(max(0, -k), min(n, n - k)):
            M[j + k, j] += z
    for (i, j), c in A.tail.items():
        if i < n and j < n:
            M[i, j] += c.to_complex()
    return M


def tail_operator_norm(A: ToeplitzElement) -> float:
    """Operator norm of a pure-tail (compact, finitely supported) element,
    read on the smallest corner that holds its tail."""
    if A.symbol:
        raise InvalidInput("operator norm is only offered for pure-tail elements")
    if not A.tail:
        return 0.0
    return linalg.op_norm(truncate(A, 1 + max(max(i, j) for (i, j) in A.tail)))


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
    on V and V* (implied by V*V = I) but may move other elements, e.g.
    VV* |-> I.
    """
    if mul(adj(V), V) != identity():
        raise NotIsometry("V*V != I exactly; V is not an isometry")

    def compress(a):
        return mul(mul(adj(V), a), V)

    results = []
    for idx, a in enumerate(probes):
        image = compress(a)
        diff = sub(image, a)
        norm = tail_operator_norm(diff) if not diff.symbol else None
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
