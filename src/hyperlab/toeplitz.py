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
denominator, reduced by one gcd per sum or product.  ``mul`` reduces less
often: it puts each operand over one denominator, sums its products on
integer numerators and reduces each result coefficient once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import linalg
from .errors import InvalidInput, NotIsometry, require_integer


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


def _numerators(A: ToeplitzElement) -> tuple:
    """(m, symbol, tail): each coefficient c of A as the integer pair
    (re, im) with c = (re + im i)/m, for m the lcm of all A's denominators,
    symbol and tail together."""
    m = lcm(*[c[2] for c in A.symbol.values()], *[c[2] for c in A.tail.values()])
    return (m, {k: (a * (m // d), b * (m // d)) for k, (a, b, d) in A.symbol.items()},
            {ij: (a * (m // d), b * (m // d)) for ij, (a, b, d) in A.tail.items()})


def _sum_terms(terms, out: dict) -> dict:
    """Adds each (key, re, im) of terms to the [re, im] sum under key."""
    for k, x, y in terms:
        e = out.get(k)
        if e is None:
            out[k] = [x, y]
        else:
            e[0] += x
            e[1] += y
    return out


def _reduced_map(sums: dict, m: int) -> dict:
    """key -> the GQ (re + im i)/m for each nonzero [re, im] sum."""
    return {k: _reduced(x, y, m) for k, (x, y) in sums.items() if x or y}


def _conv(p: dict, q: dict) -> dict:
    """The product of two Laurent polynomials, (pq)_k = sum_{i+j=k} p_i q_j,
    on (re, im) numerator pairs: k -> its [re, im] sum, zeros kept."""
    return _sum_terms(((dp + dq, a * c - b * d, a * d + b * c)
                       for dp, (a, b) in p.items() for dq, (c, d) in q.items()), {})


def _degree(k) -> int:
    require_integer("symbol degree", k)
    return int(k)


def _quarter(i, j) -> tuple:
    require_integer("tail index", i)
    require_integer("tail index", j)
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
        self.symbol = _collect((_degree(k), _coeff(c)) for k, c in (symbol or {}).items())
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

    A is put over one denominator m and B over n (``_numerators``), every
    piece is summed on integer (re, im) numerator pairs, and each nonzero
    result coefficient becomes one GQ over m n, with one gcd (Knuth, TAOCP
    Vol. 2, 4.5.1).
    """
    m, p, ta = _numerators(A)
    n, q, tb = _numerators(B)
    # Semicommutator: -sum_{k<0} p_{i-k} q_{k-j} at (i, j) = (dp + k, k - dq),
    # nonempty only for dp > 0 > dq; one coefficient -p_dp q_dq per pair.
    pairs = [(dp, dq, b * d - a * c, -(a * d + b * c)) for dp, (a, b) in p.items() if dp > 0
             for dq, (c, d) in q.items() if dq < 0]
    tail = _sum_terms((((dp + k, k - dq), x, y) for dp, dq, x, y in pairs
                       for k in range(max(-dp, dq), 0)), {})
    # T(p) tail_B: (T(p) t)_{i j} = sum_r p_{i-r} t_{r j}.
    _sum_terms((((dp + r, j), a * c - b * d, a * d + b * c) for (r, j), (c, d) in tb.items()
                for dp, (a, b) in p.items() if dp + r >= 0), tail)
    # tail_A T(q): (t T(q))_{r i} = sum_j t_{r j} q_{j-i}.
    _sum_terms((((r, j - dq), a * c - b * d, a * d + b * c) for (r, j), (a, b) in ta.items()
                for dq, (c, d) in q.items() if j >= dq), tail)
    # tail_A tail_B.
    _sum_terms((((r, j), a * c - b * d, a * d + b * c) for (r, k1), (a, b) in ta.items()
                for (k2, j), (c, d) in tb.items() if k1 == k2), tail)
    mn = m * n
    return _element(_reduced_map(_conv(p, q), mn), _reduced_map(tail, mn))


def is_essentially_unitary(A: ToeplitzElement) -> bool:
    """True iff the symbol is unimodular as a Laurent polynomial: p p* = 1.

    Then both I - A*A and I - AA* are pure tails (compact), exactly.
    """
    m, p, _ = _numerators(A)
    p_star = {-k: (a, -b) for k, (a, b) in p.items()}
    return _reduced_map(_conv(p, p_star), m * m) == {0: GQ_ONE}


def truncate(A: ToeplitzElement, n: int) -> np.ndarray:
    """Upper-left n x n corner P_n A P_n as a float matrix."""
    require_integer("truncation size", n)
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
