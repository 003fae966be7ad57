"""Dense complex linear algebra kernel.

Everything downstream (operator systems, Choi calculus, the UCP search)
funnels through the handful of primitives here: input coercion,
hermitization, operator and Frobenius norms, the partial trace and null
spaces.  Matrices are plain complex numpy arrays; all dimensions are
desk-scale (<= 64) so everything is dense.  Bases of matrix subspaces
(opsys.AlgebraBasis) are stored as one array of shape (dim, d, d).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

# Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/inf entries."""
    A = np.asarray(a, dtype=complex)
    if A.ndim != 2:
        raise InvalidInput(f"expected a 2-d matrix, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise InvalidInput("matrix has non-finite entries")
    return A


def as_stack(a) -> tuple:
    """(A, single): A a (k, m, n) complex stack with as_matrix's finite check,
    and single True when a was one matrix, which becomes the stack of one."""
    A = np.asarray(a, dtype=complex)
    if A.ndim != 3:
        return as_matrix(A)[None], True
    if not np.isfinite(A).all():
        raise InvalidInput("matrix has non-finite entries")
    return A, False


def require_square(A: np.ndarray) -> np.ndarray:
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    return A


def maxabs(A) -> float:
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def is_hermitian(A, rtol: float = HERMITICITY_RTOL) -> bool:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    return maxabs(A - A.conj().T) <= rtol * (1.0 + maxabs(A))


def hermitize(A) -> np.ndarray:
    """Symmetrize (A + A*)/2 of a matrix or of each matrix of a stack; used
    to wash out floating-point drift."""
    A = np.asarray(A, dtype=complex)
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def op_norm(A):
    """Largest singular value, via the top eigenvalue of A*A: a float for a
    matrix, and an array of one per matrix for a (k, m, n) stack, each with
    the bits of the 2-d call on that matrix (the product and eigvalsh run
    per matrix)."""
    A, single = as_stack(A)
    if A.size == 0:
        return 0.0 if single else np.zeros(len(A))
    top = np.linalg.eigvalsh(hermitize(A.conj().swapaxes(-1, -2) @ A))[:, -1]
    norms = np.sqrt(np.where(top < 0.0, 0.0, top))  # max(top, 0.0), as the sign of a 0 stays
    return float(norms[0]) if single else norms


def row_norm(A, axis=-1) -> np.ndarray:
    """Euclidean norms of A over axis (an int or a tuple of ints), one per
    remaining index: numpy's own expression for np.linalg.norm(A,
    axis=axis) with ord None, so the same bits, without that call's
    dispatch.  Inexact A only (norm casts integers to float first)."""
    return np.sqrt(np.add.reduce((A.conj() * A).real, axis=axis))


def frob_norm(A) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=complex)))


def frob_inner(A, B) -> complex:
    """Frobenius inner product <A, B> = trace(A* B)."""
    return complex(np.vdot(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)))


def null_space(A, rtol: float) -> np.ndarray:
    """Orthonormal columns spanning the null space of A.

    Singular values at or below rtol times the largest count as zero.  The
    SVD is thin unless A has fewer rows than columns: a tall stack needs
    only its Vh, and the full SVD would also build the unused rows x rows U.
    """
    A = np.asarray(A)
    _, sv, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(sv > rtol * (sv[0] if len(sv) and sv[0] > 0 else 1.0)))
    return Vh[rank:].conj().T


def partial_trace_first(C, d: int) -> np.ndarray:
    """Trace out the first tensor factor of a matrix on C^d (x) C^m.

    Row/column index convention is row-major: index (a, mu) -> a*m + mu,
    so partial_trace_first(np.kron(A, B), d) == trace(A) * B.
    """
    C = require_square(C)
    n = C.shape[0]
    if d < 1 or n % d != 0:
        raise InvalidInput(f"size {n} is not divisible by first factor dim {d}")
    m = n // d
    return np.einsum("aman->mn", C.reshape(d, m, d, m))


def eye(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)
