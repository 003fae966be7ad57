"""Completely positive maps on matrix algebras.

A linear map Phi: M_d -> M_d is carried around as its Choi matrix

    C = sum_ij E_ij (x) Phi(E_ij)

with the FIRST tensor factor indexing the input (row-major index
(i, m) -> i*d + m).  In this convention:

    Phi(A)_{mn}          = sum_ij C[(i,m),(j,n)] A_ij
    Phi is CP            <=> C is PSD
    Phi is unital        <=> partial_trace_first(C) = I
    Kraus form           C = sum_a w_a w_a*  with  w_a[(i,m)] = (K_a)_{mi}

Stinespring dilations are built by stacking Kraus adjoints:
V xi = sum_a (K_a* xi) (x) e_a gives Phi(a) = V*(a (x) I_r)V with V*V = I
whenever sum_a K_a K_a* = I (unitality).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NotCompletelyPositive, NotUCP, require_integer

# Eigenvalues of C below this fraction of trace(C) are dropped from the
# Kraus decomposition (numerical rank).
KRAUS_EIG_RTOL = 1e-10

# Default tolerance for "is UCP" preconditions.
UCP_TOL = 1e-6


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a map M_d -> M_d, input-first convention."""

    d: int
    mat: np.ndarray

    def __post_init__(self):
        require_integer("d", self.d)
        M = linalg.require_square(self.mat)
        if M.shape[0] != self.d * self.d:
            raise InvalidInput(f"Choi matrix for d={self.d} must be {self.d ** 2} x {self.d ** 2}")
        if not linalg.is_hermitian(M, rtol=1e-9):
            raise InvalidInput("Choi matrix must be Hermitian")
        object.__setattr__(self, "mat", linalg.hermitize(M))


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators {K_a} of Phi(A) = sum_a K_a A K_a*.

    Operators are d_out x d_in; rectangular sets model compressions into a
    smaller ambient algebra.  Unital means sum_a K_a K_a* = I.
    """

    d_in: int
    d_out: int
    operators: tuple

    def __post_init__(self):
        require_integer("d_in", self.d_in)
        require_integer("d_out", self.d_out)
        ops = tuple(linalg.as_matrix(K) for K in self.operators)
        if not ops:
            raise InvalidInput("Kraus set must be nonempty")
        for K in ops:
            if K.shape != (self.d_out, self.d_in):
                raise InvalidInput(f"Kraus operator shape {K.shape} != ({self.d_out}, {self.d_in})")
        object.__setattr__(self, "operators", ops)

    def apply(self, A) -> np.ndarray:
        """Phi(A) for one d_in x d_in matrix or a (k, d_in, d_in) stack,
        summed over the operators in order; each Phi(A_k) has the bits of
        the 2-d call on A_k."""
        A, single = linalg.as_stack(A)
        if A.shape[1:] != (self.d_in, self.d_in):
            raise InvalidInput(f"input must be {self.d_in} x {self.d_in}")
        out = np.zeros((len(A), self.d_out, self.d_out), dtype=complex)
        for K in self.operators:
            out += K @ A @ K.conj().T
        return out[0] if single else out


@dataclass(frozen=True)
class StinespringDilation:
    """Phi(a) = V* (a (x) I_r) V with V an isometry into C^d (x) C^r."""

    d: int
    r: int
    V: np.ndarray
    minimal: bool

    def __post_init__(self):
        require_integer("d", self.d)
        require_integer("r", self.r)

    def sigma(self, a) -> np.ndarray:
        """The dilation representation sigma(a) = a (x) I_r."""
        a = linalg.require_square(a)
        if a.shape != (self.d, self.d):
            raise InvalidInput(f"input must be {self.d} x {self.d}")
        return np.kron(a, np.eye(self.r))

    def compress(self, a) -> np.ndarray:
        return self.V.conj().T @ self.sigma(a) @ self.V


def identity_choi(d: int) -> ChoiMatrix:
    """Choi matrix w w* of the identity map on M_d, built once per d and
    shared, so its mat is read-only.  d is checked before the lookup, as
    3.0 and True would otherwise find the entries of 3 and 1, and a numpy
    integer shares the entry of its int."""
    require_integer("d", d)
    return _identity_choi(int(d))


# A few dimensions at a time: each entry holds d^4 complex numbers.
@functools.lru_cache(maxsize=8)
def _identity_choi(d: int) -> ChoiMatrix:
    w = np.eye(d, dtype=complex).reshape(-1)  # w[(i,m)] = delta_im
    C = ChoiMatrix(d=d, mat=np.outer(w, w.conj()))
    C.mat.flags.writeable = False
    return C


def choi_from_kraus(K: KrausSet) -> ChoiMatrix:
    if K.d_in != K.d_out:
        raise InvalidInput("Choi matrices are only kept for square maps M_d -> M_d")
    d = K.d_in
    C = np.zeros((d * d, d * d), dtype=complex)
    for op in K.operators:
        w = op.T.reshape(-1)  # w[(i,m)] = K[m,i]
        C += np.outer(w, w.conj())
    return ChoiMatrix(d=d, mat=C)


def kraus_from_choi(C: ChoiMatrix) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition.

    Raises NotCompletelyPositive when C has an eigenvalue below -UCP_TOL,
    the cp_defect that stinespring's UCP check accepts; eigenvalues at or
    below KRAUS_EIG_RTOL * max(trace(C), 1) are dropped.
    """
    d = C.d
    w, U = np.linalg.eigh(C.mat)
    tr = float(np.trace(C.mat).real)
    scale = max(tr, 1.0)
    if w[0] < -UCP_TOL:
        raise NotCompletelyPositive(f"Choi matrix has eigenvalue {w[0]:.3e}")
    ops = []
    for k in range(len(w) - 1, -1, -1):
        if w[k] <= KRAUS_EIG_RTOL * scale:
            break
        ops.append(np.sqrt(w[k]) * U[:, k].reshape(d, d).T)
    if not ops:
        ops = [np.zeros((d, d), dtype=complex)]
    return KrausSet(d_in=d, d_out=d, operators=tuple(ops))


def apply_choi(C: ChoiMatrix, A) -> np.ndarray:
    """Phi(A); algebraically equal to partial_trace_first(C (A^T (x) I)).

    A is one d x d matrix or a (k, d, d) stack, mapped in one einsum; each
    Phi(A_k) has the bits of the 2-d call on A_k."""
    A, single = linalg.as_stack(A)
    d = C.d
    if A.shape[1:] != (d, d):
        raise InvalidInput(f"input must be {d} x {d}")
    out = np.einsum("imjn,kij->kmn", C.mat.reshape(d, d, d, d), A)
    return out[0] if single else out


def choi_functional(A, W) -> np.ndarray:
    """F = A^T (x) W*, so tr(F C) = tr(W* Phi_C(A)) for every Choi matrix C:
    the adjoint of apply_choi, batched over broadcast leading axes."""
    A, W = np.asarray(A), np.asarray(W)
    F = np.einsum("...ij,...mn->...jnim", A, W.conj())
    return F.reshape(F.shape[:-4] + (A.shape[-1] ** 2,) * 2)


def validate_ucp(C: ChoiMatrix) -> dict:
    """Defects from the UCP requirements: both ~0 iff the map is UCP."""
    w = np.linalg.eigvalsh(C.mat)
    cp_defect = max(0.0, -float(w[0]))
    unital_defect = linalg.op_norm(linalg.partial_trace_first(C.mat, C.d) - np.eye(C.d))
    return {"cp_defect": cp_defect, "unital_defect": unital_defect}


def _require_ucp(C: ChoiMatrix, tol: float):
    defects = validate_ucp(C)
    if defects["cp_defect"] > tol or defects["unital_defect"] > tol:
        raise NotUCP(
            f"map is not UCP within {tol:.1e} "
            f"(cp_defect={defects['cp_defect']:.3e}, unital_defect={defects['unital_defect']:.3e})"
        )


def stinespring_from_kraus(K: KrausSet) -> StinespringDilation:
    """Dilation by stacking Kraus adjoints; multiplicity r = len(K)."""
    d_in, d_out, r = K.d_in, K.d_out, len(K.operators)
    # V[(m, a), j] = conj(K_a[j, m]) so that V*V = sum K K* and
    # V*(a (x) I)V = sum K a K*.
    V = np.zeros((d_in * r, d_out), dtype=complex)
    for a, op in enumerate(K.operators):
        V[a::r, :] = op.conj().T
    # Minimal, i.e. span{(a (x) I_r) V xi} = C^d (x) C^r, iff the Kraus
    # operators are linearly independent: that span is C^d (x) the row
    # space of the stacked vec(K_a).
    sv = np.linalg.svd(np.array([op.reshape(-1) for op in K.operators]), compute_uv=False)
    minimal = int(np.sum(sv > 1e-9 * (sv[0] if sv[0] > 0 else 1.0))) == r
    return StinespringDilation(d=d_in, r=r, V=V, minimal=minimal)


def stinespring(C: ChoiMatrix) -> StinespringDilation:
    """Stinespring dilation of a UCP map given by its Choi matrix."""
    _require_ucp(C, UCP_TOL)
    return stinespring_from_kraus(kraus_from_choi(C))


def _schwarz_from_apply(phi, a) -> dict:
    """The defects from one stacked phi call on [a, a*a, aa*] and one
    stacked op_norm call on [left, right]; phi must take a stack."""
    a = linalg.as_matrix(a)
    pa, p_left, p_right = phi(np.array([a, a.conj().T @ a, a @ a.conj().T]))
    left = linalg.hermitize(p_left - pa.conj().T @ pa)
    right = linalg.hermitize(p_right - pa @ pa.conj().T)
    left_norm, right_norm = linalg.op_norm(np.array([left, right])).tolist()
    return {
        "left": left,
        "right": right,
        "left_norm": left_norm,
        "right_norm": right_norm,
    }


def schwarz_defects(C: ChoiMatrix, a) -> dict:
    """Kadison-Schwarz defect matrices of a UCP map at a.

    left = Phi(a*a) - Phi(a)*Phi(a), right = Phi(aa*) - Phi(a)Phi(a)*;
    both are PSD for UCP maps, and both vanish exactly when a lies in the
    multiplicative domain.
    """
    _require_ucp(C, UCP_TOL)
    return _schwarz_from_apply(lambda x: apply_choi(C, x), a)


def schwarz_defects_kraus(K: KrausSet, a) -> dict:
    """Schwarz defects evaluated directly in Kraus form (rectangular OK)."""
    return _schwarz_from_apply(K.apply, a)


def coinvariance_block(D: StinespringDilation, S_img, rho_S) -> dict:
    """Norm of the off-diagonal block P_{VH} sigma(S) |_{(VH)perp}.

    S_img is sigma(S) in the dilation space; rho_S is the compressed image
    the dilation is supposed to produce (checked, reported as a residual).
    When Phi(SS*) = Phi(S)Phi(S)* holds, this block vanishes.
    """
    S_img = linalg.require_square(S_img)
    n = D.d * D.r
    if S_img.shape != (n, n):
        raise InvalidInput(f"sigma(S) must be {n} x {n}")
    rho_S = linalg.as_matrix(rho_S)
    if rho_S.shape != (D.d, D.d):
        raise InvalidInput(f"rho(S) must be {D.d} x {D.d}")
    P = D.V @ D.V.conj().T
    X = P @ S_img @ (np.eye(n) - P)
    compressed = D.V.conj().T @ S_img @ D.V
    return {
        "X_block_norm": linalg.op_norm(X),
        "compression_residual": linalg.op_norm(compressed - rho_S),
    }
