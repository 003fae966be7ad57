"""Decide the unique extension property, by theorem or by search.

The question "is the identity representation the only UCP map pinned to
agree with it on a generator set G?" is first put to the multiplicative
domain theorem the paper proves hyperrigidity with (Choi 1974; Arveson
2011; _theorem_step tests the traceless, unit-norm part of g): when g*g
and gg* lie in span{I, G, G*}, every feasible Phi has
Phi(g*g) = Phi(g)*Phi(g) and Phi(gg*) = Phi(g)Phi(g)*, so g lies in the
multiplicative domain of Phi, where Phi is a *-homomorphism fixing g.
When such generators generate C*(G), Phi = id on C*(G) and solve reports
Unique-evidence with basis "theorem", having built no face; C*(G) is then
read from one eigh of a generic element when it is M_d or a diagonal
algebra (_eigh_algebra), and closed by words otherwise.

Commuting normal generators are next decided from their joint spectrum
(basis "spectrum"; Arveson 2011, Phelps 2001): C*(G) is the span of the
joint spectral projections P_lambda, and the identity has the unique
extension property exactly when every joint eigenvalue point p_lambda (the
real and imaginary parts of g(lambda), g in G) is an extreme point of the
convex hull of them all.  An interior point p_lambda = sum_nu mu_nu p_nu
gives the pinch-and-mix map

    Phi(x) = sum_{kappa != lambda} P_kappa x P_kappa
             + (sum_nu mu_nu <e_nu, x e_nu>) P_lambda,

which is UCP, fixes G and sends P_lambda to 0: a closed-form certificate
(Saskin's X = diag(0, 1, 2) fails at 1 = (0 + 2)/2 this way).  Every other
problem is decided at desk scale by searching the spectrahedron

    { Choi matrices C : C PSD, Phi_C(h) = h for h in H }

for maps that move some probe a from the generated algebra, where H is an
orthonormal Hermitian basis of the operator system span{I, G, G*} (Phi is
*-preserving, so fixing H means unital and fixing G and G*).  Searching
Choi matrices on all of M_d is sound here: a UCP map on C*(G) extends to
M_d by Arveson's extension theorem, so restricting deviation measurement
to probes inside C*(G) loses nothing, while probes outside the algebra
only witness extension freedom and are labeled as such.

The maximum of the convex function ||Phi(a) - a|| over the feasible set is
lower-bounded by maximizing linear witness functionals <W, Phi(a)>:
a handful of random Hermitian directions W plus the adaptive choice
W = Phi(a) - a from the previous round (a conditional-gradient-style
refinement), left out when it would repeat the task that found Phi.  A
witness whose objective cannot move on the constraint slice (its
gradient is normal to the slice, as for every witness of a set with the
unique extension property on its minimal face) has a fixed answer and is
skipped.  The sampled face of _pinned_face can miss the
minimal one, so build_constraints reduces it by exposing vectors before
any search.  Each remaining linear maximization runs projected gradient
ascent until its raw objective stalls, then rounds its final iterate onto
(PSD intersect affine).  One Dykstra routine, _face_dykstra, serves the
exposing search and the rounding.  Deviations are only ever reported at
certified feasible points, so "Unique-evidence" cannot be an artifact of
infeasibility drift.

Every solver point is an n x n Hermitian face matrix M (the Choi matrix is
U M U* for the face isometry U); hermvec coordinates appear only in
_pinv_mats and the basis of build_constraints.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import cpmaps, linalg, opsys
from .errors import Infeasible, InvalidInput, require_integer
from .rng import check_seed, make_rng, random_hermitian
from .serialize import matrix_to_literal

SQRT2 = np.sqrt(2.0)

# Feasibility target for polished points.
FEAS_TOL = 1e-9

# A probe counts as inside the generated algebra when its projection
# residual is below this (relative) threshold; _validate cuts the
# residuals of g0*g0 and g0 g0* off span{I, G, G*} (unit-norm g0) there too.
MEMBERSHIP_RTOL = 1e-8

# Longest word in {T, T*} checked by schwarz_pinning_check.
WORD_LENGTH = 4


# ----------------------------------------------------------------------------
# Real coordinates on the space of Hermitian matrices
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _triu(n: int) -> tuple:
    """(upper-triangle index arrays, diagonal range) of n x n matrices;
    shared by every caller, so only ever read."""
    return np.triu_indices(n, 1), np.arange(n)


def hermvec(X: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of Hermitian matrices (batched).

    Layout: diagonal (real), then sqrt(2) * upper-triangle real parts, then
    sqrt(2) * upper-triangle imaginary parts; the Frobenius inner product
    becomes the Euclidean dot product.
    """
    iu, _ = _triu(X.shape[-1])
    up = X[..., iu[0], iu[1]]
    diag = np.real(np.diagonal(X, axis1=-2, axis2=-1))
    return np.concatenate([diag, SQRT2 * np.real(up), SQRT2 * np.imag(up)], axis=-1)


def unhermvec(x: np.ndarray, n: int) -> np.ndarray:
    iu, ar = _triu(n)
    k = len(iu[0])
    diag = x[..., :n]
    off = (x[..., n:n + k] + 1j * x[..., n + k:n + 2 * k]) / SQRT2
    M = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    M[..., ar, ar] = diag
    M[..., iu[0], iu[1]] = off
    M[..., iu[1], iu[0]] = off.conj()
    return M


def _psd_clip(M: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to Hermitian M (batched eigenvalue clip)."""
    w, U = np.linalg.eigh(M)
    return (U * np.maximum(w, 0.0)[..., None, :]) @ U.conj().swapaxes(-1, -2)


def _flat(A: np.ndarray) -> np.ndarray:
    """Real view of a stack of complex matrices, one row per matrix (no copy):
    the dot product of two rows is tr(A B) for Hermitian A and B."""
    return A.view(float).reshape(A.shape[:-2] + (-1,))


def _tr(F: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """tr(F_j Z) of Hermitian F_j and Z, the dot products of their real views:
    one stack F (m, n, n) against one point Z (n, n) or a batch (K, n, n)."""
    return _flat(Z) @ _flat(F).T


def _affine_project(F: np.ndarray, P: np.ndarray, b: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Z - sum_j (tr(F_j Z) - b_j) P_j for one stack F, P (m, n, n) and one
    point or a batch Z: the projection onto {tr(F_j Z) = b_j} when P holds
    the pseudo-inverse columns of F."""
    step = (_tr(F, Z) - b) @ _flat(P)
    return Z - step.view(complex).reshape(Z.shape)


def _pinv_mats(F: np.ndarray) -> np.ndarray:
    """Pseudo-inverse columns of the functionals F (..., m, n, n) as n x n
    matrices; the SVD runs on hermvec coordinates, half the real width."""
    pinv = np.linalg.pinv(hermvec(F), rcond=1e-12)
    return unhermvec(pinv.swapaxes(-1, -2), F.shape[-1])


# An item succeeds once its gap is at most DYKSTRA_TOL and stalls once the gap
# has not shrunk by 10% over DYKSTRA_WINDOW passes, so every run ends.
DYKSTRA_TOL = 1e-12
DYKSTRA_WINDOW = 20


def _face_dykstra(project, M: np.ndarray):
    """Batched Dykstra between the PSD cone and the affine set onto which
    ``project`` maps a stack: the last affine point of each item.  Only the
    PSD step carries a correction (an orthogonal projection onto an affine
    set needs none).  Each item stops on its own, once its gap
    ||clip - point|| reaches DYKSTRA_TOL or on a stall, and a NaN gap
    counts as a stall.  That covers only items whose ``eigh`` returns NaN:
    an item with a NaN off the diagonal can make the batched ``eigh`` of
    ``_psd_clip`` raise LinAlgError for the whole batch before any gap is
    read (numpy 2.4.6 does at n = 3; a 2 x 2 item gets NaN eigenvalues).
    The points are not checked here, so every caller checks what it
    accepts."""
    out = np.empty_like(M)
    live, x, p = np.arange(len(M)), M, np.zeros_like(M)
    gaps = np.empty((len(M), DYKSTRA_WINDOW))  # slot i % DYKSTRA_WINDOW: the gap of pass i
    for i in itertools.count():
        t = x + p
        y = _psd_clip(t)
        p = t - y
        x = project(y)
        gap = linalg.row_norm((y - x).reshape(len(live), -1))
        won, slot = gap <= DYKSTRA_TOL, i % DYKSTRA_WINDOW
        done = won | ((i >= DYKSTRA_WINDOW) & ~(gap <= 0.9 * gaps[:, slot]))
        gaps[:, slot] = gap
        if done.any():
            out[live[done]] = x[done]
            live, x, p, gaps = live[~done], x[~done], p[~done], gaps[~done]
            if not len(live):
                return out


# ----------------------------------------------------------------------------
# Problem statement and results
# ----------------------------------------------------------------------------

@dataclass
class UepProblem:
    """One unique-extension-property test for the identity representation."""

    d: int
    G: opsys.GeneratorSet
    probes: list | None = None
    tol: float = 1e-7
    max_iter: int = 20000
    seed: int = 0
    n_witnesses: int = 8


@dataclass
class ViolationCertificate:
    choi: cpmaps.ChoiMatrix
    probe: np.ndarray
    deviation: float  # ||Phi(a) - a|| in operator norm
    residuals: dict

    def to_json(self) -> dict:
        return {
            "choi": {
                "d": self.choi.d,
                "convention": "input-first",
                "matrix": matrix_to_literal(self.choi.mat),
            },
            "probe": matrix_to_literal(self.probe),
            "deviation": self.deviation,
            "residuals": self.residuals,
        }


@dataclass
class ProbeDeviation:
    index: int
    deviation: float
    in_algebra: bool
    projection_residual: float

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "deviation": self.deviation,
            "in_algebra": self.in_algebra,
            "projection_residual": self.projection_residual,
            "label": "uep-probe" if self.in_algebra else "extension freedom, not UEP violation",
        }


@dataclass
class UepReport:
    status: str  # "Unique-evidence" | "ViolationFound" | "NonConverged"
    basis: str  # "theorem" (_theorem_step) | "spectrum" (_spectrum_step) | "search" (_search)
    deviations: list
    iterations: int
    residuals: dict
    constraint_rank: int
    face_dim: int | None  # n of the reduced face the search ran on; None: no face was built
    certificate: ViolationCertificate | None
    choi: cpmaps.ChoiMatrix
    seed: int
    tol: float
    membership: dict | None = None  # theorem only: largest membership residual and its cutoff

    @property
    def rank_margin(self) -> int:
        """Real dimension d^4 of the Hermitian d^2 x d^2 matrices minus
        constraint_rank."""
        return self.choi.d ** 4 - self.constraint_rank

    @property
    def max_deviation(self) -> float:
        devs = [p.deviation for p in self.deviations if p.in_algebra]
        return max(devs) if devs else 0.0

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "basis": self.basis,
            "deviations": [p.to_json() for p in self.deviations],
            "max_deviation": self.max_deviation,
            "iterations": self.iterations,
            "residuals": self.residuals,
            "constraint_rank": self.constraint_rank,
            "rank_margin": self.rank_margin,
            "face_dim": self.face_dim,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "seed": self.seed,
            "tol": self.tol,
        }
        if self.membership is not None:
            out["membership"] = self.membership
        return out


# ----------------------------------------------------------------------------
# Affine constraints on the Choi matrix
# ----------------------------------------------------------------------------

@dataclass
class ConstraintSystem:
    """Real-linear equations tr(F_j M) = b_j on n x n Hermitian face matrices.

    ``face`` is an isometry U (d^2 x n) such that every feasible Choi matrix
    is U M U* with M an n x n PSD matrix (facial reduction; see
    _pinned_face); every solver point is such an M.  Equation (a, b) reads
    <E_b, Phi(H_a)> = <E_b, H_a> (see build_constraints), so the residual
    norm is the Frobenius norm of (Phi(H_a) - H_a)_a.  ``P`` holds the
    pseudo-inverse columns of the functionals ``F`` as matrices.
    """

    d: int
    n: int
    face: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    x_identity: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.F)  # orthonormal functionals (build_constraints); restrict keeps the rows

    def restrict(self, V: np.ndarray) -> "ConstraintSystem":
        """The same equations on the sub-face ``face @ V`` (V an n x r isometry
        whose range carries every feasible face matrix)."""
        F = V.conj().T @ self.F @ V
        return replace(self, n=V.shape[1], face=self.face @ V, F=F, P=_pinv_mats(F),
                       x_identity=V.conj().T @ self.x_identity @ V)

    def to_choi_mat(self, M: np.ndarray) -> np.ndarray:
        """Ambient d^2 x d^2 Choi matrix of a face matrix."""
        return self.face @ M @ self.face.conj().T

    def proj_affine(self, Z: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {tr(F_j Z) = b_j} (batched)."""
        return _affine_project(self.F, self.P, self.b, Z)

    def affine_residual(self, Z: np.ndarray) -> np.ndarray:
        return linalg.row_norm(_tr(self.F, Z) - self.b)

    def proj_psd(self, Z: np.ndarray) -> np.ndarray:
        return _psd_clip(Z)

    def psd_residual(self, Z: np.ndarray) -> np.ndarray:
        w = np.linalg.eigvalsh(Z)
        return np.clip(-w[..., 0], 0.0, None)


def _pinned_face(P: UepProblem) -> np.ndarray:
    """Isometry onto the face of the PSD cone carrying all feasible Chois.

    For any PSD matrix A in the real span of {I} u G u G* (which Phi fixes
    elementwise), a kernel vector u and a range vector x of A force

        <u, Phi(x x*) u> <= <u, Phi(A) u> / lambda = <u, A u> / lambda = 0,

    so conj(x) (x) u lies in the kernel of every feasible Choi matrix.
    Extreme-eigenvalue shifts H - lmin(H) I and lmax(H) I - H of sampled
    pinned combinations H are exactly such boundary PSD elements; the
    collected kernel directions are deflated away.  The sampling is
    deterministic and independent of the problem seed.
    """
    d = P.d
    D = d * d
    basis = [np.eye(d, dtype=complex)]
    for g in P.G.with_adjoints():
        for H in ((g + g.conj().T) / 2.0, (g - g.conj().T) / 2.0j):
            if linalg.maxabs(H) > 1e-14:
                basis.append(H)
    # Mix traceless parts: an identity part would add its size to eigh's rounding.
    shift = np.real(np.trace(basis, axis1=1, axis2=2)) / d
    basis = np.array(basis) - shift[:, None, None] * np.eye(d)
    rng = make_rng(0x0FACE)
    coef = rng.standard_normal((4 * len(basis) + 8, len(basis)))
    mix = 0  # summed term by term, in basis order
    for k, Bk in enumerate(basis):
        mix = mix + coef[:, k, None, None] * Bk
    w, V = np.linalg.eigh(np.concatenate([basis, mix]))

    scale = w[:, -1] - w[:, 0]
    # Skip multiples of I up to (unshifted) rounding: their noise eigenvectors are no boundary.
    shift = np.concatenate([shift, coef @ shift])[:, None]
    live = scale > 1e-12 * np.max(abs(w[:, [0, -1]] + shift), axis=1)
    mu = np.stack([w - w[:, :1], w[:, -1:] - w], axis=1)  # both shifts, per sample
    ker = (mu <= 1e-12 * scale[:, None, None]) & live[:, None, None]
    rng_vecs = mu >= 1e-6 * scale[:, None, None]
    # Row (sample, shift, u, x) is kron(conj(x), u) for kernel vector u and
    # range vector x of that shift.
    Vt = V.swapaxes(-1, -2)
    outer = (Vt.conj()[:, None, :, :, None] * Vt[:, :, None, None, :]).reshape(-1, d, d, D)
    pick = ker[..., :, None] & rng_vecs[..., None, :]
    kernel = np.broadcast_to(outer.reshape(-1, 1, d, d, D), pick.shape + (D,))[pick]
    if not len(kernel):
        return np.eye(D, dtype=complex)
    # Null space of the conjugated stack = orthogonal complement of the
    # kernel vectors (<v, z> = 0 means conj(v) . z = 0).
    return linalg.null_space(kernel.conj(), 1e-8)  # D x (D - rank) orthonormal complement


def build_constraints(P: UepProblem) -> ConstraintSystem:
    """Affine system Phi(h) = h for h in an orthonormal Hermitian basis H of
    span{I, G, G*}, compressed onto the pinned face.

    H comes from one SVD of the hermvec coordinates of I and the Hermitian
    and anti-Hermitian parts of every generator.  Equation (a, b) is the
    functional C |-> <E_b, Phi_C(H_a)> = tr((H_a^T (x) E_b) C) over the
    hermvec basis E, with target hermvec(H_a)_b; F holds its compression
    U* (H_a^T (x) E_b) U onto the face U.  The k d^2 ambient functionals
    are orthonormal, so the rank is their count, d^2 dim_C span{I, G, G*}.
    The sampled face is then reduced by exposing vectors (_exposing_face)
    until none turns up, so every caller gets the same, reduced, face.
    """
    d = P.d
    S = np.array([np.eye(d, dtype=complex), *P.G.generators])
    parts = np.concatenate([hermvec((S + S.conj().swapaxes(-1, -2)) / 2.0),
                            hermvec((S - S.conj().swapaxes(-1, -2)) / 2.0j)])
    _, sv, Vh = np.linalg.svd(parts, full_matrices=False)
    H = unhermvec(Vh[sv > 1e-12 * sv[0]], d)

    face = _pinned_face(P)
    E = unhermvec(np.eye(d * d), d)
    F = cpmaps.choi_functional(H[:, None], E[None, :]).reshape(-1, d * d, d * d)
    F = face.conj().T @ F @ face
    bv = hermvec(H).ravel()

    C_id = cpmaps.identity_choi(d).mat
    x_id = face.conj().T @ C_id @ face
    b_scale = 1.0 + np.linalg.norm(bv)
    # The identity map must satisfy its own pinning and lie on the face;
    # failure means the system as posed has no solution.
    face_resid = linalg.frob_norm(face @ x_id @ face.conj().T - C_id)
    if np.linalg.norm(_tr(F, x_id) - bv) > 1e-7 * b_scale or face_resid > 1e-7:
        raise Infeasible("identity map violates the affine constraints as assembled")

    cs = ConstraintSystem(d=d, n=face.shape[1], face=face, F=F, P=_pinv_mats(F), b=bv, x_identity=x_id)
    while (found := _exposing_face(cs)) is not None:
        cs = cs.restrict(found[0])
    return cs


# ----------------------------------------------------------------------------
# Facial reduction by exposing vectors
# ----------------------------------------------------------------------------

def _exposing_face(cs: ConstraintSystem):
    """One facial-reduction step (Borwein-Wolkowicz): (V, y) or None.

    Looks for Y = sum_j y_j F_j with Y PSD, tr Y = 1 and tr(Y x_identity) =
    sum_j y_j b_j = 0.  Every feasible M then has tr(Y M) = 0, so its range
    lies in ker Y, and V is an orthonormal basis of ker Y (the eigenvectors
    below 1e-6 times the largest eigenvalue, as for range vectors in
    _pinned_face).  As tr(F_j x_identity) = b_j, that affine slice of
    span_R{F_j} is empty exactly when (tr F_j)_j and b are parallel; one
    2 x m SVD decides this first (a single functional, as at d = 1, is
    parallel to b), and an empty slice proves that no exposing vector
    exists.  Otherwise _face_dykstra searches the slice from its point
    nearest I/n, and its point Y is kept only when lambda_min(Y) >=
    -FEAS_TOL, the bound rounded points are certified with (a success stop,
    gap <= DYKSTRA_TOL, meets it by Weyl; a NaN eigenvalue fails it).  None
    means an empty slice, or a Y that fails the check, which proves nothing.
    """
    n = cs.n
    sv = np.linalg.svd([np.real(np.einsum("jii->j", cs.F)), cs.b], compute_uv=False)
    if len(sv) < 2 or sv[1] <= 1e-9 * sv[0]:
        return None
    # tr Y and tr(Y x_identity) on span_R{F_j}, onto which Z - _affine_project(F, P, 0, Z) projects.
    T = np.array([np.eye(n, dtype=complex), cs.x_identity])
    T, t = T - _affine_project(cs.F, cs.P, 0.0, T), np.array([1.0, 0.0])
    Q = _pinv_mats(T)
    project = lambda Z: _affine_project(T, Q, t, Z - _affine_project(cs.F, cs.P, 0.0, Z))  # onto the slice
    (Y,) = _face_dykstra(project, project(np.eye(n, dtype=complex)[None] / n))
    w, U = np.linalg.eigh(Y)
    if not w[0] >= -FEAS_TOL:
        return None
    return U[:, w < 1e-6 * w[-1]], _tr(cs.P, Y)  # sum_j y_j F_j = Y


# ----------------------------------------------------------------------------
# Facial rounding: exact feasibility restoration on the reduced face
# ----------------------------------------------------------------------------

def _face_polish(cs: ConstraintSystem, X: np.ndarray) -> list:
    """Certified feasible points near the face matrices X: (row, point)
    pairs in row order.  build_constraints has already reduced the face, so
    rounding needs no face guess of its own.

    Each row is projected onto the affine constraints of cs, which are
    consistent, so it lands on them.  Every projected row with an
    eigenvalue below -FEAS_TOL goes through one batched _face_dykstra call.
    Only points passing the affine and PSD checks are kept."""
    b_scale = 1.0 + float(np.linalg.norm(cs.b))
    # Not cs.proj_affine: that is the ascent's step, which per-layer traces count.
    project = functools.partial(_affine_project, cs.F, cs.P, cs.b)
    M = project(X)
    wmin = np.linalg.eigvalsh(M)[:, 0]
    dyk = np.flatnonzero(wmin < -FEAS_TOL)
    if len(dyk):
        M[dyk] = _face_dykstra(project, M[dyk])
        wmin[dyk] = np.linalg.eigvalsh(M[dyk])[:, 0]
    ok = np.flatnonzero((cs.affine_residual(M) <= FEAS_TOL * b_scale) & (wmin >= -FEAS_TOL))
    return list(zip(ok.tolist(), M[ok]))


# ----------------------------------------------------------------------------
# Linear maximization over the spectrahedron (batched over witnesses)
# ----------------------------------------------------------------------------

# Ascent steps between stall checks, and the number of checks in a row
# without a raw gain after which a task has stalled.
CHECK_EVERY = 25
STALL_BREAK = 8


def _linear_max_batch(cs: ConstraintSystem, G: np.ndarray, max_iter: int):
    """Maximize each linear functional tr(G_k M) over {affine, PSD}.

    Projected gradient ascent (step, PSD clip, affine projection), then one
    facial rounding of all K final iterates by a single _face_polish call.
    Every CHECK_EVERY steps each task's raw objective is compared with its
    best so far; a task that stops gaining gets its step halved, with no
    floor, and the ascent stops once every task has gone STALL_BREAK checks
    in a row without a gain.  A task's gain is tr(G_k (x_k - x_identity)) at
    its certified point x_k when that exceeds 1e-10; otherwise it is exactly
    0 and its point is x_identity.  Every G_k must be nonzero (the caller
    skips tasks whose gradient is normal to the slice).  Returns (points,
    gains, iterations, stalled); stalled is False when max_iter ran out
    first.
    """
    K = len(G)
    X = np.tile(cs.x_identity, (K, 1, 1))
    # Step ~ a modest fraction of the spectrahedron diameter per move.
    step = 0.1 * cs.d / linalg.row_norm(G.reshape(K, -1))
    base = _tr(G, cs.x_identity)
    prev_raw = base.copy()
    stall = np.zeros(K, dtype=int)
    it, stalled = 0, False
    while it < max_iter and not stalled:
        inner = min(CHECK_EVERY, max_iter - it)
        move = step[:, None, None] * G  # step changes only at checks
        for _ in range(inner):
            X = X + move
            X = cs.proj_psd(X)
            X = cs.proj_affine(X)
        it += inner
        raw_obj = (_flat(G)[:, None] @ _flat(X)[..., None])[:, 0, 0]  # tr(G_k X_k)
        raw_gain = raw_obj > prev_raw + 1e-8 * (1.0 + np.abs(prev_raw))
        prev_raw = np.maximum(prev_raw, raw_obj)
        stall = np.where(raw_gain, 0, stall + 1)
        step[stall >= 2] *= 0.5
        stalled = bool(np.all(stall >= STALL_BREAK))
    best_X = np.tile(cs.x_identity, (K, 1, 1))
    gain = np.zeros(K)
    for k, z in _face_polish(cs, X):
        g = float(_tr(G[k], z)) - base[k]
        if g > 1e-10:
            gain[k], best_X[k] = g, z
    return best_X, gain, it, stalled


# ----------------------------------------------------------------------------
# The falsifier
# ----------------------------------------------------------------------------

def solve(P: UepProblem) -> UepReport:
    """Decide the UEP question: check the input, then try the theorem
    step, then the spectrum step, and search only when both decline.

    A theorem report (basis "theorem") has exact zero deviations, no face
    (``face_dim`` None) and the identity Choi matrix.  A spectrum report
    (basis "spectrum") has no face either: Unique-evidence shaped like a
    theorem report, or the pinch-and-mix map of an interior joint
    eigenvalue with every probe's operator-norm deviation under it, as
    described at _spectrum_step.  A search report (basis "search") carries
    deviations, a certificate, or evidence of uniqueness, as described at
    _search.
    """
    span, probes, info, membership, stack = _validate(P)
    return (_theorem_step(P, span, info, membership)
            or _spectrum_step(P, span, probes, info, stack) or _search(P, probes, info))


def _validate(P: UepProblem) -> tuple:
    """Input checks and what the steps share: (span, probes, info,
    membership, stack).

    This is the one place a UepProblem is checked.  span is span_C{I, G, G*}
    (_pinned_span), built once for the theorem and spectrum steps; alg =
    C*(G), and membership is the theorem's decision (see _theorem_step),
    None when it declines.  When the theorem holds, alg is C*(passing),
    read by _eigh_algebra where it answers; otherwise words are closed
    (opsys.generate_algebra), the passing generators' when some pass and
    then, unless their algebra proves the theorem, G's; probes
    are P.probes, or the basis of alg when None, as one (k, d, d) stack;
    info holds one ProbeDeviation row per probe, with its index, projection
    residual and membership, at deviation 0.  The residuals are one
    alg.projection_residual call on the stack, and a probe a lies in C*(G)
    when its residual is at most MEMBERSHIP_RTOL (1 + ||a||_F).  stack is
    (gens, g0, size): the generators as one (k, d, d) array and their
    _unit_traceless parts, built here for the theorem's premise and reused
    by the spectrum step.  Raises InvalidInput on a missing generator set, a
    bad field (a non-integral or boolean d, max_iter, n_witnesses or seed, a
    seed outside [0, 2**64), or a tol that is boolean, not a real number,
    negative or not finite), a shape other than (d, d), or when no probe
    lies in C*(G).
    """
    if P.G is None:
        raise InvalidInput("solve requires a generator set")
    for name in ("d", "max_iter", "n_witnesses"):
        require_integer(name, getattr(P, name))
    check_seed(P.seed)
    # A plain float skips the numbers.Real check, as require_integer does for int.
    if type(P.tol) is not float and (isinstance(P.tol, bool) or not isinstance(P.tol, numbers.Real)):
        raise InvalidInput(f"tol must be a real number, got {P.tol!r}")
    if not (math.isfinite(P.tol) and P.tol >= 0.0):
        raise InvalidInput(f"tol must be finite and >= 0, got {P.tol}")
    if P.max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {P.max_iter}")
    if P.n_witnesses < 1:
        raise InvalidInput(f"n_witnesses must be >= 1, got {P.n_witnesses}")
    if P.probes is not None and len(P.probes) == 0:
        raise InvalidInput("probe list is empty")
    d = P.d
    if P.G.d != d:  # GeneratorSet makes every generator G.d x G.d
        raise InvalidInput(f"pinned element shape ({P.G.d}, {P.G.d}) != ({d}, {d})")
    gens = np.array(P.G.generators)
    span = _pinned_span(gens)
    # The theorem's premise (_theorem_step) picks how C*(G) is built.
    g0, size = _unit_traceless(gens)
    g0h = g0.conj().swapaxes(-1, -2)
    A = np.concatenate([g0h @ g0, g0 @ g0h])
    premise = span.projection_residual(A).reshape(2, -1).max(axis=0)
    held = premise <= MEMBERSHIP_RTOL
    # C*(passing) is C*(G) when it holds the g0 of the others.  It is read
    # from one eigh where that proves the theorem; otherwise words are closed.
    alg = _eigh_algebra(gens[held], g0[held], size[held]) if held.any() else None
    proved = alg is not None and (
        held.all() or np.all(alg.projection_residual(g0[~held]) <= MEMBERSHIP_RTOL))
    if not proved:
        proved, alg = held.all(), None
        if held.any() and not proved:
            alg = opsys.generate_algebra(opsys.GeneratorSet(d=d, generators=tuple(gens[held])))
            proved = np.all(alg.projection_residual(g0[~held]) <= MEMBERSHIP_RTOL)
        if not proved or alg is None:
            alg = opsys.generate_algebra(P.G)
    membership = {"residual": float(np.max(premise[held])), "cutoff": MEMBERSHIP_RTOL} if proved else None

    if P.probes is None:
        probes = alg.basis
    else:
        probes = [linalg.require_square(a) for a in P.probes]
        for a in probes:
            if a.shape != (d, d):
                raise InvalidInput(f"probe shape {a.shape} != ({d}, {d})")
        probes = np.array(probes)
    resid = alg.projection_residual(probes)
    cutoff = MEMBERSHIP_RTOL * (1.0 + linalg.row_norm(probes, axis=(1, 2)))
    info = [ProbeDeviation(index=idx, deviation=0.0, in_algebra=r <= c, projection_residual=r)
            for idx, (r, c) in enumerate(zip(resid.tolist(), cutoff.tolist()))]
    if not any(row.in_algebra for row in info):
        raise InvalidInput("no probe lies in C*(G), so no UEP question is asked")
    return span, probes, info, membership, (gens, g0, size)


def _pinned_span(gens: np.ndarray) -> opsys.AlgebraBasis:
    """Orthonormal basis of span_C{I, G, G*}, G the (k, d, d) stack gens, from
    one complex SVD, rank cut at 1e-12 of the largest singular value;
    build_constraints cuts there in real hermvec coordinates instead, so
    near the cut the ranks can differ."""
    d = gens.shape[-1]
    S = np.concatenate([np.eye(d)[None], gens, gens.conj().swapaxes(-1, -2)]).reshape(-1, d * d)
    _, sv, Vh = np.linalg.svd(S, full_matrices=False)
    return opsys.AlgebraBasis(d=d, basis=Vh[sv > 1e-12 * sv[0]].reshape(-1, d, d))


def _unit_traceless(gens: np.ndarray) -> tuple:
    """(g0, size) of a stack of generators: g0 is the traceless part of each
    scaled to unit Frobenius norm (0 when that part is exactly 0), size the
    norm of that part."""
    d = gens.shape[-1]
    g0 = gens - (np.trace(gens, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
    size = linalg.row_norm(g0, axis=(1, 2))
    return g0 / np.where(size > 0.0, size, 1.0)[:, None, None], size


def _theorem_step(P: UepProblem, span: opsys.AlgebraBasis, info: list,
                  membership: dict | None) -> UepReport | None:
    """Unique-evidence by the multiplicative domain theorem, or None.

    For each generator g let g0 be its traceless part scaled to unit
    Frobenius norm (0 when that part is exactly 0).  g passes when the
    projection residuals of g0*g0 and g0 g0* off span = span_C{I, G, G*}
    are at most MEMBERSHIP_RTOL.  Every feasible Phi fixes that span, so g
    lies in the multiplicative domain of Phi (Choi), where Phi is a
    *-homomorphism, and Phi = id on the C*-algebra of the passing
    generators.  That algebra is C*(G) when every generator passes, and
    otherwise exactly when it holds the g0 of every other generator within
    MEMBERSHIP_RTOL (then C*(passing) is in C*(G), which is in
    C*(passing)); _validate decides this while it builds C*(G) and passes
    membership, the largest passing residual and its cutoff, or None.
    When it is set and every probe lies in C*(G), the answer is proved, and
    _validate's rows (deviation 0) are the report's deviations.  Testing g0
    rather than g makes the decision invariant under g -> a g + b I:
    g = I + s D has g*g within s^2 of span{I, g}, so for small s a raw test
    would pass it whatever D is.
    """
    if membership is None or not all(row.in_algebra for row in info):
        return None
    return _identity_report(P, "theorem", info, span, membership)


def _identity_report(P: UepProblem, basis: str, info: list, span: opsys.AlgebraBasis,
                     membership: dict | None = None) -> UepReport:
    """Unique-evidence proved without a face: _validate's rows (deviation 0)
    and the identity map."""
    d = P.d
    return UepReport(
        status="Unique-evidence",
        basis=basis,
        deviations=info,
        iterations=0,
        # The identity map fixes every h exactly and its Choi matrix w w* is PSD.
        residuals={"affine": 0.0, "psd": 0.0},
        constraint_rank=d * d * span.dim,  # build_constraints' count, d^2 dim span{I, G, G*}
        face_dim=None,
        certificate=None,
        choi=cpmaps.identity_choi(d),
        seed=P.seed,
        tol=P.tol,
        membership=membership,
    )


# Noise model of the spectrum step.  The traceless, unit-norm part g0 of g
# carries roundoff of about eps = d u max_g ||g||_F / ||g - (tr g / d) I||_F
# (u the unit roundoff, g over the non-scalar generators): g = I + s D keeps
# only the digits of s D.  A
# defect, cluster gap or hull residual counts as 0 at or below
# SPECTRUM_ZERO eps and as positive at or above SPECTRUM_GAP eps; in between
# the step declines rather than guess.
SPECTRUM_ZERO = 1e2
SPECTRUM_GAP = 1e4

# Key of the fixed stream that mixes the Hermitian parts of the g0 into one
# matrix whose eigenbasis is the joint one; not P.seed, so a report still
# depends on (config, seed) only through the search.
SPECTRUM_MIX_KEY = 0x5BEC


@functools.lru_cache(maxsize=None)
def _mix_weights(n: int) -> np.ndarray:
    """The first n draws of the SPECTRUM_MIX_KEY stream as one (1, n) row,
    drawn once per n (read-only, as every caller shares them)."""
    w = make_rng(SPECTRUM_MIX_KEY).standard_normal((1, n))
    w.flags.writeable = False
    return w


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple:
    """min ||A x - b|| over x >= 0 by the Lawson-Hanson active-set method:
    (x, residual norm).  Each outer step frees the coordinate with the
    largest gradient w = A^T (b - A x); the inner loop solves least squares
    on the free set and, while that leaves a free coordinate <= 0, steps
    back toward it until it hits 0 and binds it again.  The outer loop runs
    at most 3n times (Lawson & Hanson 1974)."""
    m, n = A.shape
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(A).sum(axis=0).max(initial=0.0)))
    w = A.T @ b
    for _ in range(3 * n):
        if free.all() or np.max(w[~free]) <= tol:
            break
        free[np.argmax(np.where(free, -np.inf, w))] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
            if np.all(z[free] > 0.0):
                break
            neg = free & (z <= 0.0)
            x = x + np.min(x[neg] / (x[neg] - z[neg])) * (z - x)
            free &= x > tol
            x[~free] = 0.0
        x = z
        w = A.T @ (b - A @ x)
    return x, float(np.linalg.norm(A @ x - b))


def _mix_eigh(gens: np.ndarray, g0: np.ndarray, size: np.ndarray):
    """What _joint_spectrum and _eigh_algebra read the generators from:
    (w, V, D, zero, gap), or None when a generator's traceless part lies
    between the levels.

    g0, size = _unit_traceless(gens).  A traceless part at most at the zero
    level, relative to d u ||g||_F, is 0: that g is a scalar and is left out
    (it adds nothing to C*(G)).  w, V is the eigh of a fixed real mix of the
    Hermitian and anti-Hermitian parts of the other g0, D the stack V* g0 V
    of those g0, and zero, gap the two levels at their eps (see
    SPECTRUM_ZERO), which stays below 1 / SPECTRUM_GAP.
    """
    d = gens.shape[-1]
    unit = d * np.finfo(float).eps * linalg.row_norm(gens, axis=(1, 2))  # roundoff of each g
    live = size > SPECTRUM_ZERO * unit
    if np.any(live & (size < SPECTRUM_GAP * unit)):
        return None
    g0 = g0[live]
    eps = np.max(unit[live] / size[live], initial=0.0)
    g0h = g0.conj().swapaxes(-1, -2)
    parts = np.concatenate([g0 + g0h, (g0 - g0h) / 1j]) / 2.0
    # np.tensordot(weights, parts, axes=1) is this one dot, without its set-up.
    mix = np.dot(_mix_weights(len(parts)), parts.reshape(len(parts), d * d)).reshape(d, d)
    w, V = np.linalg.eigh(mix)
    return w, V, V.conj().T @ g0 @ V, SPECTRUM_ZERO * eps, SPECTRUM_GAP * eps


def _eigh_algebra(gens: np.ndarray, g0: np.ndarray, size: np.ndarray) -> opsys.AlgebraBasis | None:
    """C*(S) of the (k, d, d) stack gens, read from _mix_eigh, or None.

    When the mix h has a simple spectrum (every step between its
    eigenvalues above the zero level and at least at the gap level), each
    v_i v_i* is a spectral projection of h, which lies in C*(S), and
    v_i v_i* g v_j v_j* = (V* g V)_ij v_i v_j*.  So when every coupling
    max_g |D_ij| + |D_ji| (i != j) is at least at the gap level, C*(S)
    holds every matrix unit v_i v_j* and is M_d, whose basis is the
    standard matrix units (_matrix_units); when every coupling is at most
    at the zero level, every D is diagonal and C*(S) is the diagonal
    algebra, with basis {v_i v_i*} (Murota, Kanno, Kojima & Kojima 2010;
    Burnside's theorem).
    Anything else (a repeated eigenvalue, a step or coupling between the
    levels, couplings that are 0 for some pairs) gives None, and the caller
    closes words (opsys.generate_algebra).
    """
    found = _mix_eigh(gens, g0, size)
    if found is None:
        return None
    w, V, D, zero, gap = found
    step = (w[1:] - w[:-1]).min(initial=np.inf)
    if not (step > zero and step >= gap):
        return None
    d = len(V)
    A = np.abs(D)
    coupling = (A + A.swapaxes(-1, -2)).max(axis=0, initial=0.0)
    np.fill_diagonal(coupling, np.inf)
    if coupling.min() >= gap:
        return opsys.AlgebraBasis(d=d, basis=_matrix_units(d))
    np.fill_diagonal(coupling, 0.0)
    if coupling.max() <= zero:
        return opsys.AlgebraBasis(d=d, basis=V.T[:, :, None] * V.T.conj()[:, None, :])
    return None


# A few dimensions at a time: each entry holds d^4 complex numbers.
@functools.lru_cache(maxsize=8)
def _matrix_units(d: int) -> np.ndarray:
    """The standard matrix units E_ij of M_d as one (d^2, d, d) stack, built
    once per d and shared, so only ever read; a projection onto their span
    returns its input exactly, so every residual against it is 0.0."""
    E = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    E.flags.writeable = False
    return E


def _joint_spectrum(gens: np.ndarray, g0: np.ndarray, size: np.ndarray):
    """The joint spectrum of commuting normal generators: (V, clusters,
    interior), or None.

    V is the eigenbasis of _mix_eigh (g0, size = _unit_traceless(gens),
    which the caller already holds); it must diagonalize every g0 to within
    the zero level, which holds exactly when the generators are normal and
    commute.  clusters lists the column indices of V per joint eigenvalue:
    columns whose points p (real and imaginary parts of the diagonal
    entries of V* g0 V) lie within the zero level of each other.  interior
    maps a cluster index c to the weights mu over the other clusters (in
    order, summing to 1) with p_c = sum mu_nu p_nu: one NNLS of b =
    (p_c, 1) against the columns (p_nu, 1), its residual read as 0 at or
    below the zero level and as positive at or above the gap level (see
    SPECTRUM_ZERO).

    A hull bound spares the NNLS of clusters it proves extreme.  For a
    coordinate direction e (each axis, both signs) let t be the largest
    e.p_nu over the other clusters.  The unit vector u = (e, -t) /
    sqrt(1 + t^2) has u.(p_nu, 1) <= 0 on every column, so every mu >= 0
    has ||A mu - b|| >= u.(b - A mu) >= (e.p_c - t) / sqrt(1 + t^2).  Where
    that bound reaches 2 gap on some direction, the NNLS residual would read
    positive, so c is extreme and its NNLS is skipped.  Every other cluster,
    a vertex that ties another on each axis too, runs its NNLS, so the
    result is that of an NNLS for every cluster, bit for bit.

    None when _mix_eigh declines, a generator is not normal, they do not
    commute, or a residual or a distance between points lies between the
    two levels (gap >= 2 zero, so points within the zero level of each
    other form classes).
    """
    found = _mix_eigh(gens, g0, size)
    if found is None:
        return None
    _, V, D, zero, gap = found
    d = len(V)
    z = np.diagonal(D, axis1=1, axis2=2)
    if np.linalg.norm(D - z[..., None] * np.eye(d)) > zero:
        return None
    points = np.concatenate([z.real, z.imag]).T  # one row per column of V
    dist = linalg.row_norm(points[:, None] - points[None])
    if np.any((dist > zero) & (dist < gap)):
        return None
    head = np.argmax(dist <= zero, axis=0)  # first column of each column's cluster
    members = {}  # head -> columns, heads ascending as each is its cluster's first column
    for j, h in enumerate(head.tolist()):
        members.setdefault(h, []).append(j)
    clusters = [np.array(cols) for cols in members.values()]
    n = len(clusters)
    reps = np.array([points[c[0]] if len(c) == 1 else points[c].mean(axis=0) for c in clusters])
    extreme = np.zeros(n, dtype=bool)
    if n > 1:
        proj = np.concatenate([reps, -reps], axis=1)  # e.p_c, one column per direction e
        t = np.where(np.eye(n, dtype=bool)[..., None], -np.inf, proj).max(axis=1)
        extreme = np.any((proj - t) / np.sqrt(1.0 + t * t) >= 2.0 * gap, axis=1)
    Q = np.concatenate([reps, np.ones((n, 1))], axis=1)  # row nu: (p_nu, 1)
    interior = {}
    for c in np.flatnonzero(~extreme).tolist():
        # take returns the columns C-ordered; fancy indexing would give F order,
        # and _nnls's BLAS products may round differently on it.
        mu, resid = _nnls(Q.T.take([nu for nu in range(n) if nu != c], axis=1), Q[c])
        if zero < resid < gap:
            return None
        if resid <= zero:
            interior[c] = mu / mu.sum()
    return V, clusters, interior


def _pinch_and_mix(V: np.ndarray, clusters: list, c: int, mu: np.ndarray) -> cpmaps.ChoiMatrix:
    """Choi matrix of Phi(x) = sum_{k != c} P_k x P_k + (sum_nu mu_nu
    <e_nu, x e_nu>) P_c, P_k the projection onto the columns of V in
    cluster k and e_nu the first of them (mu over the clusters other than c,
    in order), from its Kraus operators K_a: the P_k, and sqrt(mu_nu) f e_nu*
    for each column f of cluster c.  Each Kraus vector w_a = vec(K_a^T) is
    added into the matrix as w_a w_a* as soon as it is made, from zeros and
    in the order above, which is what cpmaps.choi_from_kraus does with that
    KrausSet, so the bits are the same; the ChoiMatrix checks the sum once."""
    d = len(V)
    C = np.zeros((d * d, d * d), dtype=complex)
    for k, m in zip((k for k in range(len(clusters)) if k != c), mu):
        Vk = V[:, clusters[k]]
        ops = [Vk @ Vk.conj().T]
        if m > 0.0:
            ops += [np.sqrt(m) * np.outer(f, Vk[:, 0].conj()) for f in V[:, clusters[c]].T]
        for op in ops:
            w = op.T.reshape(-1)  # w[(i,m)] = K[m,i]
            C += np.outer(w, w.conj())
    return cpmaps.ChoiMatrix(d=d, mat=C)


def _spectrum_step(P: UepProblem, span: opsys.AlgebraBasis, probes: np.ndarray,
                   info: list, stack: tuple) -> UepReport | None:
    """A report from the joint spectrum of commuting normal generators
    (basis "spectrum"), or None (_joint_spectrum declines on stack, the
    generators and their _unit_traceless parts from _validate).

    When every joint eigenvalue is an extreme point, Phi = id on C*(G) for
    every feasible Phi, and when every probe lies in C*(G) the report is a
    proof shaped like a theorem report; with a probe outside C*(G) the step
    declines, as the theorem step does.  Otherwise each interior cluster c
    gives a pinch-and-mix map (_pinch_and_mix), which fixes G and moves P_c
    by 1; the report takes the map that moves an in-algebra probe the most
    (the first such cluster on ties), with every probe's operator-norm
    deviation under it.  Each map moves the probes and the generators in
    one stacked apply_choi call, and all its probe deviations are one
    op_norm call on the probes' part; the generators' part gives the
    chosen map's residual over G.  Each deviation and each moved generator
    keeps the bits of its own 2-d call.  The largest in-algebra deviation
    decides as in _search: from 10 tol up, the certificate of that probe,
    carrying that row's deviation, must pass validate_certificate (which
    measures it again on its own) to give ViolationFound.  Below 10 tol the
    status is NonConverged, never Unique-evidence: the map proves that the
    identity lacks the unique extension property even when the probes
    barely see it.
    """
    found = _joint_spectrum(*stack)
    if found is None:
        return None
    V, clusters, interior = found
    if not interior:
        if not all(row.in_algebra for row in info):
            return None
        return _identity_report(P, "spectrum", info, span)
    gens, k = stack[0], len(probes)
    A = np.concatenate([probes, gens])
    maps = []  # (largest in-algebra deviation, Choi matrix, rows, moved G) per interior cluster
    for c, mu in interior.items():
        choi = _pinch_and_mix(V, clusters, c, mu)
        moved = cpmaps.apply_choi(choi, A) - A
        rows = [ProbeDeviation(row.index, dev, row.in_algebra, row.projection_residual)
                for row, dev in zip(info, linalg.op_norm(moved[:k]).tolist())]
        maps.append((max(p.deviation for p in rows if p.in_algebra), choi, rows, moved[k:]))
    _, choi, deviations, moved = max(maps, key=lambda m: m[0])
    worst = max((p for p in deviations if p.in_algebra), key=lambda p: p.deviation)
    # Phi fixes G only as well as the hull weights solve p_c = sum mu_nu p_nu,
    # so that residual is measured; its Choi matrix sum_a w_a w_a* is PSD.
    residuals = {"affine": float(np.linalg.norm(moved)), "psd": 0.0}
    certificate = None
    if worst.deviation >= 10.0 * P.tol:
        certificate = _certify(P, choi, probes[worst.index], residuals, worst.deviation)
    return UepReport(
        status="NonConverged" if certificate is None else "ViolationFound",
        basis="spectrum",
        deviations=deviations,
        iterations=0,
        residuals=residuals,
        constraint_rank=P.d * P.d * span.dim,
        face_dim=None,
        certificate=certificate,
        choi=choi,
        seed=P.seed,
        tol=P.tol,
    )


def _certify(P: UepProblem, choi: cpmaps.ChoiMatrix, a: np.ndarray, residuals: dict,
             deviation: float):
    """The violation certificate of choi on probe a with the caller's
    operator-norm deviation ||Phi(a) - a||, or None when
    validate_certificate, which measures that deviation again on its own,
    rejects it."""
    cert = ViolationCertificate(choi=choi, probe=a, residuals=residuals, deviation=deviation)
    return cert if validate_certificate(cert, P) else None


def _search(P: UepProblem, probes: np.ndarray, info: list) -> UepReport:
    """Run the UEP search and report deviations, a certificate, or evidence
    of uniqueness (basis "search").

    Deviations are support-function lower bounds max_W <W, Phi(a) - a> over
    unit (Frobenius) witnesses W: the gains _linear_max_batch certifies over
    the identity's value <W, a>, so only polished feasible Choi matrices
    count.  The report carries the point of the largest in-algebra
    deviation (the first such probe on ties; the identity when no task
    gained), whose certificate deviation is re-measured in operator norm
    and revalidated by an independent code path.  Round 0 draws n_witnesses
    random unit witnesses per probe, each with both signs; then at most 3
    adaptive rounds take, per probe with a deviation above tol/10, the unit
    witness W = (Phi(a) - a)/||Phi(a) - a||_F at its best point, and stop
    once a round gains at most max(tol, 2% of the largest deviation).  A
    probe sits a round out when ||W - W'||_F 2 sqrt(d) ||a|| <= tol, W' the
    witness that found its best point: the round would repeat that task,
    and the bound caps its gain.  The rounds stop when no probe is left.
    Witness tasks whose objective no feasible point can move by more than
    tol/10 skip the ascent; ``iterations`` is 0 when every task is skipped.
    The search runs on the reduced face of build_constraints, whose n
    ``face_dim`` reports.
    """
    d = P.d
    cs = build_constraints(P)

    rng = make_rng(P.seed)

    # Round 0: random Hermitian witnesses for every probe, in +/- pairs
    # (a witness only sees deviation directions it overlaps positively,
    # so each draw is used with both signs).
    tasks = []  # (probe_idx, W)
    for idx, a in enumerate(probes):
        for _ in range(P.n_witnesses):
            W = random_hermitian(rng, d)
            W = W / linalg.frob_norm(W)
            tasks.append((idx, W))
            tasks.append((idx, -W))

    best_dev = np.zeros(len(probes))
    best_x = {}  # probe index -> certified face matrix of its best deviation
    best_w = {}  # probe index -> the unit witness whose task found best_x
    total_iters = 0
    exhausted = False

    def run_tasks(task_list):
        nonlocal total_iters, exhausted
        # Face-matrix gradients of C |-> Re tr(W* Phi_C(a)), all at once.
        idxs, Ws = zip(*task_list)
        Fc = cs.face.conj().T @ cpmaps.choi_functional([probes[i] for i in idxs], Ws) @ cs.face
        grads = (Fc + Fc.conj().swapaxes(-1, -2)) / 2.0
        # Feasible face matrices have trace d, so no feasible point moves a
        # unit witness's objective by more than 2d ||G_t||_F, G_t the part of
        # its gradient tangent to the slice: below tol/10 the answer is fixed.
        tangent = _affine_project(cs.F, cs.P, 0.0, grads)
        live = np.flatnonzero(2 * d * linalg.row_norm(tangent.reshape(len(grads), -1))
                              > P.tol / 10.0)
        if not len(live):
            return
        bx, gain, iters, stalled = _linear_max_batch(cs, grads[live], P.max_iter)
        total_iters += iters
        exhausted = exhausted or not stalled
        for t, k in enumerate(live):
            idx, W = task_list[k]
            if gain[t] > best_dev[idx]:
                best_dev[idx] = gain[t]
                best_x[idx] = bx[t]
                best_w[idx] = W

    run_tasks(tasks)

    # Adaptive rounds: push the witness toward the actual deviation direction.
    for _ in range(3):
        prev = best_dev.copy()
        adaptive = []
        for idx, a in enumerate(probes):
            if best_dev[idx] <= P.tol / 10.0:
                continue
            C = cpmaps.ChoiMatrix(d=d, mat=cs.to_choi_mat(best_x[idx]))
            # best_dev > tol/10 is Re tr(W'*(Phi(a) - a)) for a unit W', so the norm is positive.
            W = cpmaps.apply_choi(C, a) - a
            W = W / linalg.frob_norm(W)
            # |<W - W', Phi(a) - a>| <= ||W - W'||_F ||Phi(a) - a||_F and, Phi being
            # contractive, ||Phi(a) - a||_F <= 2 sqrt(d) ||a||: a witness this close
            # to the one that found best_x would re-solve that task, gaining <= tol.
            if linalg.frob_norm(W - best_w[idx]) * 2 * math.sqrt(d) * linalg.op_norm(a) <= P.tol:
                continue
            adaptive.append((idx, W))
        if not adaptive:
            break
        run_tasks(adaptive)
        gain = float(np.max(best_dev - prev))
        if gain <= max(P.tol, 0.02 * float(np.max(best_dev))):
            break

    deviations = [replace(row, deviation=float(best_dev[row.index])) for row in info]
    worst = max((p for p in deviations if p.in_algebra), key=lambda p: p.deviation)
    max_dev = worst.deviation
    x_final = best_x.get(worst.index, cs.x_identity)
    choi = cpmaps.ChoiMatrix(d=d, mat=cs.to_choi_mat(x_final))
    residuals = {
        "affine": float(cs.affine_residual(x_final)),
        "psd": float(cs.psd_residual(x_final)),
    }

    certificate = None
    if max_dev <= P.tol:
        # A search cut off by its budget is no evidence of uniqueness.
        status = "NonConverged" if exhausted else "Unique-evidence"
    elif max_dev < 10.0 * P.tol:
        status = "NonConverged"
    else:
        a = probes[worst.index]
        certificate = _certify(P, choi, a, residuals, linalg.op_norm(cpmaps.apply_choi(choi, a) - a))
        status = "NonConverged" if certificate is None else "ViolationFound"

    return UepReport(
        status=status,
        basis="search",
        deviations=deviations,
        iterations=total_iters,
        residuals=residuals,
        constraint_rank=cs.rank,
        face_dim=cs.n,
        certificate=certificate,
        choi=choi,
        seed=P.seed,
        tol=P.tol,
    )


def validate_certificate(cert: ViolationCertificate, P: UepProblem) -> bool:
    """Independent re-check of a violation certificate (no solver state).

    The map must be UCP within 1e-7, agree with the identity on G u G*
    within 1e-7, and move the probe by at least 10x both the agreement
    residual and the problem tolerance, a deviation measured here again
    that must match the certificate's.  The agreement on G u G* and the
    probe's deviation are one stacked apply_choi and op_norm call on [G,
    G*, probe], each keeping the bits of its own 2-d call; the checks run
    in the order above.  A probe that is not a finite matrix of G's shape
    raises InvalidInput before the stack is built.
    """
    defects = cpmaps.validate_ucp(cert.choi)
    if defects["cp_defect"] > 1e-7 or defects["unital_defect"] > 1e-7:
        return False
    probe = linalg.as_matrix(cert.probe)
    if probe.shape != (P.G.d, P.G.d):
        raise InvalidInput(f"probe shape {probe.shape} != ({P.G.d}, {P.G.d})")
    S = np.array(P.G.with_adjoints() + [probe])
    norms = linalg.op_norm(cpmaps.apply_choi(cert.choi, S) - S)
    agreement = float(np.max(norms[:-1]))
    if agreement > 1e-7:
        return False
    dev = float(norms[-1])
    if abs(dev - cert.deviation) > 1e-6 * (1.0 + dev):
        return False
    return dev >= 10.0 * max(agreement, P.tol)


def schwarz_pinning_check(P: UepProblem, C: cpmaps.ChoiMatrix) -> dict:
    """Schwarz defects of the pinned generators plus word agreement.

    When G contains T, T*T and TT* (T = first generator), both Schwarz
    defects of T are differences of pinned quantities, so any feasible C
    has defects at the feasibility-residual level, and the multiplicative
    domain argument forces Phi to agree with the identity on all words in
    {T, T*}; the maximum word deviation over lengths <= WORD_LENGTH is
    reported.
    """
    gen_defects = []
    for g in P.G.generators:
        dd = cpmaps.schwarz_defects(C, g)
        gen_defects.append({"left_norm": dd["left_norm"], "right_norm": dd["right_norm"]})
    T = P.G.generators[0]
    letters = [T, T.conj().T]
    max_word_dev = 0.0
    count = 0
    for length in range(1, WORD_LENGTH + 1):
        for word in itertools.product(letters, repeat=length):
            w = np.eye(P.d, dtype=complex)
            for letter in word:
                w = w @ letter
            max_word_dev = max(max_word_dev, linalg.op_norm(cpmaps.apply_choi(C, w) - w))
            count += 1
    return {
        "generator_defects": gen_defects,
        "max_word_deviation": max_word_dev,
        "words_checked": count,
    }
