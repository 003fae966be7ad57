"""Search for UCP maps violating the unique extension property.

The question "is the identity representation the only UCP map pinned to
agree with it on a generator set G?" is decided at desk scale by searching
the spectrahedron

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
refinement).  A witness whose objective cannot move on the constraint
slice (its gradient is normal to the slice, as for every witness of a set
with the unique extension property on its minimal face) has a fixed
answer and is skipped.  The sampled face of _pinned_face can miss the
minimal one, so build_constraints reduces it once, before any search:
each exposing vector found by _exposing_face shrinks the face, until no
exposing vector turns up.  Each remaining linear maximization
runs projected gradient ascent with facial-rounding polish onto (PSD
intersect affine); deviations are only ever reported at certified
feasible points, so "Unique-evidence" cannot be an artifact of
infeasibility drift.

Every solver point is an n x n Hermitian face matrix M (the Choi matrix is
U M U* for the face isometry U); hermvec coordinates appear only in
_pinv_mats and the basis of build_constraints.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cpmaps, linalg, opsys
from .errors import Infeasible, InvalidInput
from .rng import make_rng, random_hermitian
from .serialize import matrix_to_literal

SQRT2 = np.sqrt(2.0)

# Feasibility targets for polished points.
FEAS_TOL = 1e-9
DYKSTRA_TOL = 1e-12

# A probe counts as inside the generated algebra when its projection
# residual is below this (relative) threshold.
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
    iu, ar = _triu(X.shape[-1])
    diag = np.real(X[..., ar, ar])
    re = SQRT2 * np.real(X[..., iu[0], iu[1]])
    im = SQRT2 * np.imag(X[..., iu[0], iu[1]])
    return np.concatenate([diag, re, im], axis=-1)


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
    the dot product of two rows is tr(A B) for Hermitian A and B.  A real
    array is taken to be such a view already, so a loop can hoist it."""
    return A if A.dtype == float else A.view(float).reshape(A.shape[:-2] + (-1,))


def _tr(F: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """tr(F_j Z) of Hermitian F_j and Z, the dot products of their real views:
    one stack F (m, n, n) for a batch Z (K, n, n), or one per point."""
    Ff, zf = _flat(F), Z.view(float).reshape(Z.shape[:-2] + (-1,))
    if Ff.ndim == zf.ndim:  # shared stack: one product
        return zf @ Ff.T
    return (Ff @ zf[..., None])[..., 0]


def _affine_project(F: np.ndarray, P: np.ndarray, b: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Z - sum_j (tr(F_j Z) - b_j) P_j (batched as in _tr): the projection
    onto {tr(F_j Z) = b_j} when P holds the pseudo-inverse columns of F.
    F and P may be passed as their real views (_flat)."""
    s = _tr(F, Z) - b
    Pf = _flat(P)
    step = s @ Pf if Pf.ndim == Z.ndim - 1 else (s[..., None, :] @ Pf)[..., 0, :]
    return Z - step.view(complex).reshape(Z.shape)


def _pinv_mats(F: np.ndarray) -> np.ndarray:
    """Pseudo-inverse columns of the functionals F (..., m, n, n) as n x n
    matrices; the SVD runs on hermvec coordinates, half the real width."""
    pinv = np.linalg.pinv(hermvec(F), rcond=1e-12)
    return unhermvec(pinv.swapaxes(-1, -2), F.shape[-1])


# ----------------------------------------------------------------------------
# Problem statement and results
# ----------------------------------------------------------------------------

@dataclass
class UepProblem:
    """One unique-extension-property test for the identity representation."""

    d: int
    G: opsys.GeneratorSet | None
    probes: list | None = None
    tol: float = 1e-7
    max_iter: int = 20000
    seed: int = 0
    n_witnesses: int = 8

    def pinned_elements(self) -> list:
        """G u G*: Phi(g) = g already forces Phi(g*) = g* for *-preserving Phi,
        so pinning the adjoints changes the equations, not the feasible set."""
        return [] if self.G is None else self.G.with_adjoints()


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
    deviations: list
    iterations: int
    residuals: dict
    constraint_rank: int
    rank_margin: int
    face_dim: int  # n of the reduced face of build_constraints, where the search ran
    certificate: ViolationCertificate | None
    choi: cpmaps.ChoiMatrix
    seed: int
    tol: float

    @property
    def max_deviation(self) -> float:
        devs = [p.deviation for p in self.deviations if p.in_algebra]
        return max(devs) if devs else 0.0

    def to_json(self) -> dict:
        return {
            "status": self.status,
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
    F: np.ndarray = field(repr=False, default=None)
    P: np.ndarray = field(repr=False, default=None)
    b: np.ndarray = field(repr=False, default=None)
    rank: int = 0
    x_identity: np.ndarray = field(repr=False, default=None)

    @property
    def rank_margin(self) -> int:
        """Real dimension d^4 of the Hermitian d^2 x d^2 matrices minus rank."""
        return self.d ** 4 - self.rank

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
        return np.linalg.norm(_tr(self.F, Z) - self.b, axis=-1)

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
    for g in P.pinned_elements():
        g = linalg.require_square(g).astype(complex)
        for H in ((g + g.conj().T) / 2.0, (g - g.conj().T) / 2.0j):
            if linalg.maxabs(H) > 1e-14:
                basis.append(H)
    rng = make_rng(0x0FACE)
    coef = rng.standard_normal((4 * len(basis) + 8, len(basis)))
    mix = 0  # summed term by term, in basis order
    for k, Bk in enumerate(basis):
        mix = mix + coef[:, k, None, None] * Bk
    w, V = np.linalg.eigh(np.concatenate([basis, mix]))

    scale = w[:, -1] - w[:, 0]
    # Skip multiples of I up to rounding: their noise eigenvectors are no boundary.
    live = scale > 1e-12 * np.maximum(abs(w[:, 0]), abs(w[:, -1]))
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
    gens = [] if P.G is None else list(P.G.generators)
    if gens and gens[0].shape != (d, d):  # GeneratorSet makes all shapes equal
        raise InvalidInput(f"pinned element shape {gens[0].shape} != ({d}, {d})")
    S = np.array([np.eye(d, dtype=complex)] + gens)
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

    cs = ConstraintSystem(d=d, n=face.shape[1], face=face, F=F, P=_pinv_mats(F),
                          b=bv, rank=len(F), x_identity=x_id)
    while (found := _exposing_face(cs)) is not None:
        cs = cs.restrict(found[0])
    return cs


# ----------------------------------------------------------------------------
# Facial reduction by exposing vectors
# ----------------------------------------------------------------------------

# Alternating projections for an exposing vector succeed once the gap is below
# EXPOSE_TOL, and give up when it has not shrunk by 10% over EXPOSE_WINDOW passes.
EXPOSE_TOL = 1e-12
EXPOSE_WINDOW = 20


def _exposing_face(cs: ConstraintSystem):
    """One facial-reduction step (Borwein-Wolkowicz): (V, y) or None.

    Looks for Y = sum_j y_j F_j with Y PSD, tr Y = 1 and tr(Y x_identity) =
    sum_j y_j b_j = 0.  Every feasible M then has tr(Y M) = 0, so its range
    lies in ker Y, and V is an orthonormal basis of ker Y (the eigenvectors
    below 1e-6 times the largest eigenvalue, as for range vectors in
    _pinned_face).  As tr(F_j x_identity) = b_j, that affine slice of
    span_R{F_j} is empty exactly when (tr F_j)_j and b are parallel; one
    2 x m SVD decides this first, and an empty slice proves that no
    exposing vector exists.  Otherwise alternating projections between the
    PSD cone and the slice start from the slice point nearest I/n.  None
    means an empty slice, or a stall, which proves nothing.
    """
    n = cs.n
    sv = np.linalg.svd([np.real(np.einsum("jii->j", cs.F)), cs.b], compute_uv=False)
    if sv[1] <= 1e-9 * sv[0]:
        return None
    # tr Y and tr(Y x_identity) on span_R{F_j}, onto which Z - _affine_project(F, P, 0, Z) projects.
    T = np.array([np.eye(n, dtype=complex), cs.x_identity])
    T, t = T - _affine_project(cs.F, cs.P, 0.0, T), np.array([1.0, 0.0])
    Q, Z, gaps = _pinv_mats(T), np.eye(n, dtype=complex) / n, []
    # Gaps never grow, so the stall rule ends the loop: ~20 log(gap_0/EXPOSE_TOL)/log(1/0.9) passes.
    while True:
        Y = _affine_project(T, Q, t, Z - _affine_project(cs.F, cs.P, 0.0, Z))
        Z = _psd_clip(Y)
        gap = float(np.linalg.norm(Y - Z))
        if gap <= EXPOSE_TOL:
            w, U = np.linalg.eigh(Y)
            return U[:, w < 1e-6 * w[-1]], _tr(cs.P, Y)  # sum_j y_j F_j = Y
        if len(gaps) >= EXPOSE_WINDOW and not gap <= 0.9 * gaps[-EXPOSE_WINDOW]:  # NaN stops too
            return None
        gaps.append(gap)


# ----------------------------------------------------------------------------
# Facial rounding: exact feasibility restoration on the reduced face
# ----------------------------------------------------------------------------

# build_constraints has already reduced the face, so rounding needs no face
# guess of its own: it restores the affine constraints of the system itself
# and certifies PSD by the eigenvalues of the restored face matrix.  Rows that
# the restore leaves slightly indefinite get a Dykstra projection onto
# (PSD intersect affine).  Only certified points are ever accepted.

DYKSTRA_MAX_ITER = 200


def _face_dykstra(cs: ConstraintSystem, M: np.ndarray) -> np.ndarray:
    """Batched Dykstra on (PSD intersect affine) in n x n face matrices of
    cs; returns the affine-exact points.  Every item alternates the PSD clip
    with cs's affine projection and stops on its own gap test, so it runs
    the iterates of a solo run."""
    out, live = np.empty_like(M), np.arange(len(M))
    F, P = _flat(cs.F), _flat(cs.P)  # real views, taken once
    x, p, q = M, np.zeros_like(M), np.zeros_like(M)
    for _ in range(DYKSTRA_MAX_ITER):
        t = x + p
        y = _psd_clip(t)
        p = t - y
        z = y + q
        # One product per item (stride-0 stacks): a shared product would round
        # an item's terms differently with the batch size.
        k = (len(live),)
        x = _affine_project(np.broadcast_to(F, k + F.shape), np.broadcast_to(P, k + P.shape), cs.b, z)
        q = z - x
        done = np.linalg.norm((y - x).reshape(len(live), -1), axis=1) <= DYKSTRA_TOL
        if done.any():
            out[live[done]] = x[done]
            keep = ~done
            live, x, p, q = live[keep], x[keep], p[keep], q[keep]
            if not len(live):
                return out
    out[live] = x
    return out


def _face_polish(cs: ConstraintSystem, X: np.ndarray) -> list:
    """Certified feasible points near the face matrices X: (row, point)
    pairs in row order.

    Each row is restored onto the affine constraints of cs.  A restored row
    whose smallest eigenvalue lies in the rescue band [-0.05 lmax, -FEAS_TOL)
    goes through one batched _face_dykstra call.  The band only saves time:
    rows further from the PSD cone would cost a long Dykstra run each, so
    they stay uncertified, and the ascent offers them again at its next
    checkpoint.  Only points passing the affine and PSD checks are kept."""
    b_scale = 1.0 + float(np.linalg.norm(cs.b))
    M = _affine_project(cs.F, cs.P, cs.b, X)
    w = np.linalg.eigvalsh(M)
    wmin = w[:, 0]
    aff = np.linalg.norm(_tr(cs.F, M) - cs.b, axis=-1)
    rescue = wmin >= -0.05 * np.maximum(w[:, -1], 1e-30)
    # Rows off the affine set are not worth a Dykstra run: every affine
    # projection keeps the least-squares residual of M, so no run repairs them.
    dyk = np.flatnonzero(rescue & (aff <= FEAS_TOL * b_scale) & (wmin < -FEAS_TOL))
    if len(dyk):
        M[dyk] = _face_dykstra(cs, M[dyk])
        wmin[dyk] = np.linalg.eigvalsh(M[dyk])[:, 0]
        aff[dyk] = np.linalg.norm(_tr(cs.F, M[dyk]) - cs.b, axis=-1)
    ok = np.flatnonzero(rescue & (aff <= FEAS_TOL * b_scale) & (wmin >= -FEAS_TOL))
    return list(zip(ok.tolist(), M[ok]))


# ----------------------------------------------------------------------------
# Linear maximization over the spectrahedron (batched over witnesses)
# ----------------------------------------------------------------------------

# Ascent steps between facial-rounding checkpoints, and the number of
# checkpoints in a row without progress after which a task has stalled.
POLISH_EVERY = 25
STALL_BREAK = 8


def _linear_max_batch(cs: ConstraintSystem, G: np.ndarray, max_iter: int):
    """Maximize each linear functional tr(G_k M) over {affine, PSD}.

    Projected gradient ascent (step, PSD clip, affine projection) with a
    facial-rounding harvest at every checkpoint: the raw trajectory keeps
    running, while one _face_polish call turns the current iterates of all
    tasks whose raw objective beats their certified best into certified
    feasible candidates, and "best" only ever moves to one of those.  Tasks
    that stop improving get their step halved (refinement) and the batch
    stops once every task has stalled STALL_BREAK checkpoints in a row.
    Returns (best points, best objectives, iterations, stalled); stalled is
    False when max_iter ran out first.
    """
    K = len(G)
    X = np.tile(cs.x_identity, (K, 1, 1))
    gnorm = np.linalg.norm(G.reshape(K, -1), axis=1)
    # Step ~ a modest fraction of the spectrahedron diameter per move.
    step = 0.1 * cs.d / np.maximum(gnorm, 1e-30)
    # The floor binds 116 times per violation-search pass (--seed 1), so it shapes the ascent.
    min_step = 1e-4 * cs.d / np.maximum(gnorm, 1e-30)
    best_obj = _tr(G, cs.x_identity)
    best_X = X.copy()
    prev_raw = best_obj.copy()
    stall = np.zeros(K, dtype=int)
    it = 0
    while it < max_iter:
        inner = min(POLISH_EVERY, max_iter - it)
        for _ in range(inner):
            X = X + step[:, None, None] * G
            X = cs.proj_psd(X)
            X = cs.proj_affine(X)
        it += inner
        raw_obj = _tr(G[:, None], X)[:, 0]
        raw_gain = raw_obj > prev_raw + 1e-8 * (1.0 + np.abs(prev_raw))
        prev_raw = np.maximum(prev_raw, raw_obj)
        improved = np.zeros(K, dtype=bool)
        # The raw objective bounds what rounding can certify here.
        cand = np.flatnonzero(raw_obj > best_obj + 1e-10)
        for j, z in (_face_polish(cs, X[cand]) if len(cand) else ()):
            k = cand[j]
            obj = float(_tr(G[k], z))
            if obj > best_obj[k] + 1e-10:
                best_obj[k] = obj
                best_X[k] = z
                improved[k] = True
        # A task only stalls once neither the certified best nor the raw
        # trajectory is moving; step halving is reserved for that phase.
        stall = np.where(improved | raw_gain, 0, stall + 1)
        shrink = stall >= 2
        step[shrink] = np.maximum(step[shrink] * 0.5, min_step[shrink])
        if np.all(stall >= STALL_BREAK):
            return best_X, best_obj, it, True
    return best_X, best_obj, it, False


# ----------------------------------------------------------------------------
# The falsifier
# ----------------------------------------------------------------------------

def solve(P: UepProblem) -> UepReport:
    """Run the UEP search and report deviations, a certificate, or evidence
    of uniqueness.

    Deviations are support-function lower bounds max_W <W, Phi(a) - a>/||W||
    (Frobenius-normalized witnesses), evaluated only at polished feasible
    Choi matrices; the certificate deviation is re-measured in operator norm
    and revalidated by an independent code path.  Witness tasks whose
    objective no feasible point can move by more than tol/10 skip the
    ascent; ``iterations`` is 0 when every task is skipped.  The search
    runs on the reduced face of build_constraints, whose n ``face_dim``
    reports.
    """
    if P.G is None:
        raise InvalidInput("solve requires a generator set")
    if not (math.isfinite(P.tol) and P.tol >= 0.0):
        raise InvalidInput(f"tol must be finite and >= 0, got {P.tol}")
    if P.max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {P.max_iter}")
    if P.n_witnesses < 1:
        raise InvalidInput(f"n_witnesses must be >= 1, got {P.n_witnesses}")
    if P.probes is not None and len(P.probes) == 0:
        raise InvalidInput("probe list is empty")
    d = P.d
    cs = build_constraints(P)
    alg = opsys.generate_algebra(P.G)

    if P.probes is None:
        probes = [b.copy() for b in alg.basis]
    else:
        probes = [linalg.require_square(a) for a in P.probes]
        for a in probes:
            if a.shape != (d, d):
                raise InvalidInput(f"probe shape {a.shape} != ({d}, {d})")
    info = []
    for idx, a in enumerate(probes):
        resid = alg.projection_residual(a)
        in_alg = resid <= MEMBERSHIP_RTOL * (1.0 + linalg.frob_norm(a))
        info.append((idx, resid, in_alg))

    rng = make_rng(P.seed)
    n_w = int(P.n_witnesses)

    # Round 0: random Hermitian witnesses for every probe, in +/- pairs
    # (a witness only sees deviation directions it overlaps positively,
    # so each draw is used with both signs).
    tasks = []  # (probe_idx, W)
    for idx, a in enumerate(probes):
        for _ in range(n_w):
            W = random_hermitian(rng, d)
            W = W / max(linalg.frob_norm(W), 1e-30)
            tasks.append((idx, W))
            tasks.append((idx, -W))

    best_dev = np.zeros(len(probes))
    best_x = {}  # probe index -> certified face matrix of its best deviation
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
        live = np.flatnonzero(2 * d * np.linalg.norm(tangent.reshape(len(grads), -1), axis=1)
                              > P.tol / 10.0)
        if not len(live):
            return
        bx, bobj, iters, stalled = _linear_max_batch(cs, grads[live], P.max_iter)
        total_iters += iters
        exhausted = exhausted or not stalled
        for t, k in enumerate(live):
            idx, W = task_list[k]
            wnorm = max(linalg.frob_norm(W), 1e-30)
            base = float(np.real(np.trace(W.conj().T @ probes[idx])))
            dev = (float(bobj[t]) - base) / wnorm
            if dev > best_dev[idx]:
                best_dev[idx] = dev
                best_x[idx] = bx[t]

    run_tasks(tasks)

    # Adaptive rounds: push the witness toward the actual deviation direction.
    for _ in range(3):
        prev = best_dev.copy()
        adaptive = []
        for idx, a in enumerate(probes):
            if best_dev[idx] <= P.tol / 10.0:
                continue
            C = cpmaps.ChoiMatrix(d=d, mat=cs.to_choi_mat(best_x[idx]))
            W = cpmaps.apply_choi(C, a) - a
            wn = linalg.frob_norm(W)
            if wn <= P.tol / 10.0:
                continue
            adaptive.append((idx, W / wn))
        if not adaptive:
            break
        run_tasks(adaptive)
        gain = float(np.max(best_dev - prev)) if len(best_dev) else 0.0
        if gain <= max(P.tol, 0.02 * float(np.max(best_dev))):
            break

    deviations = [
        ProbeDeviation(index=idx, deviation=float(best_dev[idx]), in_algebra=in_alg,
                       projection_residual=float(resid))
        for idx, resid, in_alg in info
    ]
    on_alg = [p for p in deviations if p.in_algebra]
    max_dev = max((p.deviation for p in on_alg), default=0.0)

    if max_dev <= P.tol:
        worst_idx = on_alg[0].index if on_alg else 0
    else:
        worst_idx = max(on_alg, key=lambda p: p.deviation).index
    x_final = best_x.get(worst_idx, cs.x_identity)
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
        a = probes[worst_idx]
        certificate = ViolationCertificate(choi=choi, probe=a, residuals=residuals,
                                           deviation=linalg.op_norm(cpmaps.apply_choi(choi, a) - a))
        if not validate_certificate(certificate, P):
            certificate = None
        status = "NonConverged" if certificate is None else "ViolationFound"

    return UepReport(
        status=status,
        deviations=deviations,
        iterations=total_iters,
        residuals=residuals,
        constraint_rank=cs.rank,
        rank_margin=cs.rank_margin,
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
    residual and the problem tolerance.
    """
    defects = cpmaps.validate_ucp(cert.choi)
    if defects["cp_defect"] > 1e-7 or defects["unital_defect"] > 1e-7:
        return False
    agreement = 0.0
    for g in P.pinned_elements():
        agreement = max(agreement, linalg.op_norm(cpmaps.apply_choi(cert.choi, g) - g))
    if agreement > 1e-7:
        return False
    dev = linalg.op_norm(cpmaps.apply_choi(cert.choi, cert.probe) - cert.probe)
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
    if P.G is None:
        raise InvalidInput("schwarz_pinning_check requires a generator set")
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
