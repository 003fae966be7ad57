"""Tests for the unique-extension-property falsifier."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import cpmaps, linalg, opsys, uep
from hyperlab.errors import InvalidInput
from hyperlab.rng import (make_rng, random_complex, random_hermitian, random_normal_matrix,
                          random_ucp_kraus, random_unitary)
from hyperlab.suite import hand_certificate


def x_diag() -> np.ndarray:
    return np.diag([0.0, 1.0, 2.0]).astype(complex)


def swap01() -> np.ndarray:
    """E01 + E10 at d = 3, which lies outside C*(X) and C*(X, X^2)."""
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)


def gen(d, *mats) -> opsys.GeneratorSet:
    return opsys.GeneratorSet(d=d, generators=tuple(np.asarray(m, dtype=complex) for m in mats))


def search(P: uep.UepProblem) -> uep.UepReport:
    """The search alone, after solve's input checks, without the theorem step."""
    _, probes, info, _ = uep._validate(P)
    return uep._search(P, probes, info)


def theorem(P: uep.UepProblem) -> uep.UepReport | None:
    """The theorem step alone, after solve's input checks."""
    span, _, info, membership = uep._validate(P)
    return uep._theorem_step(P, span, info, membership)


def test_hermvec_isometry():
    rng = make_rng(40)
    A = random_hermitian(rng, 5)
    v = uep.hermvec(A)
    assert v.shape == (25,)
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(A))
    assert np.allclose(uep.unhermvec(v, 5), A, atol=1e-12)


def test_hermvec_one_gather_matches_two():
    """hermvec gathers the upper triangle once and reads the diagonal by
    np.diagonal; the output equals the formula that gathers the triangle
    twice and the diagonal by fancy indexing, bit for bit, on a stack."""
    rng = make_rng(41)
    X = np.array([random_hermitian(rng, 25) for _ in range(7)])
    iu, ar = np.triu_indices(25, 1), np.arange(25)
    ref = np.concatenate([np.real(X[..., ar, ar]), uep.SQRT2 * np.real(X[..., iu[0], iu[1]]),
                          uep.SQRT2 * np.imag(X[..., iu[0], iu[1]])], axis=-1)
    assert np.array_equal(uep.hermvec(X), ref)


def _ambient_system(d, G):
    """Loop reference for build_constraints: the Hermitian functional and
    target of every row, real then imaginary part per (element, m, n)."""
    elems = [np.eye(d)] + G.with_adjoints()
    mats, targets = [], []
    for s in elems:
        for m in range(d):
            for n in range(d):
                F = np.kron(s.T, np.outer(np.eye(d)[n], np.eye(d)[m]))  # s^T (x) E_nm
                FH = F.conj().T
                mats += [(F + FH) / 2.0, (F - FH) / 2.0j]
                targets += [s[m, n].real, s[m, n].imag]
    return np.array(mats), np.array(targets)


def _generator_cases(d):
    rng = make_rng(500 + d)
    T = random_complex(rng, d, d)
    N = random_normal_matrix(rng, d)
    H = random_hermitian(rng, d)
    return {
        "polar": (T, T.conj().T @ T, T @ T.conj().T),
        "normal": (N, N @ N.conj().T),
        "unitary": (random_unitary(rng, d),),
        "hermitian": (H,),
        "non-normal": (np.triu(T),),
        "identity": (np.eye(d),),
        "X-and-square": (H, H @ H),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_build_constraints_matches_loop_reference(d):
    """The system over the orthonormal basis of span{I, G, G*} has the same
    solution set as the per-element loop reference on the face (equal
    affine projections), and one row per equation: rows = rank = the SVD
    rank of the ambient reference system."""
    rng = make_rng(600 + d)
    for name, gens in _generator_cases(d).items():
        G = gen(d, *gens)
        cs = uep.build_constraints(uep.UepProblem(d=d, G=G))
        mats, targets = _ambient_system(d, G)
        U = cs.face
        R = uep.hermvec(U.conj().T @ mats @ U)
        X = rng.standard_normal((4, cs.n * cs.n))
        ref = X - (X @ R.T - targets) @ np.linalg.pinv(R, rcond=1e-12).T
        got = cs.proj_affine(uep.unhermvec(X, cs.n))
        assert np.allclose(got, uep.unhermvec(ref, cs.n), rtol=0, atol=1e-10), name
        sv = np.linalg.svd(uep.hermvec(mats), compute_uv=False)
        assert len(cs.F) == cs.rank == int(np.sum(sv > 1e-12 * sv[0])), name


def _pinned_face_reference(P):
    """Per-sample loop reference for uep._pinned_face, with a full SVD: the
    samples mix the traceless parts of the basis, and a sample counts as a
    multiple of I when its spread is below 1e-12 times its unshifted size."""
    d = P.d
    basis = [np.eye(d, dtype=complex)]
    for g in P.G.with_adjoints():
        for H in ((g + g.conj().T) / 2.0, (g - g.conj().T) / 2.0j):
            if linalg.maxabs(H) > 1e-14:
                basis.append(H)
    shifts = [float(np.trace(B).real) / d for B in basis]  # traceless parts are mixed
    basis = [B - t * np.eye(d) for B, t in zip(basis, shifts)]
    rng = make_rng(0x0FACE)
    samples = list(zip(basis, shifts))
    for _ in range(4 * len(basis) + 8):
        c = rng.standard_normal(len(basis))
        samples.append((sum(ck * Bk for ck, Bk in zip(c, basis)), float(c @ shifts)))
    kernel = []
    for H, t in samples:
        w, V = np.linalg.eigh(H)
        scale = float(w[-1] - w[0])
        if scale <= 1e-12 * max(abs(w[0] + t), abs(w[-1] + t)):
            continue
        for mu in (w - w[0], w[-1] - w):
            ker = [V[:, k] for k in range(d) if mu[k] <= 1e-12 * scale]
            rng_vecs = [V[:, k] for k in range(d) if mu[k] >= 1e-6 * scale]
            for u in ker:
                for x in rng_vecs:
                    kernel.append(np.kron(x.conj(), u))
    if not kernel:
        return np.eye(d * d, dtype=complex)
    _, sv, Vh = np.linalg.svd(np.array(kernel).conj())
    r = int(np.sum(sv > 1e-8 * (sv[0] if sv[0] > 0 else 1.0)))
    return Vh[r:].conj().T


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pinned_face_matches_reference(d):
    """The vectorized sampling and the thin null space give bit for bit the
    face of the loop and its full SVD, also where eigenvalues repeat.  At
    d = 6 LAPACK's thin and full SVDs of some tall 36-column stacks differ
    at roundoff, so there the face is checked as a subspace."""
    cases = _generator_cases(d)
    cases["repeated-diagonal"] = (np.diag(np.arange(d) // 2),)
    for name in ("polar", "normal", "unitary", "hermitian", "repeated-diagonal"):
        P = uep.UepProblem(d=d, G=gen(d, *cases[name]))
        got, ref = uep._pinned_face(P), _pinned_face_reference(P)
        if d <= 5:
            assert np.array_equal(got, ref), name
        else:
            assert got.shape == ref.shape, name
            assert np.allclose(got @ got.conj().T, ref @ ref.conj().T, rtol=0, atol=1e-12), name


def test_near_scalar_generator_keeps_its_face():
    """A generator within 1e-9 of I gets the face of its scaled-up copy
    (n = 10), and that face carries a certified violation: pinching in U's
    basis, then mixing the diagonal by stochastic rows, fixes g and moves
    U diag(0, 1, 1, 4) U* by 1."""
    U = random_unitary(make_rng(5), 4)

    def on_u(v):
        return U @ np.diag(v) @ U.conj().T

    spread = np.array([0.0, 1.0, 1.0, 2.0])
    P = uep.UepProblem(d=4, G=gen(4, on_u(1.0 + 1e-9 * spread)))
    S = np.array([[1.0, 0, 0, 0], [0.5, 0, 0, 0.5], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    kraus = tuple(np.sqrt(S[i, j]) * np.outer(U[:, i], U[:, j].conj()) for i, j in zip(*np.nonzero(S)))
    choi = cpmaps.choi_from_kraus(cpmaps.KrausSet(d_in=4, d_out=4, operators=kraus))
    probe = on_u([0.0, 1.0, 1.0, 4.0])
    dev = linalg.op_norm(cpmaps.apply_choi(choi, probe) - probe)
    assert dev == pytest.approx(1.0, abs=1e-12)
    assert uep.validate_certificate(
        uep.ViolationCertificate(choi=choi, probe=probe, deviation=dev, residuals={}), P)
    cs = uep.build_constraints(P)
    assert cs.n == uep.build_constraints(uep.UepProblem(d=4, G=gen(4, on_u(spread)))).n == 10
    Pf = cs.face @ cs.face.conj().T
    assert np.linalg.norm(choi.mat - Pf @ choi.mat @ Pf) <= 1e-6 * np.linalg.norm(choi.mat)


def _unique_family(family, d, rng):
    """Generators of a family with the unique extension property, drawn
    from rng, and the dimension of its minimal face.  A polar triple
    leaves only the identity map, whose Choi matrix has rank 1; the other
    families generate the diagonal algebra of an eigenbasis, and the maps
    fixing it are the Schur multipliers there, whose Choi matrices span
    span{e_i (x) e_i} (dimension d)."""
    if family == "polar":
        T = random_complex(rng, d, d)
        return (T, T.conj().T @ T, T @ T.conj().T), 1
    if family == "normal":
        N = random_normal_matrix(rng, d)
        return (N, N @ N.conj().T), d
    if family == "unitary":
        return (random_unitary(rng, d),), d
    H = random_hermitian(rng, d)
    return (H, H @ H), d


_MINIMAL_FACE_DRAWS = [(d, 8000 + 10 * d + draw) for d in range(2, 7) for draw in range(6)]


@pytest.mark.parametrize("family, draws", [
    *[pytest.param(f, _MINIMAL_FACE_DRAWS, id=f)
      for f in ("polar", "normal", "unitary", "X-and-square")],
    # The fixed d = 5 normal set of the benchmark's unique battery (stream
    # key 10): sampling finds a face of dimension 9, not the minimal 5.
    pytest.param("normal", [(5, 510)], id="normal-510",
                 marks=pytest.mark.xfail(strict=True, reason="face n = 9 > 5 is not minimal")),
])
def test_pinned_face_is_minimal_on_unique_families(family, draws):
    """The sampled face of a unique family is the minimal face."""
    for d, seed in draws:
        gens, n_min = _unique_family(family, d, make_rng(seed))
        assert uep._pinned_face(uep.UepProblem(d=d, G=gen(d, *gens))).shape[1] == n_min, (d, seed)


def test_build_constraints_unitality_only():
    """With G = {I} only unitality constrains the Choi."""
    P = uep.UepProblem(d=2, G=gen(2, np.eye(2)))
    cs = uep.build_constraints(P)
    C = cs.to_choi_mat(cs.x_identity)
    assert np.allclose(linalg.partial_trace_first(C, 2), np.eye(2), atol=1e-10)


def test_build_constraints_identity_generator_adds_nothing():
    X = x_diag()
    base = uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X)))
    with_id = uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X, np.eye(3))))
    assert with_id.rank == base.rank


def test_build_constraints_rank_comparison():
    X = x_diag()
    r1 = uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X))).rank
    r2 = uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X, np.diag([0.0, 1.0, 4.0])))).rank
    assert r1 == 18
    assert r2 == 27
    assert r2 > r1


def test_identity_choi_is_feasible():
    cs = uep.build_constraints(uep.UepProblem(d=3, G=gen(3, x_diag())))
    C = cs.to_choi_mat(cs.x_identity)
    assert np.allclose(C, cpmaps.identity_choi(3).mat, atol=1e-8)
    assert np.linalg.norm(cs.affine_residual(cs.x_identity)) <= 1e-8


def _hermvec_clip(x, n):
    w, U = np.linalg.eigh(uep.unhermvec(x, n))
    return uep.hermvec((U * np.clip(w, 0.0, None)) @ U.conj().T)


def _face_dykstra_reference(RT, pin, b, m, r):
    """One row's Dykstra in hermvec coordinates, until success or the stall
    rule."""
    p = np.zeros_like(m)
    x = m
    gaps = []
    while True:
        y = _hermvec_clip(x + p, r)
        p = x + p - y
        x = y - pin @ (RT @ y - b)
        gap = np.linalg.norm(y - x)
        if gap <= uep.DYKSTRA_TOL:
            break
        if len(gaps) >= uep.DYKSTRA_WINDOW and not gap <= 0.9 * gaps[-uep.DYKSTRA_WINDOW]:
            break
        gaps.append(gap)
    return x


def _face_polish_reference(cs, x, stats):
    """One row's rounding in hermvec coordinates: the certified point, or
    None.  It restores with a 1e-10 pseudo-inverse cutoff where the system's
    P uses 1e-12; the two cutoffs give the same points."""
    n = cs.n
    RT = uep.hermvec(cs.F)
    pin = np.linalg.pinv(RT, rcond=1e-10)
    b_scale = 1.0 + float(np.linalg.norm(cs.b))
    mm = x - pin @ (RT @ x - cs.b)
    w = np.linalg.eigvalsh(uep.unhermvec(mm, n))
    if w[0] < -uep.FEAS_TOL:
        mm = _face_dykstra_reference(RT, pin, cs.b, mm, n)
        stats["dykstra"] += 1
        w = np.linalg.eigvalsh(uep.unhermvec(mm, n))
    aff = float(np.linalg.norm(RT @ mm - cs.b))
    return mm if aff <= uep.FEAS_TOL * b_scale and w[0] >= -uep.FEAS_TOL else None


def _ascent_tasks(X=x_diag(), tasks=4, probe=None):
    """The constraint system of {X} and the face gradients of tasks random
    witness tasks on the probe (X^2 when None)."""
    d = len(X)
    cs = uep.build_constraints(uep.UepProblem(d=d, G=gen(d, X)))
    rng = make_rng(77)
    a = X @ X if probe is None else probe
    F = cs.face.conj().T @ cpmaps.choi_functional(
        [a] * tasks, [random_hermitian(rng, d) for _ in range(tasks)]) @ cs.face
    return cs, (F + F.conj().swapaxes(-1, -2)) / 2.0


def _ascent_iterates(X=x_diag(), tasks=4, checkpoints=4):
    """Face matrices of a short projected-gradient ascent on {X} with probe
    X^2, one block of tasks per stall check, stepped as _linear_max_batch
    steps them."""
    cs, grads = _ascent_tasks(X, tasks)
    step = 0.1 * len(X) / np.linalg.norm(grads.reshape(tasks, -1), axis=1)
    Z = np.tile(cs.x_identity, (tasks, 1, 1))
    rows = []
    for _ in range(checkpoints):
        for _ in range(uep.CHECK_EVERY):
            Z = cs.proj_affine(cs.proj_psd(Z + step[:, None, None] * grads))
        rows.append(Z)
    return cs, np.concatenate(rows)


def test_face_polish_matches_per_row_reference():
    """One batched call certifies the same rows, in the same order and with
    the same points, as rounding each row alone in hermvec coordinates."""
    cs, X = _ascent_iterates()
    stats = {"dykstra": 0}
    ref = [(k, z) for k in range(len(X))
           if (z := _face_polish_reference(cs, uep.hermvec(X[k]), stats)) is not None]
    got = uep._face_polish(cs, X)
    assert stats["dykstra"] > 0 and ref  # the Dykstra and the direct path both ran
    assert [k for k, _ in got] == [k for k, _ in ref]
    for (_, z), (k, zr) in zip(got, ref):
        assert np.allclose(z, uep.unhermvec(zr, cs.n), rtol=0, atol=1e-10), k


def test_linear_max_batch_returns_certified_gains():
    """Each task's gain is either exactly 0.0 at x_identity or above 1e-10
    at a point where it equals tr(G_k (x_k - x_identity)), and every point
    passes the FEAS_TOL checks.  Tasks on the pinned probe X cannot gain;
    tasks on X^2 can."""
    cs, grads = _ascent_tasks()
    _, pinned = _ascent_tasks(probe=x_diag())
    grads = np.concatenate([grads, pinned])
    points, gain, _, stalled = uep._linear_max_batch(cs, grads, 20000)
    assert stalled
    assert np.all(gain >= 0.0)
    assert np.all(gain[-len(pinned):] == 0.0) and np.any(gain[:-len(pinned)] > 0.0)
    b_scale = 1.0 + np.linalg.norm(cs.b)
    for G, x, g in zip(grads, points, gain):
        if g == 0.0:
            assert np.array_equal(x, cs.x_identity)
        else:
            assert g > 1e-10
            assert abs(g - uep._tr(G, x - cs.x_identity)) <= 1e-12
        assert cs.affine_residual(x) <= uep.FEAS_TOL * b_scale
        assert cs.psd_residual(x) <= uep.FEAS_TOL


def test_face_polish_keeps_feasible_rows(monkeypatch):
    """Rows that are already feasible (the identity map's face matrix) come
    back as they are, with no Dykstra run."""
    cs = uep.build_constraints(uep.UepProblem(d=3, G=gen(3, x_diag())))
    calls = []
    dykstra = uep._face_dykstra
    monkeypatch.setattr(uep, "_face_dykstra", lambda *a: calls.append(a) or dykstra(*a))
    got = uep._face_polish(cs, np.array([cs.x_identity] * 3))
    assert not calls
    assert [k for k, _ in got] == [0, 1, 2]
    for _, z in got:
        assert np.allclose(z, cs.x_identity, rtol=0, atol=1e-12)


def test_face_dykstra_stops_each_item(monkeypatch):
    """Each item of a rounding batch leaves it on success or on the stall
    rule, so no pass budget is needed: an item whose first window's largest
    gap is g stops within DYKSTRA_WINDOW (1 + ceil(log(g / DYKSTRA_TOL) /
    log(1 / 0.9))) passes, as every window that does not stall shrinks the
    gap by 10%.  The items are the rows that rounding hands to Dykstra for a
    random Hermitian generator (a violation-search shape), from the first
    ascent of a solve and from a short ascent; they stop in both ways, the
    PSD clips shrink with the batch, and every point that stopped on success
    passes the FEAS_TOL checks."""
    g = random_hermitian(make_rng(2000), 3)
    rounding = []
    dykstra, polish = uep._face_dykstra, uep._face_polish

    def spy_polish(cs, X):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(uep, "_face_dykstra",
                      lambda project, M: rounding.append((project, M.copy())) or dykstra(project, M))
            return polish(cs, X)

    monkeypatch.setattr(uep, "_face_polish", spy_polish)
    search(uep.UepProblem(d=3, G=gen(3, g), seed=1, n_witnesses=2))
    cs, X = _ascent_iterates(g)
    uep._face_polish(cs, X)
    project = rounding[-1][0]
    M = np.concatenate([rounding[0][1], rounding[-1][1]])

    sizes, log = [], []  # rows of each PSD clip; gaps of the live rows, per pass
    clip = uep._psd_clip
    monkeypatch.setattr(uep, "_psd_clip", lambda Z: sizes.append(len(Z)) or clip(Z))

    def logged(Y):
        Z = project(Y)
        log.append(np.linalg.norm((Y - Z).reshape(len(Y), -1), axis=1))
        return Z

    points = dykstra(logged, M)
    assert sizes == [len(gap) for gap in log] == sorted(sizes, reverse=True)
    assert sizes[0] == len(M) > sizes[-1]
    # Follow each item through the batch: rows leave in order when done.
    live, hist = list(range(len(M))), [[] for _ in M]
    W = uep.DYKSTRA_WINDOW
    for i, gap in enumerate(log):
        assert len(gap) == len(live)
        for k, gk in zip(live, gap):
            hist[k].append(gk)
        live = [k for k in live if not (hist[k][-1] <= uep.DYKSTRA_TOL or (
            i >= W and not hist[k][-1] <= 0.9 * hist[k][-1 - W]))]
    assert not live
    kinds = set()
    b_scale = 1.0 + float(np.linalg.norm(cs.b))
    for k, h in enumerate(hist):
        first = max(h[:W])
        bound = W * (1 + max(0, math.ceil(math.log(first / uep.DYKSTRA_TOL) / math.log(1 / 0.9))))
        assert len(h) <= bound, k
        won = h[-1] <= uep.DYKSTRA_TOL
        kinds.add("success" if won else "stall")
        if won:
            assert np.linalg.eigvalsh(points[k])[0] >= -uep.FEAS_TOL, k
            assert cs.affine_residual(points[k]) <= uep.FEAS_TOL * b_scale, k
    assert kinds == {"success", "stall"}


def test_solve_x_only_finds_violation():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X], seed=1, n_witnesses=2)
    rep = uep.solve(P)
    assert rep.status == "ViolationFound"
    assert rep.max_deviation >= 0.5
    assert rep.certificate is not None
    assert uep.validate_certificate(rep.certificate, P)


def test_solve_x_and_square_is_unique():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[X @ X @ X], seed=2, n_witnesses=2)
    rep = uep.solve(P)
    assert rep.status == "Unique-evidence"
    assert rep.max_deviation <= 1e-6


def test_solve_irreducible_polar_set_is_unique():
    rng = make_rng(41)
    T = random_complex(rng, 4, 4)
    G = gen(4, T, T.conj().T @ T, T @ T.conj().T)
    assert opsys.is_irreducible(G)
    rep = uep.solve(uep.UepProblem(d=4, G=G, probes=[T @ T], seed=3, n_witnesses=2))
    assert rep.status == "Unique-evidence"
    assert rep.max_deviation <= 1e-6


def test_probe_outside_algebra_is_labeled_freedom():
    """A probe outside C*(G) reports extension freedom, not a UEP violation;
    the in-algebra probe beside it carries the status."""
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[swap01(), X @ X], seed=4, n_witnesses=2)
    rep = uep.solve(P)
    assert rep.status == "Unique-evidence"
    probe, in_alg = rep.deviations
    assert not probe.in_algebra and in_alg.in_algebra
    assert probe.to_json()["label"] == "extension freedom, not UEP violation"


def test_validate_certificate_accepts_hand_construction():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X])
    choi = cpmaps.choi_from_kraus(hand_certificate())
    dev = linalg.op_norm(cpmaps.apply_choi(choi, X @ X) - X @ X)
    assert dev == pytest.approx(1.0, abs=1e-12)
    cert = uep.ViolationCertificate(choi=choi, probe=X @ X, deviation=dev, residuals={})
    assert uep.validate_certificate(cert, P)


def test_validate_certificate_rejects_identity_map():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X])
    cert = uep.ViolationCertificate(choi=cpmaps.identity_choi(3), probe=X @ X,
                                    deviation=1.0, residuals={})
    assert not uep.validate_certificate(cert, P)  # claims a deviation it lacks


def test_validate_certificate_rejects_non_cp():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X])
    choi = cpmaps.choi_from_kraus(hand_certificate())
    bad = cpmaps.ChoiMatrix(d=3, mat=choi.mat - 0.01 * np.eye(9))
    cert = uep.ViolationCertificate(choi=bad, probe=X @ X, deviation=1.0, residuals={})
    assert not uep.validate_certificate(cert, P)


def test_solve_is_deterministic():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[X @ X @ X], seed=5, n_witnesses=2)
    a = uep.solve(P).to_json()
    b = uep.solve(P).to_json()
    assert a == b


def test_self_adjoint_three_eigenvalues_violates():
    """Property from the theory: a single self-adjoint generator with at
    least three distinct eigenvalues never has the unique-extension
    property in its own C*-algebra."""
    rng = make_rng(42)
    for trial in range(3):
        Q = random_unitary(rng, 3)
        w = np.sort(rng.standard_normal(3)) * 2.0
        w[1] = w[0] + max(w[1] - w[0], 0.5)
        w[2] = w[1] + max(w[2] - w[1], 0.5)
        X = Q @ np.diag(w) @ Q.conj().T
        P = uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X], seed=100 + trial,
                           n_witnesses=2, max_iter=4000)
        rep = uep.solve(P)
        assert rep.status == "ViolationFound"
        assert rep.max_deviation >= 0.1


def test_wide_face_search_finds_violation():
    """A single Hermitian generator at d = 6 has a pinned face of dimension
    26; rounding on that whole face certifies the violation, so it is found
    rather than reported as unique (the search alone: the spectrum step
    decides a single Hermitian generator)."""
    H = random_hermitian(make_rng(106), 6)
    P = uep.UepProblem(d=6, G=gen(6, H), probes=[H @ H], seed=1, n_witnesses=1, max_iter=2000)
    assert uep.build_constraints(P).n > 12
    rep = search(P)
    assert rep.status == "ViolationFound"
    assert uep.validate_certificate(rep.certificate, P)


def test_noisy_identity_generator_keeps_face_and_violation():
    """W W* equals I only up to rounding; pinning it must neither shrink the
    face nor hide the violation of {X}, from the search or from the
    spectrum step, which reads W W* as a scalar."""
    X = x_diag()
    W = random_unitary(make_rng(950), 3)
    P = uep.UepProblem(d=3, G=gen(3, X, W @ W.conj().T), probes=[X @ X], seed=1, n_witnesses=2)
    assert uep.build_constraints(P).n == uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X))).n
    for rep in (search(P), uep.solve(P)):
        assert rep.status == "ViolationFound"
        assert uep.validate_certificate(rep.certificate, P)
    assert rep.basis == "spectrum"
    for d in (2, 3, 4, 5):
        U = random_unitary(make_rng(960 + d), d)
        n_u = uep.build_constraints(uep.UepProblem(d=d, G=gen(d, U))).n
        assert uep.build_constraints(uep.UepProblem(d=d, G=gen(d, U, U @ U.conj().T))).n == n_u


def test_short_ascent_rounds_to_a_violation():
    """An ascent cut off by max_iter = 25 ends far enough from the identity
    for rounding, which runs each row to success or a stall, to certify a
    violation (deviation about 0.027); one adaptive round adds 25 steps."""
    H = random_hermitian(make_rng(104), 4)
    P = uep.UepProblem(d=4, G=gen(4, H), probes=[H @ H], seed=1, n_witnesses=1, max_iter=25)
    rep = search(P)
    assert rep.status == "ViolationFound"
    assert uep.validate_certificate(rep.certificate, P)
    assert rep.iterations == 50


def test_exhausted_budget_is_not_converged():
    """A search cut off by max_iter before its stall test fired is no
    evidence of uniqueness: at tol = 0.5 the same short ascent's deviation
    is below tol/10, so no adaptive round runs, and the status is
    NonConverged, not Unique-evidence (this generator has a violation)."""
    H = random_hermitian(make_rng(104), 4)
    P = uep.UepProblem(d=4, G=gen(4, H), probes=[H @ H], seed=1, n_witnesses=1, max_iter=25, tol=0.5)
    rep = search(P)
    assert rep.status == "NonConverged"
    assert rep.iterations == 25


def test_constant_tasks_skip_the_ascent():
    """On the minimal face of a unique family every witness objective is
    constant on the constraint slice, so no task enters the ascent and
    every in-algebra deviation is exactly zero (the search alone: the
    theorem step decides these families)."""
    for family in ("polar", "normal", "unitary", "X-and-square"):
        for d in range(2, 6):
            gens, _ = _unique_family(family, d, make_rng(8000 + 10 * d))
            rep = search(uep.UepProblem(d=d, G=gen(d, *gens), seed=d, n_witnesses=2))
            assert rep.status == "Unique-evidence", (family, d)
            assert rep.iterations == 0, (family, d)
            assert all(p.deviation == 0.0 for p in rep.deviations if p.in_algebra), (family, d)


def test_skipped_tasks_cannot_move():
    """A full ascent moves a task that meets the skip rule (2d ||G_t||_F <=
    tol/10, G_t the gradient's part tangent to the slice) by at most
    2d ||G_t||_F, while on {X} some kept task moves by more than tol."""
    d, tol = 3, 1e-7
    P = uep.UepProblem(d=d, G=gen(d, x_diag()), tol=tol)
    cs = uep.build_constraints(P)
    probes = opsys.generate_algebra(P.G).basis
    rng = make_rng(3)
    idxs, Ws = [], []
    for i in range(len(probes)):
        for _ in range(2):
            W = random_hermitian(rng, d)
            W = W / np.linalg.norm(W)
            idxs += [i, i]
            Ws += [W, -W]
    Fc = cs.face.conj().T @ cpmaps.choi_functional([probes[i] for i in idxs], Ws) @ cs.face
    grads = (Fc + Fc.conj().swapaxes(-1, -2)) / 2.0
    tangent = uep._affine_project(cs.F, cs.P, 0.0, grads)
    bound = 2 * d * np.linalg.norm(tangent.reshape(len(grads), -1), axis=1)
    skip = bound <= tol / 10.0
    assert skip.any() and not skip.all()
    _, gain, _, _ = uep._linear_max_batch(cs, grads, P.max_iter)
    assert np.all(gain[skip] <= bound[skip])
    assert np.any(gain[~skip] > tol)


def _normal_problem(key, d, **kw) -> uep.UepProblem:
    """The normal set {N, NN*} of random_normal_matrix(make_rng(key), d)."""
    N = random_normal_matrix(make_rng(key), d)
    return uep.UepProblem(d=d, G=gen(d, N, N @ N.conj().T), **kw)


@pytest.mark.parametrize("key, d, face_dim", [
    # Sampled face n and passes of the first step's _face_dykstra run: 9
    # and 160, 9 and 2,334, 11 and 2,034.
    pytest.param(510, 5, 5, id="key10"),
    pytest.param(7506, 5, 5, id="7506"),
    pytest.param(7600, 6, 6, id="7600"),
])
def test_exposing_step_skips_the_ascent_on_a_non_minimal_face(key, d, face_dim):
    """Exposing vectors reduce the sampled face of a normal set to its
    minimal face (n = d), where every witness task is fixed: no ascent,
    deviations exactly zero.  build_constraints reports the same face.  The
    theorem step decides these sets, so the search runs alone."""
    P = _normal_problem(key, d, seed=71, n_witnesses=2)
    rep = search(P)
    assert rep.status == "Unique-evidence"
    assert rep.iterations == 0
    assert all(p.deviation == 0.0 for p in rep.deviations if p.in_algebra)
    assert rep.face_dim == rep.to_json()["face_dim"] == uep.build_constraints(P).n == face_dim


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the exposing search stalls on this n = 11 face")
def test_exposing_step_finds_the_vector_of_a_slow_face():
    """The sampled face (n = 11) of this d = 6 normal set is not minimal,
    but the stall rule stops the search for its exposing vector, so
    build_constraints returns the sampled face unreduced."""
    P = _normal_problem(7613, 6)
    assert uep.build_constraints(P).n < uep._pinned_face(P).shape[1] == 11


def test_exposing_search_is_one_face_dykstra_item(monkeypatch):
    """The exposing search is a _face_dykstra run on one item: on key 10
    build_constraints makes exactly one such run, which finds the exposing
    vector of the sampled face (n = 9), and the reduced face n = 5 has an
    empty slice, so it needs no run."""
    calls = []
    dykstra = uep._face_dykstra
    monkeypatch.setattr(uep, "_face_dykstra",
                        lambda project, M: calls.append(len(M)) or dykstra(project, M))
    assert uep.build_constraints(_normal_problem(510, 5)).n == 5
    assert calls == [1]


def _spy_exposing_face(monkeypatch) -> list:
    """Every system that build_constraints hands to _exposing_face, in order."""
    seen, expose = [], uep._exposing_face
    monkeypatch.setattr(uep, "_exposing_face", lambda cs: seen.append(cs) or expose(cs))
    return seen


def _slice_point_at_lambda_min(Y, Z, target) -> np.ndarray:
    """The point of the segment from the slice points Y (PSD) to Z where
    lambda_min is target (lambda_min is concave along the segment, so
    bisection finds the crossing; the segment stays on the slice)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        t = (lo + hi) / 2
        lo, hi = (t, hi) if np.linalg.eigvalsh((1 - t) * Y + t * Z)[0] >= target else (lo, t)
    return (1 - lo) * Y + lo * Z


def test_exposing_face_checks_y_itself(monkeypatch):
    """_exposing_face accepts a Dykstra point by lambda_min(Y) >= -FEAS_TOL
    on Y itself, whatever stopped the run: a slice point with lambda_min
    -1e-3, and a NaN point (one whose eigenvalues eigh returns as NaN),
    give None on the sampled key-10 face, whose exposing vector the real
    search finds."""
    expose, dykstra = uep._exposing_face, uep._face_dykstra
    seen = _spy_exposing_face(monkeypatch)
    uep.build_constraints(_normal_problem(510, 5))
    cs = seen[0]
    assert expose(cs) is not None
    handed = []

    def stand_in(project, M):
        Y = _slice_point_at_lambda_min(dykstra(project, M)[0], M[0], -1e-3)
        assert np.linalg.norm(project(Y) - Y) <= 1e-12
        assert abs(np.linalg.eigvalsh(Y)[0] + 1e-3) <= 1e-9
        handed.append(Y)
        return Y[None]

    monkeypatch.setattr(uep, "_face_dykstra", stand_in)
    assert expose(cs) is None
    nan_point = np.diag(np.full(cs.n, np.nan)).astype(complex)
    monkeypatch.setattr(uep, "_face_dykstra",
                        lambda project, M: handed.append(nan_point) or nan_point[None])
    assert expose(cs) is None
    assert len(handed) == 2


def _slice_is_parallel(cs) -> bool:
    """(tr F_j)_j and b are parallel: the smaller singular value of their
    2 x m stack is at most 1e-9 times the larger."""
    sv = np.linalg.svd([np.real(np.einsum("jii->j", cs.F)), cs.b], compute_uv=False)
    return sv[1] <= 1e-9 * sv[0]


def test_exposing_certificate_rechecks(monkeypatch):
    """The exposing vector of the sampled key-10 face (n = 9, the first
    system build_constraints hands to _exposing_face) re-checks from (V, y)
    and the system alone: Y = sum_j y_j F_j is PSD, sum_j y_j b_j =
    tr(Y x_identity) = 0, V spans ker Y, and x_identity lies on the reduced
    face; that face has no exposing vector left, its b is parallel to
    (tr F_j)_j, and it is the face build_constraints returns."""
    expose = uep._exposing_face
    seen = _spy_exposing_face(monkeypatch)
    built = uep.build_constraints(_normal_problem(510, 5))
    cs = seen[0]
    assert cs.n == 9
    V, y = expose(cs)
    Y = np.tensordot(y, cs.F, axes=1)
    w = np.linalg.eigvalsh(Y)
    assert abs(y @ cs.b) <= 1e-10
    assert w[0] >= -1e-10 * w[-1]
    assert V.shape == (9, 5)
    assert np.allclose(V.conj().T @ V, np.eye(5), atol=1e-12)
    assert np.linalg.norm(Y @ V) <= 1e-10 * w[-1]
    VV = V @ V.conj().T
    assert np.linalg.norm(VV @ cs.x_identity @ VV - cs.x_identity) <= 1e-10
    reduced = cs.restrict(V)
    assert np.linalg.norm(reduced.affine_residual(reduced.x_identity)) <= 1e-10
    assert expose(reduced) is None
    assert _slice_is_parallel(reduced)
    assert built.n == reduced.n == 5
    assert np.array_equal(built.face, reduced.face)


def _projection_residual(cs) -> float:
    """The empty-slice test the exposing step used before: the residual of
    tr Y = 1, tr(Y x_identity) = 0 at the slice projection of I/n."""
    n = cs.n
    T = np.array([np.eye(n, dtype=complex), cs.x_identity])
    T, t = T - uep._affine_project(cs.F, cs.P, 0.0, T), np.array([1.0, 0.0])
    Z = np.eye(n, dtype=complex) / n
    Y = uep._affine_project(T, uep._pinv_mats(T), t, Z - uep._affine_project(cs.F, cs.P, 0.0, Z))
    return float(np.linalg.norm(uep._tr(T, Y) - t))


class _Projected(Exception):
    """Raised by the first PSD clip: the slice was not found empty."""


def _no_projection(M):
    raise _Projected


def test_empty_slice_matches_projection_residual(monkeypatch):
    """_exposing_face declares the slice empty (returns None before any PSD
    clip) exactly when the projection residual exceeds 1e-9, on the sampled
    and on every reduced face of the generator cases at d = 2..5; the
    sampled faces of those are all minimal, so the normal sets of keys 510
    and 7506 add reduced ones."""
    problems = [uep.UepProblem(d=d, G=gen(d, *gens))
                for d in range(2, 6) for gens in _generator_cases(d).values()]
    problems += [_normal_problem(510, 5), _normal_problem(7506, 5)]
    seen = _spy_exposing_face(monkeypatch)
    for P in problems:
        uep.build_constraints(P)
    monkeypatch.undo()
    monkeypatch.setattr(uep, "_psd_clip", _no_projection)
    empty = [_projection_residual(cs) > 1e-9 for cs in seen]
    assert len(seen) > len(problems) and any(empty) and not all(empty)
    for cs, ref in zip(seen, empty):
        try:
            got = uep._exposing_face(cs) is None
        except _Projected:
            got = False
        assert got == ref == _slice_is_parallel(cs), cs.n


@pytest.mark.parametrize("g", [
    pytest.param(x_diag(), id="X"),
    *[pytest.param(random_hermitian(make_rng(2000 + j), 3), id=f"hermitian-{2000 + j}")
      for j in range(2)],
])
def test_exposing_face_none_on_minimal_faces(g, monkeypatch):
    """A single Hermitian generator with three eigenvalues is pinned on its
    minimal face, which has no exposing vector: build_constraints asks
    _exposing_face once and returns the sampled face as it is."""
    P = uep.UepProblem(d=3, G=gen(3, g))
    seen = _spy_exposing_face(monkeypatch)
    built = uep.build_constraints(P)
    assert len(seen) == 1 and seen[0] is built
    assert built.n == uep._pinned_face(P).shape[1]


def test_exposing_step_keeps_the_x_search():
    """On {X} the step finds nothing, so the search runs on the sampled
    face n = 5: pinned iterations and certificate deviation at solver
    seed 7 (the search alone: the spectrum step decides {X})."""
    rep = search(uep.UepProblem(d=3, G=gen(3, x_diag()), seed=7))
    assert rep.status == "ViolationFound"
    assert rep.iterations == 600
    # The default probes are C*(X)'s basis, whose rows generate_algebra
    # gives at roundoff, so the deviation is pinned to 1e-12 relative.
    assert rep.certificate.deviation == pytest.approx(1.2247448713922608, rel=1e-12, abs=0)
    assert rep.face_dim == 5


def _spy_linear_max(monkeypatch) -> list:
    """The batch size of every _linear_max_batch call, in call order."""
    batches = []
    linear_max = uep._linear_max_batch
    monkeypatch.setattr(uep, "_linear_max_batch",
                        lambda cs, G, max_iter: batches.append(len(G)) or linear_max(cs, G, max_iter))
    return batches


def test_ascent_rounds_once_on_all_rows(monkeypatch):
    """Every _linear_max_batch call of a violation search rounds exactly
    once, with all K of its final iterates."""
    batches, polished = _spy_linear_max(monkeypatch), []
    polish = uep._face_polish
    monkeypatch.setattr(uep, "_face_polish", lambda cs, X: polished.append(len(X)) or polish(cs, X))
    X = x_diag()
    rep = search(uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X], seed=1, n_witnesses=2))
    assert rep.status == "ViolationFound"
    assert len(batches) >= 2  # round 0 and an adaptive round
    assert polished == batches


@pytest.mark.parametrize("g", [
    pytest.param(x_diag(), id="X"),
    *[pytest.param(random_hermitian(make_rng(2000 + j), 3), id=f"hermitian-{2000 + j}")
      for j in range(2)],
])
def test_adaptive_round_skips_a_repeat(g, monkeypatch):
    """On a single d = 3 Hermitian generator the first adaptive round's
    point gives back its own witness, so the second adaptive round would
    repeat it and is skipped: round 0 and one adaptive round."""
    batches = _spy_linear_max(monkeypatch)
    rep = search(uep.UepProblem(d=3, G=gen(3, g), seed=7))
    assert rep.status == "ViolationFound"
    assert len(batches) == 2


def test_random_hermitian_d4_finds_violation(monkeypatch):
    """A single random Hermitian generator at d = 4 (face n = 10) has a
    violation, certified after a plain ascent and one rounding.  Its
    witness still moves after the first adaptive round, so a second one
    runs."""
    batches = _spy_linear_max(monkeypatch)
    H = random_hermitian(make_rng(104), 4)
    P = uep.UepProblem(d=4, G=gen(4, H), seed=7)
    rep = search(P)
    assert rep.status == "ViolationFound"
    assert uep.validate_certificate(rep.certificate, P)
    assert rep.max_deviation >= 1.4773
    assert len(batches) == 3


def _h_cubed_problem() -> uep.UepProblem:
    """{H, H^3} with H = random_hermitian(make_rng(20105), 5), at seed 7."""
    H = random_hermitian(make_rng(20105), 5)
    return uep.UepProblem(d=5, G=gen(5, H, H @ H @ H), seed=7)


def _interior_eigenvalue_maps(H) -> list:
    """(P_lambda, Kraus set) of the pinch-and-mix map for every eigenvalue
    lambda of H whose point (lambda, lambda^3) is a convex combination mu of
    three others: it pinches to the eigenbasis and replaces the lambda entry
    by the mu-mix of the others, so it fixes H and H^3 and sends P_lambda to
    0.  mu solves the 3 x 3 system for (1, lambda, lambda^3) over a triple;
    the triples with a nonnegative solution are kept."""
    w, V = np.linalg.eigh(H)
    d = len(w)
    ket = [V[:, [k]] for k in range(d)]  # eigenvectors as d x 1 columns
    maps = []
    for i in range(d):
        for tri in itertools.combinations([j for j in range(d) if j != i], 3):
            A = np.array([np.ones(3), w[list(tri)], w[list(tri)] ** 3])
            mu = np.linalg.solve(A, [1.0, w[i], w[i] ** 3])
            if np.all(mu >= 0.0):
                ops = [ket[k] @ ket[k].conj().T for k in range(d) if k != i]
                ops += [np.sqrt(m) * ket[i] @ ket[j].conj().T for j, m in zip(tri, mu)]
                maps.append((ket[i] @ ket[i].conj().T,
                             cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(ops))))
    return maps


def test_h_cubed_violation_has_a_pinch_and_mix_certificate():
    """{H, H^3} violates the UEP: an interior point of the curve (lambda,
    lambda^3) through the eigenvalues gives a UCP map that fixes H and H^3
    and moves the spectral projection P_lambda by exactly 1."""
    P = _h_cubed_problem()
    maps = _interior_eigenvalue_maps(P.G.generators[0])
    assert maps
    for proj, kraus in maps:
        C = cpmaps.choi_from_kraus(kraus)
        dev = linalg.op_norm(cpmaps.apply_choi(C, proj) - proj)
        cert = uep.ViolationCertificate(choi=C, probe=proj, deviation=dev, residuals={})
        assert abs(dev - 1.0) <= 1e-9
        assert uep.validate_certificate(cert, P)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no rounding row certifies on this face, so every deviation counts as 0")
def test_h_cubed_search_is_not_unique_evidence():
    """The search must not read Unique-evidence on {H, H^3}, which violates
    the UEP (see the pinch-and-mix certificate above): every rounding row
    of its face-13 search stalls in Dykstra uncertified."""
    assert search(_h_cubed_problem()).status != "Unique-evidence"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=st.integers(1, 4), r=st.integers(1, 3), key=st.integers(0, 2 ** 16))
def test_adaptive_skip_gain_bound(d, r, key):
    """The bound behind the adaptive round's skip: for a UCP map Phi and
    unit witnesses W, W', the deviations Re<W, Phi(a) - a> and
    Re<W', Phi(a) - a> differ by at most ||W - W'||_F 2 sqrt(d) ||a||."""
    rng = make_rng(key)
    C = cpmaps.choi_from_kraus(cpmaps.KrausSet(d_in=d, d_out=d,
                                               operators=tuple(random_ucp_kraus(rng, d, r))))
    a = random_complex(rng, d, d)
    W, W2 = (w / np.linalg.norm(w) for w in (random_complex(rng, d, d), random_complex(rng, d, d)))
    moved = cpmaps.apply_choi(C, a) - a
    gain = abs(np.real(np.vdot(W, moved)) - np.real(np.vdot(W2, moved)))
    assert gain <= np.linalg.norm(W - W2) * 2 * np.sqrt(d) * linalg.op_norm(a) * (1 + 1e-12)


def test_scalar_problem_is_unique():
    """At d = 1 the exposing slice has one functional, so it is empty: the
    face is the single point x_identity and nothing ascends (the search
    alone: the theorem step decides a scalar generator)."""
    rep = search(uep.UepProblem(d=1, G=gen(1, np.array([[2.0]]))))
    assert rep.status == "Unique-evidence"
    assert rep.face_dim == 1
    assert rep.iterations == 0


@pytest.mark.parametrize("field, value", [
    ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
    ("max_iter", 0), ("n_witnesses", 0), ("probes", []), ("probes", [swap01()]), ("G", None),
    ("seed", -1), ("seed", 2 ** 64),
    ("max_iter", 2.5), ("max_iter", True), ("n_witnesses", 1.5), ("n_witnesses", True),
    ("d", 3.0), ("seed", 2.5),
])
def test_solve_rejects_bad_inputs(field, value):
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X], seed=1, n_witnesses=2)
    setattr(P, field, value)
    with pytest.raises(InvalidInput):
        uep.solve(P)


def test_schwarz_pinning_check():
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[])
    res = uep.schwarz_pinning_check(P, cpmaps.identity_choi(3))
    for dd in res["generator_defects"]:
        assert dd["left_norm"] <= 1e-10 and dd["right_norm"] <= 1e-10
    assert res["max_word_deviation"] <= 1e-10


# ----------------------------------------------------------------------------
# The theorem step
# ----------------------------------------------------------------------------

def test_theorem_report_fields():
    """A polar set is decided by theorem: no face, no ascent, the identity
    Choi matrix with its residuals, exact zero deviations, the largest
    membership residual below its cutoff, and build_constraints' rank."""
    T = random_complex(make_rng(43), 3, 3)
    P = uep.UepProblem(d=3, G=gen(3, T, T.conj().T @ T, T @ T.conj().T), seed=1)
    rep = uep.solve(P)
    js = rep.to_json()
    assert (rep.status, rep.basis, rep.iterations, rep.face_dim) == ("Unique-evidence", "theorem", 0, None)
    assert (js["basis"], js["face_dim"], js["certificate"]) == ("theorem", None, None)
    assert len(rep.deviations) == opsys.generate_algebra(P.G).dim == 9
    assert all(p.in_algebra and p.deviation == 0.0 for p in rep.deviations)
    assert np.array_equal(rep.choi.mat, cpmaps.identity_choi(3).mat)
    assert rep.residuals == {"affine": 0.0, "psd": 0.0}
    assert js["membership"]["cutoff"] == uep.MEMBERSHIP_RTOL
    assert js["membership"]["residual"] <= 1e-12
    assert rep.constraint_rank == uep.build_constraints(P).rank == 45
    assert rep.rank_margin == js["rank_margin"] == 36
    X = x_diag()
    searched = search(uep.UepProblem(d=3, G=gen(3, X), probes=[X @ X], seed=1, n_witnesses=2))
    assert searched.basis == searched.to_json()["basis"] == "search"
    assert searched.rank_margin == searched.to_json()["rank_margin"] == 81 - searched.constraint_rank
    assert "membership" not in searched.to_json()


def _grid_families(d, rng) -> dict:
    """The cross-check families, drawn from rng in this order."""
    T = random_complex(rng, d, d)
    N = random_normal_matrix(rng, d)
    U = random_unitary(rng, d)
    H = random_hermitian(rng, d)
    return {"polar": (T, T.conj().T @ T, T @ T.conj().T), "normal": (N, N @ N.conj().T),
            "unitary": (U,), "H,H^2": (H, H @ H), "H": (H,), "T": (T,),
            "N,N^2": (N, N @ N), "H,H^3": (H, H @ H @ H)}


def test_theorem_agrees_with_the_search():
    """On 96 sets (eight families, d = 2..4, four draws each) the theorem
    decides exactly the sets where span{I, G, G*} holds g*g and gg* of
    generators that generate C*(G): every set of the polar, normal,
    unitary, {H, H^2} and {N, N^2} families, {H} at d = 2 and {H, H^3} at
    d <= 3; never a single non-normal T.  The search alone agrees on every
    decided set, with the same constraint rank."""
    decided = []
    for d in (2, 3, 4):
        for k in range(4):
            for family, gens in _grid_families(d, make_rng(9100 + 10 * d + k)).items():
                P = uep.UepProblem(d=d, G=gen(d, *gens), seed=k, n_witnesses=2)
                rep = theorem(P)
                if rep is None:
                    continue
                decided.append((family, d, k))
                alone = search(P)
                assert alone.status == "Unique-evidence", (family, d, k)
                assert alone.max_deviation <= 1e-6, (family, d, k)
                assert alone.constraint_rank == rep.constraint_rank, (family, d, k)
    expected = [(f, d, k) for d in (2, 3, 4) for k in range(4)
                for f in ("polar", "normal", "unitary", "H,H^2", "H", "T", "N,N^2", "H,H^3")
                if f in ("polar", "normal", "unitary", "H,H^2", "N,N^2")
                or (f == "H" and d == 2) or (f == "H,H^3" and d <= 3)]
    assert decided == expected
    assert len(decided) == 72


def _held_and_old_rule(P: uep.UepProblem) -> tuple:
    """(held, decided) by the rule the theorem step used before it closed
    the passing generators degree by degree: held marks the generators
    whose g0*g0 and g0 g0* lie in span{I, G, G*}, and the set is decided
    when some generator passes and the passing ones generate an algebra of
    C*(G)'s dimension, each closed in full by generate_algebra."""
    gens = np.array(P.G.generators)
    g0, _ = uep._unit_traceless(gens)
    g0h = g0.conj().swapaxes(-1, -2)
    resid = uep._pinned_span(gens).projection_residual(np.concatenate([g0h @ g0, g0 @ g0h]))
    held = resid.reshape(2, -1).max(axis=0) <= uep.MEMBERSHIP_RTOL
    decided = bool(held.any()) and (opsys.generate_algebra(gen(P.d, *gens[held])).dim
                                    == opsys.generate_algebra(P.G).dim)
    return held, decided


def test_early_exit_agrees_with_the_full_closure():
    """Testing the other generators' g0 against the passing generators'
    closure decides each of the 96 sets of
    test_theorem_agrees_with_the_search as comparing the dimension of that
    closure with C*(G)'s did.  Among them are partly passing sets, and so
    are three that decline: {X, 2I}, where only the scalar passes, and
    {U, H} at d = 3 and 4, where the unitary passes and H lies outside
    C*(U)."""
    declining = [(3, (x_diag(), 2.0 * np.eye(3)), [False, True])]  # (d, G, held)
    for d in (3, 4):
        fam = _grid_families(d, make_rng(9100 + 10 * d))
        declining.append((d, (fam["unitary"][0], fam["H"][0]), [True, False]))
    cases = [(d, gens, None) for d in (2, 3, 4) for k in range(4)
             for gens in _grid_families(d, make_rng(9100 + 10 * d + k)).values()]
    partial = 0
    for d, gens, expected in cases + declining:
        P = uep.UepProblem(d=d, G=gen(d, *gens))
        held, decided = _held_and_old_rule(P)
        partial += bool(held.any() and not held.all())
        assert (theorem(P) is not None) == decided, (d, len(gens))
        if expected is not None:
            assert held.tolist() == expected and not decided, d
    assert partial > len(declining)


def test_each_solve_closes_c_star_once(monkeypatch):
    """A solve closes C*(G) once when every generator passes the theorem's
    span test, or when the passing ones generate C*(G): polar {T, T*T, TT*}
    at d = 3, 4, 5 (T passes, and T*T, TT* lie in C*(T)), the d = 5 normal
    {N, NN*} of make_rng(500), {U} and {X, X^2}.  A partly passing set that
    declines closes the passing generators, then G: {X, 2I}, and {U, H} at
    d = 3, where U passes and H lies outside C*(U)."""
    cases = []  # (d, G, closures started, basis)
    for d in (3, 4, 5):
        T = random_complex(make_rng(7500 + d), d, d)
        cases.append((d, (T, T.conj().T @ T, T @ T.conj().T), 1, "theorem"))
    X = x_diag()
    N = random_normal_matrix(make_rng(500), 5)
    U3, H3 = random_unitary(make_rng(3), 3), random_hermitian(make_rng(103), 3)
    cases += [(5, (N, N @ N.conj().T), 1, "theorem"), (3, (U3,), 1, "theorem"),
              (3, (X, X @ X), 1, "theorem"), (3, (X, 2.0 * np.eye(3)), 2, "spectrum"),
              (3, (U3, H3), 2, "search")]
    starts = []  # one flag per opsys._mgs_extend call: k == 0 starts a closure
    extend = opsys._mgs_extend

    def spy(B, k, C):
        starts.append(k == 0)
        return extend(B, k, C)

    monkeypatch.setattr(opsys, "_mgs_extend", spy)
    for d, gens, closures, basis in cases:
        starts.clear()
        rep = uep.solve(uep.UepProblem(d=d, G=gen(d, *gens), seed=7, n_witnesses=2))
        assert (sum(starts), rep.basis) == (closures, basis), (d, len(gens))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the theorem step and build_constraints cut the rank in different coordinates")
def test_theorem_rank_matches_build_constraints_at_a_small_generator():
    """The theorem step reports build_constraints' constraint_rank.  Both cut
    singular values at 1e-12 of the largest, but the theorem step runs a
    complex SVD of {I, g, g*} and build_constraints a real SVD of hermvec
    coordinates, so for g = 1e-3 diag(1, -1) + 8e-13 i [[0, 1], [1, 0]] they
    read 12 and 8."""
    g = 1e-3 * np.diag([1.0, -1.0]) + 8e-13j * np.array([[0.0, 1.0], [1.0, 0.0]])
    P = uep.UepProblem(d=2, G=gen(2, g))
    assert theorem(P).constraint_rank == uep.build_constraints(P).rank


def _near_scalar(c, s):
    """U (c I + s diag(0, 1, 1, 2)) U*, U = random_unitary(make_rng(5), 4)."""
    U = random_unitary(make_rng(5), 4)
    return U @ (c * np.eye(4) + s * np.diag([0.0, 1.0, 1.0, 2.0])) @ U.conj().T


def _decline_cases():
    X = x_diag()
    V = random_unitary(make_rng(1000), 3)
    yield pytest.param(3, X, id="X")
    yield pytest.param(3, 0.7 * X - 1.3 * np.eye(3), id="aX+bI")
    yield pytest.param(3, V @ X @ V.conj().T, id="UXU*")
    for d in (3, 4):
        yield pytest.param(d, random_hermitian(make_rng(100 + d), d), id=f"hermitian-{100 + d}")
    yield pytest.param(3, random_complex(make_rng(44), 3, 3), id="T")
    for c in (0.0, 1.0):
        for s in (1.0, 1e-6, 1e-9):
            yield pytest.param(4, _near_scalar(c, s), id=f"near-scalar-c{c:g}-s{s:g}")


@pytest.mark.parametrize("d, g", _decline_cases())
def test_theorem_step_declines(d, g):
    """A single generator with three or more eigenvalues, or a non-normal
    one, has g*g or gg* outside span{I, g, g*}: the step declines and the
    search decides."""
    assert theorem(uep.UepProblem(d=d, G=gen(d, g))) is None


@pytest.mark.parametrize("s", [1e-6, 1e-9])
def test_near_scalar_generator_passes_only_the_raw_test(s):
    """g = U(I + s diag(0, 1, 1, 2))U* has three eigenvalues, so C*(g) is
    not pinned, yet g*g lies within rounding of span{I, g}: the raw
    membership test passes it.  The traceless, unit-norm g0 of the step
    keeps the spread, and g0*g0 lies far from the span."""
    g = _near_scalar(1.0, s)
    S = np.array([np.eye(4), g]).reshape(2, -1)
    _, sv, Vh = np.linalg.svd(S, full_matrices=False)
    Q = Vh[sv > 1e-12 * sv[0]]
    gg = (g.conj().T @ g).ravel()
    assert np.linalg.norm(gg - (gg @ Q.conj().T) @ Q) <= uep.MEMBERSHIP_RTOL * np.linalg.norm(gg)
    assert theorem(uep.UepProblem(d=4, G=gen(4, g))) is None


def test_input_checks_run_before_the_theorem_step():
    """Sets the theorem would decide still get every input check, and a
    probe outside C*(G) sends the solve to the search."""
    U = random_unitary(make_rng(45), 4)
    with pytest.raises(InvalidInput, match="pinned element shape"):
        uep.solve(uep.UepProblem(d=3, G=gen(4, U)))
    with pytest.raises(InvalidInput, match="probe shape"):
        uep.solve(uep.UepProblem(d=4, G=gen(4, U), probes=[np.eye(3)]))
    X = x_diag()
    with pytest.raises(InvalidInput, match="no probe lies in C"):
        uep.solve(uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[swap01()]))
    rep = uep.solve(uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[X @ X, swap01()],
                                   seed=4, n_witnesses=2))
    assert (rep.status, rep.basis) == ("Unique-evidence", "search")
    assert uep.solve(uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[X @ X])).basis == "theorem"


def test_theorem_step_needs_the_passing_generators_to_generate_c_star():
    """In {X, 2I} only the scalar passes, and C*(2I) = C I is smaller than
    C*(X): the step declines, and the search certifies X's violation, as
    does the spectrum step, which solve runs next."""
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X, 2.0 * np.eye(3)), probes=[X @ X], seed=1, n_witnesses=2)
    assert theorem(P) is None
    rep = search(P)
    assert (rep.status, rep.basis) == ("ViolationFound", "search")
    assert uep.validate_certificate(rep.certificate, P)
    rep = uep.solve(P)
    assert (rep.status, rep.basis) == ("ViolationFound", "spectrum")
    assert uep.validate_certificate(rep.certificate, P)


# ----------------------------------------------------------------------------
# The spectrum step
# ----------------------------------------------------------------------------

def spectrum(P: uep.UepProblem) -> uep.UepReport | None:
    """The spectrum step alone, after solve's input checks."""
    span, probes, info, _ = uep._validate(P)
    return uep._spectrum_step(P, span, probes, info)


def _commutative_grid() -> list:
    """(label, d, generators) of the cross-check sets: {H}, {H, H^3}, {N} and
    {U} from make_rng(9300 + 10 d + k) at d = 2..4, k = 0, 1, and the d = 4
    normal N of make_rng(20000 + k), k < 6, two of which (k = 1 and 5) have
    an eigenvalue inside the triangle of the others."""
    sets = []
    for d in (2, 3, 4):
        for k in range(2):
            rng = make_rng(9300 + 10 * d + k)
            H, N, U = random_hermitian(rng, d), random_normal_matrix(rng, d), random_unitary(rng, d)
            sets += [(f"H d={d} k={k}", d, (H,)), (f"H,H^3 d={d} k={k}", d, (H, H @ H @ H)),
                     (f"N d={d} k={k}", d, (N,)), (f"U d={d} k={k}", d, (U,))]
    sets += [(f"N 20000+{k}", 4, (random_normal_matrix(make_rng(20000 + k), 4),)) for k in range(6)]
    return sets


def test_spectrum_agrees_with_the_search():
    """On every set of the commutative grid the spectrum step decides, and
    its status equals the search's (both statuses occur); its reports have
    no face and no iterations, and its violations re-check."""
    statuses = set()
    for label, d, gens in _commutative_grid():
        P = uep.UepProblem(d=d, G=gen(d, *gens), seed=1, n_witnesses=2)
        rep = spectrum(P)
        assert rep is not None, label
        assert (rep.basis, rep.face_dim, rep.iterations) == ("spectrum", None, 0), label
        assert rep.status == search(P).status, label
        if rep.status == "ViolationFound":
            assert uep.validate_certificate(rep.certificate, P), label
        statuses.add(rep.status)
    assert statuses == {"Unique-evidence", "ViolationFound"}


def test_interior_maps_move_their_projection_by_one():
    """Every interior joint eigenvalue's pinch-and-mix map is UCP, fixes G
    and moves its spectral projection P_lambda by 1 within 1e-9: on the
    grid, on X and on the two d = 5 {H, H^3} sets of the search's wrong
    Unique-evidence."""
    sets = [(d, gens) for _, d, gens in _commutative_grid()] + [(3, (x_diag(),))]
    for k in (9051, 20105):
        H = random_hermitian(make_rng(k), 5)
        sets.append((5, (H, H @ H @ H)))
    maps = 0
    for d, gens in sets:
        V, clusters, interior = uep._joint_spectrum(np.array(gens, dtype=complex))
        for c, mu in interior.items():
            choi = uep._pinch_and_mix(V, clusters, c, mu)
            proj = V[:, clusters[c]] @ V[:, clusters[c]].conj().T
            assert abs(linalg.op_norm(cpmaps.apply_choi(choi, proj) - proj) - 1.0) <= 1e-9
            defects = cpmaps.validate_ucp(choi)
            assert defects["cp_defect"] <= 1e-12 and defects["unital_defect"] <= 1e-12
            for g in gens:
                assert linalg.op_norm(cpmaps.apply_choi(choi, g) - g) <= 1e-9
            maps += 1
    assert maps >= 10


def test_x_hull_weights_are_one_half():
    """X = diag(0, 1, 2) has one interior joint eigenvalue, 1 = (0 + 2)/2:
    mu = (1/2, 1/2), and its map is suite's hand certificate."""
    V, clusters, interior = uep._joint_spectrum(x_diag()[None])
    assert len(clusters) == 3 and list(interior) == [1]
    assert np.allclose(interior[1], [0.5, 0.5], rtol=0, atol=1e-12)
    choi = uep._pinch_and_mix(V, clusters, 1, interior[1])
    hand = cpmaps.choi_from_kraus(hand_certificate())
    assert np.allclose(choi.mat, hand.mat, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [9051, 20105])
def test_h_cubed_solve_finds_the_violation(k):
    """solve decides the two d = 5 {H, H^3} sets on which the search alone
    reads Unique-evidence: ViolationFound by the spectrum step, with a
    certificate that re-checks."""
    H = random_hermitian(make_rng(k), 5)
    P = uep.UepProblem(d=5, G=gen(5, H, H @ H @ H), seed=7)
    rep = uep.solve(P)
    assert (rep.status, rep.basis) == ("ViolationFound", "spectrum")
    assert uep.validate_certificate(rep.certificate, P)
    assert rep.certificate.deviation >= 0.5


def test_spectrum_step_declines_off_commuting_normal_sets():
    """A noncommuting Hermitian pair and a non-normal T get no decision,
    nor does X beside I + 1e-13 X, whose traceless part is about 120 times
    its roundoff d u ||g||_F: neither 0 (at most 100 times) nor clearly
    nonzero (at least 1e4 times).  The search decides them."""
    rng = make_rng(46)
    A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
    T = random_complex(rng, 3, 3)
    X = x_diag()
    for gens in ((A, B), (T,), (X, np.eye(3) + 1e-13 * X)):
        assert uep._joint_spectrum(np.array(gens)) is None
        assert spectrum(uep.UepProblem(d=3, G=gen(3, *gens))) is None


def test_spectrum_step_declines_on_a_probe_outside_when_unique():
    """Every point of {X, X^2} is extreme, but a probe outside C*(G) has a
    deviation the step cannot give, so it declines (as the theorem step
    does) and the search runs."""
    X = x_diag()
    assert spectrum(uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[X @ X, swap01()])) is None
    rep = spectrum(uep.UepProblem(d=3, G=gen(3, X, X @ X)))
    assert (rep.status, rep.basis, rep.face_dim, rep.iterations) == ("Unique-evidence", "spectrum", None, 0)
    assert rep.constraint_rank == uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X, X @ X))).rank
    assert np.array_equal(rep.choi.mat, cpmaps.identity_choi(3).mat)
    assert all(p.deviation == 0.0 for p in rep.deviations)


@pytest.mark.parametrize("c, s", [(c, s) for c in (0.0, 1.0) for s in (1.0, 1e-6, 1e-9)])
def test_near_scalar_generator_is_never_unique_evidence(c, s):
    """g = U(c I + s diag(0, 1, 1, 2))U* violates the UEP at every scale.
    solve reports ViolationFound by spectrum, except at c = 1, s = 1e-9:
    there generate_algebra reads C*(g) as span{I}, so the default probes
    are {I}, which no unital map moves, and the interior point gives
    NonConverged, not Unique-evidence."""
    P = uep.UepProblem(d=4, G=gen(4, _near_scalar(c, s)), seed=7)
    rep = uep.solve(P)
    want = "NonConverged" if (c, s) == (1.0, 1e-9) else "ViolationFound"
    assert (rep.status, rep.basis) == (want, "spectrum")
    if want == "ViolationFound":
        assert uep.validate_certificate(rep.certificate, P)
    else:
        assert rep.certificate is None and len(rep.deviations) == 1


def test_nnls_matches_scipy():
    """The Lawson-Hanson solver gives scipy's solution and residual on
    random small problems, tall ones (a unique solution) and wide ones (a
    unique residual)."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = make_rng(47)
    for trial in range(60):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        A, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        x, resid = uep._nnls(A, b)
        ref, ref_resid = scipy_optimize.nnls(A, b)
        assert np.all(x >= 0.0), trial
        assert resid == pytest.approx(ref_resid, rel=1e-9, abs=1e-12), trial
        assert resid == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-12, abs=1e-14), trial
        if m > n:
            assert np.allclose(x, ref, rtol=1e-9, atol=1e-12), trial


def test_nnls_hull_weights_of_x():
    """The hull test of X's middle eigenvalue: (1, 1) against the columns
    (0, 1) and (2, 1) gives mu = (1/2, 1/2) with residual 0."""
    mu, resid = uep._nnls(np.array([[0.0, 2.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
    assert np.allclose(mu, [0.5, 0.5], rtol=0, atol=1e-15)
    assert resid <= 1e-15


def _joint_spectrum_every_cluster(gens: np.ndarray):
    """_joint_spectrum without its hull bound, one NNLS for every cluster:
    the reference the bound must reproduce bit for bit."""
    d = gens.shape[-1]
    g0, size = _reference_unit_traceless(gens)
    unit = d * np.finfo(float).eps * np.linalg.norm(gens, axis=(1, 2))
    live = size > uep.SPECTRUM_ZERO * unit
    if np.any(live & (size < uep.SPECTRUM_GAP * unit)):
        return None
    g0 = g0[live]
    eps = np.max(unit[live] / size[live], initial=0.0)
    zero, gap = uep.SPECTRUM_ZERO * eps, uep.SPECTRUM_GAP * eps
    g0h = g0.conj().swapaxes(-1, -2)
    parts = np.concatenate([g0 + g0h, (g0 - g0h) / 1j]) / 2.0
    mix = np.tensordot(make_rng(uep.SPECTRUM_MIX_KEY).standard_normal(len(parts)), parts, axes=1)
    _, V = np.linalg.eigh(mix)
    D = V.conj().T @ g0 @ V
    z = np.diagonal(D, axis1=1, axis2=2)
    if np.linalg.norm(D - z[..., None] * np.eye(d)) > zero:
        return None
    points = np.concatenate([z.real, z.imag]).T
    dist = np.linalg.norm(points[:, None] - points[None], axis=-1)
    if np.any((dist > zero) & (dist < gap)):
        return None
    head = np.argmax(dist <= zero, axis=0)
    clusters = [np.flatnonzero(head == h) for h in np.unique(head)]
    reps = np.array([points[c].mean(axis=0) for c in clusters])
    interior = {}
    for c in range(len(clusters)):
        others = np.delete(reps, c, axis=0)
        mu, resid = uep._nnls(np.vstack([others.T, np.ones(len(others))]), np.append(reps[c], 1.0))
        if zero < resid < gap:
            return None
        if resid <= zero:
            interior[c] = mu / mu.sum()
    return V, clusters, interior


def tied_square() -> np.ndarray:
    """U diag(e^{i pi/4} i^k for k = 0..3, and 0) U* at d = 5, U =
    random_unitary(make_rng(5), 5): the four vertices of the square tie in
    pairs on both axes, so no hull bound proves them extreme, and the centre
    0 is interior."""
    U = random_unitary(make_rng(5), 5)
    D = np.diag([np.exp(1j * np.pi / 4) * 1j ** k for k in range(4)] + [0.0])
    return U @ D @ U.conj().T


def regular_pentagon() -> np.ndarray:
    """U diag(i e^{2 pi i k / 5}) U* at d = 5: no interior point, and its two
    lowest vertices tie on the -imaginary axis."""
    U = random_unitary(make_rng(5), 5)
    return U @ np.diag(1j * np.exp(2j * np.pi * np.arange(5) / 5)) @ U.conj().T


def offset_midpoint() -> np.ndarray:
    """diag(0, 2, 1 + 1.4e-12 i): the middle point sits about 1e-12 off the
    segment between the others, a hull residual between the zero level
    (about 1e-13) and the gap level (about 1e-11)."""
    return np.diag([0.0, 2.0, 1.0 + 1.4e-12j])


def _hull_bound_sets() -> list:
    """(label, generator stack, NNLS calls the hull bound leaves or None) of
    the equivalence check: random commuting normal sets at d = 2..8 and the
    three fixed sets above."""
    sets = []
    for d in range(2, 9):
        rng = make_rng(9500 + d)
        H, N, U = random_hermitian(rng, d), random_normal_matrix(rng, d), random_unitary(rng, d)
        # Lattice points in {0, 1, 2} x {0, 1}: repeated eigenvalues, ties and edge points.
        Z = np.diag(rng.integers(0, 3, d) + 1j * rng.integers(0, 2, d))
        sets += [(f"H d={d}", (H,), None), (f"N d={d}", (N,), None),
                 (f"H,H^3 d={d}", (H, H @ H @ H), None), (f"Z d={d}", (Z,), None),
                 (f"UZU* d={d}", (U @ Z @ U.conj().T,), None),
                 (f"Z,Re Z d={d}", (Z, Z.real.astype(complex)), None)]
    return sets + [("tied square", (tied_square(),), 5), ("pentagon", (regular_pentagon(),), 2),
                   ("X", (x_diag(),), 1), ("offset midpoint", (offset_midpoint(),), 1)]


def test_hull_bound_matches_every_cluster_nnls(monkeypatch):
    """The hull bound changes no bit: on every set the same None, the same V
    and clusters, the same interior keys (ints, in order) and the same mu
    bits as an NNLS for every cluster.  It skips the NNLS of no tied vertex
    (the square runs all five, the pentagon its two lowest vertices, X its
    middle point), and the offset midpoint still declines."""
    calls = []
    nnls = uep._nnls
    monkeypatch.setattr(uep, "_nnls", lambda A, b: calls.append(1) or nnls(A, b))
    interior_seen = 0
    for label, gens, want_calls in _hull_bound_sets():
        gens = np.array(gens, dtype=complex)
        ref = _joint_spectrum_every_cluster(gens)
        calls.clear()
        got = uep._joint_spectrum(gens)
        if want_calls is not None:
            assert len(calls) == want_calls, label
        assert (got is None) == (ref is None), label
        if got is None:
            continue
        (V, clusters, interior), (V_ref, clusters_ref, interior_ref) = got, ref
        assert V.tobytes() == V_ref.tobytes(), label
        assert [c.tolist() for c in clusters] == [c.tolist() for c in clusters_ref], label
        assert list(interior) == list(interior_ref), label
        assert all(type(c) is int for c in interior), label
        for c, mu in interior.items():
            assert mu.tobytes() == interior_ref[c].tobytes(), label
        interior_seen += len(interior)
    assert uep._joint_spectrum(offset_midpoint()[None]) is None
    assert interior_seen >= 10


def test_spectrum_deviations_are_the_per_probe_norms():
    """Each row of a spectrum report holds the bits of its own
    op_norm(apply_choi(choi, a) - a), and the certificate carries the
    deviation and probe of the worst in-algebra row."""
    H = random_hermitian(make_rng(9051), 5)
    for d, gens in ((3, (x_diag(),)), (5, (tied_square(),)), (5, (H, H @ H @ H)),
                    (4, (random_hermitian(make_rng(9604), 4),))):
        P = uep.UepProblem(d=d, G=gen(d, *gens), seed=7)
        _, probes, _, _ = uep._validate(P)
        rep = spectrum(P)
        assert (rep.status, rep.basis) == ("ViolationFound", "spectrum")
        for row in rep.deviations:
            a = probes[row.index]
            assert row.deviation.hex() == linalg.op_norm(cpmaps.apply_choi(rep.choi, a) - a).hex()
        worst = max((p for p in rep.deviations if p.in_algebra), key=lambda p: p.deviation)
        assert rep.certificate.deviation.hex() == worst.deviation.hex()
        assert np.array_equal(rep.certificate.probe, probes[worst.index])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="validate_certificate does not check that the probe lies in C*(G) (ROADMAP item 17)")
def test_validate_certificate_rejects_a_probe_outside_the_algebra():
    """G = {X, X^2} has the unique extension property, yet the pinching onto
    the diagonal fixes G and moves E01, which lies outside C*(G), by 1.
    Such a certificate proves nothing about C*(G) and must be rejected."""
    X = x_diag()
    P = uep.UepProblem(d=3, G=gen(3, X, X @ X))
    pinch = cpmaps.choi_from_kraus(cpmaps.KrausSet(
        d_in=3, d_out=3, operators=tuple(np.diag(np.eye(3)[k]) for k in range(3))))
    E01 = np.zeros((3, 3), dtype=complex)
    E01[0, 1] = 1.0
    cert = uep.ViolationCertificate(choi=pinch, probe=E01, deviation=1.0,
                                    residuals={"affine": 0.0, "psd": 0.0})
    assert linalg.op_norm(cpmaps.apply_choi(pinch, E01) - E01) == 1.0
    assert not uep.validate_certificate(cert, P)


# ----------------------------------------------------------------------------
# Theorem and spectrum reports against a reference built the long way
# ----------------------------------------------------------------------------

def _reference_unit_traceless(gens: np.ndarray) -> tuple:
    """uep._unit_traceless with np.linalg.norm."""
    d = gens.shape[-1]
    g0 = gens - (np.trace(gens, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
    size = np.linalg.norm(g0, axis=(1, 2))
    return g0 / np.where(size > 0.0, size, 1.0)[:, None, None], size


def _reference_residual(alg: opsys.AlgebraBasis, A: np.ndarray) -> np.ndarray:
    """AlgebraBasis.projection_residual of a stack with np.linalg.norm."""
    X = A.reshape(-1, alg.d * alg.d)
    B = alg.basis.reshape(alg.dim, -1)
    return np.linalg.norm(X - (X @ B.conj().T) @ B, axis=1)


def _reference_identity(P: uep.UepProblem, basis: str, info: list, span: opsys.AlgebraBasis,
                        membership: dict | None = None) -> uep.UepReport:
    """The identity report with a Choi matrix of its own."""
    d = P.d
    w = np.eye(d, dtype=complex).reshape(-1)
    return uep.UepReport(status="Unique-evidence", basis=basis, deviations=info, iterations=0,
                         residuals={"affine": 0.0, "psd": 0.0}, constraint_rank=d * d * span.dim,
                         face_dim=None, certificate=None,
                         choi=cpmaps.ChoiMatrix(d=d, mat=np.outer(w, w.conj())),
                         seed=P.seed, tol=P.tol, membership=membership)


def _reference_report(P: uep.UepProblem) -> uep.UepReport | None:
    """The theorem or spectrum report of P, the long way: _validate's rows
    from np.linalg.norm with float() and bool() per element, the identity
    report with a fresh ChoiMatrix, and the spectrum step on
    _joint_spectrum_every_cluster with one apply_choi and op_norm call per
    probe; None where solve would search."""
    d = P.d
    gens = np.array(P.G.generators)
    S = np.concatenate([np.eye(d)[None], gens, gens.conj().swapaxes(-1, -2)]).reshape(-1, d * d)
    _, sv, Vh = np.linalg.svd(S, full_matrices=False)
    span = opsys.AlgebraBasis(d=d, basis=Vh[sv > 1e-12 * sv[0]].reshape(-1, d, d))
    g0, _ = _reference_unit_traceless(gens)
    g0h = g0.conj().swapaxes(-1, -2)
    premise = _reference_residual(span, np.concatenate([g0h @ g0, g0 @ g0h])).reshape(2, -1).max(axis=0)
    held = premise <= uep.MEMBERSHIP_RTOL
    proved, alg = held.all(), None
    if held.any() and not proved:
        alg = opsys.generate_algebra(gen(d, *gens[held]))
        proved = np.all(_reference_residual(alg, g0[~held]) <= uep.MEMBERSHIP_RTOL)
    if not proved or alg is None:
        alg = opsys.generate_algebra(P.G)
    probes = alg.basis if P.probes is None else np.array(P.probes, dtype=complex)
    resid = _reference_residual(alg, probes)
    cutoff = uep.MEMBERSHIP_RTOL * (1.0 + np.linalg.norm(probes, axis=(1, 2)))
    info = [uep.ProbeDeviation(index=idx, deviation=0.0, in_algebra=bool(r <= c),
                               projection_residual=float(r))
            for idx, (r, c) in enumerate(zip(resid, cutoff))]
    inside = all(row.in_algebra for row in info)
    if proved and inside:
        membership = {"residual": float(np.max(premise[held])), "cutoff": uep.MEMBERSHIP_RTOL}
        return _reference_identity(P, "theorem", info, span, membership)
    found = _joint_spectrum_every_cluster(gens)
    if found is None:
        return None
    V, clusters, interior = found
    if not interior:
        return _reference_identity(P, "spectrum", info, span) if inside else None
    maps = []
    for c, mu in interior.items():
        choi = uep._pinch_and_mix(V, clusters, c, mu)
        rows = [replace(row, deviation=linalg.op_norm(cpmaps.apply_choi(choi, probes[row.index])
                                                      - probes[row.index])) for row in info]
        maps.append((max(p.deviation for p in rows if p.in_algebra), choi, rows))
    _, choi, rows = max(maps, key=lambda m: m[0])
    worst = max((p for p in rows if p.in_algebra), key=lambda p: p.deviation)
    residuals = {"affine": float(np.linalg.norm(cpmaps.apply_choi(choi, gens) - gens)), "psd": 0.0}
    certificate = None
    if worst.deviation >= 10.0 * P.tol:
        certificate = uep.ViolationCertificate(choi=choi, probe=probes[worst.index],
                                               residuals=residuals, deviation=worst.deviation)
        certificate = certificate if uep.validate_certificate(certificate, P) else None
    return uep.UepReport(status="NonConverged" if certificate is None else "ViolationFound",
                         basis="spectrum", deviations=rows, iterations=0, residuals=residuals,
                         constraint_rank=d * d * span.dim, face_dim=None, certificate=certificate,
                         choi=choi, seed=P.seed, tol=P.tol)


def _reference_cases() -> list:
    """(label, d, generators, probes, basis) of the bit-for-bit comparison:
    polar, normal and unitary sets at d = 2..5 from fixed streams, {X, X^2}
    and its unitary conjugates (once with explicit probes), and the shapes
    of the violation-search benchmark, X, U X U* and H, also under an
    affine change a g + b I."""
    cases = []
    for d in range(2, 6):
        for j in range(2):
            rng = make_rng(7700 + 10 * d + j)
            T, N, U = random_complex(rng, d, d), random_normal_matrix(rng, d), random_unitary(rng, d)
            cases += [(f"polar d={d}", d, (T, T.conj().T @ T, T @ T.conj().T), None, "theorem"),
                      (f"normal d={d}", d, (N, N @ N.conj().T), None, "theorem"),
                      (f"unitary d={d}", d, (U,), None, "theorem")]
    X = x_diag()
    for j in range(3):
        U = random_unitary(make_rng(7800 + j), 3) if j else np.eye(3)
        Xc = U @ X @ U.conj().T
        cases.append(("X,X^2", 3, (Xc, Xc @ Xc), None, "theorem"))
    cases.append(("X,X^2 probes", 3, (X, X @ X), [X @ X, X + 2.0 * np.eye(3)], "theorem"))
    shapes = [("X", X)] + [("UXU*", U @ X @ U.conj().T)
                           for U in (random_unitary(make_rng(1000 + j), 3) for j in range(2))]
    shapes += [("H", random_hermitian(make_rng(2000 + j), 3)) for j in range(2)]
    for label, g in shapes:
        cases += [(label, 3, (g,), None, "spectrum"), (f"a {label} + bI", 3, (-1.5 * g + 0.7 * np.eye(3),),
                                                        None, "spectrum")]
    return cases


@pytest.mark.parametrize("label, d, gens, probes, basis", _reference_cases())
def test_reports_match_the_long_way_bit_for_bit(label, d, gens, probes, basis):
    """Theorem and spectrum reports serialize to the same canonical JSON as
    the reference built the long way, with plain float and bool row fields
    and the bits of the identity or pinch-and-mix Choi matrix."""
    P = uep.UepProblem(d=d, G=gen(d, *gens), probes=probes, seed=7)
    rep, ref = uep.solve(P), _reference_report(P)
    assert rep.basis == basis and ref is not None, label
    assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(ref.to_json(), sort_keys=True), label
    assert np.array_equal(rep.choi.mat, ref.choi.mat), label
    for row in rep.deviations:
        assert type(row.in_algebra) is bool and type(row.projection_residual) is float, label


def test_theorem_reports_share_the_identity_choi_matrix():
    """Two theorem solves in a row give equal reports; both carry the one
    read-only identity Choi matrix, which the second solve leaves as the
    first report had it."""
    T = random_complex(make_rng(7901), 4, 4)
    P = uep.UepProblem(d=4, G=gen(4, T, T.conj().T @ T, T @ T.conj().T), seed=3)
    first = uep.solve(P)
    js, mat = first.to_json(), first.choi.mat.copy()
    second = uep.solve(P)
    assert first.basis == second.basis == "theorem"
    assert second.to_json() == js
    assert second.choi is first.choi is cpmaps.identity_choi(4)
    assert not first.choi.mat.flags.writeable
    assert np.array_equal(first.choi.mat, mat)
