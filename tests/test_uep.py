"""Tests for the unique-extension-property falsifier."""

from __future__ import annotations

import numpy as np
import pytest

from hyperlab import cpmaps, linalg, opsys, uep
from hyperlab.errors import InvalidInput
from hyperlab.rng import (make_rng, random_complex, random_hermitian, random_normal_matrix,
                          random_unitary)
from hyperlab.suite import hand_certificate


def x_diag() -> np.ndarray:
    return np.diag([0.0, 1.0, 2.0]).astype(complex)


def gen(d, *mats) -> opsys.GeneratorSet:
    return opsys.GeneratorSet(d=d, generators=tuple(np.asarray(m, dtype=complex) for m in mats))


def test_hermvec_isometry():
    rng = make_rng(40)
    A = random_hermitian(rng, 5)
    v = uep.hermvec(A)
    assert v.shape == (25,)
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(A))
    assert np.allclose(uep.unhermvec(v, 5), A, atol=1e-12)


def _ambient_system(d, G):
    """Loop reference for build_constraints: the Hermitian functional and
    target of every row, real then imaginary part per (element, m, n)."""
    elems = [np.eye(d)] + ([] if G is None else G.with_adjoints())
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
        "none": None,
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_build_constraints_matches_loop_reference(d):
    """The system over the orthonormal basis of span{I, G, G*} has the same
    solution set as the per-element loop reference on the face (equal
    affine projections), and one row per equation: rows = rank = the SVD
    rank of the ambient reference system."""
    rng = make_rng(600 + d)
    for name, gens in _generator_cases(d).items():
        G = None if gens is None else gen(d, *gens)
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
        assert cs.rank_margin == d ** 4 - cs.rank


def _pinned_face_reference(P):
    """Per-sample loop reference for uep._pinned_face, with a full SVD."""
    d = P.d
    basis = [np.eye(d, dtype=complex)]
    for g in P.pinned_elements():
        g = np.asarray(g, dtype=complex)
        for H in ((g + g.conj().T) / 2.0, (g - g.conj().T) / 2.0j):
            if linalg.maxabs(H) > 1e-14:
                basis.append(H)
    rng = make_rng(0x0FACE)
    samples = list(basis)
    for _ in range(4 * len(basis) + 8):
        c = rng.standard_normal(len(basis))
        samples.append(sum(ck * Bk for ck, Bk in zip(c, basis)))
    kernel = []
    for H in samples:
        w, V = np.linalg.eigh(H)
        scale = float(w[-1] - w[0])
        if scale <= 1e-12 * max(abs(w[0]), abs(w[-1])):
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
    """With no pinned generators only unitality constrains the Choi."""
    P = uep.UepProblem(d=2, G=None)
    cs = uep.build_constraints(P)
    C = cs.to_choi_mat(cs.x_identity)
    assert np.allclose(linalg.partial_trace_first(C, 2), np.eye(2), atol=1e-10)


def test_build_constraints_identity_generator_adds_nothing():
    base = uep.build_constraints(uep.UepProblem(d=2, G=None))
    with_id = uep.build_constraints(uep.UepProblem(d=2, G=gen(2, np.eye(2))))
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
    """One row's Dykstra in hermvec coordinates."""
    p = np.zeros_like(m)
    q = np.zeros_like(m)
    x = m
    for _ in range(uep.DYKSTRA_MAX_ITER):
        y = _hermvec_clip(x + p, r)
        p = x + p - y
        xn = (y + q) - pin @ (RT @ (y + q) - b)
        q = y + q - xn
        gap = np.linalg.norm(y - xn)
        x = xn
        if gap <= uep.DYKSTRA_TOL:
            break
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
    if w[0] < -0.05 * max(float(w[-1]), 1e-30):
        return None
    if w[0] < -uep.FEAS_TOL:
        mm = _face_dykstra_reference(RT, pin, cs.b, mm, n)
        stats["dykstra"] += 1
        w = np.linalg.eigvalsh(uep.unhermvec(mm, n))
    aff = float(np.linalg.norm(RT @ mm - cs.b))
    return mm if aff <= uep.FEAS_TOL * b_scale and w[0] >= -uep.FEAS_TOL else None


def _ascent_iterates(X=x_diag(), tasks=4, checkpoints=4):
    """Face matrices of a short projected-gradient ascent on {X} with probe
    X^2, one block of tasks per rounding checkpoint, stepped as
    _linear_max_batch steps them."""
    d = len(X)
    cs = uep.build_constraints(uep.UepProblem(d=d, G=gen(d, X)))
    rng = make_rng(77)
    F = cs.face.conj().T @ cpmaps.choi_functional(
        [X @ X] * tasks, [random_hermitian(rng, d) for _ in range(tasks)]) @ cs.face
    grads = (F + F.conj().swapaxes(-1, -2)) / 2.0
    step = 0.1 * d / np.linalg.norm(grads.reshape(tasks, -1), axis=1)
    Z = np.tile(cs.x_identity, (tasks, 1, 1))
    rows = []
    for _ in range(checkpoints):
        for _ in range(uep.POLISH_EVERY):
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


def test_face_dykstra_batch_equals_solo(monkeypatch):
    """On one shared system, a batch mixing an item that converges early
    with one that runs out of iterations gives each item its solo result.
    The iterates of this random Hermitian generator (a violation-search
    shape) include both kinds."""
    cs, X = _ascent_iterates(random_hermitian(make_rng(2000), 3))
    M = cs.proj_affine(X)
    w = np.linalg.eigvalsh(M)
    # The rows that _face_polish hands to Dykstra.
    rows = np.flatnonzero((w[:, 0] < -uep.FEAS_TOL) & (w[:, 0] >= -0.05 * w[:, -1]))
    sizes = []
    clip = uep._psd_clip
    monkeypatch.setattr(uep, "_psd_clip", lambda Z: sizes.append(len(Z)) or clip(Z))

    def run(idx):
        sizes.clear()
        out = uep._face_dykstra(cs, M[idx])
        return out, list(sizes)

    solo = {k: run([k]) for k in rows}
    early = next(k for k in rows if len(solo[k][1]) < uep.DYKSTRA_MAX_ITER)
    capped = next(k for k in rows if len(solo[k][1]) == uep.DYKSTRA_MAX_ITER)
    both, both_sizes = run([early, capped])
    n_early = len(solo[early][1])
    assert both_sizes == [2] * n_early + [1] * (uep.DYKSTRA_MAX_ITER - n_early)
    assert np.array_equal(both[0], solo[early][0][0])
    assert np.array_equal(both[1], solo[capped][0][0])
    assert np.linalg.eigvalsh(both[0])[0] >= -uep.FEAS_TOL


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
    """A probe outside C*(G) reports extension freedom, not a UEP violation."""
    X = x_diag()
    Y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    P = uep.UepProblem(d=3, G=gen(3, X, X @ X), probes=[Y], seed=4, n_witnesses=2)
    rep = uep.solve(P)
    assert rep.status == "Unique-evidence"
    probe = rep.deviations[0]
    assert not probe.in_algebra
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
    rather than reported as unique."""
    H = random_hermitian(make_rng(106), 6)
    P = uep.UepProblem(d=6, G=gen(6, H), probes=[H @ H], seed=1, n_witnesses=1, max_iter=2000)
    assert uep.build_constraints(P).n > 12
    rep = uep.solve(P)
    assert rep.status == "ViolationFound"
    assert uep.validate_certificate(rep.certificate, P)


def test_noisy_identity_generator_keeps_face_and_violation():
    """W W* equals I only up to rounding; pinning it must neither shrink the
    face nor hide the violation of {X}."""
    X = x_diag()
    W = random_unitary(make_rng(950), 3)
    P = uep.UepProblem(d=3, G=gen(3, X, W @ W.conj().T), probes=[X @ X], seed=1, n_witnesses=2)
    assert uep.build_constraints(P).n == uep.build_constraints(uep.UepProblem(d=3, G=gen(3, X))).n
    rep = uep.solve(P)
    assert rep.status == "ViolationFound"
    assert uep.validate_certificate(rep.certificate, P)
    for d in (2, 3, 4, 5):
        U = random_unitary(make_rng(960 + d), d)
        n_u = uep.build_constraints(uep.UepProblem(d=d, G=gen(d, U))).n
        assert uep.build_constraints(uep.UepProblem(d=d, G=gen(d, U, U @ U.conj().T))).n == n_u


def test_exhausted_budget_is_not_converged():
    """A search cut off by max_iter before its stall test fired is no
    evidence of uniqueness (this generator has a violation)."""
    H = random_hermitian(make_rng(104), 4)
    P = uep.UepProblem(d=4, G=gen(4, H), probes=[H @ H], seed=1, n_witnesses=1, max_iter=25)
    rep = uep.solve(P)
    assert rep.status == "NonConverged"
    assert rep.iterations == 25


def test_constant_tasks_skip_the_ascent():
    """On the minimal face of a unique family every witness objective is
    constant on the constraint slice, so no task enters the ascent and
    every in-algebra deviation is exactly zero."""
    for family in ("polar", "normal", "unitary", "X-and-square"):
        for d in range(2, 6):
            gens, _ = _unique_family(family, d, make_rng(8000 + 10 * d))
            rep = uep.solve(uep.UepProblem(d=d, G=gen(d, *gens), seed=d, n_witnesses=2))
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
    _, bobj, _, _ = uep._linear_max_batch(cs, grads, P.max_iter)
    gain = bobj - uep._tr(grads, cs.x_identity)
    assert np.all(gain[skip] <= bound[skip])
    assert np.any(gain[~skip] > tol)


def _normal_problem(key, d, **kw) -> uep.UepProblem:
    """The normal set {N, NN*} of random_normal_matrix(make_rng(key), d)."""
    N = random_normal_matrix(make_rng(key), d)
    return uep.UepProblem(d=d, G=gen(d, N, N @ N.conj().T), **kw)


@pytest.mark.parametrize("key, d, face_dim", [
    # Sampled face n and iterations of the first step: 9 and 160, 9 and
    # 2,334, 11 and 2,033.
    pytest.param(510, 5, 5, id="key10"),
    pytest.param(7506, 5, 5, id="7506"),
    pytest.param(7600, 6, 6, id="7600"),
])
def test_exposing_step_skips_the_ascent_on_a_non_minimal_face(key, d, face_dim):
    """Exposing vectors reduce the sampled face of a normal set to its
    minimal face (n = d), where every witness task is fixed: no ascent,
    deviations exactly zero.  build_constraints reports the same face."""
    P = _normal_problem(key, d, seed=71, n_witnesses=2)
    rep = uep.solve(P)
    assert rep.status == "Unique-evidence"
    assert rep.iterations == 0
    assert all(p.deviation == 0.0 for p in rep.deviations if p.in_algebra)
    assert rep.face_dim == rep.to_json()["face_dim"] == uep.build_constraints(P).n == face_dim


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="alternating projections stall on this n = 11 face")
def test_exposing_step_finds_the_vector_of_a_slow_face():
    """The sampled face (n = 11) of this d = 6 normal set is not minimal,
    but the stall rule stops the search for its exposing vector, so
    build_constraints returns the sampled face unreduced."""
    P = _normal_problem(7613, 6)
    assert uep.build_constraints(P).n < uep._pinned_face(P).shape[1] == 11


def _spy_exposing_face(monkeypatch) -> list:
    """Every system that build_constraints hands to _exposing_face, in order."""
    seen, expose = [], uep._exposing_face
    monkeypatch.setattr(uep, "_exposing_face", lambda cs: seen.append(cs) or expose(cs))
    return seen


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
    problems = [uep.UepProblem(d=d, G=None if gens is None else gen(d, *gens))
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
    """On {X} the step finds nothing, so the search runs as before it
    existed: same iterations and certificate deviation at solver seed 7."""
    rep = uep.solve(uep.UepProblem(d=3, G=gen(3, x_diag()), seed=7))
    assert rep.status == "ViolationFound"
    assert rep.iterations == 1075
    assert rep.certificate.deviation == 1.2247448713918545
    assert rep.face_dim == 5


@pytest.mark.parametrize("field, value", [
    ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
    ("max_iter", 0), ("n_witnesses", 0), ("probes", []),
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
