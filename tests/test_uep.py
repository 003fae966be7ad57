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
    """Per-sample loop reference for uep._pinned_face."""
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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pinned_face_matches_reference(d):
    """The vectorized sampling gives bit for bit the face of the loop."""
    cases = _generator_cases(d)
    for name in ("polar", "normal", "unitary", "hermitian"):
        P = uep.UepProblem(d=d, G=gen(d, *cases[name]))
        assert np.array_equal(uep._pinned_face(P), _pinned_face_reference(P)), name


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
    """One row's rounding in hermvec coordinates; returns [(rank, point)].

    Unlike _face_polish (one threshold, 0.02, and a 1e-12 cutoff), it reads
    face ranks at the thresholds 0.5, 0.1 and 0.02 and restores with a
    1e-10 pseudo-inverse cutoff: the ranks read at 0.5 and 0.1 certify no
    further point, and the two cutoffs give the same points."""
    n = cs.n
    M = uep.unhermvec(x, n)
    w, U = np.linalg.eigh(M)
    wmax = max(float(w[-1]), 1e-30)
    b_scale = 1.0 + float(np.linalg.norm(cs.b))
    guesses = {int(np.sum(w > tau * wmax)) for tau in (0.5, 0.1, 0.02)}
    guesses |= {r + 1 for r in guesses} | {n}
    out = []
    for r in sorted(guesses):
        if r == 0 or r > n:
            continue
        Ur = U[:, n - r:]
        RT = uep.hermvec(Ur.conj().T @ (cs.F @ Ur))
        m0 = uep.hermvec(Ur.conj().T @ M @ Ur)
        pin = np.linalg.pinv(RT, rcond=1e-10)
        mm = m0 - pin @ (RT @ m0 - cs.b)
        wr = np.linalg.eigvalsh(uep.unhermvec(mm, r))
        if wr[0] < -0.05 * wmax:
            continue
        if wr[0] < -uep.FEAS_TOL:
            mm = _face_dykstra_reference(RT, pin, cs.b, mm, r)
            stats["dykstra"] += 1
            wr = np.linalg.eigvalsh(uep.unhermvec(mm, r))
        aff = float(np.linalg.norm(RT @ mm - cs.b))
        if aff <= uep.FEAS_TOL * b_scale and wr[0] >= -uep.FEAS_TOL:
            out.append((r, uep.hermvec(Ur @ uep.unhermvec(mm, r) @ Ur.conj().T)))
    return out


def _ascent_iterates(d=3, tasks=4, checkpoints=4):
    """Face matrices of a short projected-gradient ascent on {X}, one block
    of tasks per rounding checkpoint, stepped as _linear_max_batch steps them."""
    X = np.diag(np.arange(d, dtype=float)).astype(complex)
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
    """One batched call certifies the same (row, rank) candidates, in the
    same order, as rounding each row alone in hermvec coordinates."""
    cs, X = _ascent_iterates()
    stats = {"dykstra": 0}
    ref = [(k, r, z) for k in range(len(X))
           for r, z in _face_polish_reference(cs, uep.hermvec(X[k]), stats)]
    got = uep._face_polish(cs, X)
    assert stats["dykstra"] > 0 and ref  # the Dykstra and the direct path both ran
    assert [k for k, _ in got] == [k for k, _, _ in ref]
    for (_, z), (k, r, zr) in zip(got, ref):
        assert np.allclose(z, uep.unhermvec(zr, cs.n), rtol=0, atol=1e-10), (k, r)


def test_face_dykstra_batch_equals_solo(monkeypatch):
    """A batch mixing an item that converges early with one that runs out
    of iterations gives each item its solo result."""
    r = 3
    rng = make_rng(78)
    extra = [random_hermitian(rng, r) for _ in range(2)]
    target = np.diag([0.5, 0.3, 0.2]).astype(complex)
    b = uep.hermvec(np.array([np.eye(r)] + extra)) @ uep.hermvec(target)
    # Item 0 pins tr(M) = 1 and meets the PSD cone inside; item 1 reads the
    # same b through -I, i.e. tr(M) = -1, and misses the cone.
    items = []
    for sign in (1.0, -1.0):
        RT = uep.hermvec(np.array([sign * np.eye(r)] + extra))
        items.append((uep.unhermvec(RT, r), uep.unhermvec(np.linalg.pinv(RT, rcond=1e-10).T, r)))
    start = target + np.diag([0.5, -0.2, -0.3]).astype(complex)  # not PSD
    sizes = []
    clip = uep._psd_clip
    monkeypatch.setattr(uep, "_psd_clip", lambda M: sizes.append(len(M)) or clip(M))

    def run(idx):
        sizes.clear()
        out = uep._face_dykstra(np.array([items[i][0] for i in idx]),
                                np.array([items[i][1] for i in idx]),
                                b, np.array([start] * len(idx)))
        return out, list(sizes)

    (early,), early_sizes = run([0])
    (capped,), capped_sizes = run([1])
    both, both_sizes = run([0, 1])
    n_early = len(early_sizes)
    assert n_early < uep.DYKSTRA_MAX_ITER == len(capped_sizes)
    assert both_sizes == [2] * n_early + [1] * (uep.DYKSTRA_MAX_ITER - n_early)
    assert np.array_equal(both[0], early) and np.array_equal(both[1], capped)
    assert np.linalg.eigvalsh(early)[0] >= -uep.FEAS_TOL


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
    26; rounding also tries the full face, which certifies the violation
    here, so it is found rather than reported as unique."""
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
