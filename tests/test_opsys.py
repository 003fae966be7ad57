"""Tests for generated *-algebras, commutants and irreducibility."""

from __future__ import annotations

import numpy as np
import pytest

from hyperlab import linalg, opsys, uep
from hyperlab.errors import InvalidInput
from hyperlab.rng import (make_rng, random_complex, random_hermitian, random_normal_matrix,
                          random_unitary)


def jordan_block(d: int) -> np.ndarray:
    J = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        J[i, i + 1] = 1.0
    return J


def test_generate_algebra_diagonal_unitary():
    G = opsys.GeneratorSet(d=2, generators=(np.diag([1.0, 1j]),))
    assert opsys.generate_algebra(G).dim == 2


def test_generate_algebra_jordan_is_full():
    G = opsys.GeneratorSet(d=3, generators=(jordan_block(3),))
    alg = opsys.generate_algebra(G)
    assert alg.dim == 9


def test_generate_algebra_identity_only():
    G = opsys.GeneratorSet(d=3, generators=(np.eye(3, dtype=complex),))
    assert opsys.generate_algebra(G).dim == 1


def test_generated_span_is_star_and_product_closed():
    rng = make_rng(11)
    T = random_complex(rng, 3, 3)
    alg = opsys.generate_algebra(opsys.GeneratorSet(d=3, generators=(T,)))
    for a in alg.basis[:4]:
        assert alg.projection_residual(a.conj().T) <= 1e-9
        for b in alg.basis[:4]:
            assert alg.projection_residual(a @ b) <= 1e-8


def test_projection_residual_takes_one_matrix_or_a_stack():
    """One d x d matrix gives a float and a (k, d, d) stack one residual per
    matrix: for the diagonal algebra of X, the norm of the off-diagonal part."""
    alg = opsys.generate_algebra(opsys.GeneratorSet(d=3, generators=(np.diag([0.0, 1.0, 2.0]),)))
    rng = make_rng(15)
    A = np.array([random_complex(rng, 3, 3) for _ in range(4)] + [np.diag([1.0, 2.0, 5.0])])
    off = [np.linalg.norm(a - np.diag(np.diag(a))) for a in A]
    stack = alg.projection_residual(A)
    assert stack.shape == (5,) and np.allclose(stack, off, rtol=0, atol=1e-14)
    for a, r in zip(A, stack):
        one = alg.projection_residual(a)
        assert isinstance(one, float) and one == pytest.approx(r, rel=0, abs=1e-14)


def test_commutant_examples():
    X = np.diag([0.0, 1.0, 2.0]).astype(complex)
    assert opsys.commutant(opsys.GeneratorSet(d=3, generators=(X,))).dim == 3
    J = jordan_block(3)
    assert opsys.commutant(opsys.GeneratorSet(d=3, generators=(J, J.conj().T))).dim == 1
    assert opsys.commutant(opsys.GeneratorSet(d=3, generators=(np.eye(3, dtype=complex),))).dim == 9


def test_commutant_contains_identity():
    rng = make_rng(12)
    G = opsys.GeneratorSet(d=4, generators=(random_complex(rng, 4, 4),))
    com = opsys.commutant(G)
    assert com.dim >= 1
    assert com.projection_residual(np.eye(4, dtype=complex)) <= 1e-8


def test_is_irreducible_examples():
    assert opsys.is_irreducible(opsys.GeneratorSet(d=4, generators=(jordan_block(4),)))
    assert not opsys.is_irreducible(
        opsys.GeneratorSet(d=3, generators=(np.diag([0.0, 1.0, 2.0]).astype(complex),)))
    assert not opsys.is_irreducible(opsys.GeneratorSet(d=2, generators=(np.eye(2, dtype=complex),)))


def test_burnside_consistency_battery():
    """Irreducibility (trivial commutant) iff the generated algebra is M_d."""
    rng = make_rng(13)
    for trial in range(200):
        d = 2 + trial % 4
        n_gens = 1 + trial % 2
        if trial % 3 == 0:
            # Reducible by construction: block diagonal generators.
            k = max(1, d // 2)
            gens = []
            for _ in range(n_gens):
                g = np.zeros((d, d), dtype=complex)
                g[:k, :k] = random_complex(rng, k, k)
                g[k:, k:] = random_complex(rng, d - k, d - k)
                gens.append(g)
        else:
            gens = [random_complex(rng, d, d) for _ in range(n_gens)]
        G = opsys.GeneratorSet(d=d, generators=tuple(gens))
        assert opsys.is_irreducible(G) == (opsys.generate_algebra(G).dim == d * d)


def test_generator_set_validation():
    with pytest.raises(InvalidInput):
        opsys.GeneratorSet(d=2, generators=())
    with pytest.raises(InvalidInput):
        opsys.GeneratorSet(d=2, generators=(np.eye(3),))
    # A float or bool d passes the shape check (3.0 == 3, True == 1).
    for d, g in ((3.0, np.eye(3)), (True, np.eye(1))):
        with pytest.raises(InvalidInput, match="d must be an integer"):
            opsys.GeneratorSet(d=d, generators=(g,))


def test_basis_orthonormality():
    rng = make_rng(14)
    alg = opsys.generate_algebra(opsys.GeneratorSet(d=3, generators=(random_complex(rng, 3, 3),)))
    gram = np.array([[linalg.frob_inner(a, b) for b in alg.basis] for a in alg.basis])
    assert np.allclose(gram, np.eye(alg.dim), atol=1e-10)


def _mgs_reference(basis: list, candidates: list) -> list:
    """List-based Gram-Schmidt: re-stacks the basis list for every candidate."""
    added = []
    for cand in candidates:
        v = np.asarray(cand, dtype=complex)
        scale = linalg.frob_norm(v)
        if scale == 0.0:
            continue
        B = np.reshape(basis, (len(basis), v.size))
        x = v.ravel()
        for _ in range(2):
            x = x - (B.conj() @ x) @ B
        nrm = float(np.linalg.norm(x))
        if nrm > opsys.RANK_RTOL * scale:
            v = (x / nrm).reshape(v.shape)
            basis.append(v)
            added.append(v)
    return added


def _generate_algebra_reference(G):
    d, gens = G.d, G.with_adjoints()
    basis: list = []
    new = _mgs_reference(basis, [np.eye(d, dtype=complex)] + gens)
    while new and len(basis) < d * d:
        new = _mgs_reference(basis, [w @ g for w in new for g in gens])
    return np.array(basis)


def _commutant_reference(G):
    """Full SVD of the commutation stack, one kernel row at a time."""
    d = G.d
    I = np.eye(d)
    M = np.vstack([np.kron(I, g.T) - np.kron(g, I) for g in G.with_adjoints()])
    sv, Vh = np.linalg.svd(M, full_matrices=True)[1:]
    rank = int(np.sum(sv > opsys.RANK_RTOL * (sv[0] if sv[0] > 0 else 1.0)))
    return np.array([Vh[k].conj().reshape(d, d) for k in range(rank, d * d)])


def _basis_cases(d):
    rng = make_rng(700 + d)
    T = random_complex(rng, d, d)
    N = random_normal_matrix(rng, d)
    D = np.diag(np.arange(d) // 2).astype(complex)  # repeated eigenvalues (0 at d = 2)
    return {
        "polar": (T, T.conj().T @ T, T @ T.conj().T),
        "normal": (N, N @ N.conj().T),
        "unitary": (random_unitary(rng, d),),
        "repeated-diagonal": (D,),
        "repeated-diagonal-pair": (D, np.diag(np.arange(d) % 2).astype(complex)),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bases_match_list_reference(d):
    """generate_algebra keeps the dimension of the list-based,
    per-candidate Gram-Schmidt, with every row within 1e-12 of the
    reference's row (same order, so no phase freedom) and rows orthonormal
    within 1e-13: it projects a whole degree of words in one block, so the
    rows agree at roundoff, not bit for bit.  commutant gives bit for bit
    the basis of the full SVD; at d = 6 LAPACK's thin and full SVDs of some
    tall 36-column stacks differ at roundoff, so there the commutant is
    checked as a subspace."""
    for name, gens in _basis_cases(d).items():
        G = opsys.GeneratorSet(d=d, generators=gens)
        alg, com = opsys.generate_algebra(G), opsys.commutant(G)
        assert alg.basis.shape == (alg.dim, d, d) and com.basis.shape == (com.dim, d, d), name
        ref = _generate_algebra_reference(G)
        assert alg.basis.shape == ref.shape, name
        assert np.allclose(alg.basis, ref, rtol=0, atol=1e-12), name
        rows = alg.basis.reshape(alg.dim, -1)
        assert np.allclose(rows.conj() @ rows.T, np.eye(alg.dim), rtol=0, atol=1e-13), name
        ref = _commutant_reference(G)
        if d <= 5:
            assert np.array_equal(com.basis, ref), name
        else:
            B, R = com.basis.reshape(com.dim, -1), ref.reshape(len(ref), -1)
            assert B.shape == R.shape, name
            assert np.allclose(B.T @ B.conj(), R.T @ R.conj(), rtol=0, atol=1e-12), name


def _structure_cases(d):
    """_basis_cases, {X, X^2} (X = diag(0, .., d - 1)) and a unitary conjugate,
    and {H, H^3}, each also as a g - 0.3 I (a = -1.7) and reordered."""
    rng = make_rng(7100 + d)
    X = np.diag(np.arange(d)).astype(complex)
    U, H = random_unitary(rng, d), random_hermitian(rng, d)
    Xc = U @ X @ U.conj().T
    cases = dict(_basis_cases(d), **{"X,X^2": (X, X @ X), "UXU*": (Xc, Xc @ Xc), "H,H^3": (H, H @ H @ H)})
    for name, gens in list(cases.items()):
        cases["affine " + name] = tuple(-1.7 * g + 0.3 * np.eye(d) for g in gens)
        cases["reordered " + name] = gens[::-1]
    return cases


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_eigh_algebra_matches_word_closure(d):
    """Wherever uep._eigh_algebra answers, it reads C*(S) with the dimension
    of generate_algebra, each basis within 1e-12 of the other's span and
    rows orthonormal within 1e-13, and an answer of M_d comes with a trivial
    commutant (Burnside).  It answers on every set here with a simple
    generic element and declines on the repeated diagonal D alone.  On
    {H, H^3} the word closure itself drifts by up to about 1e-12 off C*(H)
    (1.02e-12 on the reordered set at d = 5), so there the step's basis is
    held to 1e-13 of the eigenprojections of H and the closure to 1e-11."""
    for name, gens in _structure_cases(d).items():
        S = np.array(gens)
        alg = uep._eigh_algebra(S, *uep._unit_traceless(S))
        assert (alg is None) == name.endswith("repeated-diagonal"), name
        if alg is None:
            continue
        G = opsys.GeneratorSet(d=d, generators=gens)
        ref = opsys.generate_algebra(G)
        assert alg.basis.shape == (ref.dim, d, d), name
        tol = 1e-12
        if "H^3" in name:
            tol = 1e-11
            Q = np.linalg.eigh(gens[0])[1]  # H^3 has the eigenvectors of H
            eig = opsys.AlgebraBasis(d=d, basis=np.array([np.outer(q, q.conj()) for q in Q.T]))
            assert np.max(eig.projection_residual(alg.basis)) <= 1e-13, name
        assert np.max(ref.projection_residual(alg.basis)) <= tol, name
        assert np.max(alg.projection_residual(ref.basis)) <= tol, name
        rows = alg.basis.reshape(alg.dim, -1)
        assert np.allclose(rows.conj() @ rows.T, np.eye(alg.dim), rtol=0, atol=1e-13), name
        if alg.dim == d * d:
            assert opsys.is_irreducible(G), name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="word closure reads Gram-Schmidt noise as new dimensions at d = 18 "
                          "(ROADMAP item 17)")
@pytest.mark.parametrize("k", [2, 4])
def test_hermitian_closure_at_d18_has_dimension_d(k):
    """C*(H) of a Hermitian H with distinct eigenvalues has dimension d.
    Closing the Krylov words H^n misreads these two d = 18 draws, as 324
    (k = 2) and 322 (k = 4): a residual just above RANK_RTOL carries
    roundoff from outside C*(H) into a new row."""
    H = random_hermitian(make_rng(1000 + 100 * 18 + k), 18)
    assert np.min(np.diff(np.linalg.eigvalsh(H))) > 1e-3
    assert opsys.generate_algebra(opsys.GeneratorSet(d=18, generators=(H,))).dim == 18
