"""Tests for Choi/Kraus/Stinespring calculus and defect measurements."""

from __future__ import annotations

import numpy as np
import pytest

from hyperlab import cpmaps, linalg
from hyperlab.errors import InvalidInput, NotCompletelyPositive, NotUCP
from hyperlab.rng import make_rng, random_complex, random_ucp_kraus, random_unitary


def depolarizing_choi(d: int = 2) -> cpmaps.ChoiMatrix:
    """Phi(A) = trace(A)/d * I; Choi = (I (x) I)/d."""
    return cpmaps.ChoiMatrix(d=d, mat=np.eye(d * d, dtype=complex) / d)


def transpose_choi() -> cpmaps.ChoiMatrix:
    """Choi of the transpose map on M_2 is the swap operator."""
    C = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            E = np.outer(np.eye(2)[i], np.eye(2)[j])  # E_ij
            C += np.kron(E, E.T)
    return cpmaps.ChoiMatrix(d=2, mat=C)


def test_identity_choi_is_rank_one():
    C = cpmaps.identity_choi(2)
    w = np.linalg.eigvalsh(C.mat)
    assert np.trace(C.mat) == pytest.approx(2.0)
    assert np.sum(w > 1e-12) == 1
    rng = make_rng(20)
    A = random_complex(rng, 2, 2)
    assert np.allclose(cpmaps.apply_choi(C, A), A, atol=1e-12)


def test_identity_choi_is_shared_and_read_only():
    """Each d gives the one shared object, whose mat cannot be written; a
    numpy integer d shares the entry of its int."""
    for d in (1, 2, 3, 5):
        C = cpmaps.identity_choi(d)
        assert cpmaps.identity_choi(d) is C is cpmaps.identity_choi(np.int64(d))
        assert type(C.d) is int and C.d == d
        w = np.eye(d, dtype=complex).reshape(-1)
        assert np.array_equal(C.mat, np.outer(w, w.conj()))
        with pytest.raises(ValueError):
            C.mat[0, 0] = 2.0
        with pytest.raises(ValueError):
            C.mat += 1.0
        assert C.mat[0, 0] == 1.0


def test_identity_choi_cache_stays_bounded():
    """The cache holds a few dimensions only: asking for many values of d
    leaves at most maxsize entries, and an evicted d is built again, equal
    to the first build."""
    first = cpmaps.identity_choi(2).mat.copy()
    maxsize = cpmaps._identity_choi.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    for d in range(1, 2 * maxsize + 3):
        cpmaps.identity_choi(d)
        assert cpmaps._identity_choi.cache_info().currsize <= maxsize
    assert np.array_equal(cpmaps.identity_choi(2).mat, first)


def test_depolarizing_kraus_rank_and_apply():
    C = depolarizing_choi()
    K = cpmaps.kraus_from_choi(C)
    assert len(K.operators) == 4
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(cpmaps.apply_choi(C, X), np.zeros((2, 2)), atol=1e-12)
    A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(cpmaps.apply_choi(C, A), np.trace(A) / 2.0 * np.eye(2), atol=1e-12)


def test_choi_kraus_roundtrip():
    rng = make_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        K = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(random_ucp_kraus(rng, d, 3)))
        C = cpmaps.choi_from_kraus(K)
        K2 = cpmaps.kraus_from_choi(C)
        C2 = cpmaps.choi_from_kraus(K2)
        assert np.linalg.norm(C.mat - C2.mat) <= 1e-8
        A = random_complex(rng, d, d)
        assert np.allclose(K.apply(A), cpmaps.apply_choi(C, A), atol=1e-10)


def test_kraus_from_choi_rejects_non_cp():
    with pytest.raises(NotCompletelyPositive):
        cpmaps.kraus_from_choi(transpose_choi())


def test_rectangular_compression_kraus():
    K = cpmaps.KrausSet(d_in=2, d_out=1, operators=(np.array([[1.0, 0.0]]),))
    A = np.array([[5.0, 1.0], [2.0, 7.0]], dtype=complex)
    assert K.apply(A)[0, 0] == pytest.approx(5.0)


def test_validate_ucp_examples():
    assert cpmaps.validate_ucp(cpmaps.identity_choi(3)) == {"cp_defect": pytest.approx(0.0),
                                                           "unital_defect": pytest.approx(0.0)}
    d = cpmaps.validate_ucp(transpose_choi())
    assert d["cp_defect"] == pytest.approx(1.0, abs=1e-12)
    # Kraus {I/2}: sum K K* = I/4, unital defect 3/4.
    half = cpmaps.KrausSet(d_in=2, d_out=2, operators=(0.5 * np.eye(2, dtype=complex),))
    dd = cpmaps.validate_ucp(cpmaps.choi_from_kraus(half))
    assert dd["unital_defect"] == pytest.approx(0.75, abs=1e-12)


def test_apply_choi_unital_and_linear():
    C = depolarizing_choi()
    assert np.allclose(cpmaps.apply_choi(C, np.eye(2)), np.eye(2), atol=1e-12)
    with pytest.raises(InvalidInput):
        cpmaps.apply_choi(C, np.eye(3))


def test_apply_choi_stack_matches_single_calls():
    """A (k, d, d) stack maps to the bits of the 2-d calls, matrix by
    matrix, at d = 2..6 and k = 1..7; a 2-d call still returns one d x d
    complex array, with the bits of the einsum over the matrix alone."""
    rng = make_rng(61)
    for d in range(2, 7):
        C = cpmaps.choi_from_kraus(cpmaps.KrausSet(d_in=d, d_out=d,
                                                   operators=tuple(random_ucp_kraus(rng, d, 3))))
        for k in range(1, 8):
            A = np.array([random_complex(rng, d, d) for _ in range(k)])
            out = cpmaps.apply_choi(C, A)
            assert out.shape == (k, d, d)
            for a, img in zip(A, out):
                one = cpmaps.apply_choi(C, a)
                assert type(one) is np.ndarray and one.shape == (d, d) and one.dtype == complex
                assert one.tobytes() == img.tobytes()
                assert one.tobytes() == np.einsum("imjn,ij->mn", C.mat.reshape(d, d, d, d), a).tobytes()


def test_apply_choi_stack_input_checks():
    C = depolarizing_choi()
    with pytest.raises(InvalidInput):
        cpmaps.apply_choi(C, np.zeros((2, 3, 3)))
    with pytest.raises(InvalidInput):
        cpmaps.apply_choi(C, np.array([np.eye(2), np.full((2, 2), np.nan)]))
    with pytest.raises(InvalidInput):
        cpmaps.apply_choi(C, np.zeros((1, 1, 2, 2)))


def _kraus_apply_reference(K: cpmaps.KrausSet, A) -> np.ndarray:
    """The 2-d Kraus sum, one matrix per call, as KrausSet.apply had it."""
    out = np.zeros((K.d_out, K.d_out), dtype=complex)
    for op in K.operators:
        out += op @ A @ op.conj().T
    return out


def _schwarz_reference(phi, a) -> tuple:
    """(left, right, left_norm, right_norm) from three 2-d phi calls and two
    2-d op_norm calls."""
    pa = phi(a)
    left = linalg.hermitize(phi(a.conj().T @ a) - pa.conj().T @ pa)
    right = linalg.hermitize(phi(a @ a.conj().T) - pa @ pa.conj().T)
    return left, right, linalg.op_norm(left), linalg.op_norm(right)


def test_kraus_apply_stack_matches_single_calls():
    """A (k, d_in, d_in) stack maps to the bits of the per-matrix Kraus sum,
    at d = 2..5 and r = 1..4 (square unital sets and d_out = d - 1
    compressions); a 2-d call still returns one d_out x d_out complex
    array with those bits."""
    rng = make_rng(62)
    for d in range(2, 6):
        for r in range(1, 5):
            sets = (cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(random_ucp_kraus(rng, d, r))),
                    cpmaps.KrausSet(d_in=d, d_out=d - 1,
                                    operators=tuple(random_complex(rng, d - 1, d) for _ in range(r))))
            for K in sets:
                A = np.array([random_complex(rng, d, d) for _ in range(3)])
                out = K.apply(A)
                assert out.shape == (3, K.d_out, K.d_out)
                for a, img in zip(A, out):
                    one = K.apply(a)
                    assert type(one) is np.ndarray and one.shape == (K.d_out, K.d_out)
                    assert one.dtype == complex
                    assert one.tobytes() == img.tobytes() == _kraus_apply_reference(K, a).tobytes()


def test_schwarz_defects_match_per_call_reference():
    """The stacked phi and op_norm calls give the bits of the per-call
    defects, for the Kraus and the Choi form, at d = 2..5 and r = 1..4."""
    rng = make_rng(63)
    for d in range(2, 6):
        for r in range(1, 5):
            K = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(random_ucp_kraus(rng, d, r)))
            C = cpmaps.choi_from_kraus(K)
            C4 = C.mat.reshape(d, d, d, d)
            a = random_complex(rng, d, d)
            for got, phi in ((cpmaps.schwarz_defects_kraus(K, a),
                              lambda x: _kraus_apply_reference(K, x)),
                             (cpmaps.schwarz_defects(C, a),
                              lambda x: np.einsum("imjn,ij->mn", C4, x))):
                left, right, left_norm, right_norm = _schwarz_reference(phi, a)
                assert got["left"].tobytes() == left.tobytes()
                assert got["right"].tobytes() == right.tobytes()
                assert type(got["left_norm"]) is float and type(got["right_norm"]) is float
                assert (got["left_norm"], got["right_norm"]) == (left_norm, right_norm)


def test_stinespring_identity():
    D = cpmaps.stinespring(cpmaps.identity_choi(2))
    assert D.r == 1
    assert D.minimal
    assert np.allclose(np.abs(D.V), np.eye(2), atol=1e-12)


def test_stinespring_dependent_kraus_not_minimal():
    """Kraus operators (K, K)/sqrt(2) define the same map as {K} but are
    linearly dependent, so their dilation is not minimal."""
    U = random_unitary(make_rng(23), 3)
    D = cpmaps.stinespring_from_kraus(cpmaps.KrausSet(d_in=3, d_out=3,
                                                      operators=(U / np.sqrt(2), U / np.sqrt(2))))
    assert D.r == 2
    assert not D.minimal
    assert cpmaps.stinespring_from_kraus(cpmaps.KrausSet(d_in=3, d_out=3, operators=(U,))).minimal


def test_choi_functional_is_adjoint_of_apply_choi():
    rng = make_rng(24)
    C = cpmaps.choi_from_kraus(cpmaps.KrausSet(d_in=3, d_out=3,
                                               operators=tuple(random_ucp_kraus(rng, 3, 2))))
    A = np.array([random_complex(rng, 3, 3) for _ in range(2)])
    W = np.array([random_complex(rng, 3, 3) for _ in range(2)])
    F = cpmaps.choi_functional(A, W)
    assert F.shape == (2, 9, 9)
    for k in range(2):
        assert np.allclose(F[k], np.kron(A[k].T, W[k].conj().T), atol=0)
        expect = np.trace(W[k].conj().T @ cpmaps.apply_choi(C, A[k]))
        assert np.trace(F[k] @ C.mat) == pytest.approx(expect, abs=1e-12)


def test_stinespring_depolarizing():
    D = cpmaps.stinespring(depolarizing_choi())
    assert D.r == 4
    assert D.V.shape == (8, 2)
    assert np.allclose(D.V.conj().T @ D.V, np.eye(2), atol=1e-10)
    rng = make_rng(22)
    A = random_complex(rng, 2, 2)
    assert np.allclose(D.compress(A), np.trace(A) / 2.0 * np.eye(2), atol=1e-10)


def test_stinespring_rejects_non_ucp():
    with pytest.raises(NotUCP):
        cpmaps.stinespring(transpose_choi())


def test_stinespring_accepts_every_choi_matrix_its_ucp_check_accepts():
    """A unital Choi matrix with an eigenvalue of about -6e-9 passes the UCP
    check (cp_defect <= UCP_TOL), so its Kraus decomposition must not reject
    it: the dilation is an isometry within UCP_TOL."""
    K = cpmaps.KrausSet(d_in=2, d_out=2, operators=tuple(random_ucp_kraus(make_rng(3), 2, 2)))
    C = cpmaps.choi_from_kraus(K).mat
    _, U = np.linalg.eigh(C)
    C = C - 1e-8 * np.outer(U[:, 0], U[:, 0].conj())
    C = C + np.kron(np.eye(2), (np.eye(2) - linalg.partial_trace_first(C, 2)) / 2)
    choi = cpmaps.ChoiMatrix(d=2, mat=C)
    defects = cpmaps.validate_ucp(choi)
    assert 0.0 < defects["cp_defect"] <= cpmaps.UCP_TOL
    assert defects["unital_defect"] <= cpmaps.UCP_TOL
    D = cpmaps.stinespring(choi)
    assert np.linalg.norm(D.V.conj().T @ D.V - np.eye(2)) <= cpmaps.UCP_TOL


def _bad_shape_calls() -> dict:
    """(call, message) pairs that each hand a cpmaps constructor or method a
    matrix of the wrong shape, a non-Hermitian Choi matrix, no Kraus
    operator or a dimension or multiplicity that is a float or a bool (the
    identity Choi matrix checks d before its cache lookup, where 3.0 and
    True would find the entries of 3 and 1)."""
    E01 = np.zeros((4, 4), dtype=complex)
    E01[0, 1] = 1.0
    K2 = cpmaps.KrausSet(d_in=2, d_out=2, operators=(np.eye(2),))
    K21 = cpmaps.KrausSet(d_in=2, d_out=1, operators=(np.array([[1.0, 0.0]]),))
    D = cpmaps.StinespringDilation(d=2, r=1, V=np.eye(2, dtype=complex), minimal=True)
    return {
        "choi-size": (lambda: cpmaps.ChoiMatrix(d=2, mat=np.eye(3)), "must be 4 x 4"),
        "choi-hermitian": (lambda: cpmaps.ChoiMatrix(d=2, mat=E01), "must be Hermitian"),
        "kraus-empty": (lambda: cpmaps.KrausSet(d_in=2, d_out=2, operators=()), "nonempty"),
        "kraus-shape": (lambda: cpmaps.KrausSet(d_in=2, d_out=2, operators=(np.eye(3),)),
                        "operator shape"),
        "kraus-apply": (lambda: K2.apply(np.eye(3)), "input must be 2 x 2"),
        "kraus-apply-stack": (lambda: K2.apply(np.zeros((2, 3, 3))), "input must be 2 x 2"),
        "choi-float-d": (lambda: cpmaps.ChoiMatrix(d=2.0, mat=np.eye(4)), "d must be an integer"),
        "choi-bool-d": (lambda: cpmaps.ChoiMatrix(d=True, mat=np.eye(1)), "d must be an integer"),
        "kraus-float-d": (lambda: cpmaps.KrausSet(d_in=2.0, d_out=2.0, operators=(np.eye(2),)),
                          "d_in must be an integer"),
        "kraus-float-d-out": (lambda: cpmaps.KrausSet(d_in=2, d_out=2.0, operators=(np.eye(2),)),
                              "d_out must be an integer"),
        "kraus-bool-d": (lambda: cpmaps.KrausSet(d_in=True, d_out=True, operators=(np.eye(1),)),
                         "d_in must be an integer"),
        "dilation-float-d": (lambda: cpmaps.StinespringDilation(d=2.0, r=1, V=np.eye(2), minimal=True),
                             "d must be an integer"),
        "dilation-bool-d": (lambda: cpmaps.StinespringDilation(d=True, r=1, V=np.eye(1), minimal=True),
                            "d must be an integer"),
        "dilation-float-r": (lambda: cpmaps.StinespringDilation(d=2, r=1.0, V=np.eye(2), minimal=True),
                             "r must be an integer"),
        "dilation-bool-r": (lambda: cpmaps.StinespringDilation(d=2, r=True, V=np.eye(2), minimal=True),
                            "r must be an integer"),
        "identity-float-d": (lambda: cpmaps.identity_choi(3.0), "d must be an integer"),
        "identity-bool-d": (lambda: cpmaps.identity_choi(True), "d must be an integer"),
        "sigma": (lambda: D.sigma(np.eye(3)), "input must be 2 x 2"),
        "choi-rectangular": (lambda: cpmaps.choi_from_kraus(K21), "square maps"),
        "sigma-S-size": (lambda: cpmaps.coinvariance_block(D, np.eye(3), np.eye(2)),
                         "sigma\\(S\\) must be"),
        "rho-S-size": (lambda: cpmaps.coinvariance_block(D, np.eye(2), np.eye(3)),
                       "rho\\(S\\) must be"),
    }


@pytest.mark.parametrize("name", list(_bad_shape_calls()))
def test_bad_shapes_raise_invalid_input(name):
    call, message = _bad_shape_calls()[name]
    with pytest.raises(InvalidInput, match=message):
        call()


def test_stinespring_roundtrip_battery():
    rng = make_rng(23)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        K = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(random_ucp_kraus(rng, d, 2)))
        D = cpmaps.stinespring(cpmaps.choi_from_kraus(K))
        for i in range(d):
            for j in range(d):
                E = np.outer(np.eye(d)[i], np.eye(d)[j])  # E_ij
                assert linalg.op_norm(D.compress(E) - K.apply(E)) <= 1e-8


def test_schwarz_defects_examples():
    rng = make_rng(24)
    a = random_complex(rng, 2, 2)
    dd = cpmaps.schwarz_defects(cpmaps.identity_choi(2), a)
    assert dd["left_norm"] <= 1e-12 and dd["right_norm"] <= 1e-12

    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dd = cpmaps.schwarz_defects(depolarizing_choi(), X)
    assert np.allclose(dd["left"], np.eye(2), atol=1e-12)
    assert dd["left_norm"] == pytest.approx(1.0)

    # Compression onto the first coordinate, a = E_10: Phi(a* a) = 1, Phi(a) = 0.
    K = cpmaps.KrausSet(d_in=2, d_out=1, operators=(np.array([[1.0, 0.0]]),))
    dd = cpmaps.schwarz_defects_kraus(K, np.outer(np.eye(2)[1], np.eye(2)[0]))
    assert dd["left_norm"] == pytest.approx(1.0)


def test_schwarz_battery_psd():
    rng = make_rng(25)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        K = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(random_ucp_kraus(rng, d, 3)))
        a = random_complex(rng, d, d)
        dd = cpmaps.schwarz_defects_kraus(K, a)
        assert np.linalg.eigvalsh(dd["left"])[0] >= -1e-8
        assert np.linalg.eigvalsh(dd["right"])[0] >= -1e-8


def test_coinvariance_trivial_dilation():
    D = cpmaps.StinespringDilation(d=2, r=1, V=np.eye(2, dtype=complex), minimal=True)
    S = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    res = cpmaps.coinvariance_block(D, S, S)
    assert res["X_block_norm"] <= 1e-12
    assert res["compression_residual"] <= 1e-12


def test_coinvariance_homomorphic_dilation():
    rng = make_rng(26)
    U = random_unitary(rng, 3)
    u = np.zeros(2, dtype=complex)
    u[0] = 1.0
    V = np.kron(U, u.reshape(-1, 1))
    D = cpmaps.StinespringDilation(d=3, r=2, V=V, minimal=False)
    S = random_complex(rng, 3, 3)
    rho_S = V.conj().T @ np.kron(S, np.eye(2)) @ V
    res = cpmaps.coinvariance_block(D, np.kron(S, np.eye(2)), rho_S)
    assert res["X_block_norm"] <= 1e-8


def test_coinvariance_depolarizing_fails_premise():
    D = cpmaps.stinespring(depolarizing_choi())
    S = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    K = cpmaps.kraus_from_choi(depolarizing_choi())
    res = cpmaps.coinvariance_block(D, np.kron(S, np.eye(D.r)), K.apply(S))
    assert res["X_block_norm"] > 0.1  # premise Phi(SS*) = Phi(S)Phi(S)* fails here
