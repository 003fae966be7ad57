"""Tests for the dense linear algebra kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import linalg, opsys, uep
from hyperlab.errors import InvalidInput
from hyperlab.rng import make_rng, random_complex, random_hermitian


def test_op_norm_examples():
    assert linalg.op_norm(np.outer(np.eye(2)[0], np.eye(2)[0])) == pytest.approx(1.0)
    assert linalg.op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def test_op_norm_stack_matches_single_calls():
    """A (k, m, n) stack gives one norm per matrix with the bits of its 2-d
    call, at d = 2..6 and k = 1..7 (square and wide); a 2-d call still
    returns a float with the bits of the top eigenvalue of its own A*A."""
    rng = make_rng(62)
    for d in range(2, 7):
        for k in range(1, 8):
            for shape in ((d, d), (d - 1, d)):
                A = np.array([random_complex(rng, *shape) for _ in range(k)])
                norms = linalg.op_norm(A)
                assert type(norms) is np.ndarray and norms.shape == (k,)
                for a, norm in zip(A, norms):
                    one = linalg.op_norm(a)
                    top = float(np.linalg.eigvalsh(linalg.hermitize(a.conj().T @ a))[-1])
                    assert type(one) is float
                    assert one.hex() == float(norm).hex() == float(np.sqrt(max(top, 0.0))).hex()


def test_op_norm_stack_edges():
    assert linalg.op_norm(np.zeros((0, 0))) == 0.0
    assert linalg.op_norm(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]
    assert linalg.op_norm(np.zeros((2, 2, 2))).tolist() == [0.0, 0.0]
    with pytest.raises(InvalidInput):
        linalg.op_norm(np.array([np.eye(2), np.full((2, 2), np.inf)]))
    with pytest.raises(InvalidInput):
        linalg.op_norm(np.zeros((1, 1, 2, 2)))


# Entries of the row_norm stacks: zeros, values whose squares underflow or
# overflow, and ordinary ones.
_EXTREME = [0.0, -0.0, 1e-300, -3e-300, 5e-324, 1e300, -2e300, 1.7e308]


@st.composite
def _norm_stacks(draw):
    """(stack, axis): a real or complex (k, m, n) stack, n possibly 0, some of
    whose rows are exactly zero, and one of the axes -1, 1 and (1, 2)."""
    k, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_EXTREME))
    vals = draw(st.lists(entry, min_size=2 * k * m * n, max_size=2 * k * m * n))
    A = np.array(vals).reshape(2, k, m, n)
    A = A[0] + 1j * A[1] if draw(st.booleans()) else A[0]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        A[i, draw(st.integers(0, m - 1))] = 0.0
    return A, draw(st.sampled_from([-1, 1, (1, 2)]))


@settings(max_examples=300, deadline=None)
@given(_norm_stacks())
def test_row_norm_is_numpy_norm_bit_for_bit(case):
    """row_norm gives np.linalg.norm(A, axis=...)'s bits, dtype and shape,
    including the zero rows, the underflowing squares near 1e-300 and the
    infinite norms from squares past 1e308; the default axis is -1."""
    A, axis = case
    with np.errstate(over="ignore"):  # both overflow alike on squares past 1e308
        got, want = linalg.row_norm(A, axis=axis), np.linalg.norm(A, axis=axis)
        if axis == -1:
            assert linalg.row_norm(A).tobytes() == want.tobytes()
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_op_norm_sampling_oracle():
    rng = make_rng(5)
    A = random_complex(rng, 5, 5)
    reported = linalg.op_norm(A)
    xs = rng.standard_normal((10000, 5)) + 1j * rng.standard_normal((10000, 5))
    xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    sampled = float(np.max(np.linalg.norm(xs @ A.T, axis=1)))
    assert sampled <= reported + 1e-6
    assert sampled >= 0.5 * reported  # sanity: sampling is not degenerate


def test_op_norm_submultiplicative():
    rng = make_rng(6)
    for _ in range(50):
        A = random_complex(rng, 4, 4)
        B = random_complex(rng, 4, 4)
        assert linalg.op_norm(A @ B) <= linalg.op_norm(A) * linalg.op_norm(B) + 1e-9


def _psd_clip(A):
    """The solver's PSD projection (ConstraintSystem.proj_psd, an eigenvalue
    clip of face matrices) applied to a 4x4 Hermitian matrix."""
    G = opsys.GeneratorSet(d=2, generators=(np.eye(2),))  # unitality only: the face is all of M_4
    cs = uep.build_constraints(uep.UepProblem(d=2, G=G))
    assert cs.n == 4
    return cs.proj_psd(A)


def test_psd_project_examples():
    assert np.allclose(_psd_clip(np.diag([2.0, -1.0, 0.5, -3.0])), np.diag([2.0, 0.0, 0.5, 0.0]))
    X = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(_psd_clip(X), np.kron(np.eye(2), 0.5 * np.ones((2, 2))))
    rng = make_rng(7)
    A = random_hermitian(rng, 4)
    P = _psd_clip(A @ A.conj().T)  # already PSD
    assert np.allclose(P, A @ A.conj().T, atol=1e-12)


def test_psd_project_idempotent_and_guarded():
    # The solver hands the clip Hermitian face matrices only, so it has no
    # non-Hermitian input to reject; the guard is the Hermitian output.
    rng = make_rng(8)
    A = random_hermitian(rng, 4)
    P = _psd_clip(A)
    assert np.allclose(_psd_clip(P), P, atol=1e-12)
    assert np.allclose(P, P.conj().T)
    assert np.linalg.eigvalsh(P)[0] >= -1e-12


@pytest.mark.parametrize("rows, cols, rank", [(3, 7, 3), (20, 9, 4)])
def test_null_space_short_and_tall(rows, cols, rank):
    """Orthonormal columns, annihilated by A to roundoff, cols - rank of them."""
    rng = make_rng(11)
    A = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    N = linalg.null_space(A, 1e-9)
    assert N.shape == (cols, cols - rank)
    assert np.allclose(N.conj().T @ N, np.eye(cols - rank), rtol=0, atol=1e-12)
    assert np.linalg.norm(A @ N) <= 1e-12 * np.linalg.norm(A)


def test_partial_trace_identities():
    rng = make_rng(9)
    B = random_complex(rng, 3, 3)
    assert np.allclose(linalg.partial_trace_first(np.kron(np.eye(2), B), 2), 2.0 * B)
    assert np.allclose(linalg.partial_trace_first(np.kron(np.diag([1.0, 0.0]), B), 2), B)
    A = random_complex(rng, 3, 3)
    out = linalg.partial_trace_first(np.kron(A, B), 3)
    assert np.allclose(out, np.trace(A) * B, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = make_rng(10)
    C = random_complex(rng, 12, 12)
    assert np.trace(linalg.partial_trace_first(C, 3)) == pytest.approx(np.trace(C), abs=1e-12)
    with pytest.raises(InvalidInput):
        linalg.partial_trace_first(C, 5)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.array([1.0, 2.0]))
