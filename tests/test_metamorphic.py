"""Metamorphic invariants of the UEP search.

The unique extension property of G depends only on the operator system
span{I, G, G*} up to unitary equivalence, so the status and the pinned face
dimension must not change under simultaneous conjugation G -> V G V*, an
affine change g -> a g + b I, a reordering of G, or appending an element
already in span{I, G}.  The theorem step's decision (decided or not, and
the constraint rank it reports) must not change under conjugation,
reordering or an affine change either.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import opsys, uep
from hyperlab.rng import make_rng, random_complex, random_normal_matrix, random_unitary


def _case(kind: str, d: int, rng) -> tuple:
    """(generators, probe in the generated algebra) of one base set."""
    if kind == "polar":
        T = random_complex(rng, d, d)
        return [T, T.conj().T @ T, T @ T.conj().T], T @ T
    if kind == "normal":
        N = random_normal_matrix(rng, d)
        return [N, N @ N.conj().T], N @ N
    if kind == "unitary":
        U = random_unitary(rng, d)
        return [U], U @ U
    # Self-adjoint with d distinct eigenvalues: unique at d = 2, violated at d = 3.
    Q = random_unitary(rng, d)
    X = Q @ np.diag(np.arange(d, dtype=float)) @ Q.conj().T
    return [X], X @ X


def _conjugate(gens, probe, rng):
    V = random_unitary(rng, gens[0].shape[0])
    return [V @ g @ V.conj().T for g in gens], V @ probe @ V.conj().T


def _affine(gens, probe, rng):
    a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    b = rng.uniform(-2.0, 2.0)
    return [a * g + b * np.eye(g.shape[0]) for g in gens], probe


def _reorder(gens, probe, rng):
    return [gens[k] for k in rng.permutation(len(gens))], probe


def _append_from_span(gens, probe, rng):
    d = gens[0].shape[0]
    if rng.integers(2):
        W = random_unitary(rng, d)
        return gens + [W @ W.conj().T], probe  # I up to rounding
    return gens + [gens[0] + 2.0 * np.eye(d)], probe


def _outcome(gens, probe) -> tuple:
    d = gens[0].shape[0]
    G = opsys.GeneratorSet(d=d, generators=tuple(np.asarray(g, dtype=complex) for g in gens))
    P = uep.UepProblem(d=d, G=G, probes=[probe], seed=1, n_witnesses=1)
    return uep.solve(P).status, uep.build_constraints(P).n


@pytest.mark.parametrize("transform", [_conjugate, _affine, _reorder, _append_from_span],
                         ids=["conjugate", "affine", "reorder", "append-from-span"])
@settings(derandomize=True, max_examples=8, deadline=None)
@given(kind=st.sampled_from(["polar", "normal", "unitary", "self-adjoint"]),
       d=st.sampled_from([2, 3]), key=st.integers(0, 2 ** 16))
def test_status_and_face_are_invariant(transform, kind, d, key):
    rng = make_rng(key)
    gens, probe = _case(kind, d, rng)
    assert _outcome(*transform(gens, probe, rng)) == _outcome(gens, probe)


def _decision(gens) -> tuple:
    """(decided by theorem, constraint rank) of the default-probe problem."""
    d = gens[0].shape[0]
    G = opsys.GeneratorSet(d=d, generators=tuple(np.asarray(g, dtype=complex) for g in gens))
    P = uep.UepProblem(d=d, G=G)
    span, _, info, membership, _ = uep._validate(P)
    rep = uep._theorem_step(P, span, info, membership)
    return (False, None) if rep is None else (True, rep.constraint_rank)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["polar", "normal", "unitary", "self-adjoint"])
def test_theorem_decision_is_invariant(kind, d):
    """The step tests the traceless, unit-norm part of each generator, so
    its decision survives G -> VGV*, reordering, and g -> a g + b I for a
    in {1e-9, 0.5, 2, 1e9}.  The self-adjoint sets are decided at d = 2
    only, the others at every d.  The shift is b = a beta with beta in
    [-2, 2]: a shift of order 1 on a generator of order 1e-9 rounds away
    all but about seven digits of it, fewer than the 1e-8 membership
    cutoff resolves."""
    rng = make_rng(9200 + 10 * d)
    gens, probe = _case(kind, d, rng)
    base = _decision(gens)
    assert base[0] == (kind != "self-adjoint" or d == 2)
    assert _decision(_conjugate(gens, probe, rng)[0]) == base
    assert _decision(_reorder(gens, probe, rng)[0]) == base
    for a in (1e-9, 0.5, 2.0, 1e9):
        b = a * rng.uniform(-2.0, 2.0)
        assert _decision([a * g + b * np.eye(d) for g in gens]) == base, a
