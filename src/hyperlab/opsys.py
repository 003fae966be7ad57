"""Finite-dimensional operator systems: generated *-algebras and commutants.

The unital *-algebra generated by a finite matrix set is computed by word
closure (generate_algebra): orthonormalize all words in the generators and
adjoints, one degree at a time, until the span stabilizes.  Irreducibility is
decided through the commutant (trivial commutant <=> the generated algebra
is all of M_d, by Burnside's theorem).  Gram-Schmidt takes one degree of
words at a time as one block and writes the algebra basis into one
preallocated (d^2, d^2) array; the commutant basis is the kernel of one
SVD.  AlgebraBasis keeps either as one array of shape
(dim, d, d), and its projection_residual measures membership in the span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, require_integer

# Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class GeneratorSet:
    """A finite list of d x d generators."""

    d: int
    generators: tuple

    def __post_init__(self):
        require_integer("d", self.d)
        if not self.generators:
            raise InvalidInput("generator set must be nonempty")
        gens = tuple(linalg.require_square(g) for g in self.generators)
        for g in gens:
            if g.shape != (self.d, self.d):
                raise InvalidInput(f"generator shape {g.shape} != ({self.d}, {self.d})")
        object.__setattr__(self, "generators", gens)

    def with_adjoints(self) -> list:
        return list(self.generators) + [g.conj().T for g in self.generators]


@dataclass
class AlgebraBasis:
    """Frobenius-orthonormal basis of a subspace of M_d, one array of shape
    (dim, d, d)."""

    d: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    def projection_residual(self, A: np.ndarray):
        """Frobenius distance from A to the span of the basis: a float for one
        d x d matrix, one per matrix (an array) for a stack (k, d, d)."""
        A = np.asarray(A, dtype=complex)
        X = A.reshape(-1, self.d * self.d)
        B = self.basis.reshape(self.dim, -1)  # rows: the flattened basis
        resid = linalg.row_norm(X - (X @ B.conj().T) @ B)
        return float(resid[0]) if A.ndim == 2 else resid


def _mgs_extend(B: np.ndarray, k: int, C: np.ndarray) -> int:
    """Extend the orthonormal rows B[:k] by the candidate rows C, in order;
    returns the new row count.

    A candidate becomes the next row of B when its residual off the rows so
    far stays above RANK_RTOL relative to its own norm.  All of C is
    projected off B[:k] in one block, twice (classical Gram-Schmidt with one
    re-orthogonalization: "twice is enough", Giraud, Langou & Rozloznik
    2005), and every candidate already at or below the cutoff is dropped in
    one comparison.  Only the survivors are orthogonalized, in order and
    twice, against the rows this call adds.  Stops once B is full.
    """
    scale = linalg.row_norm(C)
    X = C
    for _ in range(2):
        X = X - (X @ B[:k].conj().T) @ B[:k]
    keep = linalg.row_norm(X) > RANK_RTOL * scale
    start = k
    for x, s in zip(X[keep], scale[keep]):
        if k == len(B):
            break
        if k > start:
            N = B[start:k]
            Nc = N.conj()
            for _ in range(2):
                x = x - (Nc @ x) @ N
        nrm = math.sqrt(np.vdot(x, x).real)
        if nrm > RANK_RTOL * s:
            B[k] = x / nrm
            k += 1
    return k


def generate_algebra(G: GeneratorSet) -> AlgebraBasis:
    """Orthonormal basis of the unital *-algebra C*(G) generated by G: the
    span of the words in G, G* and I, closed one degree at a time.

    Each degree's candidates, every new row of the one before times every
    letter, come from one batched matmul and go to _mgs_extend as one
    block.  The closure ends at the first degree that adds no dimension,
    so at most d^2 degrees run.
    """
    d = G.d
    letters = np.array(G.with_adjoints())
    B = np.empty((d * d, d * d), dtype=complex)
    first = np.concatenate([linalg.eye(d)[None], letters]).reshape(-1, d * d)
    start, k = 0, _mgs_extend(B, 0, first)
    while start < k < d * d:
        words = B[start:k].reshape(-1, 1, d, d) @ letters
        start, k = k, _mgs_extend(B, k, words.reshape(-1, d * d))
    return AlgebraBasis(d=d, basis=B[:k].reshape(k, d, d))


def commutant(G: GeneratorSet) -> AlgebraBasis:
    """Orthonormal basis of {X : Xg = gX and Xg* = g*X for all g in G}.

    Vectorizing X row-major, X g - g X = 0 becomes
    ((I (x) g^T) - (g (x) I)) vec(X) = 0; the kernel of the stacked system
    is read off from its SVD (the normal-equations shortcut squares the
    condition number and can lose the kernel for ill-scaled generators),
    with singular values below RANK_RTOL of the largest treated as zero.
    """
    d = G.d
    I = np.eye(d)
    M = np.vstack([np.kron(I, g.T) - np.kron(g, I) for g in G.with_adjoints()])
    kernel = linalg.null_space(M, RANK_RTOL).T  # orthonormal rows: right singular vectors
    return AlgebraBasis(d=d, basis=kernel.reshape(-1, d, d))


def is_irreducible(G: GeneratorSet) -> bool:
    """True iff the commutant of G (with adjoints) is trivial."""
    return commutant(G).dim == 1
