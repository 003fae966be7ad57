"""Finite-dimensional operator systems: generated *-algebras and commutants.

The unital *-algebra generated by a finite matrix set is computed by word
closure: orthonormalize the span of all words in the generators and their
adjoints, degree by degree, until the span stabilizes.  Irreducibility is
decided through the commutant (trivial commutant <=> the generated algebra
is all of M_d, by Burnside's theorem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInput

# Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class GeneratorSet:
    """A finite list of d x d generators."""

    d: int
    generators: tuple

    def __post_init__(self):
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
    """Frobenius-orthonormal basis of a subspace of M_d."""

    d: int
    basis: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, A: np.ndarray) -> np.ndarray:
        """Orthogonal projection of A onto the span of the basis."""
        A = np.asarray(A, dtype=complex)
        B = np.reshape(self.basis, (self.dim, A.size))  # rows: the flattened basis
        return ((B.conj() @ A.ravel()) @ B).reshape(A.shape)

    def projection_residual(self, A: np.ndarray) -> float:
        return linalg.frob_norm(np.asarray(A, dtype=complex) - self.project(A))


def _mgs_extend(basis: list, candidates: list) -> list:
    """Extend an orthonormal basis by Gram-Schmidt.

    Each candidate is orthogonalized twice against the running basis (one
    array projection per pass, the second a re-orthogonalization) and
    accepted when its residual norm stays above RANK_RTOL relative to the
    candidate's own norm.
    """
    added = []
    for cand in candidates:
        v = np.asarray(cand, dtype=complex)
        scale = linalg.frob_norm(v)
        if scale == 0.0:
            continue
        B = np.reshape(basis, (len(basis), v.size))  # rows: the flattened basis
        x = v.ravel()
        for _ in range(2):
            x = x - (B.conj() @ x) @ B
        nrm = float(np.linalg.norm(x))
        if nrm > RANK_RTOL * scale:
            v = (x / nrm).reshape(v.shape)
            basis.append(v)
            added.append(v)
    return added


def generate_algebra(G: GeneratorSet) -> AlgebraBasis:
    """Orthonormal basis of the unital *-algebra generated by G.

    Words of increasing length in G, G* (and I) are folded into the span
    until a degree adds nothing new or the span is all of M_d.  Every
    degree before that adds a dimension, so at most d^2 degrees run.
    """
    d = G.d
    gens = G.with_adjoints()
    basis: list = []
    new = _mgs_extend(basis, [linalg.eye(d)] + gens)
    while new and len(basis) < d * d:
        new = _mgs_extend(basis, [w @ g for w in new for g in gens])
    return AlgebraBasis(d=d, basis=basis)


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
    blocks = []
    for g in G.with_adjoints():
        blocks.append(np.kron(I, g.T) - np.kron(g, I))
    M = np.vstack(blocks)
    sv, Vh = np.linalg.svd(M, full_matrices=True)[1:]
    cutoff = RANK_RTOL * (sv[0] if len(sv) and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > cutoff))
    basis = [Vh[k].conj().reshape(d, d) for k in range(rank, d * d)]
    # Eigenvector columns are orthonormal already; a re-pass guards roundoff.
    ortho: list = []
    _mgs_extend(ortho, basis)
    return AlgebraBasis(d=d, basis=ortho)


def is_irreducible(G: GeneratorSet) -> bool:
    """True iff the commutant of G (with adjoints) is trivial."""
    return commutant(G).dim == 1
