"""Deterministic randomness for all experiments.

Every random quantity in the package is drawn from numpy's Philox 4x64
generator, a counter-based generator keyed directly by the user-supplied
64-bit seed.  Identical seeds therefore reproduce identical matrices,
reports and output files.  The test suite pins the first raw outputs of
``make_rng(42)`` as reference vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, require_integer
from .linalg import hermitize


def check_seed(seed: int) -> None:
    """InvalidInput unless seed is an integer (require_integer) in [0, 2**64)."""
    require_integer("seed", seed)
    if not 0 <= seed < 2 ** 64:
        raise InvalidInput(f"seed must be in [0, 2**64), got {seed}")


def make_rng(seed: int) -> np.random.Generator:
    """Philox-based generator keyed by a 64-bit seed in [0, 2**64)."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Ginibre matrix, entries with unit total variance."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    return hermitize(random_complex(rng, d, d))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary from QR with the standard phase fix."""
    Q, R = np.linalg.qr(random_complex(rng, d, d))
    ph = np.diag(R).copy()
    ph = ph / np.abs(ph)
    return Q * ph


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = random_complex(rng, n, 1)[:, 0]
    return v / np.linalg.norm(v)


def random_normal_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random normal operator U diag(z) U* with complex eigenvalues z."""
    U = random_unitary(rng, d)
    z = random_complex(rng, d, 1)[:, 0]
    return U @ np.diag(z) @ U.conj().T


def random_ucp_kraus(rng: np.random.Generator, d: int, r: int) -> list[np.ndarray]:
    """Random unital CP map as Kraus operators with sum K K* = I.

    Draws r Ginibre matrices and renormalizes on the left by the inverse
    square root of their sum-of-squares, which enforces unitality exactly
    (up to float arithmetic).
    """
    ops = [random_complex(rng, d, d) for _ in range(r)]
    M = hermitize(sum(K @ K.conj().T for K in ops))
    w, U = np.linalg.eigh(M)
    # Generic Ginibre draws keep M strictly positive; guard anyway.
    w = np.clip(w, 1e-300, None)
    M_inv_half = (U * (1.0 / np.sqrt(w))) @ U.conj().T
    return [M_inv_half @ K for K in ops]
