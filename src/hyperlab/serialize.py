"""Shared file formats: matrix literals, JSON helpers, config digests.

Matrix literal format (used by every CLI config and report): nested arrays
of [re, im] pairs, row-major.  Structured reports are JSON with sorted keys
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import InvalidInput


def matrix_to_literal(A) -> list:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise InvalidInput("matrix literal requires a 2-d array")
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def literal_to_matrix(lit) -> np.ndarray:
    try:
        arr = np.asarray(lit, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"bad matrix literal: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvalidInput(f"matrix literal must be rows x cols x [re,im], got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("matrix literal has non-finite entries")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(obj) -> str:
    """SHA-256 digest of the canonical JSON form of a config object."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys, encoded whole and written at once."""
    text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
