"""Shared file formats: matrix literals, JSON helpers, config digests.

Matrix literal format (used by every CLI config and report): nested arrays
of [re, im] pairs, row-major.  Structured reports are JSON with sorted keys
so identical inputs produce byte-identical files.  Reports are written by a
small recursive writer that joins C-encoded leaves; its bytes are those of
``json.dumps(obj, sort_keys=True, indent=1)``, whose indented form would
otherwise run json's pure-Python encoder.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import InvalidInput


def matrix_to_literal(A) -> list:
    """The [re, im] literal of a 2-d matrix, from one tolist of its real view."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise InvalidInput("matrix literal requires a 2-d array")
    return np.ascontiguousarray(A).view(float).reshape(A.shape + (2,)).tolist()


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


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _indented(obj, nl: str, out: list) -> None:
    """Append the chunks of obj as json.dumps(obj, sort_keys=True, indent=1)
    writes it at the indentation ``nl``, a newline and one space per level.

    Scalars are tested in json's order (no container is also a scalar).
    Inside a container, a str or a finite float is written in line, without
    a recursive call.
    """
    if isinstance(obj, (list, tuple)) and obj:
        inner = nl + " "
        comma = "," + inner
        sep = "[" + inner
        for value in obj:
            t = type(value)
            if t is str:
                out.append(sep + _encode_str(value))
            elif t is float and value - value == 0.0:
                out.append(sep + float.__repr__(value))
            else:
                out.append(sep)
                _indented(value, inner, out)
            sep = comma
        out.append(nl + "]")
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        inner = nl + " "
        comma = "," + inner
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            sep += _encode_str(key) + ": "
            t = type(value)
            if t is str:
                out.append(sep + _encode_str(value))
            elif t is float and value - value == 0.0:
                out.append(sep + float.__repr__(value))
            else:
                out.append(sep)
                _indented(value, inner, out)
            sep = comma
        out.append(nl + "}")
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_str(obj))
    else:  # empty containers, dicts with non-str keys, whatever json rejects
        out.append(json.dumps(obj, sort_keys=True, indent=1).replace("\n", nl))


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys, encoded whole and written at once.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=1)``
    and a final newline: strings go through json's C string encoder, ints
    and floats through their reprs (json's NaN and Infinity tokens for the
    non-finite floats), and any other subtree through ``json.dumps``.
    """
    out: list = []
    _indented(obj, "\n", out)
    out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
