"""Independent checks of program outputs.

Nothing here calls into ``hyperlab``: every check re-derives what it needs
from the serialized output with plain numpy, so a bug in the program's own
validators (``uep.validate_certificate``, ``cpmaps.validate_ucp``) cannot
hide a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

UNIQUE_DEV_TOL = 1e-6     # in-algebra deviation allowed for a uniqueness verdict
CERT_TOL = 1e-7           # Choi PSD, unitality and pinning residuals of a certificate
ALGEBRA_RTOL = 1e-8       # probe must lie in C*(g) to this relative residual
BERNSTEIN_TOL = 2.5e-7    # h^2/4 on the 1001-point grid: linear-interpolation error
ROUNDTRIP_TOL = 1e-8
SCHWARZ_TOL = 1e-8


class CheckFailed(Exception):
    """An op produced an output that its check rejects."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def literal(lit) -> np.ndarray:
    arr = np.asarray(lit, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def to_literal(A) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def opnorm(A) -> float:
    return float(np.linalg.norm(A, 2))


def apply_choi(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Phi(A)_{mn} = sum_ij C[(i,m),(j,n)] A_ij (input-first Choi)."""
    d = A.shape[0]
    return np.einsum("imjn,ij->mn", C.reshape(d, d, d, d), A)


def choi_from_kraus(ops) -> np.ndarray:
    ws = [K.T.reshape(-1) for K in ops]
    return sum(np.outer(w, w.conj()) for w in ws)


# ----------------------------------------------------------------------------
# uep reports
# ----------------------------------------------------------------------------

def unique_report(rep: dict) -> None:
    require(rep["status"] == "Unique-evidence", f"status {rep['status']}, expected Unique-evidence")
    on_alg = [p["deviation"] for p in rep["deviations"] if p["in_algebra"]]
    require(bool(on_alg), "no in-algebra probe was tested")
    worst = max(on_alg)
    require(worst <= UNIQUE_DEV_TOL, f"in-algebra deviation {worst:.3e} > {UNIQUE_DEV_TOL}")


def violation_report(rep: dict, generators: list) -> float:
    """Re-check a ViolationFound certificate from its JSON; returns the
    recomputed operator-norm deviation."""
    require(rep["status"] == "ViolationFound", f"status {rep['status']}, expected ViolationFound")
    cert = rep["certificate"]
    require(cert is not None, "ViolationFound without a certificate")
    d = int(cert["choi"]["d"])
    C = literal(cert["choi"]["matrix"])
    require(C.shape == (d * d, d * d), f"Choi shape {C.shape}")
    require(float(np.max(np.abs(C - C.conj().T))) <= CERT_TOL, "Choi matrix not Hermitian")
    wmin = float(np.linalg.eigvalsh((C + C.conj().T) / 2.0)[0])
    require(wmin >= -CERT_TOL, f"Choi eigenvalue {wmin:.3e} < 0")
    ptr = np.einsum("aman->mn", C.reshape(d, d, d, d))
    require(opnorm(ptr - np.eye(d)) <= CERT_TOL, "partial trace of the Choi is not I")
    for g in generators:
        for h in (g, g.conj().T):
            resid = opnorm(apply_choi(C, h) - h)
            require(resid <= CERT_TOL, f"Phi(g) != g (residual {resid:.3e})")
    a = literal(cert["probe"])
    # The probe must lie in C*(G); for one Hermitian generator that is the
    # span of its powers.
    if len(generators) == 1:
        g = generators[0]
        powers = np.array([np.linalg.matrix_power(g, k).reshape(-1) for k in range(d)]).T
        coef = np.linalg.lstsq(powers, a.reshape(-1), rcond=None)[0]
        resid = float(np.linalg.norm(powers @ coef - a.reshape(-1)))
        require(resid <= ALGEBRA_RTOL * (1.0 + float(np.linalg.norm(a))), "probe not in C*(g)")
    dev = opnorm(apply_choi(C, a) - a)
    claimed = float(cert["deviation"])
    require(abs(dev - claimed) <= 1e-6 * (1.0 + dev), f"deviation {claimed} recomputes to {dev}")
    require(dev > 10.0 * float(rep["tol"]), f"deviation {dev:.3e} not above 10 tol")
    return dev


# ----------------------------------------------------------------------------
# Exact Toeplitz results
# ----------------------------------------------------------------------------

def _gq(pair) -> complex:
    return complex(float(Fraction(pair[0])), float(Fraction(pair[1])))


def toeplitz_section(elem: dict, n: int) -> np.ndarray:
    """Upper-left n x n corner of T(symbol) + tail, in floating point."""
    M = np.zeros((n, n), dtype=complex)
    for k, c in elem["symbol"].items():
        k = int(k)
        z = _gq(c)
        for j in range(max(0, -k), min(n, n - k)):
            M[j + k, j] += z
    for key, c in elem["tail"].items():
        i, j = (int(p) for p in key.split(","))
        if i < n and j < n:
            M[i, j] += _gq(c)
    return M


def toeplitz_power(base: dict, power: dict, k: int, n: int = 12) -> None:
    """The exact power's corner equals the corner of the k-th power of a
    finite section large enough that no path of k steps leaves it."""
    reach = max([abs(int(d)) for d in base["symbol"]] + [0])
    reach += max([max(int(p) for p in key.split(",")) + 1 for key in base["tail"]] + [0])
    m = n + k * reach + 1
    ref = np.linalg.matrix_power(toeplitz_section(base, m), k)[:n, :n]
    got = toeplitz_section(power, n)
    scale = 1.0 + float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(got - ref)))
    require(err <= 1e-9 * scale, f"exact power disagrees with finite sections ({err:.3e})")


# ----------------------------------------------------------------------------
# Korovkin tables and Stinespring dilations
# ----------------------------------------------------------------------------

def bernstein_table(rows: list, n_min: int, n_max: int) -> None:
    """Rows are 'n,dev(1),dev(x),dev(x^2)'; B_n fixes 1 and x, and moves
    x^2 by x(1-x)/n, whose sup is 1/(4n)."""
    body = [r for r in rows if r and r[0].isdigit()]
    require(len(body) == n_max - n_min + 1, f"{len(body)} table rows for n={n_min}..{n_max}")
    for r in body:
        n, d1, dx, dx2 = r.split(",")
        n = int(n)
        require(abs(float(d1)) <= 1e-9 and abs(float(dx)) <= 1e-9, f"B_{n} moves 1 or x")
        err = abs(float(dx2) - 1.0 / (4.0 * n))
        require(err <= BERNSTEIN_TOL, f"B_{n} x^2 deviation off 1/(4n) by {err:.3e}")


def dilation(out: dict, C: np.ndarray, probes: list, images: list) -> None:
    V = literal(out["V"])
    r = int(out["r"])
    d = int(out["d"])
    require(opnorm(V.conj().T @ V - np.eye(d)) <= ROUNDTRIP_TOL, "V is not an isometry")
    for a, img in zip(probes, images):
        want = apply_choi(C, a)
        require(opnorm(img - want) <= ROUNDTRIP_TOL, "apply_choi disagrees with the Choi formula")
        got = V.conj().T @ np.kron(a, np.eye(r)) @ V
        require(opnorm(got - want) <= ROUNDTRIP_TOL, "Stinespring round trip off")


def schwarz(defects: dict, kraus: list, a: np.ndarray) -> None:
    def phi(x):
        return sum(K @ x @ K.conj().T for K in kraus)
    pa = phi(a)
    want = {"left": phi(a.conj().T @ a) - pa.conj().T @ pa,
            "right": phi(a @ a.conj().T) - pa @ pa.conj().T}
    for side, W in want.items():
        got = defects[side]
        require(opnorm(got - W) <= ROUNDTRIP_TOL, f"{side} Schwarz defect disagrees")
        w = float(np.linalg.eigvalsh((got + got.conj().T) / 2.0)[0])
        require(w >= -SCHWARZ_TOL, f"{side} Schwarz defect has eigenvalue {w:.3e}")
