"""Korovkin-type convergence experiments.

A family of positive unital maps phi_n is evaluated on a test set G and on
extra probes; the report tabulates sup-norm deviations per index n and
issues a converges/stalls verdict per element.  Two domains are supported:

* grid functions on a uniform 1001-point grid over [0, 1] (the classical
  picture, with the Bernstein operators as the canonical positive
  approximation process), and
* d x d matrices, where a family can be a constant UCP map (for instance a
  violation certificate from the UEP search, which fixes G but permanently
  moves some probe), a unitary conjugation path shrinking to the identity,
  or a pinching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma
from numbers import Integral

import numpy as np

from . import cpmaps, linalg
from .errors import InvalidInput

GRID_POINTS = 1001

# Verdict thresholds, one order above observed discretization noise.
GRID_TOL = 1e-4
MATRIX_TOL = 1e-6


def grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, GRID_POINTS)


def bernstein_apply(n: int, f) -> np.ndarray:
    """Bernstein operator B_n applied to a grid function.

    (B_n f)(x) = sum_k f(k/n) C(n,k) x^k (1-x)^(n-k); node values f(k/n)
    are linearly interpolated from the grid.  B_n is positive and fixes
    constants up to the rounding of its log-space basis (1.5e-13 at
    n = 400, 3e-12 at n = 4000); at the endpoints B_n f = f exactly.
    """
    if n < 1:
        raise InvalidInput("Bernstein index must be >= 1")
    f = np.asarray(f, dtype=float)
    if f.shape != (GRID_POINTS,):
        raise InvalidInput(f"grid functions have {GRID_POINTS} points, got shape {f.shape}")
    x = grid()
    fn = np.interp(np.arange(n + 1) / n, x, f)
    # C(n,k) x^k (1-x)^(n-k) in log space, as a float C(n,k) overflows from
    # n = 1030 on.
    k = np.arange(n + 1)[:, None]
    log_c = np.array([[lgamma(n + 1) - lgamma(j + 1) - lgamma(n - j + 1)] for j in range(n + 1)])
    out = np.empty(GRID_POINTS)
    out[0], out[-1] = fn[0], fn[-1]
    out[1:-1] = fn @ np.exp(log_c + k * np.log(x[1:-1]) + (n - k) * np.log1p(-x[1:-1]))
    return out


def _is_index(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


@dataclass
class MapFamily:
    """A sequence of positive unital maps phi_n, n = n_min..n_max.

    kinds: "bernstein" (grid domain), "constant_certificate",
    "unitary_conjugation", "pinching" (matrix domain).
    """

    kind: str
    n_min: int = 1
    n_max: int = 10
    params: dict = field(default_factory=dict)

    KINDS = ("bernstein", "constant_certificate", "unitary_conjugation", "pinching")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInput(f"unknown family kind {self.kind!r}")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise InvalidInput("need 1 <= n_min <= n_max")
        if self.kind == "constant_certificate" and "choi" not in self.params:
            raise InvalidInput("constant_certificate needs a 'choi' parameter")
        if self.kind in ("unitary_conjugation", "pinching"):
            d = self.params.get("d")
            if not _is_index(d) or d < 1:
                raise InvalidInput(f"{self.kind} needs a positive integer dimension 'd', got {d!r}")
        if self.kind == "pinching":
            try:
                flat = sorted(i for block in self.params.get("blocks") for i in block)
            except TypeError:  # not a list of lists of comparable indices
                flat = None
            if flat != list(range(d)) or not all(_is_index(i) for i in flat):
                raise InvalidInput(f"pinching needs 'blocks', a partition of range({d}) into lists")

    @property
    def domain(self) -> str:
        return "grid" if self.kind == "bernstein" else "matrix"

    def indices(self):
        return range(self.n_min, self.n_max + 1)

    def apply(self, n: int, value):
        if self.kind == "bernstein":
            return bernstein_apply(n, value)
        A = linalg.require_square(value)
        if self.kind == "constant_certificate":
            return cpmaps.apply_choi(self.params["choi"], A)
        if self.kind == "unitary_conjugation":
            U = self._rotation(n)
            return U @ A @ U.conj().T
        blocks = self.params["blocks"]
        d = self.params["d"]
        out = np.zeros((d, d), dtype=complex)
        for block in blocks:
            P = np.zeros((d, d), dtype=complex)
            for i in block:
                P[i, i] = 1.0
            out += P @ A @ P
        return out

    def _rotation(self, n: int) -> np.ndarray:
        """Rotation by about 1/n: normalize the rational matrix [[1,-t],[t,1]].

        The columns of [[1,-t],[t,1]] are orthogonal with norm sqrt(1+t^2),
        so division yields an exact rotation (angle arctan(1/n)); embedded in
        the top-left 2x2 corner for d > 2.
        """
        d = self.params["d"]
        if d < 2:
            return np.eye(1, dtype=complex)
        t = 1.0 / n
        s = 1.0 / np.sqrt(1.0 + t * t)
        U = np.eye(d, dtype=complex)
        U[0, 0] = s
        U[0, 1] = -t * s
        U[1, 0] = t * s
        U[1, 1] = s
        return U


@dataclass
class ConvergenceReport:
    ns: list
    g_labels: list
    probe_labels: list
    g_deviations: np.ndarray      # (len(ns), len(G))
    probe_deviations: np.ndarray  # (len(ns), len(probes))
    g_verdicts: list
    probe_verdicts: list
    domain: str
    tol: float


def _sup_deviation(domain: str, image, target) -> float:
    if domain == "grid":
        return float(np.max(np.abs(np.asarray(image) - np.asarray(target))))
    return linalg.op_norm(np.asarray(image) - np.asarray(target))


def _verdict(devs: np.ndarray, tol: float) -> str:
    if np.all(devs[-3:] <= tol):
        return "converges"
    half = devs[len(devs) // 2:]
    if np.all(half >= 10.0 * tol):
        return "stalls"
    return "undecided"


def run(family: MapFamily, G: list, probes: list, tol: float | None = None,
        g_labels: list | None = None, probe_labels: list | None = None) -> ConvergenceReport:
    """Tabulate per-n deviations of the family on G and on the probes."""
    if tol is None:
        tol = GRID_TOL if family.domain == "grid" else MATRIX_TOL
    G = list(G)
    probes = list(probes)
    if not G:
        raise InvalidInput("test set G must be nonempty")
    d = family.params["choi"].d if family.kind == "constant_certificate" else family.params.get("d")
    shape = (GRID_POINTS,) if family.domain == "grid" else (d, d)
    for value in G + probes:
        if np.shape(value) != shape:
            raise InvalidInput(f"{family.kind} elements need shape {shape}, got {np.shape(value)}")
    ns = list(family.indices())
    g_dev = np.zeros((len(ns), len(G)))
    p_dev = np.zeros((len(ns), len(probes)))
    for row, n in enumerate(ns):
        for col, g in enumerate(G):
            g_dev[row, col] = _sup_deviation(family.domain, family.apply(n, g), g)
        for col, a in enumerate(probes):
            p_dev[row, col] = _sup_deviation(family.domain, family.apply(n, a), a)
    return ConvergenceReport(
        ns=ns,
        g_labels=g_labels or [f"g{j}" for j in range(len(G))],
        probe_labels=probe_labels or [f"p{j}" for j in range(len(probes))],
        g_deviations=g_dev,
        probe_deviations=p_dev,
        g_verdicts=[_verdict(g_dev[:, j], tol) for j in range(len(G))],
        probe_verdicts=[_verdict(p_dev[:, j], tol) for j in range(len(probes))],
        domain=family.domain,
        tol=tol,
    )


def csv_export(report: ConvergenceReport) -> list:
    """Rows of the convergence table: header, one row per n, verdict footer."""
    header = ["n"] + [f"g:{l}" for l in report.g_labels] + [f"probe:{l}" for l in report.probe_labels]
    rows = [",".join(header)]
    for row, n in enumerate(report.ns):
        cells = [str(n)]
        cells += [f"{v:.12e}" for v in report.g_deviations[row]]
        cells += [f"{v:.12e}" for v in report.probe_deviations[row]]
        rows.append(",".join(cells))
    footer = ["verdict"] + report.g_verdicts + report.probe_verdicts
    rows.append(",".join(footer))
    return rows


def family_from_certificate(choi: cpmaps.ChoiMatrix, n_min: int = 1, n_max: int = 10) -> MapFamily:
    """Constant family phi_n = Phi_cert realizing a UEP violation as a
    Korovkin failure: deviations on the pinned set stay 0 while the violated
    probe stalls at the certificate deviation."""
    return MapFamily(kind="constant_certificate", n_min=n_min, n_max=n_max,
                     params={"choi": choi})
