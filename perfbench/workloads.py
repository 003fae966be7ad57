"""Seeded op lists for the three workloads.

Each workload function draws its inputs from a Philox stream keyed by the
benchmark seed (some shapes come from fixed streams instead, as explained
where they are drawn), writes the CLI configs its ops need into ``work``,
and returns a list of ``Op``.  ``Op.run`` is the timed program call; ``Op.check``
validates its output with the independent code in ``checks`` and returns an
``Outcome`` whose ``blob`` is the serialized report, compared byte for byte
whenever the same op runs again.

Solver seeds (``UepProblem.seed``) are the op's slot number in the list,
not draws from the benchmark seed, so the witness draws stay put and the
run-to-run spread reflects the inputs and the code rather than a lottery
over ascent lengths (one X solve takes 850 or 7325 iterations depending on
its seed).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hyperlab import cli, cpmaps, opsys, uep
from hyperlab.rng import (make_rng, random_complex, random_hermitian, random_normal_matrix,
                          random_ucp_kraus, random_unitary)

import checks

X3 = np.diag([0.0, 1.0, 2.0]).astype(complex)

# unique-battery: generator sets per (kind, d) cell, as in criteria 3 and 4.
# Cost rises with d; these counts put the median op in the middle of the
# d = 4 block, so op_s.p50 does not hop between dimensions from seed to seed.
UNIQUE_PER_CELL = {2: 4, 3: 4, 4: 8, 5: 8}
# At d = 5, rounding noise above the ascent's 1e-10 improvement test sends
# about one random normal set in fifteen into _face_polish, at 10 to 40 times
# the usual cost (no other cell did in 50 draws).  Drawn from --seed, that coin
# flip moved ops_per_s by 25% between seeds.  So the d = 5 normal sets are
# fixed, drawn from streams 500 + key, and the last key is the first one
# whose set takes that path, which is then measured in every run.
UNIQUE_D5_NORMAL_KEYS = (0, 1, 2, 3, 4, 5, 6, 10)
UNIQUE_X_SQUARED = 4

# violation-search: single d = 3 Hermitian generators, n_witnesses as in the suites.
VIOLATION_AFFINE = 1
VIOLATION_CONJUGATE = 2
VIOLATION_RANDOM = 2

# exact-calculus op counts and sizes.  As in unique-battery, the median op
# sits inside one block of like ops: the d = 4 Stinespring round trips.
EXACT_TOEPLITZ = 30
EXACT_BERNSTEIN = 20
EXACT_STINESPRING_SMALL = 30   # d = 2, 3
EXACT_STINESPRING_MEDIAN = 40  # d = 4
BERNSTEIN_SPAN = 4
# bernstein_apply overflows at n >= 1030; its cost grows as n^2, so the
# tables stay well below that.
BERNSTEIN_MAX_N = 400


@dataclass
class Outcome:
    verdict: str
    blob: bytes
    deviation: float | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------------
# uep ops
# ----------------------------------------------------------------------------

def _solve_op(label: str, gens: tuple, seed: int, n_witnesses: int, expect: str) -> Op:
    d = gens[0].shape[0]

    def run():
        G = opsys.GeneratorSet(d=d, generators=gens)
        return uep.solve(uep.UepProblem(d=d, G=G, seed=seed, n_witnesses=n_witnesses))

    def check(rep) -> Outcome:
        js = rep.to_json()
        dev = None
        if expect == "unique":
            checks.unique_report(js)
        else:
            dev = checks.violation_report(js, list(gens))
        return Outcome(js["status"], canonical(js), dev)

    return Op(label, run, check)


def _cli_search_op(label: str, work: Path, slot: int, g: np.ndarray, seed: int) -> Op:
    cfg = _write(work / f"op{slot:03d}.json",
                 {"d": g.shape[0], "generators": [checks.to_literal(g)]})
    out = work / f"op{slot:03d}.out.json"
    argv = ["uep-search", "--config", cfg, "--seed", str(seed), "--out", str(out)]

    def check(code) -> Outcome:
        checks.require(code == 0, f"uep-search exit code {code}")
        blob = out.read_bytes()
        js = json.loads(blob)
        dev = checks.violation_report(js, [g])
        return Outcome(js["status"], blob, dev)

    return Op(label, lambda: _cli(argv), check)


def _affine(rng, g: np.ndarray) -> np.ndarray:
    """a g + b I with random real a (|a| in [0.5, 2]) and b (in [-2, 2])."""
    a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return a * g + rng.uniform(-2.0, 2.0) * np.eye(g.shape[0])


def unique_battery(seed: int, work: Path) -> list:
    """Polar, normal and unitary generator sets at d = 2..5 and {X, X^2}
    with seeded unitary conjugates of X, all drawn from --seed except the
    d = 5 normal sets (see UNIQUE_D5_NORMAL_KEYS)."""
    rng = make_rng(seed)
    cases = []
    for d, count in UNIQUE_PER_CELL.items():
        for j in range(count):
            T = random_complex(rng, d, d)
            N = random_normal_matrix(
                rng if d < 5 else make_rng(500 + UNIQUE_D5_NORMAL_KEYS[j]), d)
            U = random_unitary(rng, d)
            cases.append((f"polar d={d}", (T, T.conj().T @ T, T @ T.conj().T), 2))
            cases.append((f"normal d={d}", (N, N @ N.conj().T), 2))
            cases.append((f"unitary d={d}", (U,), 2))
    for j in range(UNIQUE_X_SQUARED):
        U = random_unitary(rng, 3) if j else np.eye(3)
        Xc = U @ X3 @ U.conj().T
        cases.append(("X,X^2 d=3", (Xc, Xc @ Xc), 8))
    return [_solve_op(label, gens, slot, nw, "unique")
            for slot, (label, gens, nw) in enumerate(cases, start=1)]


def violation_search(seed: int, work: Path) -> list:
    """X itself, the CLI run on X, and affine changes of fixed shapes: X,
    slot-keyed unitary conjugates U X U* and slot-keyed random Hermitian
    matrices; --seed draws the affine changes.  The change keeps span{I, g},
    hence the verdict and the ascent length, which the shapes themselves
    set: at one solver seed, four random conjugates U X U* took 850 to 2450
    iterations.
    """
    rng = make_rng(seed)
    shapes = [X3] * VIOLATION_AFFINE
    shapes += [U @ X3 @ U.conj().T for U in (random_unitary(make_rng(1000 + j), 3)
                                             for j in range(VIOLATION_CONJUGATE))]
    shapes += [random_hermitian(make_rng(2000 + j), 3) for j in range(VIOLATION_RANDOM)]
    labels = (["aX+bI"] * VIOLATION_AFFINE + ["a UXU* + bI"] * VIOLATION_CONJUGATE
              + ["a H + bI"] * VIOLATION_RANDOM)
    gens = [("X", X3)] + [(label, _affine(rng, g)) for label, g in zip(labels, shapes)]
    ops = [_cli_search_op("cli uep-search X", work, 0, X3, 7)]
    for slot, (label, g) in enumerate(gens, start=1):
        ops.append(_solve_op(label, (g,), slot, 2, "violation"))
    return ops


# ----------------------------------------------------------------------------
# exact-calculus ops
# ----------------------------------------------------------------------------

def _rational(rng) -> str:
    return f"{int(rng.integers(-5, 6))}/{int(rng.integers(1, 5))}"


def _toeplitz_op(rng, work: Path, slot: int, j: int) -> Op:
    # Band widths and the power cycle with j; only coefficients are drawn.
    lo, hi, k = 1 + (j // 5) % 2, 1 + (j // 10) % 2, 3 + j % 5
    symbol = {str(k): [_rational(rng), _rational(rng)] for k in range(-lo, hi + 1)}
    tail = {f"{int(rng.integers(0, 3))},{int(rng.integers(0, 3))}": [_rational(rng), "0"]
            for _ in range(2)}
    script = [{"let": "P", "symbol": symbol}, {"let": "T", "tail": tail},
              {"let": "A", "expr": "add(P, T)"}, {"let": "B", "expr": "adj(A)"},
              {"let": "S", "expr": "shift()"},
              {"let": "A1", "expr": "A"}, {"let": "B1", "expr": "B"}, {"let": "S1", "expr": "S"}]
    for p in range(2, k + 1):
        for v in "ABS":
            script.append({"let": f"{v}{p}", "expr": f"mul({v}{p - 1}, {v})"})
    evals = ["A", f"A{k}", f"adj(A{k})", f"B{k}", f"mul(adj(S{k}), S{k})", f"mul(S{k}, adj(S{k}))"]
    script += [{"eval": e} for e in evals]
    cfg = _write(work / f"op{slot:03d}.json", script)
    out = work / f"op{slot:03d}.out.json"
    argv = ["toeplitz", "--script", cfg, "--out", str(out)]
    one = {"symbol": {"0": ["1", "0"]}, "tail": {}}
    projector = {"symbol": {"0": ["1", "0"]},
                 "tail": {f"{i},{i}": ["-1", "0"] for i in range(k)}}

    def check(code) -> Outcome:
        checks.require(code == 0, f"toeplitz exit code {code}")
        blob = out.read_bytes()
        res = [r["result"] for r in json.loads(blob)["results"]]
        checks.require(res[2] == res[3], "(A^k)* != (A*)^k")
        checks.require(res[4] == one, "S*^k S^k != I")
        checks.require(res[5] == projector, "S^k S*^k != I - P_k")
        checks.toeplitz_power(res[0], res[1], k)
        return Outcome("identities hold", blob)

    return Op(f"toeplitz A^{k}", lambda: _cli(argv), check)


def _bernstein_op(work: Path, slot: int, n_min: int) -> Op:
    n_max = n_min + BERNSTEIN_SPAN - 1
    cfg = _write(work / f"op{slot:03d}.json", {
        "kind": "bernstein", "n_min": n_min, "n_max": n_max,
        "G": [{"poly": [1]}, {"poly": [0, 1]}], "probes": [{"poly": [0, 0, 1]}],
        "g_labels": ["1", "x"], "probe_labels": ["x^2"]})
    out = work / f"op{slot:03d}.out.csv"
    argv = ["korovkin", "--config", cfg, "--out", str(out)]

    def check(code) -> Outcome:
        checks.require(code == 0, f"korovkin exit code {code}")
        blob = out.read_bytes()
        rows = blob.decode("utf-8").splitlines()
        checks.bernstein_table(rows, n_min, n_max)
        verdict = next(r for r in rows if r.startswith("verdict,"))
        return Outcome(verdict, blob)

    return Op(f"bernstein n={n_min}..{n_max}", lambda: _cli(argv), check)


def _stinespring_op(rng, work: Path, slot: int, d: int, r: int) -> Op:
    kraus = random_ucp_kraus(rng, d, r)
    C = checks.choi_from_kraus(kraus)
    probes = [random_complex(rng, d, d) for _ in range(3)]
    cfg = _write(work / f"op{slot:03d}.json", {"choi": {"d": d, "matrix": checks.to_literal(C)}})
    out = work / f"op{slot:03d}.out.json"
    argv = ["stinespring", "--config", cfg, "--out", str(out)]
    choi = cpmaps.ChoiMatrix(d=d, mat=C)
    kset = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(kraus))

    def run():
        code = _cli(argv)
        images = [cpmaps.apply_choi(choi, a) for a in probes]
        defects = [cpmaps.schwarz_defects_kraus(kset, a) for a in probes]
        return code, images, defects

    def check(result) -> Outcome:
        code, images, defects = result
        checks.require(code == 0, f"stinespring exit code {code}")
        blob = out.read_bytes()
        checks.dilation(json.loads(blob), C, probes, images)
        for dd, a in zip(defects, probes):
            checks.schwarz(dd, kraus, a)
        arrays = images + [dd[s] for dd in defects for s in ("left", "right")]
        return Outcome("roundtrip ok", blob + b"".join(np.ascontiguousarray(x).tobytes()
                                                        for x in arrays))

    return Op(f"stinespring d={d} r={r}", run, check)


def exact_calculus(seed: int, work: Path) -> list:
    rng = make_rng(seed)
    ops = []
    for j in range(EXACT_TOEPLITZ):
        ops.append(_toeplitz_op(rng, work, len(ops), j))
    # Stratified n: Bernstein cost grows with n, so each op draws from its own
    # slice of 2..BERNSTEIN_MAX_N and the pass total varies little with the seed.
    width = (BERNSTEIN_MAX_N - 2) / EXACT_BERNSTEIN
    for j in range(EXACT_BERNSTEIN):
        lo = 2 + int(j * width)
        n_min = int(rng.integers(lo, lo + int(width) - BERNSTEIN_SPAN + 1))
        ops.append(_bernstein_op(work, len(ops), n_min))
    for j in range(EXACT_STINESPRING_SMALL):
        ops.append(_stinespring_op(rng, work, len(ops), 2 + j % 2, 2 + (j // 2) % 2))
    for j in range(EXACT_STINESPRING_MEDIAN):
        ops.append(_stinespring_op(rng, work, len(ops), 4, 2 + j % 2))
    return ops


WORKLOADS = {
    "unique-battery": unique_battery,
    "violation-search": violation_search,
    "exact-calculus": exact_calculus,
}


def warmup_ops(workload: str, work: Path) -> list:
    """Small ops touching the same code paths, run once per set-up."""
    if workload == "exact-calculus":
        rng = make_rng(0)
        return [_toeplitz_op(rng, work, 900, 0), _bernstein_op(work, 901, 10),
                _stinespring_op(rng, work, 902, 2, 2)]
    T = np.array([[1.0, 2.0], [0.0, 1.0j]])
    return [_solve_op("warm-up", (T, T.conj().T @ T, T @ T.conj().T), 0, 2, "unique")]
