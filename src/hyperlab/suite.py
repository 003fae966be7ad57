"""The acceptance battery: nine numbered criteria, one pass/fail each.

Each criterion function returns a CriterionResult with the measured
quantities it judged; run_suite collects them into a deterministic,
JSON-ready report (no timestamps, seed-keyed randomness only).  The
``trials`` knob scales the randomized batteries down for quick runs; the
stated acceptance thresholds always use the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cpmaps, korovkin, linalg, opsys, toeplitz, uep
from .errors import InvalidInput
from .rng import (make_rng, random_complex, random_normal_matrix, random_ucp_kraus,
                  random_unit_vector, random_unitary)

DIMS = (2, 3, 4, 5)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "details": self.details}


def _x_probe() -> np.ndarray:
    return np.diag([0.0, 1.0, 2.0]).astype(complex)


def hand_certificate() -> cpmaps.KrausSet:
    """The explicit stochastic-pinch map violating the UEP for G = {X}.

    Pinch to the diagonal, then mix diagonal entries by the stochastic
    matrix with rows (1,0,0), (1/2,0,1/2), (0,0,1): X = diag(0,1,2) is
    fixed, X^2 = diag(0,1,4) goes to diag(0,2,4), deviation exactly 1.
    """
    P = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    ops = []
    for i in range(3):
        for j in range(3):
            if P[i, j] > 0:
                E = np.zeros((3, 3), dtype=complex)
                E[i, j] = np.sqrt(P[i, j])
                ops.append(E)
    return cpmaps.KrausSet(d_in=3, d_out=3, operators=tuple(ops))


# ----------------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------------

def criterion_1(seed: int, trials: int) -> CriterionResult:
    """Exact shift identities: S*S = I, SS* = I - E_00, S essentially unitary."""
    S = toeplitz.shift()
    left = toeplitz.mul(toeplitz.adj(S), S) == toeplitz.identity()
    expected = toeplitz.sub(toeplitz.identity(), toeplitz.from_tail({(0, 0): 1}))
    right = toeplitz.mul(S, toeplitz.adj(S)) == expected
    ess = toeplitz.is_essentially_unitary(S)
    return CriterionResult(1, "exact Toeplitz identities", left and right and ess,
                           {"adjS_S_is_identity": left,
                            "S_adjS_is_identity_minus_E00": right,
                            "essentially_unitary": ess})


def criterion_2(seed: int, trials: int) -> CriterionResult:
    """Compression by S agrees on S, S*, I but moves SS* by exactly E_00."""
    S = toeplitz.shift()
    SS = toeplitz.mul(S, toeplitz.adj(S))
    results = toeplitz.compression_counterexample(S, [S, toeplitz.adj(S), SS, toeplitz.identity()])
    agree_ok = results[0].agrees and results[1].agrees and results[3].agrees
    moved = results[2]
    dev_is_E00 = (moved.difference == toeplitz.from_tail({(0, 0): 1})
                  and moved.difference_norm is not None
                  and abs(moved.difference_norm - 1.0) < 1e-15)
    return CriterionResult(2, "compression counterexample on SS*", agree_ok and dev_is_E00,
                           {"agrees_on_S_Sstar_I": agree_ok,
                            "SSstar_difference_norm": moved.difference_norm})


def criterion_3(seed: int, trials: int) -> CriterionResult:
    """G = {T, T*T, TT*}: always Unique-evidence, tiny Schwarz/word defects."""
    rng = make_rng(seed)
    worst_dev = 0.0
    worst_schwarz = 0.0
    worst_word = 0.0
    statuses_ok = True
    for d in DIMS:
        for _ in range(trials):
            T = random_complex(rng, d, d)
            G = opsys.GeneratorSet(d=d, generators=(T, T.conj().T @ T, T @ T.conj().T))
            P = uep.UepProblem(d=d, G=G, seed=seed, n_witnesses=2)
            rep = uep.solve(P)
            statuses_ok = statuses_ok and rep.status == "Unique-evidence"
            worst_dev = max(worst_dev, max(p.deviation for p in rep.deviations))
            pin = uep.schwarz_pinning_check(P, rep.choi)
            for dd in pin["generator_defects"]:
                worst_schwarz = max(worst_schwarz, dd["left_norm"], dd["right_norm"])
            worst_word = max(worst_word, pin["max_word_deviation"])
    passed = statuses_ok and worst_dev <= 1e-6 and worst_schwarz <= 1e-8 and worst_word <= 1e-6
    return CriterionResult(3, "Unique-evidence for {T, T*T, TT*}", passed,
                           {"all_unique": statuses_ok, "worst_deviation": worst_dev,
                            "worst_schwarz_defect": worst_schwarz,
                            "worst_word_deviation": worst_word,
                            "trials_per_dim": trials, "dims": list(DIMS)})


def criterion_4(seed: int, trials: int) -> CriterionResult:
    """Normal T with {T, TT*} and unitary U with {U}: Unique-evidence."""
    rng = make_rng(seed + 1)
    worst_dev = 0.0
    statuses_ok = True
    for d in DIMS:
        for _ in range(trials):
            T = random_normal_matrix(rng, d)
            U = random_unitary(rng, d)
            for gens in ((T, T @ T.conj().T), (U,)):
                P = uep.UepProblem(d=d, G=opsys.GeneratorSet(d=d, generators=gens),
                                   seed=seed, n_witnesses=2)
                rep = uep.solve(P)
                statuses_ok = statuses_ok and rep.status == "Unique-evidence"
                worst_dev = max(worst_dev, max(p.deviation for p in rep.deviations))
    passed = statuses_ok and worst_dev <= 1e-6
    return CriterionResult(4, "Unique-evidence for normal {T, TT*} and unitary {U}", passed,
                           {"all_unique": statuses_ok, "worst_deviation": worst_dev,
                            "trials_per_dim": trials, "dims": list(DIMS)})


def criterion_5(seed: int, trials: int) -> CriterionResult:
    """G = {X}, X = diag(0,1,2): the falsifier finds a validated violation."""
    X = _x_probe()
    P = uep.UepProblem(d=3, G=opsys.GeneratorSet(d=3, generators=(X,)), seed=seed,
                       n_witnesses=4)
    rep = uep.solve(P)
    found = rep.status == "ViolationFound" and rep.certificate is not None
    dev = rep.certificate.deviation if rep.certificate else 0.0

    # Hand certificate: deviation exactly 1 in operator norm, accepted by
    # the independent validator.
    K = hand_certificate()
    hand_dev = linalg.op_norm(K.apply(X @ X) - X @ X)
    hand_cert = uep.ViolationCertificate(
        choi=cpmaps.choi_from_kraus(K), probe=X @ X, deviation=hand_dev,
        residuals={"affine": 0.0, "psd": 0.0})
    hand_ok = abs(hand_dev - 1.0) <= 1e-12 and uep.validate_certificate(hand_cert, P)

    passed = found and dev >= 0.5 and hand_ok
    return CriterionResult(5, "ViolationFound for G = {X}", passed,
                           {"status": rep.status, "solver_deviation": dev,
                            "hand_certificate_deviation": hand_dev,
                            "hand_certificate_validated": hand_ok})


def criterion_6(seed: int, trials: int) -> CriterionResult:
    """G = {X, X^2}: Unique-evidence with tiny deviations."""
    X = _x_probe()
    P = uep.UepProblem(d=3, G=opsys.GeneratorSet(d=3, generators=(X, X @ X)), seed=seed)
    rep = uep.solve(P)
    worst = max(p.deviation for p in rep.deviations)
    passed = rep.status == "Unique-evidence" and worst <= 1e-6
    return CriterionResult(6, "Unique-evidence for G = {X, X^2}", passed,
                           {"status": rep.status, "worst_deviation": worst})


def criterion_7(seed: int, trials: int) -> CriterionResult:
    """Multiplicative-premise dilations have vanishing coinvariance block."""
    rng = make_rng(seed + 2)
    n_cases = 4 * trials
    worst_premise = 0.0
    worst_block = 0.0
    for t in range(n_cases):
        if t % 2 == 0:
            # V xi = (U xi) (x) u: the compression is the unitary
            # conjugation a -> U* a U, multiplicative on everything.
            d = 2 + t % 4
            r = 2 + t % 3
            U = random_unitary(rng, d)
            u = random_unit_vector(rng, r)
            V = np.kron(U, u.reshape(-1, 1))
            D = cpmaps.StinespringDilation(d=d, r=r, V=V, minimal=False)
            S = random_complex(rng, d, d)
            phi = lambda a: V.conj().T @ np.kron(a, np.eye(r)) @ V
        else:
            # Pinching with S block-diagonal: S sits in the multiplicative
            # domain, premise holds exactly.
            d = 4
            ops = []
            for blk in ((0, 1), (2, 3)):
                Pj = np.zeros((d, d), dtype=complex)
                for i in blk:
                    Pj[i, i] = 1.0
                ops.append(Pj)
            K = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(ops))
            D = cpmaps.stinespring_from_kraus(K)
            S = np.zeros((d, d), dtype=complex)
            S[:2, :2] = random_complex(rng, 2, 2)
            S[2:, 2:] = random_complex(rng, 2, 2)
            phi = K.apply
        premise = linalg.op_norm(phi(S @ S.conj().T) - phi(S) @ phi(S).conj().T)
        res = cpmaps.coinvariance_block(D, np.kron(S, np.eye(D.r)), phi(S))
        worst_premise = max(worst_premise, premise)
        worst_block = max(worst_block, res["X_block_norm"])
    passed = worst_premise <= 1e-10 and worst_block <= 1e-8
    return CriterionResult(7, "coinvariance block vanishes under the premise", passed,
                           {"cases": n_cases, "worst_premise": worst_premise,
                            "worst_X_block_norm": worst_block})


def criterion_8(seed: int, trials: int) -> CriterionResult:
    """Random UCP maps: Schwarz defects PSD, Stinespring roundtrip exact."""
    rng = make_rng(seed + 3)
    n_cases = 20 * trials
    worst_eig = 0.0
    worst_roundtrip = 0.0
    for t in range(n_cases):
        d = 2 + t % 3
        ops = random_ucp_kraus(rng, d, 2 + t % 3)
        K = cpmaps.KrausSet(d_in=d, d_out=d, operators=tuple(ops))
        a = random_complex(rng, d, d)
        defects = cpmaps.schwarz_defects_kraus(K, a)
        for side in ("left", "right"):
            w = np.linalg.eigvalsh(defects[side])
            worst_eig = min(worst_eig, float(w[0]))
        D = cpmaps.stinespring(cpmaps.choi_from_kraus(K))
        worst_roundtrip = max(worst_roundtrip, linalg.op_norm(D.compress(a) - K.apply(a)))
    passed = worst_eig >= -1e-8 and worst_roundtrip <= 1e-8
    return CriterionResult(8, "Kadison-Schwarz and Stinespring roundtrip", passed,
                           {"cases": n_cases, "worst_defect_eigenvalue": worst_eig,
                            "worst_roundtrip": worst_roundtrip})


def criterion_9(seed: int, trials: int) -> CriterionResult:
    """Korovkin calibration: Bernstein rate at n=100; certificate stalls."""
    x = korovkin.grid()
    dev100 = float(np.max(np.abs(korovkin.bernstein_apply(100, x * x) - x * x)))
    bernstein_ok = abs(dev100 - 1.0 / 400.0) <= 1e-6

    X = _x_probe()
    K = hand_certificate()
    fam = korovkin.family_from_certificate(cpmaps.choi_from_kraus(K), n_min=1, n_max=10)
    rep = korovkin.run(fam, G=[X], probes=[X @ X], g_labels=["X"], probe_labels=["X^2"])
    g_dev = float(np.max(rep.g_deviations))
    probe_devs = rep.probe_deviations[:, 0]
    cert_ok = (rep.probe_verdicts[0] == "stalls"
               and g_dev <= 1e-12
               and bool(np.all(np.abs(probe_devs - 1.0) <= 1e-9)))
    passed = bernstein_ok and cert_ok
    return CriterionResult(9, "Korovkin calibration and certificate stall", passed,
                           {"bernstein_dev_n100": dev100, "expected": 1.0 / 400.0,
                            "certificate_G_deviation": g_dev,
                            "certificate_probe_deviation": float(probe_devs[-1]),
                            "certificate_verdict": rep.probe_verdicts[0]})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_suite(seed: int = 7, trials: int = 50, echo=None) -> dict:
    """Run criteria 1-9 and return a deterministic JSON-ready report.

    ``echo``, when given, receives one "criterion N: PASS/FAIL (name)" line
    per criterion as it completes.  Criterion 10 (byte-identical reports
    for identical seeds) is a property of this function and is exercised by
    running it twice.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2 ** 64 - 3:  # the criteria key their streams by seed .. seed + 3
        raise InvalidInput(f"seed must be in [0, 2**64 - 3), got {seed}")
    results = []
    for fn in CRITERIA:
        res = fn(seed, trials)
        results.append(res)
        if echo is not None:
            echo(f"criterion {res.index}: {'PASS' if res.passed else 'FAIL'} ({res.name})")
    return {
        "seed": seed,
        "trials": trials,
        "criteria": [r.to_json() for r in results],
        "all_pass": all(r.passed for r in results),
    }
