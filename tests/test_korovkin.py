"""Tests for the Korovkin-type convergence simulator."""

from __future__ import annotations

import tracemalloc
from math import lgamma

import numpy as np
import pytest

from hyperlab import cpmaps, korovkin
from hyperlab.errors import InvalidInput
from hyperlab.suite import hand_certificate


def xs() -> np.ndarray:
    return korovkin.grid()


def test_bernstein_closed_form_on_square():
    """B_n(x^2) = x^2 + x(1-x)/n, so the deviation is sup x(1-x)/n = 1/(4n)."""
    x = xs()
    for n in (1, 7, 100):
        img = korovkin.bernstein_apply(n, x * x)
        assert np.allclose(img, x * x + x * (1.0 - x) / n, atol=1e-10)


def test_bernstein_large_n():
    """A float C(n, k) overflows from n = 1030 on; the log-space basis keeps
    B_n(x^2) within grid-interpolation error of the closed form."""
    x = xs()
    for n in (1030, 4000):
        img = korovkin.bernstein_apply(n, x * x)
        assert np.max(np.abs(img - (x * x + x * (1.0 - x) / n))) <= 2.5e-7


def test_bernstein_fixes_affine():
    x = xs()
    for n in (1, 3, 10):
        assert np.allclose(korovkin.bernstein_apply(n, np.ones_like(x)), 1.0, atol=1e-12)
        assert np.allclose(korovkin.bernstein_apply(n, 2.0 * x - 0.5), 2.0 * x - 0.5,
                           atol=1e-12)


def test_bernstein_deviation_values():
    x = xs()
    dev1 = float(np.max(np.abs(korovkin.bernstein_apply(1, x * x) - x * x)))
    assert dev1 == pytest.approx(0.25, abs=1e-10)
    dev100 = float(np.max(np.abs(korovkin.bernstein_apply(100, x * x) - x * x)))
    assert dev100 == pytest.approx(1.0 / 400.0, abs=1e-6)


def _log_space_bernstein(n: int, f) -> np.ndarray:
    """B_n f with the basis rebuilt from the log-space expression each call."""
    x = xs()
    fn = np.interp(np.arange(n + 1) / n, x, f)
    k = np.arange(n + 1)[:, None]
    log_c = np.array([[lgamma(n + 1) - lgamma(j + 1) - lgamma(n - j + 1)] for j in range(n + 1)])
    out = np.empty(korovkin.GRID_POINTS)
    out[0], out[-1] = fn[0], fn[-1]
    out[1:-1] = fn @ np.exp(log_c + k * np.log(x[1:-1]) + (n - k) * np.log1p(-x[1:-1]))
    return out


def test_bernstein_held_basis_is_bit_identical():
    """Switching n back and forth rebuilds the held basis; every result
    equals the unheld log-space expression bit for bit, also at n = 1030,
    where a float C(n, k) overflows."""
    x = xs()
    for n in (5, 7, 5, 400, 7, 1030):
        for f in (np.ones_like(x), x, x * x, np.abs(x - 0.5)):
            assert np.array_equal(korovkin.bernstein_apply(n, f), _log_space_bernstein(n, f))


def test_bernstein_results_do_not_share_the_basis():
    x = xs()
    first = korovkin.bernstein_apply(9, x * x)
    expected = first.copy()
    first[:] = -1.0
    assert np.array_equal(korovkin.bernstein_apply(9, x * x), expected)
    with pytest.raises(ValueError):  # the held basis is read-only
        korovkin._bernstein_basis(9)[0, 0] = 0.0


def test_bernstein_table_holds_one_basis():
    """A 397..400 table over {1, x, x^2} peaks at one build: one basis plus
    a few grid-sized rows.  The old basis is gone before the new one is
    built, and no basis-sized temporary is made; either would add about
    another basis (3.2 MB at n = 400)."""
    x = xs()
    G = [np.ones_like(x), x, x * x]
    fam = korovkin.MapFamily(kind="bernstein", n_min=397, n_max=400)
    korovkin.bernstein_apply(396, x)  # the table starts with a basis held
    row_bytes = (korovkin.GRID_POINTS - 2) * 8
    tracemalloc.start()
    try:
        korovkin.run(fam, G=G, probes=[])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (400 + 1) * row_bytes + 16 * row_bytes


def test_bernstein_family_report():
    x = xs()
    fam = korovkin.MapFamily(kind="bernstein", n_min=1, n_max=60)
    rep = korovkin.run(fam, G=[np.ones_like(x), x, x * x], probes=[x ** 3], tol=0.01)
    # Deviations on the test set shrink like 1/n and pass below the loose tol.
    assert rep.g_verdicts[0] == "converges" and rep.g_verdicts[1] == "converges"
    assert rep.g_verdicts[2] == "converges"
    assert rep.probe_verdicts[0] == "converges"
    col = rep.g_deviations[:, 2]
    assert np.all(np.diff(col) <= 1e-12)  # monotone decreasing in n


def test_korovkin_failure_outside_test_set():
    """|x - 1/2| converges far more slowly than the polynomial test set, so
    at a tight tolerance the probe stalls while G converges."""
    x = xs()
    fam = korovkin.MapFamily(kind="bernstein", n_min=50, n_max=60)
    rep = korovkin.run(fam, G=[np.ones_like(x), x], probes=[np.abs(x - 0.5)], tol=1e-3)
    assert rep.g_verdicts == ["converges", "converges"]
    assert rep.probe_verdicts[0] == "stalls"


def test_unitary_conjugation_family():
    fam = korovkin.MapFamily(kind="unitary_conjugation", n_min=1, n_max=40,
                             params={"d": 2})
    A = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    rep = korovkin.run(fam, G=[A], probes=[A @ A], tol=0.25)
    assert rep.g_verdicts[0] == "converges"
    # rotations by angle arctan(1/n) -> identity, so everything converges
    assert rep.probe_verdicts[0] == "converges"


def test_pinching_family_is_constant_in_n():
    # numpy integers are indices too (JSON configs give plain ints)
    fam = korovkin.MapFamily(kind="pinching", n_min=1, n_max=5,
                             params={"d": np.int64(3), "blocks": [[0], list(np.arange(1, 3))]})
    D = np.diag([1.0, 2.0, 3.0]).astype(complex)
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = 1.0
    off[1, 0] = 1.0
    rep = korovkin.run(fam, G=[D], probes=[off], tol=1e-8)
    assert rep.g_verdicts[0] == "converges"  # block-diagonal fixed exactly
    assert rep.probe_verdicts[0] == "stalls"  # off-block part killed, dev 1


def test_certificate_family_stalls_at_violation():
    X = np.diag([0.0, 1.0, 2.0]).astype(complex)
    choi = cpmaps.choi_from_kraus(hand_certificate())
    fam = korovkin.family_from_certificate(choi, n_min=1, n_max=8)
    rep = korovkin.run(fam, G=[X], probes=[X @ X], tol=1e-6)
    assert np.max(rep.g_deviations) <= 1e-12
    assert rep.g_verdicts[0] == "converges"
    assert rep.probe_verdicts[0] == "stalls"
    assert np.allclose(rep.probe_deviations[:, 0], 1.0, atol=1e-9)


def test_csv_export_shape():
    x = xs()
    fam = korovkin.MapFamily(kind="bernstein", n_min=1, n_max=4)
    rep = korovkin.run(fam, G=[x], probes=[x * x, x ** 3])
    rows = korovkin.csv_export(rep)
    assert len(rows) == 1 + 4 + 1  # header + one per n + verdict footer
    assert rows[0] == "n,g:g0,probe:p0,probe:p1"
    assert rows[-1].startswith("verdict,")
    # no probes at all is fine
    rep2 = korovkin.run(fam, G=[x], probes=[])
    assert len(korovkin.csv_export(rep2)) == 6


def test_invalid_inputs():
    x = xs()
    with pytest.raises(InvalidInput):
        korovkin.MapFamily(kind="mystery")
    with pytest.raises(InvalidInput):
        korovkin.MapFamily(kind="bernstein", n_min=0)
    with pytest.raises(InvalidInput):
        korovkin.MapFamily(kind="pinching", params={"d": 3})
    # True == 1 and 1.5 is no index: both are refused, not read as B_1 or
    # left to fail in range().
    for bad in (True, 1.5):
        with pytest.raises(InvalidInput):
            korovkin.MapFamily(kind="bernstein", n_min=bad)
        with pytest.raises(InvalidInput):
            korovkin.MapFamily(kind="bernstein", n_min=1, n_max=bad)
    for bad in (True, 2.5):
        with pytest.raises(InvalidInput):
            korovkin.bernstein_apply(bad, x)
    fam = korovkin.MapFamily(kind="bernstein")
    with pytest.raises(InvalidInput):
        korovkin.run(fam, G=[], probes=[x])
    with pytest.raises(InvalidInput):
        korovkin.run(fam, G=[np.eye(2)], probes=[])  # matrix fed to grid family


@pytest.mark.parametrize("labels, name", [
    ({"g_labels": ["a", "b"]}, "g_labels"),
    ({"probe_labels": ["p", "q"]}, "probe_labels"),
])
def test_labels_must_match_their_elements(labels, name):
    """A label list of the wrong length would give a CSV header wider or
    narrower than its rows."""
    x = xs()
    fam = korovkin.MapFamily(kind="bernstein", n_min=1, n_max=3)
    with pytest.raises(InvalidInput, match=name):
        korovkin.run(fam, G=[x], probes=[x * x], **labels)
    rep = korovkin.run(fam, G=[x], probes=[x * x], g_labels=["a"], probe_labels=["q"])
    assert korovkin.csv_export(rep)[0] == "n,g:a,probe:q"
