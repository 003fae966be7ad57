"""End-to-end tests of the hyperlab command line."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hyperlab import cli
from hyperlab.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def diag3(*vals):
    return [[[float(v) if i == j else 0.0, 0.0] for j, v in enumerate(vals)]
            for i, _ in enumerate(vals)]


def test_uep_search_x_only(tmp_path, capsys):
    cfg = write(tmp_path, "x_only.json", {"d": 3, "generators": [diag3(0, 1, 2)]})
    out = str(tmp_path / "report.json")
    code = main(["uep-search", "--config", cfg, "--seed", "7", "--out", out])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ViolationFound"
    assert report["certificate"] is not None
    assert "config_digest" in report
    assert "status=ViolationFound basis=spectrum" in capsys.readouterr().out


def test_uep_search_nonconverged_exits_3(tmp_path, capsys):
    """At --tol 0.2 the X config's deviation under its pinch-and-mix map,
    3/sqrt(6) (about 1.225), lies in (tol, 10 tol): too small to certify,
    so NonConverged and exit 3."""
    cfg = write(tmp_path, "x_only.json", {"d": 3, "generators": [diag3(0, 1, 2)]})
    out = tmp_path / "report.json"
    code = main(["uep-search", "--config", cfg, "--seed", "7", "--tol", "0.2", "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGED == 3
    report = json.loads(out.read_text())
    assert report["status"] == "NonConverged" and report["certificate"] is None
    assert 0.2 < report["max_deviation"] < 2.0
    assert "status=NonConverged basis=spectrum" in capsys.readouterr().out


def test_uep_search_unique(tmp_path, capsys):
    cfg = write(tmp_path, "xx2.json",
                {"d": 3, "generators": [diag3(0, 1, 2), diag3(0, 1, 4)]})
    code = main(["uep-search", "--config", cfg, "--seed", "7"])
    assert code == 0
    assert "status=Unique-evidence basis=theorem" in capsys.readouterr().out


def test_uep_search_reruns_byte_identical(tmp_path):
    cfg = write(tmp_path, "xx2.json",
                {"d": 3, "generators": [diag3(0, 1, 2), diag3(0, 1, 4)]})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["uep-search", "--config", cfg, "--seed", "3", "--out", out1]) == 0
    assert main(["uep-search", "--config", cfg, "--seed", "3", "--out", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_toeplitz_script(tmp_path, capsys):
    script = [
        {"let": "S", "expr": "shift()"},
        {"eval": "mul(adj(S), S)"},
        {"eval": "sub(identity(), mul(S, adj(S)))"},
        {"eval": "mul(scale(['3/5', '4/5'], S), S)"},
    ]
    p = write(tmp_path, "script.json", script)
    out = str(tmp_path / "toeplitz.json")
    assert main(["toeplitz", "--script", p, "--out", out]) == 0
    res = json.loads((tmp_path / "toeplitz.json").read_text())["results"]
    assert res[0]["result"]["symbol"] == {"0": ["1", "0"]}  # S*S = I
    assert res[0]["result"]["tail"] == {}
    assert res[1]["result"]["symbol"] == {}  # I - SS* = E_00
    assert res[1]["result"]["tail"] == {"0,0": ["1", "0"]}
    assert res[2]["result"]["symbol"] == {"2": ["3/5", "4/5"]}


def test_toeplitz_symbol_and_tail_in_one_binding(tmp_path):
    """A binding with both maps is T(symbol) + tail, the shape to_json writes."""
    value = {"symbol": {"1": ["1", "0"]}, "tail": {"0,0": ["1", "0"]}}
    p = write(tmp_path, "script.json", [{"let": "A", **value}, {"eval": "A"},
                                        {"let": "B", "expr": "add(shift(), sub(identity(), "
                                                             "mul(shift(), adj(shift()))))"},
                                        {"eval": "B"}])
    out = str(tmp_path / "toeplitz.json")
    assert main(["toeplitz", "--script", p, "--out", out]) == 0
    res = json.loads((tmp_path / "toeplitz.json").read_text())["results"]
    assert res[0]["result"] == value == res[1]["result"]


# Powers of a banded element with a tail, and both shift identities.
_GOLDEN_SCRIPT = [
    {"let": "P", "symbol": {"-1": ["1/2", "0"], "0": ["1", "-1/3"], "1": ["0", "2"]}},
    {"let": "T", "tail": {"0,1": ["3/4", "0"], "2,0": ["-1", "1/5"]}},
    {"let": "A", "expr": "add(P, T)"},
    {"let": "S", "expr": "shift()"},
    {"eval": "mul(A, A)"},
    {"eval": "mul(mul(A, A), A)"},
    {"eval": "mul(adj(S), S)"},
    {"eval": "mul(S, adj(S))"},
]
_GOLDEN_RESULTS = [
    {"expr": "mul(A, A)", "result": {
        "symbol": {"-1": ["1", "-1/3"], "-2": ["1/4", "0"], "0": ["8/9", "4/3"],
                   "1": ["4/3", "4"], "2": ["-4", "0"]},
        "tail": {"0,0": ["0", "1/2"], "0,1": ["3/2", "-1/2"], "0,2": ["3/8", "0"],
                 "1,0": ["-1/2", "1/10"], "1,1": ["0", "3/2"], "2,0": ["-28/15", "16/15"],
                 "2,1": ["-5/4", "1/4"], "3,0": ["-2/5", "-2"]}}},
    {"expr": "mul(mul(A, A), A)", "result": {
        "symbol": {"-1": ["4/3", "1/2"], "-2": ["3/4", "-1/4"], "-3": ["1/8", "0"],
                   "0": ["8/3", "136/27"], "1": ["-2", "16/3"], "2": ["-12", "4"],
                   "3": ["0", "-8"]},
        "tail": {"0,0": ["-1/8", "13/8"], "0,1": ["2", "11/8"], "0,2": ["9/8", "-3/8"],
                 "0,3": ["3/16", "0"], "1,0": ["-12/5", "4/5"], "1,1": ["7/8", "37/8"],
                 "1,2": ["0", "3/4"], "2,0": ["-19/6", "-59/30"], "2,1": ["-13/2", "2"],
                 "2,2": ["-5/8", "1/8"], "3,0": ["-16/5", "-28/5"], "3,1": ["-1/2", "-5/2"],
                 "4,0": ["4", "-4/5"]}}},
    {"expr": "mul(adj(S), S)", "result": {"symbol": {"0": ["1", "0"]}, "tail": {}}},
    {"expr": "mul(S, adj(S))", "result": {"symbol": {"0": ["1", "0"]}, "tail": {"0,0": ["-1", "0"]}}},
]


def test_toeplitz_golden_results(tmp_path):
    p = write(tmp_path, "script.json", _GOLDEN_SCRIPT)
    out = str(tmp_path / "toeplitz.json")
    assert main(["toeplitz", "--script", p, "--out", out]) == 0
    assert json.loads((tmp_path / "toeplitz.json").read_text())["results"] == _GOLDEN_RESULTS


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_toeplitz_golden_file(tmp_path):
    """Powers up to 7 of a band -2..2 symbol plus tail, of its adjoint and of
    S.  Exact arithmetic has one canonical answer, so the report file is
    pinned byte for byte: values, key order and layout."""
    out = tmp_path / "toeplitz.json"
    assert main(["toeplitz", "--script", str(GOLDEN / "toeplitz_powers.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "toeplitz_powers.out.json").read_bytes()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """main reuses one parser per process; a flag, a bad flag or --help in
    one call must not show in the next."""
    assert cli._build_parser() is cli._build_parser()
    cfg = write(tmp_path, "x.json", {"d": 3, "generators": [diag3(0, 1, 2)], "tol": 1e-6})
    reports = []
    for i, argv in enumerate((["--tol", "1e-3"], [])):
        out = tmp_path / f"report{i}.json"
        assert main(["uep-search", "--config", cfg, "--seed", "7", "--out", str(out)] + argv) == 0
        reports.append(json.loads(out.read_text()))
    assert [r["tol"] for r in reports] == [1e-3, 1e-6]
    assert main(["toeplitz", "--script", "s.json", "--no-such-flag"]) == 2
    assert main(["toeplitz", "--help"]) == 0
    assert "--script" in capsys.readouterr().out
    out = tmp_path / "toeplitz.json"
    assert main(["toeplitz", "--script", str(GOLDEN / "toeplitz_powers.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "toeplitz_powers.out.json").read_bytes()


def test_toeplitz_rejects_unknown_function(tmp_path, capsys):
    p = write(tmp_path, "bad.json", [{"eval": "__import__('os')"}])
    assert main(["toeplitz", "--script", p]) == 2


def test_stinespring_command(tmp_path, capsys):
    identity_choi = [[[1.0 if (i, j) in ((0, 0), (0, 3), (3, 0), (3, 3)) else 0.0, 0.0]
                      for j in range(4)] for i in range(4)]
    cfg = write(tmp_path, "st.json", {"choi": {"d": 2, "matrix": identity_choi}})
    out = str(tmp_path / "st_out.json")
    assert main(["stinespring", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "st_out.json").read_text())
    assert rep["r"] == 1 and rep["minimal"]
    assert rep["isometry_defect"] <= 1e-10


def test_korovkin_command(tmp_path, capsys):
    # n = 1030 is past the float range of the binomials C(n, k).
    for n_min, n_max in ((1, 5), (1030, 1030)):
        cfg = write(tmp_path, "kor.json", {
            "kind": "bernstein", "n_min": n_min, "n_max": n_max,
            "G": [{"poly": [0.0, 1.0]}], "probes": [{"poly": [0.0, 0.0, 1.0]}],
        })
        out = str(tmp_path / "kor.csv")
        assert main(["korovkin", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "kor.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,")
        assert lines[-1].startswith("config_digest,")


def test_missing_config_exits_2(capsys):
    assert main(["uep-search", "--config", "/nonexistent/cfg.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra, argv, message", [
    ({"probes": []}, [], "probe list is empty"),
    ({}, ["--max-iter", "0"], "max_iter"),
    ({}, ["--tol", "nan"], "tol"),
    ({"probes": [[[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]]},
     [], "no probe lies in C*(G)"),
])
def test_uep_search_bad_input_exits_2(tmp_path, capsys, extra, argv, message):
    cfg = write(tmp_path, "x.json", {"d": 3, "generators": [diag3(0, 1, 2)], **extra})
    assert main(["uep-search", "--config", cfg] + argv) == 2
    assert message in capsys.readouterr().err


def test_uep_search_probe_outside_a_theorem_set_exits_2(tmp_path, capsys):
    """{X, X^2} is decided by theorem, but a probe list with no probe in
    C*(X, X^2) is still rejected first."""
    swap = [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
    cfg = write(tmp_path, "xx2.json", {"d": 3, "generators": [diag3(0, 1, 2), diag3(0, 1, 4)],
                                       "probes": [swap]})
    assert main(["uep-search", "--config", cfg]) == 2
    assert "no probe lies in C*(G)" in capsys.readouterr().err


def test_stinespring_missing_choi_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "st.json", {"choi": {"matrix": [[[1.0, 0.0]]]}})
    assert main(["stinespring", "--config", cfg]) == 2
    assert "error: config is missing the key 'd'" in capsys.readouterr().err


def test_korovkin_missing_choi_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "kor.json", {"kind": "constant_certificate", "params": {"choi": {"d": 2}}})
    assert main(["korovkin", "--config", cfg]) == 2
    assert "error: config is missing the key 'matrix'" in capsys.readouterr().err


_SHIFT = {"let": "S", "expr": "shift()"}


@pytest.mark.parametrize("command, cfg, message", [
    ("korovkin", {"kind": "pinching", "params": {"d": 3, "blocks": [[0], [5]]},
                  "G": [diag3(0, 1, 2)]}, "'blocks'"),
    ("korovkin", {"kind": "pinching", "params": {"d": "3", "blocks": [[0], [1], [2]]},
                  "G": [diag3(0, 1, 2)]}, "'d'"),
    ("korovkin", {"kind": "unitary_conjugation", "params": {"d": True},
                  "G": [[[1]]]}, "'d'"),
    ("korovkin", {"kind": "unitary_conjugation", "params": {"d": 2},
                  "G": [diag3(0, 1, 2)]}, "shape (2, 2)"),
    ("toeplitz", [_SHIFT, {"eval": "mul(S)"}], "mul()"),
    ("toeplitz", [_SHIFT, {"eval": "shift(S)"}], "shift()"),
    ("toeplitz", [_SHIFT, {"eval": "mul(1, S)"}], "mul()"),
    ("toeplitz", [{"eval": "adj(2)"}], "adj()"),
    ("toeplitz", [{"eval": "1"}], "not a Toeplitz element"),
    ("uep-search", {"d": [3], "generators": [diag3(0, 1, 2)]}, "'d'"),
    ("korovkin", {"kind": "pinching", "n_min": [1], "params": {"d": 3, "blocks": [[0], [1], [2]]},
                  "G": [diag3(0, 1, 2)]}, "'n_min'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": [[1]]}]}, "'poly'"),
    ("uep-search", {"d": 3, "generators": 5}, "'generators'"),
    ("uep-search", {"d": 3, "generators": [diag3(0, 1, 2)], "probes": 5}, "'probes'"),
    ("stinespring", {"choi": 5}, "'choi'"),
    ("korovkin", {"kind": "bernstein", "params": 5, "G": [{"poly": [0, 1]}]}, "'params'"),
    ("korovkin", {"kind": "bernstein", "G": 5}, "'G'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": 5}]}, "'poly'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": [0, 1]}], "g_labels": 5}, "'g_labels'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": [0, 1]}], "tol": "x"}, "'tol'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": [0, 1]}], "g_labels": ["a", "b"]},
     "g_labels has 2 labels for 1 elements"),
    ("toeplitz", [{"let": "A", "symbol": 5}], "'symbol'"),
    ("toeplitz", [{"let": "A", "tail": 5}], "'tail'"),
    ("toeplitz", [{"let": "A", "expr": 5}], "'expr'"),
    ("toeplitz", [{"eval": "mul("}], "never closed"),
    ("toeplitz", [{"let": "A", "tail": {"0": 1}}], "'tail' keys must be \"i,j\" with integers"),
    ("toeplitz", [{"let": "A", "tail": {"1,2,3": 1}}], "'tail' keys must be \"i,j\""),
    ("toeplitz", [{"let": "A", "tail": {"a,b": 1}}], "'tail' keys must be \"i,j\""),
    ("toeplitz", [{"let": "A", "symbol": {"x": 1}}], "'symbol' keys must be an integer degree"),
    ("uep-search", {"d": 3.7, "generators": [diag3(0, 1, 2)]}, "'d'"),
    ("uep-search", {"d": True, "generators": [diag3(0, 1, 2)]}, "'d'"),
    ("korovkin", {"kind": "bernstein", "n_max": 4.9, "G": [{"poly": [0, 1]}]}, "'n_max'"),
    ("uep-search", {"d": "3", "generators": [diag3(0, 1, 2)]}, "'d'"),
    ("uep-search", {"d": 3, "generators": [diag3(0, 1, 2)], "tol": "1e-7"}, "'tol'"),
    ("korovkin", {"kind": "bernstein", "n_min": "2", "G": [{"poly": [0, 1]}]}, "'n_min'"),
    ("korovkin", {"kind": "bernstein", "n_max": "4", "G": [{"poly": [0, 1]}]}, "'n_max'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": ["1"]}]}, "'poly'"),
    ("korovkin", {"kind": "bernstein", "G": [{"abs": "0.5"}]}, "'abs'"),
    ("korovkin", {"kind": "bernstein", "G": [{"poly": [0, 1]}], "tol": True}, "'tol'"),
    ("toeplitz", [{"let": "A", "symbol": {"0": True, "1": [False, "1/2"]}}], "got bool"),
    ("toeplitz", [{"let": "A", "symbol": {"1": 1}, "expr": "shift()"}], "'expr'"),
    ("toeplitz", [{"let": "A", "tail": {"0,0": 1}, "expr": "shift()"}], "'expr'"),
    ("toeplitz", [{"let": "A", "symbol": {"1": 1, "01": 2}}], "'symbol' has two keys"),
    ("toeplitz", [{"let": "A", "tail": {"0,0": 1, "00,0": 2}}], "'tail' has two keys"),
    ("uep-search", {"d": 3, "generators": [diag3(0, 1, 2)], "tol": 10 ** 400}, "'tol'"),
    ("korovkin", {"kind": "bernstein", "G": [{"abs": -10 ** 400}]}, "'abs'"),
    ("toeplitz", [{"let": "A", "symbol": {"1_0": 1}}], "'symbol' keys must be an integer degree"),
    ("toeplitz", [{"let": "A", "symbol": {" 2 ": 1}}], "'symbol' keys must be an integer degree"),
    ("toeplitz", [{"let": "A", "tail": {"0,+1": 1}}], "'tail' keys must be \"i,j\""),
    ("toeplitz", [{"eval": "adj(Q)"}], "unknown name 'Q'"),
    ("toeplitz", [{"eval": "-shift()"}], "unsupported syntax"),
    ("toeplitz", [{"let": "A"}], "needs one of: symbol, tail, expr"),
    ("toeplitz", {"eval": "shift()"}, "must be a JSON list"),
    ("toeplitz", [5], "entries must be objects"),
    ("toeplitz", [{"print": "shift()"}], "needs 'let' or 'eval'"),
    ("stinespring", {"d": 2}, "stinespring config needs"),
    ("korovkin", {"kind": "bernstein", "G": [{"exp": 1}]}, "grid elements are"),
    ("korovkin", {"G": [{"poly": [0, 1]}]}, "needs a family 'kind'"),
])
def test_bad_config_exits_2(tmp_path, capsys, command, cfg, message):
    p = write(tmp_path, "bad.json", cfg)
    assert main([command, "--script" if command == "toeplitz" else "--config", p]) == 2
    assert message in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    p = write(tmp_path, "bad.json", {"generators": []})
    assert main(["uep-search", "--config", p]) == 2


@pytest.mark.parametrize("argv, message", [
    (["suite", "--trials", "0"], "trials must be >= 1"),
    (["suite", "--trials", "-3"], "trials must be >= 1"),
    (["suite", "--seed", "-1", "--trials", "1"], "seed must be in"),
    (["suite", "--seed", str(2 ** 64 - 1), "--trials", "1"], "seed must be in"),
])
def test_suite_bad_input_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "criterion" not in captured.out  # rejected before any criterion runs


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_uep_search_out_of_range_seed_exits_2(tmp_path, capsys, seed):
    cfg = write(tmp_path, "x.json", {"d": 3, "generators": [diag3(0, 1, 2)]})
    assert main(["uep-search", "--config", cfg, "--seed", seed]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_uep_search_out_of_range_seed_exits_2_on_a_theorem_set(tmp_path, capsys, seed):
    """{X, X^2} is decided by theorem, which draws no random number, yet an
    out-of-range seed is still rejected first."""
    cfg = write(tmp_path, "xx2.json", {"d": 3, "generators": [diag3(0, 1, 2), diag3(0, 1, 4)]})
    out = tmp_path / "report.json"
    assert main(["uep-search", "--config", cfg, "--seed", seed, "--out", str(out)]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_suite_small(tmp_path, capsys):
    out = str(tmp_path / "suite.json")
    code = main(["suite", "--seed", "7", "--trials", "1", "--out", out])
    assert code == 0
    rep = json.loads((tmp_path / "suite.json").read_text())
    assert rep["all_pass"]
    assert len(rep["criteria"]) == 9
    text = capsys.readouterr().out
    assert "criterion 1" in text and "all criteria pass" in text
