"""End-to-end tests of the hyperlab command line."""

from __future__ import annotations

import json

import pytest

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
    assert "status=ViolationFound" in capsys.readouterr().out


def test_uep_search_unique(tmp_path, capsys):
    cfg = write(tmp_path, "xx2.json",
                {"d": 3, "generators": [diag3(0, 1, 2), diag3(0, 1, 4)]})
    code = main(["uep-search", "--config", cfg, "--seed", "7"])
    assert code == 0
    assert "status=Unique-evidence" in capsys.readouterr().out


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
])
def test_uep_search_bad_input_exits_2(tmp_path, capsys, extra, argv, message):
    cfg = write(tmp_path, "x.json", {"d": 3, "generators": [diag3(0, 1, 2)], **extra})
    assert main(["uep-search", "--config", cfg] + argv) == 2
    assert message in capsys.readouterr().err


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


def test_suite_small(tmp_path, capsys):
    out = str(tmp_path / "suite.json")
    code = main(["suite", "--seed", "7", "--trials", "1", "--out", out])
    assert code == 0
    rep = json.loads((tmp_path / "suite.json").read_text())
    assert rep["all_pass"]
    assert len(rep["criteria"]) == 9
    text = capsys.readouterr().out
    assert "criterion 1" in text and "all criteria pass" in text
