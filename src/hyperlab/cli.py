"""The ``hyperlab`` command line front end.

Subcommands: uep-search, toeplitz, stinespring, korovkin, suite.  Configs
are JSON (matrices as nested [re, im] literals, exact rationals as "p/q"
strings); every output embeds a SHA-256 digest of its config, and the
seeded commands (uep-search, suite) also embed their seed.  Identical
(config, seed) pairs produce byte-identical outputs; the other commands
draw no random numbers.  HYPERLAB_THREADS caps BLAS threads (applied when
the package is imported; see ``hyperlab/__init__.py``).

Exit codes: 0 completed, 2 invalid input, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import ast
import sys

import numpy as np

from . import cpmaps, korovkin, opsys, suite, toeplitz, uep
from .errors import HyperlabError, InvalidInput
from .serialize import config_digest, literal_to_matrix, matrix_to_literal, read_json, write_json

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3


# ----------------------------------------------------------------------------
# uep-search
# ----------------------------------------------------------------------------

def _cmd_uep_search(args) -> int:
    cfg = read_json(args.config)
    digest = config_digest(cfg)
    if not isinstance(cfg, dict) or "d" not in cfg or "generators" not in cfg:
        raise InvalidInput("uep-search config needs at least {d, generators}")
    d = int(cfg["d"])
    gens = tuple(literal_to_matrix(g) for g in cfg["generators"])
    probes = None
    if cfg.get("probes") is not None:
        probes = [literal_to_matrix(a) for a in cfg["probes"]]
    P = uep.UepProblem(
        d=d,
        G=opsys.GeneratorSet(d=d, generators=gens),
        probes=probes,
        tol=args.tol if args.tol is not None else float(cfg.get("tol", 1e-7)),
        max_iter=args.max_iter,
        seed=args.seed,
    )
    report = uep.solve(P)
    out = report.to_json()
    out["config_digest"] = digest
    if args.out:
        write_json(args.out, out)
    print(f"uep-search: status={report.status} max_deviation={report.max_deviation:.3e} "
          f"seed={args.seed} digest={digest[:12]}")
    return EXIT_NONCONVERGED if report.status == "NonConverged" else EXIT_OK


# ----------------------------------------------------------------------------
# toeplitz scripts
# ----------------------------------------------------------------------------

_TOEPLITZ_FUNCS = {
    "mul": toeplitz.mul,
    "adj": toeplitz.adj,
    "add": toeplitz.add,
    "sub": toeplitz.sub,
    "scale": toeplitz.scale,
    "identity": toeplitz.identity,
    "shift": toeplitz.shift,
    "zero": toeplitz.zero,
}

# Whether each argument is a Toeplitz element (scale's first is a coefficient);
# the other functions take no arguments.
_TOEPLITZ_ARGS = {"mul": (True, True), "adj": (True,), "add": (True, True),
                  "sub": (True, True), "scale": (False, True)}


def _eval_toeplitz(node, env):
    if isinstance(node, ast.Expression):
        return _eval_toeplitz(node.body, env)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise InvalidInput(f"unknown name {node.id!r} in toeplitz expression")
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, str)):
        return node.value
    if isinstance(node, ast.List):
        return [_eval_toeplitz(el, env) for el in node.elts]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _TOEPLITZ_FUNCS or node.keywords:
            raise InvalidInput(f"unknown function {name!r} in toeplitz expression")
        args = [_eval_toeplitz(a, env) for a in node.args]
        want = _TOEPLITZ_ARGS.get(name, ())
        if tuple(isinstance(a, toeplitz.ToeplitzElement) for a in args) != want:
            kinds = ", ".join("element" if e else "coefficient" for e in want)
            raise InvalidInput(f"toeplitz function {name}() takes ({kinds})")
        return _TOEPLITZ_FUNCS[name](*args)
    raise InvalidInput("unsupported syntax in toeplitz expression")


def _parse_toeplitz_binding(entry, env):
    if "symbol" in entry:
        return toeplitz.from_symbol({int(k): v for k, v in entry["symbol"].items()})
    if "tail" in entry:
        tail = {}
        for key, v in entry["tail"].items():
            i, j = (int(p) for p in str(key).split(","))
            tail[(i, j)] = v
        return toeplitz.from_tail(tail)
    if "expr" in entry:
        return _eval_toeplitz(ast.parse(entry["expr"], mode="eval"), env)
    raise InvalidInput("toeplitz binding needs one of: symbol, tail, expr")


def _cmd_toeplitz(args) -> int:
    script = read_json(args.script)
    digest = config_digest(script)
    if not isinstance(script, list):
        raise InvalidInput("toeplitz script must be a JSON list")
    env = {}
    results = []
    for entry in script:
        if not isinstance(entry, dict):
            raise InvalidInput("toeplitz script entries must be objects")
        if "let" in entry:
            env[str(entry["let"])] = _parse_toeplitz_binding(entry, env)
        elif "eval" in entry:
            expr = str(entry["eval"])
            value = _eval_toeplitz(ast.parse(expr, mode="eval"), env)
            if not isinstance(value, toeplitz.ToeplitzElement):
                raise InvalidInput(f"toeplitz eval {expr!r} is not a Toeplitz element")
            results.append({"expr": expr, "result": value.to_json()})
        else:
            raise InvalidInput("toeplitz script entry needs 'let' or 'eval'")
    out = {"results": results, "config_digest": digest}
    if args.out:
        write_json(args.out, out)
    print(f"toeplitz: {len(results)} expressions evaluated digest={digest[:12]}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# stinespring
# ----------------------------------------------------------------------------

def _cmd_stinespring(args) -> int:
    cfg = read_json(args.config)
    digest = config_digest(cfg)
    if not isinstance(cfg, dict) or "choi" not in cfg:
        raise InvalidInput("stinespring config needs {choi: {d, matrix}}")
    spec = cfg["choi"]
    C = cpmaps.ChoiMatrix(d=int(spec["d"]), mat=literal_to_matrix(spec["matrix"]))
    D = cpmaps.stinespring(C)
    iso_defect = float(np.linalg.norm(D.V.conj().T @ D.V - np.eye(D.d)))
    out = {
        "d": D.d,
        "r": D.r,
        "V": matrix_to_literal(D.V),
        "minimal": D.minimal,
        "isometry_defect": iso_defect,
        "config_digest": digest,
    }
    if args.out:
        write_json(args.out, out)
    print(f"stinespring: d={D.d} r={D.r} minimal={D.minimal} "
          f"isometry_defect={iso_defect:.3e} digest={digest[:12]}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# korovkin
# ----------------------------------------------------------------------------

def _korovkin_element(spec, domain):
    if domain == "grid":
        if isinstance(spec, dict) and "poly" in spec:
            x = korovkin.grid()
            out = np.zeros_like(x)
            for k, c in enumerate(spec["poly"]):
                out += float(c) * x ** k
            return out
        if isinstance(spec, dict) and "abs" in spec:
            return np.abs(korovkin.grid() - float(spec["abs"]))
        raise InvalidInput("grid elements are {'poly': [c0, c1, ...]} or {'abs': c}")
    return literal_to_matrix(spec)


def _cmd_korovkin(args) -> int:
    cfg = read_json(args.config)
    digest = config_digest(cfg)
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise InvalidInput("korovkin config needs a family 'kind'")
    params = dict(cfg.get("params", {}))
    if "choi" in params:
        spec = params["choi"]
        params["choi"] = cpmaps.ChoiMatrix(d=int(spec["d"]), mat=literal_to_matrix(spec["matrix"]))
    fam = korovkin.MapFamily(kind=str(cfg["kind"]), n_min=int(cfg.get("n_min", 1)),
                             n_max=int(cfg.get("n_max", 10)), params=params)
    G = [_korovkin_element(e, fam.domain) for e in cfg.get("G", [])]
    probes = [_korovkin_element(e, fam.domain) for e in cfg.get("probes", [])]
    rep = korovkin.run(fam, G, probes, tol=cfg.get("tol"),
                       g_labels=cfg.get("g_labels"), probe_labels=cfg.get("probe_labels"))
    rows = korovkin.csv_export(rep)
    rows.append(f"config_digest,{digest}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    print(f"korovkin: kind={fam.kind} n={fam.n_min}..{fam.n_max} "
          f"verdicts={','.join(rep.g_verdicts + rep.probe_verdicts)} digest={digest[:12]}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------------

def _cmd_suite(args) -> int:
    report = suite.run_suite(seed=args.seed, trials=args.trials, echo=print)
    report["config_digest"] = config_digest({"seed": args.seed, "trials": args.trials})
    if args.out:
        write_json(args.out, report)
    print(f"suite: {'all criteria pass' if report['all_pass'] else 'FAILURES present'} "
          f"seed={args.seed} trials={args.trials}")
    return EXIT_OK if report["all_pass"] else 1


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperlab",
                                     description="Desk-scale hyperrigidity experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("uep-search", help="run the unique-extension-property falsifier")
    p.add_argument("--config", required=True, help="problem JSON: {d, generators, probes?, tol?}; "
                   "G and its adjoints are always pinned")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_uep_search)

    p = sub.add_parser("toeplitz", help="evaluate exact Toeplitz-algebra scripts")
    p.add_argument("--script", required=True, help="JSON list of let/eval entries")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("stinespring", help="dilate a UCP map given by its Choi matrix")
    p.add_argument("--config", required=True, help="JSON: {choi: {d, matrix}}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stinespring)

    p = sub.add_parser("korovkin", help="run a Korovkin convergence experiment")
    p.add_argument("--config", required=True, help="family JSON: {kind, n_min, n_max, params, G, probes}")
    p.add_argument("--out", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_korovkin)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=50,
                   help="trials per randomized battery (default: full acceptance scale)")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInput, HyperlabError, OSError, ValueError, KeyError) as exc:
        msg = f"config is missing the key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
