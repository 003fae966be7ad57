"""The ``hyperlab`` command line front end.

Subcommands: uep-search, toeplitz, stinespring, korovkin, suite.  Configs
are JSON (matrices as nested [re, im] literals, exact rationals as "p/q"
strings); every output embeds a SHA-256 digest of its config, and the
seeded commands (uep-search, suite) also embed their seed.  Identical
(config, seed) pairs produce byte-identical outputs; the other commands
draw no random numbers.  HYPERLAB_THREADS caps BLAS threads (applied when
the package is imported; see ``hyperlab/__init__.py``).

``main`` parses with one argparse parser per process, built on its first
call (not at import) and reused: parse_args keeps no state in the parser,
so each call sees only its own flags and the defaults.

Exit codes: 0 completed, 2 invalid input, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import ast
import functools
import re
import sys

import numpy as np

from . import cpmaps, korovkin, opsys, suite, toeplitz, uep
from .errors import HyperlabError, InvalidInput
from .serialize import config_digest, literal_to_matrix, matrix_to_literal, read_json, write_json

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3


_KINDS = {int: "an integer", float: "a number", list: "a list", dict: "an object", str: "a string"}


def _field(value, kind, name: str):
    """The config field ``name`` as a ``kind``; InvalidInput naming the field
    otherwise (say, a JSON list or string where a number belongs).  A number
    field takes JSON numbers only, never a string or a boolean, and an
    integer field takes no number with a fractional part, which int() would
    truncate."""
    if kind in (int, float):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    else:
        ok = isinstance(value, kind)
    if ok:
        try:
            return kind(value)
        except OverflowError:  # a JSON integer past the float range
            raise InvalidInput(f"config field {name!r} is out of the float range") from None
    raise InvalidInput(f"config field {name!r} must be {_KINDS[kind]}, got {value!r}")


# ----------------------------------------------------------------------------
# uep-search
# ----------------------------------------------------------------------------

def _cmd_uep_search(args) -> int:
    cfg = read_json(args.config)
    digest = config_digest(cfg)
    if not isinstance(cfg, dict) or "d" not in cfg or "generators" not in cfg:
        raise InvalidInput("uep-search config needs at least {d, generators}")
    d = _field(cfg["d"], int, "d")
    gens = tuple(literal_to_matrix(g) for g in _field(cfg["generators"], list, "generators"))
    probes = None
    if cfg.get("probes") is not None:
        probes = [literal_to_matrix(a) for a in _field(cfg["probes"], list, "probes")]
    P = uep.UepProblem(
        d=d,
        G=opsys.GeneratorSet(d=d, generators=gens),
        probes=probes,
        tol=args.tol if args.tol is not None else _field(cfg.get("tol", 1e-7), float, "tol"),
        max_iter=args.max_iter,
        seed=args.seed,
    )
    report = uep.solve(P)
    out = report.to_json()
    out["config_digest"] = digest
    if args.out:
        write_json(args.out, out)
    print(f"uep-search: status={report.status} basis={report.basis} max_deviation={report.max_deviation:.3e} "
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


def _toeplitz_key(key: str, field: str, count: int, form: str) -> tuple:
    """The ``count`` comma-separated integers of a ``symbol`` key (a degree)
    or a ``tail`` key ("i,j"), each ASCII digits with an optional minus sign
    (int() would also take "1_0" and " 2 "); InvalidInput naming the field
    and the key format ``form`` otherwise."""
    parts = key.split(",")
    if len(parts) == count and all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
        return tuple(int(p) for p in parts)
    raise InvalidInput(f"config field {field!r} keys must be {form}, got {key!r}")


def _toeplitz_map(entry, field: str, count: int, form: str) -> dict:
    """A binding's ``symbol`` or ``tail`` map (empty when absent) keyed by
    ``_toeplitz_key``; InvalidInput naming the field when two keys name the
    same entry (say, "1" and "01")."""
    raw = _field(entry.get(field, {}), dict, field)
    out = {_toeplitz_key(k, field, count, form): v for k, v in raw.items()}
    if len(out) < len(raw):
        raise InvalidInput(f"config field {field!r} has two keys for the same entry")
    return out


def _parse_toeplitz_binding(entry, env):
    """T(symbol) + tail from the ``symbol`` and ``tail`` maps (the shape
    ``to_json`` writes; either may be absent), or the value of ``expr``."""
    if "symbol" in entry or "tail" in entry:
        if "expr" in entry:
            raise InvalidInput("config field 'expr' cannot be given with 'symbol' or 'tail'")
        symbol = _toeplitz_map(entry, "symbol", 1, "an integer degree")
        tail = _toeplitz_map(entry, "tail", 2, '"i,j" with integers i and j')
        return toeplitz.ToeplitzElement({k: v for (k,), v in symbol.items()}, tail)
    if "expr" in entry:
        return _eval_toeplitz(ast.parse(_field(entry["expr"], str, "expr"), mode="eval"), env)
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
    spec = _field(cfg["choi"], dict, "choi")
    C = cpmaps.ChoiMatrix(d=_field(spec["d"], int, "d"), mat=literal_to_matrix(spec["matrix"]))
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
            for k, c in enumerate(_field(spec["poly"], list, "poly")):
                out += _field(c, float, "poly") * x ** k
            return out
        if isinstance(spec, dict) and "abs" in spec:
            return np.abs(korovkin.grid() - _field(spec["abs"], float, "abs"))
        raise InvalidInput("grid elements are {'poly': [c0, c1, ...]} or {'abs': c}")
    return literal_to_matrix(spec)


def _cmd_korovkin(args) -> int:
    cfg = read_json(args.config)
    digest = config_digest(cfg)
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise InvalidInput("korovkin config needs a family 'kind'")
    params = _field(cfg.get("params", {}), dict, "params")
    if "choi" in params:
        spec = _field(params["choi"], dict, "choi")
        params["choi"] = cpmaps.ChoiMatrix(d=_field(spec["d"], int, "d"),
                                           mat=literal_to_matrix(spec["matrix"]))
    fam = korovkin.MapFamily(kind=str(cfg["kind"]),
                             n_min=_field(cfg.get("n_min", 1), int, "n_min"),
                             n_max=_field(cfg.get("n_max", 10), int, "n_max"), params=params)
    G, probes = ([_korovkin_element(e, fam.domain) for e in _field(cfg.get(k, []), list, k)]
                 for k in ("G", "probes"))
    optional = {"tol": float, "g_labels": list, "probe_labels": list}  # null means absent
    kw = {k: _field(cfg[k], kind, k) for k, kind in optional.items() if cfg.get(k) is not None}
    rep = korovkin.run(fam, G, probes, **kw)
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call."""
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInput, HyperlabError, OSError, ValueError, KeyError, SyntaxError) as exc:
        msg = f"config is missing the key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
