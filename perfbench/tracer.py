"""Per-layer spans recorded by substituting module attributes.

The program is not edited: ``Tracer.install`` replaces each listed
function with a timing wrapper wherever a ``hyperlab`` module holds a
reference to it (module globals, class attributes, and module-level dicts
such as the CLI's table of Toeplitz functions), and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, op id) are kept in
compact arrays and written out once, when the run ends.  A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path) of every traced function.
TARGETS = (
    ("uep.solve", "uep", "solve"),
    ("uep.build_constraints", "uep", "build_constraints"),
    ("uep._pinned_face", "uep", "_pinned_face"),
    ("uep._linear_max_batch", "uep", "_linear_max_batch"),
    ("uep.ConstraintSystem.proj_psd", "uep", "ConstraintSystem.proj_psd"),
    ("uep.ConstraintSystem.proj_affine", "uep", "ConstraintSystem.proj_affine"),
    ("uep._face_polish", "uep", "_face_polish"),
    ("uep._face_dykstra", "uep", "_face_dykstra"),
    ("uep.hermvec", "uep", "hermvec"),
    ("uep.unhermvec", "uep", "unhermvec"),
    ("uep.validate_certificate", "uep", "validate_certificate"),
    ("opsys.generate_algebra", "opsys", "generate_algebra"),
    ("cpmaps.apply_choi", "cpmaps", "apply_choi"),
    ("cpmaps.stinespring", "cpmaps", "stinespring"),
    ("cpmaps.validate_ucp", "cpmaps", "validate_ucp"),
    ("cpmaps.schwarz_defects_kraus", "cpmaps", "schwarz_defects_kraus"),
    ("toeplitz.mul", "toeplitz", "mul"),
    ("korovkin.bernstein_apply", "korovkin", "bernstein_apply"),
    ("korovkin.run", "korovkin", "run"),
    ("linalg.op_norm", "linalg", "op_norm"),
    ("linalg.frob_inner", "linalg", "frob_inner"),
    ("cli.main", "cli", "main"),
    ("serialize.write_json", "serialize", "write_json"),
)

COUNTERS = (
    ("uep.ascent_iters", "count", "lower"),
    ("uep.witness_tasks", "count", "lower"),
    ("uep.face_dim.mean", "count", "lower"),
    ("opsys.algebra_dim.mean", "count", "lower"),
    ("uep._face_polish.certified_per_call", "ratio", "higher"),
    ("toeplitz.mul.tail_entries", "count", "lower"),
    ("korovkin.bernstein_apply.nodes", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for label, _, _ in TARGETS:
        specs.append((f"{label}.calls", "count", "lower"))
        specs.append((f"{label}.self_s", "s", "lower"))
    return specs + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.labels = [label for label, _, _ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.current_op = -1
        self._stack = []  # [span id, child time] of open spans
        self._undo = []
        self.sums = {"ascent_iters": 0, "witness_tasks": 0, "face_dim": 0, "builds": 0,
                     "algebra_dim": 0, "algebras": 0, "certified": 0,
                     "tail_entries": 0, "nodes": 0}

    # -- recording ------------------------------------------------------------

    # Functions whose results feed the counts; _after runs only for these.
    COUNTED = frozenset({"uep.solve", "uep._linear_max_batch", "uep.build_constraints",
                         "opsys.generate_algebra", "uep._face_polish", "toeplitz.mul",
                         "korovkin.bernstein_apply"})

    def _after(self, label, args, result):
        s = self.sums
        if label == "uep.solve":
            s["ascent_iters"] += int(result.iterations)
        elif label == "uep._linear_max_batch":
            s["witness_tasks"] += int(args[1].shape[0])
        elif label == "uep.build_constraints":
            s["face_dim"] += int(result.n)
            s["builds"] += 1
        elif label == "opsys.generate_algebra":
            s["algebra_dim"] += int(result.dim)
            s["algebras"] += 1
        elif label == "uep._face_polish":
            s["certified"] += len(result)
        elif label == "toeplitz.mul":
            s["tail_entries"] += len(result.tail)
        elif label == "korovkin.bernstein_apply":
            s["nodes"] += int(args[0]) + 1

    def _wrap(self, idx: int, fn):
        label = self.labels[idx]
        stack = self._stack
        counted = label in self.COUNTED

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(self.start)
            self.name.append(idx)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(parent[0] if parent else -1)
            self.op.append(self.current_op)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.start[sid] = t0
                self.end[sid] = t1
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                if parent:
                    parent[1] += dur
            if counted:
                self._after(label, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "hyperlab") -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for idx, (_, mod, path) in enumerate(TARGETS):
            module = sys.modules[f"{package}.{mod}"]
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(idx, orig)
            self._swap(owner, attr, orig, wrapped)
            if owner is not module:
                continue
            for m in modules:
                ns = vars(m)
                for key, val in list(ns.items()):
                    if val is orig and m is not module:
                        self._swap(m, key, orig, wrapped)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                val[k2] = wrapped
                                self._undo.append((val.__setitem__, k2, orig))

    def _swap(self, owner, key, orig, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, orig))

    def uninstall(self) -> None:
        for setter, key, orig in reversed(self._undo):
            setter(key, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, passes: int, overhead_s: float) -> dict:
        """Per-layer metrics, averaged per traced pass."""
        out = {}
        for idx, label in enumerate(self.labels):
            out[f"{label}.calls"] = self.calls[idx] / passes
            out[f"{label}.self_s"] = self.self_s[idx] / passes
        s = self.sums
        polish_calls = self.calls[self.labels.index("uep._face_polish")]
        out["uep.ascent_iters"] = s["ascent_iters"] / passes
        out["uep.witness_tasks"] = s["witness_tasks"] / passes
        out["uep.face_dim.mean"] = s["face_dim"] / s["builds"] if s["builds"] else 0.0
        out["opsys.algebra_dim.mean"] = s["algebra_dim"] / s["algebras"] if s["algebras"] else 0.0
        out["uep._face_polish.certified_per_call"] = (s["certified"] / polish_calls
                                                      if polish_calls else 0.0)
        out["toeplitz.mul.tail_entries"] = s["tail_entries"] / passes
        out["korovkin.bernstein_apply.nodes"] = s["nodes"] / passes
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
