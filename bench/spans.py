"""Per-layer spans and counts, recorded from outside torusgit.

``Tracer.install`` wraps each public function named in ``GROUPS`` in every
loaded ``torusgit`` module that holds a binding to it: ``torus``,
``walls``, ``desing`` and ``luna`` each keep their own ``from .lattice
import ...`` names, and a wrapper placed only on ``lattice`` would miss
every call made through them.  Methods are wrapped on their class.

Each call becomes a span (group, parent span, start, end) kept in memory;
a group's self time is its spans' time minus the time of their child
spans.  Nothing under ``src/`` changes, and ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

# group -> (module, attribute) pairs; "Class.method" names a method
GROUPS: dict[str, list[tuple[str, str]]] = {
    "lattice.snf": [("lattice", "smith_normal_form")],
    "lattice.kernel_basis": [("lattice", "kernel_basis")],
    "lattice.cone_point": [("lattice", "cone_nonzero_point")],
    "lattice.fm": [("lattice", "feasible_system")],
    "lattice.exact_solve": [("lattice", "det"), ("lattice", "solve_rational"),
                            ("lattice", "unimodular_inverse")],
    "lattice.hilbert": [("lattice", "hilbert_basis_bounded")],
    "torus.all_supports": [("torus", "TorusAction.all_supports")],
    "torus.action_init": [("torus", "TorusAction.__post_init__")],
    "torus.semistable": [("torus", "is_semistable")],
    "torus.stable": [("torus", "is_stable")],
    "torus.hm_min": [("torus", "normalized_hm_min")],
    "torus.combine": [("torus", "combine_linearizations")],
    "torus.stabilizer": [("torus", "stabilizer")],
    "walls.compute": [("walls", "compute_walls")],
    "walls.generic": [("walls", "find_generic_character")],
    "walls.verify": [("walls", "verify_ss_equals_s")],
    "rees.eb": [("rees", "extended_weighted_blowup")],
    "rees.saturated": [("rees", "saturated_locus")],
    "desing.tower": [("desing", "desingularize")],
    "desing.verify": [("desing", "verify_tower")],
    "luna.cubics": [("luna", "cubics_example")],
    "jsonio.parse": [("jsonio", name) for name in (
        "load_json", "parse_rational", "parse_int_list", "parse_action", "parse_support",
        "parse_vector", "parse_center", "parse_graph", "parse_divisor_config")],
    "jsonio.dump": [("jsonio", name) for name in (
        "dumps", "dump_rational", "dump_action", "dump_support", "dump_supports",
        "dump_center", "dump_presentation", "dump_graph")],
    "cli.parser": [("cli", "build_parser")],
    "cli.run": [("cli", "run")],
}


class Tracer:
    """Spans of one traced run, plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.group: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outermost: list[bool] = []  # no enclosing span of the same group
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self.snf_matrices: set = set()
        self.fm_rows = 0
        self.supports_scanned = 0
        self.hm_useful = 0
        self._hm_log: list[tuple[tuple[int, ...], Any]] = []
        self._combine_marks: list[int] = []
        self.desing_steps = 0
        self.desing_final_dim = 0
        self.out_bytes = 0

    # -- hooks: counts taken at the wrapped boundaries ------------------------

    def _before(self, group: str, args: tuple) -> None:
        if group == "lattice.snf":
            m = args[0]
            self.snf_matrices.add((m.rows, m.cols, m.entries))
        elif group == "lattice.fm":
            self.fm_rows += len(args[0])
        elif group == "torus.combine":
            self._combine_marks.append(len(self._hm_log))

    def _after(self, group: str, attr: str, args: tuple, result: Any) -> None:
        if group == "torus.all_supports":
            self.supports_scanned += len(result)
        elif group == "torus.hm_min" and result is not None:
            self._hm_log.append((tuple(int(e) for e in args[1]), result.value))
        elif group == "torus.combine":
            self._count_useful(args, result)
        elif group == "desing.tower":
            self.desing_steps += len(result.steps)
            self.desing_final_dim = max(self.desing_final_dim, result.final_action.dim)
        elif attr == "dumps":
            self.out_bytes += len(result.encode())

    def _count_useful(self, args: tuple, combo: Any) -> None:
        """hm-min calls under one combine whose value attains its d or e."""
        mark = self._combine_marks.pop()
        chi_l = tuple(int(e) for e in args[1])
        neg_m = tuple(-int(e) for e in args[2])
        for chi, value in self._hm_log[mark:]:
            if (chi == chi_l and value == combo.d) or (chi == neg_m and value.neg() == combo.e):
                self.hm_useful += 1
        del self._hm_log[mark:]

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, group: str, attr: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.group)
            depth = self._depth.get(group, 0)
            self.group.append(group)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outermost.append(depth == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._depth[group] = depth + 1
            self._before(group, args)
            self.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                self._depth[group] = depth
            self._after(group, attr, args, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "torusgit" or name.startswith("torusgit."))]
        for group, targets in GROUPS.items():
            for module, attr in targets:
                owner = sys.modules[f"torusgit.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(group, attr, cls.__dict__[meth]))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(group, attr, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per group: calls, self seconds, and seconds of outermost spans."""
        n = len(self.group)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {g: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
                                            for g in GROUPS}
        for i in range(n):
            row = out[self.group[i]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outermost[i]:
                row["incl_s"] += dur
        return out

    def metrics(self) -> dict[str, float]:
        t = self.totals()

        def ms(group: str, key: str) -> float:
            return t[group][key] * 1000.0

        return {
            "lattice.snf.calls": t["lattice.snf"]["calls"],
            "lattice.snf.distinct": len(self.snf_matrices),
            "lattice.snf.self_ms": ms("lattice.snf", "self_s"),
            "lattice.kernel_basis.calls": t["lattice.kernel_basis"]["calls"],
            "lattice.cone_point.calls": t["lattice.cone_point"]["calls"],
            "lattice.cone_point.self_ms": ms("lattice.cone_point", "self_s"),
            "lattice.fm.calls": t["lattice.fm"]["calls"],
            "lattice.fm.rows_in": self.fm_rows,
            "lattice.fm.self_ms": ms("lattice.fm", "self_s"),
            "lattice.exact_solve.calls": t["lattice.exact_solve"]["calls"],
            "lattice.exact_solve.self_ms": ms("lattice.exact_solve", "self_s"),
            "lattice.hilbert.self_ms": ms("lattice.hilbert", "self_s"),
            "torus.supports_scanned": self.supports_scanned,
            "torus.semistable.calls": t["torus.semistable"]["calls"],
            "torus.stable.calls": t["torus.stable"]["calls"],
            "torus.predicate.self_ms": ms("torus.semistable", "self_s") + ms("torus.stable", "self_s"),
            "torus.hm_min.calls": t["torus.hm_min"]["calls"],
            "torus.hm_min.useful": self.hm_useful,
            "torus.hm_min.self_ms": ms("torus.hm_min", "self_s"),
            "torus.action_init.calls": t["torus.action_init"]["calls"],
            "torus.action_init.self_ms": ms("torus.action_init", "self_s"),
            "torus.stabilizer.calls": t["torus.stabilizer"]["calls"],
            "walls.compute.ms": ms("walls.compute", "incl_s"),
            "walls.generic.ms": ms("walls.generic", "incl_s"),
            "walls.verify.ms": ms("walls.verify", "incl_s"),
            "rees.eb.ms": ms("rees.eb", "incl_s"),
            "rees.saturated.ms": ms("rees.saturated", "incl_s"),
            "desing.steps": self.desing_steps,
            "desing.final_dim": self.desing_final_dim,
            "desing.tower.ms": ms("desing.tower", "incl_s"),
            "desing.verify.ms": ms("desing.verify", "incl_s"),
            "luna.cubics.ms": ms("luna.cubics", "incl_s"),
            "jsonio.parse.ms": ms("jsonio.parse", "incl_s"),
            "jsonio.dump.ms": ms("jsonio.dump", "incl_s"),
            "jsonio.out_bytes": self.out_bytes,
            "cli.parser.ms": ms("cli.parser", "incl_s"),
            "cli.run.ms": ms("cli.run", "incl_s"),
        }
