"""Command-line front end.

Every subcommand reads JSON (inline or from files), performs one exact
computation and prints a canonical JSON document on standard output.
Exit codes: 0 success, 1 input error, 2 computation declined by a guard
(support-count limit, step limit, exhausted bounded search, work cap, an
output integer too long to print), 3 internal invariant violation.  Output
is byte-identical for identical inputs; no subcommand uses randomness.

Arguments expecting JSON accept either a literal (anything starting with
'[', '{' or a digit/quote) or a path to a file containing it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from . import desing, jsonio, lattice, luna, quasimap, rees, torus, walls
from .errors import DEFAULT_MAX_SUPPORTS, InputError, TorusGitError, guard_supports


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are input errors (exit 1)
        raise InputError(message)


def _read_json(value: str) -> Any:
    value = value.strip()
    if value[:1] in "[{\"":
        return jsonio.load_json(value)
    path = Path(value)
    try:
        is_file = path.exists()
    except OSError:  # e.g. a name too long for the file system: not a file
        is_file = False
    if is_file:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {value}: {exc}") from None
        return jsonio.load_json(text)
    if value[:1] in "-0123456789tfn":
        return jsonio.load_json(value)
    raise InputError(f"no such file: {value}")


def _action(args) -> torus.TorusAction:
    return jsonio.parse_action(_read_json(args.action))


def _signed_square(v: torus.SignedSquare | None) -> Any:
    if v is None:
        return None
    return {"sign": v.sign, "square": jsonio.dump_rational(v.square)}


def _psi(args, action: torus.TorusAction) -> lattice.IntMatrix:
    if getattr(args, "psi", None):
        return jsonio.parse_matrix(_read_json(args.psi), "psi")
    return lattice.IntMatrix.identity(action.rank)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_semistable(args) -> dict:
    a = _action(args)
    chi = jsonio.parse_vector(_read_json(args.char), a.rank, "character")
    s = jsonio.parse_support(_read_json(args.support), a.dim)
    return {"semistable": torus.is_semistable(a, chi, s)}


def _cmd_stable(args) -> dict:
    a = _action(args)
    chi = jsonio.parse_vector(_read_json(args.char), a.rank, "character")
    s = jsonio.parse_support(_read_json(args.support), a.dim)
    return {"stable": torus.is_stable(a, chi, s)}


def _cmd_hm_min(args) -> dict:
    a = _action(args)
    chi = jsonio.parse_vector(_read_json(args.char), a.rank, "character")
    s = jsonio.parse_support(_read_json(args.support), a.dim)
    res = torus.normalized_hm_min(a, chi, s)
    if res is None:
        return {"no_destabilizer": True, "value": None, "minimizer": None}
    return {
        "no_destabilizer": False,
        "value": _signed_square(res.value),
        "minimizer": list(res.minimizer),
    }


def _cmd_minimal_values(args) -> dict:
    a = _action(args)
    guard_supports(a.dim, args.max_supports)
    chi = jsonio.parse_vector(_read_json(args.char), a.rank, "character")
    values = sorted(torus.minimal_hm_values(a, chi))
    return {"values": [_signed_square(v) for v in values]}


def _cmd_combine(args) -> dict:
    a = _action(args)
    guard_supports(a.dim, args.max_supports)
    chi_l = jsonio.parse_vector(_read_json(args.char_l), a.rank, "chi_L")
    chi_m = jsonio.parse_vector(_read_json(args.char_m), a.rank, "chi_M")
    res = torus.combine_linearizations(a, chi_l, chi_m)
    return {
        "m0": res.m0,
        "combined": list(res.combined),
        "d": _signed_square(res.d),
        "e": _signed_square(res.e),
    }


def _cmd_walls(args) -> dict:
    a = _action(args)
    arr = walls.compute_walls(a, _psi(args, a))
    return {"ambient_rank": arr.ambient_rank, "walls": [list(w) for w in arr.walls]}


def _cmd_generic_character(args) -> dict:
    a = _action(args)
    arr = walls.compute_walls(a, _psi(args, a))
    mu = walls.find_generic_character(arr, args.bound)
    return {
        "ambient_rank": arr.ambient_rank,
        "walls": [list(w) for w in arr.walls],
        "generic": list(mu),
        "pulled_back": list(walls.pull_back(arr, mu)),
    }


def _cmd_verify_chamber(args) -> dict:
    a = _action(args)
    chi = jsonio.parse_vector(_read_json(args.char), a.rank, "character")
    ok, counterexample = walls.verify_ss_equals_s(a, chi, max_dim=args.max_dim)
    return {
        "ss_equals_s": ok,
        "counterexample": None if counterexample is None else jsonio.dump_support(counterexample),
    }


def _cmd_eb(args) -> dict:
    a = _action(args)
    center = jsonio.parse_center(_read_json(args.center), a.dim)
    eb = rees.extended_weighted_blowup(a, center)
    return {
        "presentation": jsonio.dump_presentation(eb),
        "weighted_blowup_locus": jsonio.dump_supports(
            rees.weighted_blowup_locus(eb, args.max_supports)),
        "saturated_locus": jsonio.dump_supports(
            rees.saturated_locus(eb, args.max_supports)),
    }


def _cmd_saturate(args) -> dict:
    a = _action(args)
    center = jsonio.parse_center(_read_json(args.center), a.dim)
    eb = rees.extended_weighted_blowup(a, center)
    return {"saturated_locus": jsonio.dump_supports(
        rees.saturated_locus(eb, args.max_supports))}


def _cmd_desing(args) -> dict:
    a = _action(args)
    if args.char is not None:
        chi = jsonio.parse_vector(_read_json(args.char), a.rank, "character")
    else:
        chi = tuple(0 for _ in range(a.rank))
    tower = desing.desingularize(a, chi, max_steps=args.max_steps,
                                 max_supports=args.max_supports)
    out = {
        "base": jsonio.dump_action(tower.base),
        "start_character": list(tower.start_character),
        "steps": [
            {
                "center": jsonio.dump_center(st.center),
                "m0": st.m0,
                "character": list(st.character),
                "presentation": jsonio.dump_presentation(st.presentation),
            }
            for st in tower.steps
        ],
        "final_character": list(tower.final_character),
        "final_dm_supports": jsonio.dump_supports(tower.final_dm_supports),
    }
    if args.verify:
        report = desing.verify_tower(tower)
        out["verification"] = {
            "ok": report.ok,
            "checks": [
                {"step": c.step, "name": c.name, "ok": c.ok, "detail": c.detail}
                for c in report.checks
            ],
        }
    return out


def _cmd_stabilizer(args) -> dict:
    a = _action(args)
    s = jsonio.parse_support(_read_json(args.support), a.dim)
    g = torus.stabilizer(a, s)
    return {
        "dimension": g.dimension,
        "invariant_factors": list(g.invariant_factors),
        "finite_part_order": g.finite_part_order,
    }


def _cmd_invariants(args) -> dict:
    a = _action(args)
    gens = lattice.hilbert_basis_bounded(a.weights, args.degree_bound)
    return {"degree_bound": args.degree_bound,
            "generators": [list(g) for g in sorted(gens)]}


def _cmd_quasimap(args) -> dict:
    graph = jsonio.parse_graph(_read_json(args.graph))
    stable, violations = quasimap.is_stable_quasimap(graph)
    out: dict[str, Any] = {
        "stable": stable,
        "violations": violations,
        "class_beta": {k: jsonio.dump_rational(v)
                       for k, v in sorted(quasimap.class_beta(graph).items())},
    }
    if args.epsilon:
        out["epsilon_ample"] = quasimap.epsilon_ample_equivalent(graph)
    return out


def _cmd_binary_forms(args) -> dict:
    mults = jsonio.parse_int_list(_read_json(args.mults), "multiplicities")
    return {
        "semistable": quasimap.check_binary_forms(mults, args.n, quasimap.SEMISTABLE),
        "dm": quasimap.check_binary_forms(mults, args.n, quasimap.STABLE_DM),
    }


def _cmd_conic(args) -> dict:
    cfg = jsonio.parse_divisor_config(_read_json(args.config))
    valid, in_dm = quasimap.check_twisted_conic(cfg)
    return {"valid_in_cy": valid, "in_dm": in_dm}


def _cmd_dvr_lift(args) -> dict:
    orders = jsonio.parse_int_list(_read_json(args.orders), "orders")
    lift = quasimap.dvr_lift(quasimap.DvrMapData(tuple(orders)))
    return {
        "m": lift.m,
        "lifted_orders": list(lift.lifted_orders),
        "on_axis_proper_transform": list(lift.on_axis_proper_transform),
        "meets_some_axis": lift.meets_some_axis,
    }


def _cmd_pencil(args) -> dict:
    graph = jsonio.parse_graph(_read_json(args.graph))
    report = quasimap.check_pencil_degrees(graph)
    return {
        "ok": report.ok,
        "vertices": [{"vertex": v, "ok": ok} for v, ok in report.vertex_results],
    }


def _cmd_luna_cubics(args) -> dict:
    cert = luna.cubics_example()
    return {
        "slice": jsonio.dump_action(cert.slice_rank3),
        "effective_slice": jsonio.dump_action(cert.effectivization.action),
        "quotiented_cocharacters": [list(v) for v in cert.effectivization.quotiented_cocharacters],
        "blowup": jsonio.dump_presentation(cert.blowup),
        "boundary_support": jsonio.dump_support(cert.boundary_support),
        "boundary_stabilizer": {
            "dimension": cert.boundary_stabilizer.dimension,
            "invariant_factors": list(cert.boundary_stabilizer.invariant_factors),
            "finite_part_order": cert.boundary_stabilizer.finite_part_order,
        },
        "invariant_generators": [list(g) for g in cert.invariant_generators],
        "tower_steps": len(cert.tower.steps),
        "final_dm_supports": jsonio.dump_supports(cert.tower.final_dm_supports),
        "tower_verified": cert.tower_verified,
    }


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="torusgit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-supports", type=int, default=DEFAULT_MAX_SUPPORTS,
                        help="refuse enumerations over more supports than this")
    parser.add_argument("--max-steps", type=int, default=32,
                        help="step guard for the desingularization tower")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for arg, kw in arguments.items():
            p.add_argument("--" + arg.replace("_", "-"), **kw)
        p.set_defaults(fn=fn)
        return p

    action_arg = {"required": True, "help": "torus action JSON (inline or file)"}
    add("semistable", _cmd_semistable, action=action_arg,
        char={"required": True}, support={"required": True})
    add("stable", _cmd_stable, action=action_arg,
        char={"required": True}, support={"required": True})
    add("hm-min", _cmd_hm_min, action=action_arg,
        char={"required": True}, support={"required": True})
    add("minimal-values", _cmd_minimal_values, action=action_arg, char={"required": True})
    add("combine", _cmd_combine, action=action_arg,
        char_l={"required": True}, char_m={"required": True})
    add("walls", _cmd_walls, action=action_arg, psi={"default": None})
    add("generic-character", _cmd_generic_character, action=action_arg,
        psi={"default": None}, bound={"type": int, "default": 16})
    add("verify-chamber", _cmd_verify_chamber, action=action_arg,
        char={"required": True}, max_dim={"type": int, "default": 20})
    add("eb", _cmd_eb, action=action_arg, center={"required": True})
    add("saturate", _cmd_saturate, action=action_arg, center={"required": True})
    add("desing", _cmd_desing, action=action_arg, char={"default": None},
        verify={"action": "store_true"})
    add("stabilizer", _cmd_stabilizer, action=action_arg, support={"required": True})
    add("invariants", _cmd_invariants, action=action_arg,
        degree_bound={"type": int, "default": 6})
    add("quasimap", _cmd_quasimap, graph={"required": True},
        epsilon={"action": "store_true"})
    add("binary-forms", _cmd_binary_forms, n={"type": int, "required": True},
        mults={"required": True})
    add("conic", _cmd_conic, config={"required": True})
    add("dvr-lift", _cmd_dvr_lift, orders={"required": True})
    add("pencil", _cmd_pencil, graph={"required": True})
    add("luna-cubics", _cmd_luna_cubics)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the exit code; output goes to stdout."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        text = jsonio.dumps(args.fn(args))
    except TorusGitError as exc:
        sys.stdout.write(jsonio.dumps({"error": str(exc), "kind": exc.kind}))
        return exc.exit_code
    sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
