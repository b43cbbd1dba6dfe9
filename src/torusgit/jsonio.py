"""JSON schemas for the documented interchange formats.

All numbers are integers or exact rationals; rationals travel as "p/q"
strings (plain integers are accepted and emitted when the denominator is
one).  Coordinate and support indices are 1-based on the wire and
0-based in memory.  Emission is deterministic: keys are sorted and
collections are emitted in canonical order.

Torus action:        {"rank": r, "weights": [[..r ints..] per coordinate],
                      "norm_form": [[..]] (optional),
                      "finite_part": [{"perm": [1-based], "aut": [[..]]}] (optional)}
Monomial center:     {"coords": [1-based], "weights": [..]}
Dual graph:          {"vertices": [{"genus": g, "in_dm": bool, "degrees": {...}}],
                      "edges": [[v, w, d]], "legs": [[v, e]], "bundles": [...]}
                     (vertex indices 0-based: they index the vertices array)
Divisor config:      {"ambient": "smooth_P1"|"twisted_conic",
                      "mults": [[..] per component], "n": n}
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import lattice, quasimap, rees, torus
from .errors import ComputationDeclined, InputError


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:  # 1e-99999999 would build 10**99999999
            raise InputError(f"malformed rational {value!r}: write it as 'p/q'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed rational {value!r}") from exc
    raise InputError(f"expected an integer or 'p/q' string, got {value!r}")


def dump_rational(value: Fraction) -> Any:
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # a part over the interpreter's digit limit
        raise _unprintable(exc) from None


def _unprintable(exc: ValueError) -> ComputationDeclined:
    return ComputationDeclined(f"an output integer is too long to print: {exc}")


def parse_int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list) or any(isinstance(e, bool) or not isinstance(e, int) for e in value):
        raise InputError(f"{what} must be a list of integers")
    return list(value)


def parse_matrix(value: Any, what: str) -> lattice.IntMatrix:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of rows")
    rows = [parse_int_list(r, f"{what} row") for r in value]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError(f"{what} rows have inconsistent lengths")
    return lattice.IntMatrix.from_rows(rows, len(rows[0]) if rows else 0)


def parse_action(doc: Mapping[str, Any]) -> torus.TorusAction:
    if not isinstance(doc, Mapping):
        raise InputError("torus action must be a JSON object")
    try:
        rank = doc["rank"]
        weights = doc["weights"]
    except KeyError as exc:
        raise InputError(f"torus action is missing the key {exc}") from exc
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
        raise InputError("rank must be a non-negative integer")
    if not isinstance(weights, list):
        raise InputError("weights must be a list of columns")
    cols = [parse_int_list(c, "weight column") for c in weights]
    if any(len(c) != rank for c in cols):
        raise InputError("every weight column must have `rank` entries")
    w = lattice.IntMatrix.from_rows([[c[i] for c in cols] for i in range(rank)], len(cols))
    norm = None
    if "norm_form" in doc and doc["norm_form"] is not None:
        norm = parse_matrix(doc["norm_form"], "norm_form")
    raw_finite = doc.get("finite_part") or []
    if not isinstance(raw_finite, list):
        raise InputError("finite_part must be a list of elements")
    finite = []
    for el in raw_finite:
        if not isinstance(el, Mapping):
            raise InputError("finite part element must be an object with perm and aut")
        perm1 = parse_int_list(el.get("perm"), "finite part perm")
        if sorted(perm1) != list(range(1, len(cols) + 1)):
            raise InputError("finite part perm must be a permutation of 1..N")
        aut = parse_matrix(el.get("aut"), "finite part aut")
        finite.append(torus.FinitePartElement(tuple(p - 1 for p in perm1), aut))
    return torus.TorusAction(rank, w, norm, tuple(finite))


def dump_action(action: torus.TorusAction) -> dict[str, Any]:
    out: dict[str, Any] = {
        "rank": action.rank,
        "weights": [list(action.character(j)) for j in range(action.dim)],
    }
    if action.norm_form.entries != lattice.IntMatrix.identity(action.rank).entries:
        out["norm_form"] = [list(r) for r in action.norm_form.entries]
    if action.finite_part:
        out["finite_part"] = [
            {"perm": [p + 1 for p in el.perm], "aut": [list(r) for r in el.aut.entries]}
            for el in action.finite_part
        ]
    return out


def parse_support(value: Any, dim: int) -> torus.Support:
    idx = parse_int_list(value, "support")
    if any(j < 1 or j > dim for j in idx):
        raise InputError(f"support indices must lie in 1..{dim}")
    if len(set(idx)) != len(idx):
        raise InputError("support indices must be distinct")
    return frozenset(j - 1 for j in idx)


def dump_support(s: torus.Support) -> list[int]:
    return [j + 1 for j in sorted(s)]


def dump_supports(supports: Sequence[torus.Support]) -> list[list[int]]:
    return [dump_support(s) for s in sorted(supports, key=torus.support_key)]


def parse_vector(value: Any, length: int, what: str = "vector") -> tuple[int, ...]:
    v = parse_int_list(value, what)
    if len(v) != length:
        raise InputError(f"{what} must have length {length}")
    return tuple(v)


def parse_center(doc: Mapping[str, Any], dim: int) -> rees.MonomialWeightedCenter:
    if not isinstance(doc, Mapping):
        raise InputError("center must be a JSON object")
    coords1 = parse_int_list(doc.get("coords"), "center coords")
    weights = parse_int_list(doc.get("weights"), "center weights")
    if len(weights) != len(coords1):
        raise InputError("center weights must be aligned with coords")
    if any(j < 1 or j > dim for j in coords1):
        raise InputError(f"center coords must lie in 1..{dim}")
    order = sorted(range(len(coords1)), key=lambda i: coords1[i])
    return rees.MonomialWeightedCenter(
        tuple(coords1[i] - 1 for i in order), tuple(weights[i] for i in order)
    )


def dump_center(center: rees.MonomialWeightedCenter) -> dict[str, Any]:
    return {"coords": [j + 1 for j in center.coords], "weights": list(center.weights)}


def dump_presentation(eb: rees.EBPresentation) -> dict[str, Any]:
    return {
        "original": dump_action(eb.original),
        "center": dump_center(eb.center),
        "ambient": dump_action(eb.ambient),
        "theta": list(eb.theta),
        "exceptional_index": eb.exceptional_index + 1,
        "substitution": [
            {"coordinate": j + 1, "rees_power": a}
            for j, a in enumerate(eb.substitution)
        ],
    }


def parse_graph(doc: Mapping[str, Any]) -> quasimap.TwistedCurveGraph:
    if not isinstance(doc, Mapping):
        raise InputError("dual graph must be a JSON object")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError("dual graph needs a nonempty vertices list")
    bundles = doc.get("bundles", ["L_X"])
    if not isinstance(bundles, list) or any(not isinstance(b, str) for b in bundles):
        raise InputError("bundles must be a list of names")
    vertices = []
    for i, rv in enumerate(raw_vertices):
        if not isinstance(rv, Mapping):
            raise InputError(f"vertex {i} must be an object")
        genus = rv.get("genus")
        if isinstance(genus, bool) or not isinstance(genus, int):
            raise InputError(f"vertex {i} genus must be an integer")
        in_dm = rv.get("in_dm", True)
        if not isinstance(in_dm, bool):
            raise InputError(f"vertex {i} in_dm must be a boolean")
        degrees = rv.get("degrees", {})
        if not isinstance(degrees, Mapping):
            raise InputError(f"vertex {i} degrees must be an object")
        degrees = {k: parse_rational(v) for k, v in degrees.items()}
        vertices.append(quasimap.Vertex(genus, in_dm, degrees))
    raw_edges = doc.get("edges", [])
    raw_legs = doc.get("legs", [])
    if not isinstance(raw_edges, list) or not isinstance(raw_legs, list):
        raise InputError("edges and legs must be lists")
    edges = []
    for e in raw_edges:
        e = parse_int_list(e, "edge")
        if len(e) not in (2, 3):
            raise InputError("edges are [v, w] or [v, w, node_index]")
        edges.append((e[0], e[1], e[2] if len(e) == 3 else 1))
    legs = []
    for l in raw_legs:
        l = parse_int_list(l, "leg")
        if len(l) not in (1, 2):
            raise InputError("legs are [v] or [v, marking_index]")
        legs.append((l[0], l[1] if len(l) == 2 else 1))
    return quasimap.TwistedCurveGraph(tuple(vertices), tuple(edges), tuple(legs), tuple(bundles))


def dump_graph(graph: quasimap.TwistedCurveGraph) -> dict[str, Any]:
    return {
        "vertices": [
            {
                "genus": v.genus,
                "in_dm": v.in_dm_locus,
                "degrees": {k: dump_rational(d) for k, d in sorted(v.degrees.items())},
            }
            for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
        "legs": [list(l) for l in graph.legs],
        "bundles": list(graph.tracked_bundles),
    }


def parse_divisor_config(doc: Mapping[str, Any]) -> quasimap.DivisorConfig:
    if not isinstance(doc, Mapping):
        raise InputError("divisor config must be a JSON object")
    ambient = doc.get("ambient")
    mults = doc.get("mults")
    n = doc.get("n")
    if ambient not in ("smooth_P1", "twisted_conic"):
        raise InputError('ambient must be "smooth_P1" or "twisted_conic"')
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError("n must be an integer")
    if not isinstance(mults, list):
        raise InputError("mults must be a list of per-component lists")
    comps = tuple(tuple(parse_int_list(c, "component multiplicities")) for c in mults)
    return quasimap.DivisorConfig(ambient, comps, n)


def dumps(obj: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:  # an integer over the interpreter's digit limit
        raise _unprintable(exc) from None


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise InputError(f"malformed JSON: {exc}") from exc
