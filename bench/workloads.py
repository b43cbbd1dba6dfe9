"""The three benchmark workloads: seeded inputs, one job each, and its check.

A workload yields *cycles*: lists of job inputs that every run repeats
whole, so that every run attempts the same mix.  Inputs are fresh on
every cycle (no input is ever reused), and the same seed always yields
the same sequence.

Per-job cost on chamber and hm-tower varies several-fold with the drawn
action, which would make a short run's mean depend on its seed.  The
cycles are therefore stratified: each slot of a cycle takes the next
unused draw whose cost predictor (the size of a locus, computed by the
oracles) falls in that slot's band.  The bands are the octiles/quartiles
of the predictor over random draws, so a cycle follows the natural mix.
The draws and their classification are benchmark work: they run outside
every timed region and count in no metric.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator

import oracles as orc

from torusgit import desing, rees, torus, walls
from torusgit.lattice import IntMatrix

GENERIC_BOUND = 16  # the CLI default of generic-character --bound
HM_BOX = 2  # half-width of the integer box searched for a better hm minimizer


@dataclass
class Outcome:
    """One finished job: its output, or the failure that replaced it."""

    output: Any = None
    failed: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0


def _columns(rows: list[list[int]]) -> list[tuple[int, ...]]:
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def _full_rank_rows(rng: random.Random, rank: int, dim: int, bound: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(rank)]
        if orc.rank_of(rows) == rank:
            return rows


def _band(value: int, cuts: tuple[int, ...]) -> int:
    return sum(1 for c in cuts if value >= c)


def _stratified(rng: random.Random, draw: Callable, slot_of: Callable, slots: list) -> Iterator[list]:
    """Cycles with one input per slot, each the earliest unused draw for it.
    A slot listed k times takes k inputs a cycle."""
    queues: dict[Any, deque] = {s: deque() for s in slots}
    need = {s: slots.count(s) for s in queues}
    while True:
        while any(len(queues[s]) < k for s, k in need.items()):
            inp = draw(rng)
            queues[slot_of(inp)].append(inp)
        yield [queues[s].popleft() for s in slots]


def _signed(v) -> tuple[int, Fraction] | None:
    return None if v is None else (v.sign, v.square)


# ---------------------------------------------------------------------------
# chamber: walls, generic character, semistable locus, chamber check, saturation
# ---------------------------------------------------------------------------

CHAMBER_RANK = 3
CHAMBER_DIM = 9
CHAMBER_ENTRY = 3
CHAMBER_CENTER = ((0, 1, 2), (1, 1, 1))
# octiles of the semistable-support count at the generic character
CHAMBER_CUTS = (96, 144, 180, 208, 244, 272, 296)
CHAMBER_WARMUP_SLOT = 4


@dataclass
class ChamberInput:
    rows: list[list[int]]
    generic: tuple[int, ...]  # the first generic character in the documented order
    semistable: set[int]  # oracle locus for that character, as masks

    @property
    def slot(self) -> int:
        return _band(len(self.semistable), CHAMBER_CUTS)


def draw_chamber(rng: random.Random) -> ChamberInput:
    rows = _full_rank_rows(rng, CHAMBER_RANK, CHAMBER_DIM, CHAMBER_ENTRY)
    chars = _columns(rows)
    mu = orc.first_generic(chars, CHAMBER_RANK, GENERIC_BOUND)
    return ChamberInput(rows, mu, orc.semistable_masks(chars, mu))


def run_chamber(inp: ChamberInput) -> dict:
    action = torus.TorusAction(CHAMBER_RANK, IntMatrix.from_rows(inp.rows, CHAMBER_DIM))
    arrangement = walls.compute_walls(action, IntMatrix.identity(CHAMBER_RANK))
    mu = walls.find_generic_character(arrangement, GENERIC_BOUND)
    chi = walls.pull_back(arrangement, mu)
    semistable = torus.semistable_supports(action, chi)
    verdict = walls.verify_ss_equals_s(action, chi)
    eb = rees.extended_weighted_blowup(action, rees.MonomialWeightedCenter(*CHAMBER_CENTER))
    saturated = rees.saturated_locus(eb)
    return {"generic": mu, "pulled_back": chi, "semistable": semistable,
            "verdict": verdict, "saturated": saturated,
            "ambient": [list(r) for r in eb.ambient.weights.entries]}


def check_chamber(inp: ChamberInput, out: dict) -> str:
    n = CHAMBER_DIM
    if tuple(out["generic"]) != inp.generic:
        return f"generic character {out['generic']} is not the first generic {inp.generic}"
    if tuple(out["pulled_back"]) != inp.generic:
        return "pull-back along the identity changed the character"
    ss = [orc.mask_of(s) for s in out["semistable"]]
    if len(set(ss)) != len(ss) or set(ss) != inp.semistable:
        return "semistable locus differs from the Farkas/Caratheodory oracle"
    if not orc.upward_closed(inp.semistable, n):
        return "semistable locus is not upward closed"
    if out["verdict"] != (True, None):
        return f"verify_ss_equals_s failed at a generic character: {out['verdict']}"
    # the ambient of the blow-up, built independently: (chi_j, a_j), (chi_k, 0), (0, -1)
    coords, wts = CHAMBER_CENTER
    rees_row = [wts[coords.index(j)] if j in coords else 0 for j in range(n)] + [-1]
    ambient_rows = [list(r) + [0] for r in inp.rows] + [rees_row]
    if out["ambient"] != ambient_rows:
        return "extended blow-up ambient weights differ from (chi_j, a_j), (0, -1)"
    sat = {orc.mask_of(s) for s in out["saturated"]}
    theta = (0,) * CHAMBER_RANK + (-1,)
    if sat != orc.semistable_masks(_columns(ambient_rows), theta):
        return "saturated locus differs from the Farkas/Caratheodory oracle"
    if not orc.upward_closed(sat, n + 1):
        return "saturated locus is not upward closed"
    center = orc.mask_of(coords)
    if any(not m & center for m in sat):
        return "saturated locus leaves the weighted blow-up locus"
    return ""


# ---------------------------------------------------------------------------
# hm-tower: combine_linearizations + minimal_hm_values, and one tower job a cycle
# ---------------------------------------------------------------------------

HM_RANK = 3
HM_DIM = 7
HM_ENTRY = 3
# octiles of the faces enumerated by combine, sum of 2^|s| over chi_L-unstable
# supports s; the top quarter (all 3^7 when every support is unstable) is one
# band that fills two slots of a cycle
HM_CUTS = (579, 799, 939, 1035, 1230, 1539)
HM_BANDS = (0, 1, 2, 3, 4, 5, 6, 6)
HM_WARMUP_SLOT = (3, False)
HM_SAMPLED_SUPPORTS = 3  # orbit-changing supports re-examined per job
TOWER_BASES = (
    [[1, 1, -1, -1, 0], [0, 1, 0, -1, 1]],  # three steps, final dimension 8
    [[1, -1]],
    [[1, 1, -1, -1]],
    [[1, 2, -1, -3]],
    [[1, 0, -1], [0, 1, -1]],
    [[2, -1, -1], [-1, 2, -1]],
)


@dataclass
class HmInput:
    rows: list[list[int]]
    norm: list[list[int]] | None  # None: the identity
    chi_l: tuple[int, ...]
    chi_m: tuple[int, ...]
    semistable_l: set[int]
    probe: int  # seeds the choice of re-examined supports

    @property
    def slot(self) -> tuple[int, bool]:
        faces = sum(1 << bin(m).count("1") for m in range(1 << HM_DIM) if m not in self.semistable_l)
        return _band(faces, HM_CUTS), self.norm is not None


@dataclass
class TowerInput:
    bases: tuple = TOWER_BASES


def _norm_form(rng: random.Random) -> list[list[int]]:
    """A^T A + I for a random A with entries in [-1, 1], never the identity."""
    while True:
        a = [[rng.randint(-1, 1) for _ in range(HM_RANK)] for _ in range(HM_RANK)]
        q = [[sum(a[k][i] * a[k][j] for k in range(HM_RANK)) + (i == j)
              for j in range(HM_RANK)] for i in range(HM_RANK)]
        if any(q[i][j] != (i == j) for i in range(HM_RANK) for j in range(HM_RANK)):
            return q


def draw_hm(rng: random.Random) -> HmInput:
    rows = _full_rank_rows(rng, HM_RANK, HM_DIM, HM_ENTRY)
    norm = _norm_form(rng) if rng.random() < 0.5 else None
    while True:
        chi_l = tuple(rng.randint(-3, 3) for _ in range(HM_RANK))
        if any(chi_l):  # chi_L = 0 has no unstable support
            break
    chi_m = tuple(rng.randint(-3, 3) for _ in range(HM_RANK))
    return HmInput(rows, norm, chi_l, chi_m,
                   orc.semistable_masks(_columns(rows), chi_l), rng.getrandbits(32))


def _hm_action(inp: HmInput) -> torus.TorusAction:
    norm = None if inp.norm is None else IntMatrix.from_rows(inp.norm, HM_RANK)
    return torus.TorusAction(HM_RANK, IntMatrix.from_rows(inp.rows, HM_DIM), norm)


def run_hm(inp: HmInput | TowerInput) -> dict:
    if isinstance(inp, TowerInput):
        return run_towers(inp)
    action = _hm_action(inp)
    combo = torus.combine_linearizations(action, inp.chi_l, inp.chi_m)
    values = torus.minimal_hm_values(action, inp.chi_l)
    return {"m0": combo.m0, "combined": combo.combined, "d": _signed(combo.d),
            "e": _signed(combo.e), "values": {(v.sign, v.square) for v in values}}


def run_towers(inp: TowerInput) -> dict:
    out = []
    for rows in inp.bases:
        action = torus.TorusAction(len(rows), IntMatrix.from_rows(rows))
        tower = desing.desingularize(action, (0,) * len(rows))
        report = desing.verify_tower(tower)
        out.append({
            "m0": [st.m0 for st in tower.steps],
            "characters": [st.character for st in tower.steps],
            "final_rows": [list(r) for r in tower.final_action.weights.entries],
            "final_character": tower.final_character,
            "final_supports": tower.final_dm_supports,
            "ok": report.ok,
        })
    return {"towers": out}


def _checked_hm_min(action, chars, q, chi, mask) -> tuple[str, tuple[int, Fraction] | None]:
    """torusgit's hm minimum on one support, and what the oracle finds wrong with it."""
    res = torus.normalized_hm_min(action, chi, frozenset(orc.bits(mask)))
    if res is None:
        return f"no minimum on the support {orc.bits(mask)} with a nonzero limit cone", None
    value = (res.value.sign, res.value.square)
    return orc.check_hm_minimum(chars, q, chi, mask, value, res.minimizer, HM_BOX), value


def check_hm(inp: HmInput | TowerInput, out: dict) -> str:
    if isinstance(inp, TowerInput):
        return check_towers(inp, out)
    chars = _columns(inp.rows)
    q = inp.norm or [[int(i == j) for j in range(HM_RANK)] for i in range(HM_RANK)]
    action = _hm_action(inp)
    m0 = out["m0"]
    if tuple(out["combined"]) != tuple(m0 * a + b for a, b in zip(inp.chi_l, inp.chi_m)):
        return "combined character is not m0*chi_L + chi_M"
    if out["e"] != orc.sup_closed_form(q, inp.chi_m):
        return f"e = {out['e']} differs from sqrt(chi_M^T Q^-1 chi_M)"
    # d is attained on the maximal unstable supports, whose cones are smallest
    unstable = set(range(1 << HM_DIM)) - inp.semistable_l
    best = None
    for mask in orc.maximal(unstable):
        fault, value = _checked_hm_min(action, chars, q, inp.chi_l, mask)
        if fault:
            return fault
        if best is None or orc.less(best, value):
            best = value
    if out["d"] != best:
        return f"d = {out['d']} differs from the maximum {best} over maximal unstable supports"
    if not orc.least_m0(m0, out["d"], out["e"]):
        return f"m0 = {m0} is not the least m with m*d + e < 0"
    masks = list(range(1 << HM_DIM))
    random.Random(inp.probe).shuffle(masks)
    probed = (m for m in masks if orc.orbit_changing(chars, m))
    for mask in itertools.islice(probed, HM_SAMPLED_SUPPORTS):
        fault, value = _checked_hm_min(action, chars, q, inp.chi_l, mask)
        if fault:
            return fault
        if value not in out["values"]:
            return f"hm minimum on {orc.bits(mask)} is missing from minimal_hm_values"
    return ""


def check_towers(inp: TowerInput, out: dict) -> str:
    for rows, tw in zip(inp.bases, out["towers"]):
        if not tw["ok"]:
            return f"verify_tower rejected the tower over {rows}"
        final_rows = tw["final_rows"]
        if len(final_rows) != len(rows) + len(tw["m0"]):
            return "each step must add one torus factor"
        if len(final_rows[0]) != len(rows[0]) + len(tw["m0"]):
            return "each step must add one coordinate"
        chi: tuple[int, ...] = (0,) * len(rows)
        for m0, got in zip(tw["m0"], tw["characters"]):
            chi = tuple(m0 * c for c in chi) + (-1,)  # m0 * (previous, 0) + theta
            if m0 < 1 or tuple(got) != chi:
                return f"accumulated character {got} breaks m0*(previous, 0) + theta"
        if tuple(tw["final_character"]) != chi:
            return "final character is not the last accumulated character"
        chars = _columns(final_rows)
        final = {orc.mask_of(s) for s in tw["final_supports"]}
        if not final:
            return "empty final locus"
        if final != orc.semistable_masks(chars, chi):
            return "final locus differs from the oracle semistable locus"
        for mask in final:
            if orc.rank_of([chars[j] for j in orc.bits(mask)]) != len(final_rows):
                return f"final support {orc.bits(mask)} has an infinite stabilizer"
    return ""


# ---------------------------------------------------------------------------
# cli-point: a cycle of small `python -m torusgit` calls
# ---------------------------------------------------------------------------

CLI_RANK = 2
CLI_DIM = 4
CUBICS_SLICE = {"rank": 3, "weights": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}
HYPERBOLA = {"rank": 1, "weights": [[1], [-1]]}
A2_TRIVIAL = {"rank": 0, "weights": [[], []]}
PENCIL_GRAPH = {
    "vertices": [{"genus": 0, "in_dm": True, "degrees": {"L_X": 12, "L": 0}}],
    "legs": [[0, i + 1] for i in range(12)],
    "bundles": ["L_X", "L"],
}
WARMUP_ARGV = ["semistable", "--action", json.dumps(HYPERBOLA), "--char", "[1]",
               "--support", "[1,2]"]
# malformed inputs that end in a raw traceback instead of an input error
MALFORMED = (
    ("malformed-finite-part",
     ["semistable", "--action",
      json.dumps({"rank": 1, "weights": [[1], [-1]], "finite_part": [1]}),
      "--char", "[1]", "--support", "[1]"]),
    ("malformed-center",
     ["eb", "--action", json.dumps(A2_TRIVIAL),
      "--center", json.dumps({"coords": [1, 2], "weights": [1]})]),
    ("malformed-legs",
     ["quasimap", "--graph",
      json.dumps({"vertices": [{"genus": 0, "in_dm": True, "degrees": {"L_X": 1}}],
                  "legs": 5})]),
)


@dataclass
class CliCall:
    label: str
    argv: list[str]
    check: Callable[[dict], str] = field(repr=False)
    expect_rc: int = 0


def _all_subsets(n: int) -> list[list[int]]:
    return [[j + 1 for j in range(n) if m >> j & 1] for m in range(1, 1 << n)]


def _cli_cycle(rng: random.Random) -> list[CliCall]:
    """One call per subcommand; the torus calls get a fresh rank-2 action."""
    rows = _full_rank_rows(rng, CLI_RANK, CLI_DIM, 2)
    chars = _columns(rows)
    action = json.dumps({"rank": CLI_RANK, "weights": [list(c) for c in chars]})
    chi = tuple(rng.randint(-2, 2) for _ in range(CLI_RANK))
    chi_m = tuple(rng.randint(-2, 2) for _ in range(CLI_RANK))
    support = rng.choice(_all_subsets(CLI_DIM))
    smask = orc.mask_of(j - 1 for j in support)
    generic = orc.first_generic(chars, CLI_RANK, GENERIC_BOUND)
    q = [[1, 0], [0, 1]]
    n_bf = rng.randint(2, 4)
    mults = _partition(rng, 2 * n_bf)
    orders = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
    legs, deg = rng.choice([(l, d) for l in range(5) for d in (0, 1, 2) if l + 3 * d != 2])
    graph = {"vertices": [{"genus": 0, "in_dm": True, "degrees": {"L_X": deg, "L": 1}}],
             "legs": [[0, i + 1] for i in range(legs)], "bundles": ["L_X", "L"]}
    ss_oracle = smask in orc.semistable_masks(chars, chi)
    s_list = json.dumps(support)

    def semistable(doc):
        return "" if doc == {"semistable": ss_oracle} else f"semistable: {doc} vs {ss_oracle}"

    def stable(doc):
        full = orc.rank_of([chars[j - 1] for j in support]) == CLI_RANK
        if doc["stable"] and not (ss_oracle and full):
            return "stable support that is unstable or has an infinite stabilizer"
        return ""

    def hm_min(doc):
        if doc["no_destabilizer"]:
            whole = all(orc.cone_certificates([chars[j - 1] for j in support], e)
                        for e in ((1, 0), (-1, 0), (0, 1), (0, -1)))
            return "" if whole else "no destabilizer reported on a nonzero limit cone"
        v = doc["value"]
        return orc.check_hm_minimum(chars, q, chi, smask,
                                    (v["sign"], Fraction(v["square"])), doc["minimizer"], 3)

    def minimal_values(doc):
        ok = all(v["sign"] in (-1, 0, 1) and Fraction(v["square"]) >= 0 for v in doc["values"])
        return "" if ok and doc["values"] else "malformed minimal values"

    def combine(doc):
        if not any(chi):
            return ""
        d = (doc["d"]["sign"], Fraction(doc["d"]["square"]))
        e = (doc["e"]["sign"], Fraction(doc["e"]["square"]))
        if doc["combined"] != [doc["m0"] * a + b for a, b in zip(chi, chi_m)]:
            return "combine: combined is not m0*chi_L + chi_M"
        if e != orc.sup_closed_form(q, chi_m):
            return "combine: e differs from sqrt(chi_M^T chi_M)"
        return "" if orc.least_m0(doc["m0"], d, e) else "combine: m0 not least"

    def wall_set(doc):
        got = {tuple(w) for w in doc["walls"]}
        return "" if got == orc.wall_normals_rank2(chars) else "walls differ from the oracle"

    def generic_character(doc):
        ok = tuple(doc["generic"]) == generic == tuple(doc["pulled_back"])
        return "" if ok else "generic character is not the first generic one"

    def chamber(doc):
        return "" if doc == {"ss_equals_s": True, "counterexample": None} else "chamber check failed"

    def origin_blowup(doc):
        pres = doc["presentation"]
        if pres["ambient"]["weights"] != [[1], [1], [-1]] or pres["theta"] != [-1]:
            return "blow-up of the origin of A^2 is not the (1, 1, -1) presentation"
        meeting = [s for s in sorted(_all_subsets(3), key=lambda s: (len(s), s)) if {1, 2} & set(s)]
        if doc["weighted_blowup_locus"] != meeting or doc["saturated_locus"] != meeting:
            return "loci of the blow-up of the origin are not the supports meeting {X1, X2}"
        return ""

    def saturate(doc):
        amb = [list(c) + [1 if j < 2 else 0] for j, c in enumerate(chars)] + [[0] * CLI_RANK + [-1]]
        want = orc.semistable_masks(amb, (0,) * CLI_RANK + (-1,))
        got = {orc.mask_of(j - 1 for j in s) for s in doc["saturated_locus"]}
        return "" if got == want else "saturated locus differs from the oracle"

    def desing_hyperbola(doc):
        if not doc["verification"]["ok"]:
            return "desing --verify rejected the hyperbola tower"
        final = doc["steps"][-1]["presentation"]["ambient"]["weights"]
        want = orc.semistable_masks(final, tuple(doc["final_character"]))
        got = {orc.mask_of(j - 1 for j in s) for s in doc["final_dm_supports"]}
        rank = len(final[0])
        if any(orc.rank_of([final[j - 1] for j in s]) != rank for s in doc["final_dm_supports"]):
            return "hyperbola tower ends with an infinite stabilizer"
        return "" if got == want and got else "hyperbola tower final locus differs from the oracle"

    def stabilizer(doc):
        dim = CLI_RANK - orc.rank_of([chars[j - 1] for j in support])
        return "" if doc["dimension"] == dim else "stabilizer dimension differs from r - rank"

    def invariants(doc):
        return "" if doc["generators"] == [[1, 1, 1]] else "invariant ring is not C[x1 x2 x3]"

    def quasimap(doc):
        want = legs - 2 + 3 * deg > 0
        ok = doc["stable"] == want == doc["epsilon_ample"] and doc["class_beta"]["L_X"] == deg
        return "" if ok else "quasimap stability differs from the degree count"

    def binary_forms(doc):
        want = {"semistable": max(mults) <= n_bf, "dm": max(mults) <= n_bf - 1}
        return "" if doc == want else f"binary forms {mults}: {doc} vs {want}"

    def conic(doc):
        return "" if doc == {"valid_in_cy": True, "in_dm": True} else "balanced conic rejected"

    def dvr(doc):
        m = min(orders)
        want = {"m": m, "lifted_orders": [o - m for o in orders],
                "on_axis_proper_transform": [o > m for o in orders],
                "meets_some_axis": len(set(orders)) > 1}
        return "" if doc == want else "DVR lift differs from the twist by the minimal order"

    def pencil(doc):
        return "" if doc["ok"] is True else "pencil bookkeeping rejected deg L_X = #legs + 3 deg L"

    def cubics(doc):
        stab = {"dimension": 0, "invariant_factors": [3, 3], "finite_part_order": 6}
        if doc["boundary_stabilizer"] != stab:
            return "boundary stabilizer is not (Z/3)^2 with a permutation part of order 6"
        if doc["invariant_generators"] != [[1, 1, 1]] or not doc["tower_verified"]:
            return "cubics certificate incomplete"
        return ""

    def input_error(doc):
        return "" if set(doc) == {"error", "kind"} and doc["kind"] == "input" else "not an input error"

    center = json.dumps({"coords": [1, 2], "weights": [1, 1]})
    calls = [
        CliCall("semistable", ["semistable", "--action", action, "--char", json.dumps(chi),
                               "--support", s_list], semistable),
        CliCall("stable", ["stable", "--action", action, "--char", json.dumps(chi),
                           "--support", s_list], stable),
        CliCall("hm-min", ["hm-min", "--action", action, "--char", json.dumps(chi),
                           "--support", s_list], hm_min),
        CliCall("minimal-values", ["minimal-values", "--action", action,
                                   "--char", json.dumps(chi)], minimal_values),
        CliCall("combine", ["combine", "--action", action, "--char-l", json.dumps(chi),
                            "--char-m", json.dumps(chi_m)], combine),
        CliCall("walls", ["walls", "--action", action], wall_set),
        CliCall("generic-character", ["generic-character", "--action", action], generic_character),
        CliCall("verify-chamber", ["verify-chamber", "--action", action,
                                   "--char", json.dumps(generic)], chamber),
        CliCall("eb", ["eb", "--action", json.dumps(A2_TRIVIAL), "--center", center], origin_blowup),
        CliCall("saturate", ["saturate", "--action", action, "--center", center], saturate),
        CliCall("desing", ["desing", "--action", json.dumps(HYPERBOLA), "--verify"], desing_hyperbola),
        CliCall("stabilizer", ["stabilizer", "--action", action, "--support", s_list], stabilizer),
        CliCall("invariants", ["invariants", "--action", json.dumps(CUBICS_SLICE)], invariants),
        CliCall("quasimap", ["quasimap", "--graph", json.dumps(graph), "--epsilon"], quasimap),
        CliCall("binary-forms", ["binary-forms", "--n", str(n_bf), "--mults", json.dumps(mults)],
                binary_forms),
        CliCall("conic", ["conic", "--config", json.dumps(
            {"ambient": "twisted_conic", "mults": [[1, 1, 1], [1, 1, 1]], "n": 3})], conic),
        CliCall("dvr-lift", ["dvr-lift", "--orders", json.dumps(orders)], dvr),
        CliCall("pencil", ["pencil", "--graph", json.dumps(PENCIL_GRAPH)], pencil),
        CliCall("luna-cubics", ["luna-cubics"], cubics),
    ]
    calls += [CliCall(label, argv, input_error, expect_rc=1) for label, argv in MALFORMED]
    return calls


def _partition(rng: random.Random, total: int) -> list[int]:
    out = []
    while total:
        part = rng.randint(1, total)
        out.append(part)
        total -= part
    return sorted(out, reverse=True)


def canonical_json(text: str) -> Any:
    """The document, if text is exactly its canonical form; else None."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    return doc if json.dumps(doc, sort_keys=True, indent=2) + "\n" == text else None


def run_cli_child(call: CliCall, root: str) -> Outcome:
    """One cold `python -m torusgit` process; CPU time from its rusage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "torusgit", *call.argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return _cli_outcome(call, proc.returncode, proc.stdout, wall, cpu)


def _cli_outcome(call: CliCall, rc: int, stdout: str, wall: float, cpu: float) -> Outcome:
    doc = canonical_json(stdout)
    if rc != call.expect_rc or doc is None:
        return Outcome(failed=f"{call.label}: exit {rc}, stdout {stdout[:80]!r}",
                       wall_s=wall, cpu_s=cpu)
    return Outcome(doc, wall_s=wall, cpu_s=cpu)


def run_cli_inprocess(call: CliCall, cli) -> Outcome:
    """The same argv through torusgit.cli.run, for the traced run."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.run(call.argv)
    except Exception as exc:  # a raw traceback in the child
        return Outcome(failed=f"{call.label}: {type(exc).__name__}",
                       wall_s=time.perf_counter() - t0)
    return _cli_outcome(call, rc, buf.getvalue(), time.perf_counter() - t0, 0.0)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _seeded(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def chamber_cycles(seed: int) -> Iterator[list]:
    slots = list(range(len(CHAMBER_CUTS) + 1))
    return _stratified(_seeded("chamber", seed, "jobs"), draw_chamber, lambda i: i.slot, slots)


def hm_cycles(seed: int) -> Iterator[list]:
    slots = [(band, q) for band in HM_BANDS for q in (False, True)]
    for cycle in _stratified(_seeded("hm-tower", seed, "jobs"), draw_hm, lambda i: i.slot, slots):
        yield cycle + [TowerInput()]


def cli_cycles(seed: int) -> Iterator[list]:
    rng = _seeded("cli-point", seed, "jobs")
    while True:
        yield _cli_cycle(rng)


def warmup_input(workload: str):
    """The warm-up job's input: outside every cycle, from a mid-cost slot, and
    the same for every seed, so that set-up time does not depend on the seed."""
    rng = random.Random(f"{workload}/warmup")
    if workload == "chamber":
        while (inp := draw_chamber(rng)).slot != CHAMBER_WARMUP_SLOT:
            pass
        return inp
    if workload == "hm-tower":
        while (inp := draw_hm(rng)).slot != HM_WARMUP_SLOT:
            pass
        return inp
    return CliCall("warmup", WARMUP_ARGV, lambda doc: "")
