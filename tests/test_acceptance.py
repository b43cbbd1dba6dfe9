"""Acceptance suite: the package's exit criteria.

Each test exercises one criterion end to end at its stated tolerance
(everything here is exact integer/rational arithmetic, so tolerances are
zero) and prints a single PASS/FAIL line; run with ``pytest -s`` to see
the lines.
"""

import itertools
import random
from fractions import Fraction

from conftest import random_action, random_character
from reference import binary_forms_hm, two_step_semistable
from torusgit.desing import desingularize, verify_tower
from torusgit.lattice import IntMatrix, hilbert_basis_bounded
from torusgit.luna import cubics_example, cubics_slice
from torusgit.quasimap import (
    DvrMapData,
    TwistedCurveGraph,
    Vertex,
    check_binary_forms,
    check_pencil_degrees,
    dvr_lift,
    epsilon_ample_equivalent,
    is_stable_quasimap,
)
from torusgit.rees import MonomialWeightedCenter, extended_weighted_blowup
from torusgit.torus import (
    TorusAction,
    combine_linearizations,
    effectivize,
    is_semistable,
    stabilizer,
)
from torusgit.walls import compute_walls, find_generic_character, is_generic, pull_back, verify_ss_equals_s


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_eb_of_origin_in_a2():
    a2 = TorusAction(0, IntMatrix(0, 2, ()))
    eb = extended_weighted_blowup(a2, MonomialWeightedCenter((0, 1), (1, 1)))
    ok = (
        eb.ambient.rank == 1
        and eb.ambient.dim == 3
        and eb.ambient.weights.entries == ((1, 1, -1),)
        and eb.theta == (-1,)
        and eb.exceptional_index == 2
        and eb.substitution == (1, 1)
    )
    report(1, ok, "extended blow-up of the origin in A^2 is A^3 with weights (1,1,-1), "
                  "section at T=1, exceptional divisor V(T)")


def test_criterion_02_cubics_invariant_ring():
    basis = hilbert_basis_bounded(cubics_slice().weights, 6)
    report(2, basis == [(1, 1, 1)],
           "cubics slice invariant monomials up to degree 6 are exactly {x1 x2 x3}")


def test_criterion_03_cubics_boundary_stabilizer():
    cert = cubics_example()
    g = cert.boundary_stabilizer
    ok = (g.dimension == 0 and g.invariant_factors == (3, 3)
          and g.torus_component_order == 9 and g.finite_part_order == 6)
    report(3, ok, "cubics blow-up stabilizer at {X1,X2,X3}: dimension 0, "
                  "invariant factors (3,3), permutation part of order 6")


def _partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in _partitions(total - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def test_criterion_04_binary_forms_vs_hm_oracle():
    mismatches = []
    patterns = 0
    for n in (2, 3, 4):
        for pattern in _partitions(2 * n):
            patterns += 1
            for mode in ("semistable", "stable_dm"):
                rule = check_binary_forms(pattern, n, mode)
                oracle = binary_forms_hm(pattern, n, mode)
                if rule != oracle:
                    mismatches.append((n, pattern, mode, rule, oracle))
    report(4, not mismatches,
           f"binary-forms rule agrees with the Hilbert-Mumford oracle on all "
           f"{patterns} patterns for n in {{2,3,4}} ({mismatches!r})"[:200])


def test_criterion_05_m0_two_step_property():
    rng = random.Random(0xC0FFEE)
    actions = 0
    mismatches = 0
    while actions < 100:
        a = random_action(rng, max_rank=3, max_dim=5, entry_bound=3)
        chi_l = random_character(rng, a.rank)
        chi_m = random_character(rng, a.rank)
        res = combine_linearizations(a, chi_l, chi_m)
        actions += 1
        for m in (res.m0, res.m0 + 1):
            combined = tuple(m * x + y for x, y in zip(chi_l, chi_m))
            for s in a.all_supports():
                if is_semistable(a, combined, s) != two_step_semistable(a, chi_l, chi_m, s):
                    mismatches += 1
    report(5, actions >= 100 and mismatches == 0,
           f"two-step property of m0 on {actions} random actions at m0 and m0+1: "
           f"{mismatches} mismatches")


def test_criterion_06_chamber_genericity():
    rng = random.Random(0xBEEF)
    actions = 0
    failures = 0
    generic_checked = 0
    while actions < 100:
        a = random_action(rng, max_rank=3, max_dim=6, full_rank=True)
        arr = compute_walls(a, IntMatrix.identity(a.rank))
        actions += 1
        mus = [random_character(rng, a.rank, bound=4) for _ in range(2)]
        mus.append(find_generic_character(arr, 8))
        for mu in mus:
            if not is_generic(arr, mu):
                continue
            generic_checked += 1
            ok, _ = verify_ss_equals_s(a, pull_back(arr, mu))
            if not ok:
                failures += 1
    report(6, actions >= 100 and generic_checked >= 100 and failures == 0,
           f"ss = s for every generic character: {generic_checked} characters over "
           f"{actions} full-rank actions, {failures} failures")


def test_criterion_07_desingularization_towers():
    hyperbola = TorusAction(1, IntMatrix.from_rows([[1, -1]]))
    slice_eff = effectivize(cubics_slice()).action
    ok = True
    details = []
    for name, base, chi in (("A^2/(1,-1)", hyperbola, (0,)),
                            ("cubics slice", slice_eff, (0, 0))):
        tower = desingularize(base, chi)
        report_obj = verify_tower(tower)
        finite = all(stabilizer(tower.final_action, s).dimension == 0
                     for s in tower.final_dm_supports)
        good = len(tower.steps) == 1 and finite and report_obj.ok
        ok = ok and good
        details.append(f"{name}: steps={len(tower.steps)} verified={report_obj.ok}")
    report(7, ok, "one-step towers with finite final stabilizers and full "
                  "verification (" + "; ".join(details) + ")")


def _random_equivalence_graph(rng):
    while True:
        n = rng.randint(1, 5)
        vertices = []
        for _ in range(n):
            genus = rng.choice([0, 0, 0, 1, 2])
            in_dm = rng.random() < 0.7
            den = rng.choice([1, 1, 2, 3])
            lx = Fraction(rng.randint(0, 4), den)
            low = 1 if not in_dm else -2
            l = Fraction(rng.randint(low, 4), den)
            vertices.append(Vertex(genus, in_dm, {"L_X": lx, "L": l}))
        edges = [(rng.randrange(v), v, rng.choice([1, 2, 3, 6])) for v in range(1, n)]
        for _ in range(rng.randint(0, 2)):
            edges.append((rng.randrange(n), rng.randrange(n), rng.choice([1, 2, 3, 6])))
        legs = [(rng.randrange(n), rng.choice([1, 1, 2, 3, 6]))
                for _ in range(rng.randint(0, 4))]
        try:
            g = TwistedCurveGraph(tuple(vertices), tuple(edges), tuple(legs), ("L_X", "L"))
        except Exception:
            continue
        if g.total_genus() == 1:
            continue
        return g


def test_criterion_08_quasimap_predicates():
    rng = random.Random(0xABCDEF)
    graphs = 0
    equiv_failures = 0
    closure_failures = 0
    stable_count = 0
    while graphs < 500:
        g = _random_equivalence_graph(rng)
        graphs += 1
        stable = is_stable_quasimap(g)[0]
        if stable != epsilon_ample_equivalent(g):
            equiv_failures += 1
        if stable:
            stable_count += 1
            n = len(g.vertices)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    try:
                        sub = g.subcurve(subset)
                    except Exception:
                        continue
                    if not is_stable_quasimap(sub)[0]:
                        closure_failures += 1
    report(8, graphs >= 500 and equiv_failures == 0 and closure_failures == 0,
           f"stability <=> epsilon-ampleness on {graphs} graphs "
           f"({stable_count} stable; subcurve closure failures: {closure_failures})")


def test_criterion_09_pencil_bookkeeping():
    def vert(lx, l):
        return Vertex(0, True, {"L_X": Fraction(lx), "L": Fraction(l)})

    single = TwistedCurveGraph((vert(12, 0),), (),
                               tuple((0, i + 1) for i in range(12)), ("L_X", "L"))
    degenerate = TwistedCurveGraph(
        (vert(12, 1), vert(3, 0), vert(0, 0)),
        ((0, 1, 1), (0, 2, 1)),
        tuple((0, i + 1) for i in range(9)) + ((1, 10), (1, 11), (1, 12)),
        ("L_X", "L"),
    )
    mutated = TwistedCurveGraph((vert(11, 0),), (),
                                tuple((0, i + 1) for i in range(12)), ("L_X", "L"))
    ok = (check_pencil_degrees(single).ok
          and check_pencil_degrees(degenerate).ok
          and not check_pencil_degrees(mutated).ok)
    report(9, ok, "pencil degree relation deg L_X = #legs + 3 deg L: canonical and "
                  "degenerate graphs pass, mutated control fails")


def test_criterion_10_dvr_lifting():
    equal = dvr_lift(DvrMapData((2, 2, 2)))
    distinct = dvr_lift(DvrMapData((1, 2, 3)))
    ok = (
        equal.on_axis_proper_transform == (False, False, False)
        and not equal.meets_some_axis
        and distinct.on_axis_proper_transform == (False, True, True)
        and distinct.meets_some_axis
        and distinct.m == 1
        and distinct.lifted_orders == (0, 1, 2)
    )
    report(10, ok, "DVR lifts: equal orders stay off the axis proper transforms, "
                   "orders (1,2,3) meet axes 2 and 3")
