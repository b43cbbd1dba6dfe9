"""The oracles agree with hand-checked cases and reject wrong answers.

Run from the root of a checkout: python3 -m pytest bench/tests
"""

import copy
import random
from fractions import Fraction

import oracles as orc
import workloads as wl

HYPERBOLA = [(1,), (-1,)]
PLANE = [(1, 0), (0, 1), (1, 1)]


def test_semistable_locus_of_the_hyperbola():
    # -chi = -1 lies in the cone of a support iff the support holds x2 (weight -1)
    assert orc.semistable_masks(HYPERBOLA, (1,)) == {0b10, 0b11}
    assert orc.semistable_masks(HYPERBOLA, (-1,)) == {0b01, 0b11}
    assert orc.semistable_masks(HYPERBOLA, (0,)) == {0b00, 0b01, 0b10, 0b11}


def test_semistable_locus_rejects_the_opposite_character():
    assert orc.semistable_masks(PLANE, (-1, -1)) != orc.semistable_masks(PLANE, (1, 1))
    assert orc.semistable_masks(PLANE, (-1, -1)) == {0b100, 0b011, 0b101, 0b110, 0b111}


def test_upward_closure():
    assert orc.upward_closed({0b10, 0b11}, 2)
    assert not orc.upward_closed({0b10}, 2)
    assert orc.maximal({0, 0b01, 0b10}) == [0b01, 0b10]


def test_orbit_changing():
    assert orc.orbit_changing(HYPERBOLA, 0b01)
    assert not orc.orbit_changing(HYPERBOLA, 0b11)  # the cone of +-1 is a line
    assert not orc.orbit_changing(HYPERBOLA, 0)


def test_first_generic_character_in_the_documented_order():
    # the lines spanned by (1,0), (0,1), (1,1); (1,-1) is the first vector off them
    assert orc.first_generic(PLANE, 2, 3) == (1, -1)
    assert not orc.is_generic(PLANE, (1, 1))
    assert orc.wall_normals_rank2(PLANE) == {(0, 1), (1, 0), (1, -1)}
    order = list(orc.candidates(1, 2))
    assert order == [(0,), (1,), (-1,), (2,), (-2,)]


def test_hm_minimum_on_a_half_line():
    # support {x2} of the hyperbola: the limit cone is lambda <= 0, chi = 1
    assert orc.check_hm_minimum(HYPERBOLA, [[1]], (1,), 0b10, (1, Fraction(1)), (-1,), 2) == ""
    assert "outside the limit cone" in orc.check_hm_minimum(
        HYPERBOLA, [[1]], (1,), 0b10, (-1, Fraction(1)), (1,), 2)
    # a claimed minimum above the true one is beaten by a box point
    assert "beats" in orc.check_hm_minimum(
        PLANE, [[1, 0], [0, 1]], (1, 1), 0b001, (1, Fraction(1)), (0, -1), 2)
    assert "not attained" in orc.check_hm_minimum(
        HYPERBOLA, [[1]], (1,), 0b10, (1, Fraction(4)), (-1,), 2)


def test_m0_and_e_on_the_documented_combine_example():
    # weights (1, 1, -1), chi_L = 1, chi_M = -1: d = -1, e = 1, m0 = 2
    d, e = (-1, Fraction(1)), orc.sup_closed_form([[1]], (-1,))
    assert e == (1, Fraction(1))
    assert orc.least_m0(2, d, e)
    assert not orc.least_m0(1, d, e) and not orc.least_m0(3, d, e)
    assert orc.sup_closed_form([[2]], (1,)) == (1, Fraction(1, 2))
    assert orc.less((-1, Fraction(4)), (-1, Fraction(1))) and orc.less((0, Fraction(0)), (1, Fraction(1)))


def test_chamber_check_accepts_the_program_and_rejects_tampering():
    from torusgit import torus
    from torusgit.lattice import IntMatrix

    rng = random.Random(3)
    inp = wl.draw_chamber(rng)
    while not inp.semistable:
        inp = wl.draw_chamber(rng)
    out = wl.run_chamber(inp)
    assert wl.check_chamber(inp, out) == ""

    action = torus.TorusAction(3, IntMatrix.from_rows(inp.rows, wl.CHAMBER_DIM))
    flipped = dict(out, semistable=torus.semistable_supports(
        action, tuple(-e for e in out["pulled_back"])))
    assert "semistable locus" in wl.check_chamber(inp, flipped)
    assert "generic" in wl.check_chamber(inp, dict(out, generic=(0, 0, 1)))
    off_center = dict(out, saturated=out["saturated"] + [frozenset({5, 9})])
    assert wl.check_chamber(inp, off_center) != ""
    assert wl.check_chamber(inp, dict(out, verdict=(False, frozenset()))) != ""


def test_hm_check_accepts_the_program_and_rejects_tampering():
    rng = random.Random(11)
    inp = wl.draw_hm(rng)
    while inp.norm is None:
        inp = wl.draw_hm(rng)
    out = wl.run_hm(inp)
    assert wl.check_hm(inp, out) == ""
    assert wl.check_hm(inp, dict(out, m0=out["m0"] + 1)) != ""
    sign, square = out["d"]
    assert wl.check_hm(inp, dict(out, d=(sign, square * 2))) != ""
    assert wl.check_hm(inp, dict(out, e=(1, out["e"][1] + 1))) != ""
    assert wl.check_hm(inp, dict(out, values=set())) != ""


def test_tower_check_rejects_an_infinite_stabilizer():
    inp = wl.TowerInput(bases=([[1, -1]], [[1, 0, -1], [0, 1, -1]]))
    out = wl.run_towers(inp)
    assert wl.check_towers(inp, out) == ""
    bad = copy.deepcopy(out)
    bad["towers"][0]["final_supports"] = list(bad["towers"][0]["final_supports"]) + [frozenset({2})]
    assert wl.check_towers(inp, bad) != ""
    bad = copy.deepcopy(out)
    bad["towers"][1]["characters"] = [(0, 0, 1)]
    assert wl.check_towers(inp, bad) != ""


def test_cli_checks():
    assert wl.canonical_json('{\n  "a": 1\n}\n') == {"a": 1}
    assert wl.canonical_json('{"a": 1}') is None
    assert wl.canonical_json("Traceback (most recent call last):\n") is None
    calls = {c.label: c for c in wl._cli_cycle(random.Random(5))}
    assert calls["invariants"].check({"degree_bound": 6, "generators": [[1, 1, 1]]}) == ""
    assert calls["invariants"].check({"degree_bound": 6, "generators": [[1, 1, 1], [3, 0, 0]]}) != ""
    stab = {"dimension": 0, "invariant_factors": [3], "finite_part_order": 6}
    assert calls["luna-cubics"].check({"boundary_stabilizer": stab}) != ""
    # a malformed call that prints a traceback fails; an input-error document passes
    bad = calls["malformed-legs"]
    assert wl._cli_outcome(bad, 1, "", 0.1, 0.1).failed
    ok = wl._cli_outcome(bad, 1, '{\n  "error": "legs",\n  "kind": "input"\n}\n', 0.1, 0.1)
    assert not ok.failed and bad.check(ok.output) == ""
