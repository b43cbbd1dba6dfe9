import itertools
import random
from fractions import Fraction

import pytest

from reference import binary_forms_hm
from torusgit.errors import InputError
from torusgit.quasimap import (
    DivisorConfig,
    DvrMapData,
    TwistedCurveGraph,
    Vertex,
    check_binary_forms,
    check_pencil_degrees,
    check_twisted_conic,
    class_beta,
    dvr_lift,
    epsilon_ample_equivalent,
    is_stable_quasimap,
    omega_log_degree,
)


def vert(genus=0, in_dm=True, lx=0, l=None):
    degrees = {"L_X": Fraction(lx)}
    if l is not None:
        degrees["L"] = Fraction(l)
    return Vertex(genus, in_dm, degrees)


def graph(vertices, edges=(), legs=(), with_l=True):
    bundles = ("L_X", "L") if with_l else ("L_X",)
    return TwistedCurveGraph(tuple(vertices), tuple(edges), tuple(legs), bundles)


# ---------------------------------------------------------------------------
# structure and omega log degrees
# ---------------------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(InputError):
        TwistedCurveGraph((), (), (), ("L_X",))
    with pytest.raises(InputError):  # disconnected
        graph([vert(l=0), vert(l=0)])
    with pytest.raises(InputError):  # missing L_X
        TwistedCurveGraph((Vertex(0, True, {}),), (), (), ("L_X",))
    with pytest.raises(InputError):  # negative L_X degree
        graph([vert(lx=-1, l=0)])
    with pytest.raises(InputError):  # denominator does not divide local indices
        TwistedCurveGraph(
            (Vertex(0, True, {"L_X": Fraction(1, 3)}),), (), ((0, 2),), ("L_X",)
        )


def test_twisted_degree_denominators_allowed():
    g = TwistedCurveGraph(
        (Vertex(0, True, {"L_X": Fraction(1, 2)}), Vertex(0, True, {"L_X": Fraction(1, 2)})),
        ((0, 1, 2),), (), ("L_X",),
    )
    assert class_beta(g)["L_X"] == 1


def test_omega_log_degree_examples():
    bridge = graph([vert(l=1), vert(lx=3, l=1), vert(lx=3, l=1)],
                   edges=[(0, 1, 1), (0, 2, 1)])
    assert omega_log_degree(bridge, 0) == 0  # genus 0, two edge-ends
    lone = graph([vert(lx=1, l=1)])
    assert omega_log_degree(lone, 0) == -2
    elliptic = graph([Vertex(1, True, {"L_X": Fraction(0), "L": Fraction(0)})])
    assert omega_log_degree(elliptic, 0) == 0


# ---------------------------------------------------------------------------
# quasimap stability
# ---------------------------------------------------------------------------


def test_stable_pencil_vertex():
    g = graph([vert(lx=12, l=0)], legs=[(0, i + 1) for i in range(12)])
    ok, violations = is_stable_quasimap(g)
    assert ok and violations == []
    # the unmarked degree-12 vertex is just as stable: nef degree -2 + 36
    bare = graph([vert(lx=12, l=0)])
    assert is_stable_quasimap(bare) == (True, [])


def test_unstable_contracted_bridge_in_dm():
    g = graph(
        [vert(lx=0, l=0, in_dm=True), vert(lx=1, l=1), vert(lx=1, l=1)],
        edges=[(0, 1, 1), (0, 2, 1)],
    )
    ok, violations = is_stable_quasimap(g)
    assert not ok and violations == [0]


def test_stable_degenerate_bridge_out_of_dm():
    g = graph(
        [vert(lx=0, l=1, in_dm=False), vert(lx=1, l=1), vert(lx=1, l=1)],
        edges=[(0, 1, 1), (0, 2, 1)],
    )
    ok, violations = is_stable_quasimap(g)
    assert ok, violations


def test_nef_failure_detected():
    g = graph([vert(lx=0, l=0)])  # isolated rational vertex, degree -2
    ok, violations = is_stable_quasimap(g)
    assert not ok and violations == [0]


def test_genus_one_zero_degree_vertex_unstable():
    g = graph([Vertex(1, True, {"L_X": Fraction(0), "L": Fraction(0)})])
    ok, violations = is_stable_quasimap(g)
    assert not ok and violations == [0]


def test_missing_l_bundle_raises_only_when_needed():
    g = graph([vert(lx=4)], with_l=False)
    assert is_stable_quasimap(g)[0]  # positive degree: no need for L
    g0 = graph([vert(lx=0, in_dm=True), vert(lx=1), vert(lx=1)],
               edges=[(0, 1, 1), (0, 2, 1)], with_l=False)
    with pytest.raises(InputError):
        is_stable_quasimap(g0)


def test_epsilon_ample_refuses_genus_one_total():
    g = graph([Vertex(1, True, {"L_X": Fraction(1), "L": Fraction(0)})])
    with pytest.raises(InputError):
        epsilon_ample_equivalent(g)


def _random_equivalence_graph(rng: random.Random) -> TwistedCurveGraph:
    """Random connected graph in the regime where stability and the
    epsilon-ample test agree: "L" tracked, total genus != 1, and vertices
    out of the DM locus carry positive L-degree (a quasimap meets the DM
    locus on every component)."""
    while True:
        n = rng.randint(1, 5)
        vertices = []
        for _ in range(n):
            genus = rng.choice([0, 0, 0, 1, 2])
            in_dm = rng.random() < 0.7
            den = rng.choice([1, 1, 2, 3])
            lx = Fraction(rng.randint(0, 4), den)
            l = Fraction(rng.randint(1 if not in_dm else -2, 4), den)
            vertices.append(Vertex(genus, in_dm, {"L_X": lx, "L": l}))
        edges = []
        for v in range(1, n):
            edges.append((rng.randrange(v), v, rng.choice([1, 1, den, 6])))
        for _ in range(rng.randint(0, 2)):
            v, w = rng.randrange(n), rng.randrange(n)
            edges.append((v, w, rng.choice([1, 2, 3, 6])))
        legs = [(rng.randrange(n), rng.choice([1, 1, 2, 3, 6]))
                for _ in range(rng.randint(0, 4))]
        try:
            g = TwistedCurveGraph(tuple(vertices), tuple(edges), tuple(legs), ("L_X", "L"))
        except InputError:
            continue
        if g.total_genus() == 1:
            continue
        return g


def test_predicate_equivalence_random_suite():
    rng = random.Random(1812)
    for _ in range(200):
        g = _random_equivalence_graph(rng)
        assert is_stable_quasimap(g)[0] == epsilon_ample_equivalent(g), g


def test_subcurve_closure_random_suite():
    rng = random.Random(2764)
    stable_seen = 0
    while stable_seen < 60:
        g = _random_equivalence_graph(rng)
        if not is_stable_quasimap(g)[0]:
            continue
        stable_seen += 1
        n = len(g.vertices)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                try:
                    sub = g.subcurve(subset)
                except InputError:
                    continue  # disconnected selection
                assert is_stable_quasimap(sub)[0], (g, subset)


def test_class_beta_examples():
    g = graph([vert(lx=5, l=0), vert(lx=7, l=2)], edges=[(0, 1, 1)])
    beta = class_beta(g)
    assert beta["L_X"] == 12 and beta["L"] == 2


def test_class_beta_additive_under_gluing():
    rng = random.Random(99)
    for _ in range(20):
        g1 = _random_equivalence_graph(rng)
        g2 = _random_equivalence_graph(rng)
        shift = len(g1.vertices)
        glued = TwistedCurveGraph(
            g1.vertices + g2.vertices,
            g1.edges + tuple((v + shift, w + shift, d) for v, w, d in g2.edges)
            + ((0, shift, 1),),  # glue at a fresh untwisted node
            g1.legs + tuple((v + shift, e) for v, e in g2.legs),
            g1.tracked_bundles,
        )
        b1, b2, b = class_beta(g1), class_beta(g2), class_beta(glued)
        assert all(b[k] == b1[k] + b2[k] for k in b)


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------


def test_binary_forms_examples():
    assert check_binary_forms((3, 3), 3, "semistable")
    assert not check_binary_forms((3, 3), 3, "stable_dm")
    assert check_binary_forms((2, 2, 2), 3, "semistable")
    assert check_binary_forms((2, 2, 2), 3, "stable_dm")
    assert not check_binary_forms((4, 1, 1), 3, "semistable")
    assert not check_binary_forms((4, 1, 1), 3, "stable_dm")
    with pytest.raises(InputError):
        check_binary_forms((2, 2), 3, "semistable")
    for n in (0, -1):
        with pytest.raises(InputError, match="n must be >= 1"):
            check_binary_forms((), n, "semistable")
        with pytest.raises(InputError, match="n must be >= 1"):
            binary_forms_hm((), n, "stable_dm")


@pytest.mark.parametrize("check", [check_binary_forms, binary_forms_hm])
def test_binary_forms_reject_non_positive_multiplicities(check):
    for mults in ((3, -1), (2, 0, 0)):
        with pytest.raises(InputError, match="^multiplicities must be positive$"):
            check(mults, 1, "semistable")


def _partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in _partitions(total - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def test_binary_forms_rule_matches_hm_oracle():
    for n in (2, 3, 4):
        for pattern in _partitions(2 * n):
            for mode in ("semistable", "stable_dm"):
                assert check_binary_forms(pattern, n, mode) == binary_forms_hm(pattern, n, mode), (
                    n, pattern, mode)


# ---------------------------------------------------------------------------
# twisted conics
# ---------------------------------------------------------------------------


def test_conic_examples():
    smooth = DivisorConfig("smooth_P1", ((3, 3),), 3)
    assert check_twisted_conic(smooth) == (True, False)
    conic = DivisorConfig("twisted_conic", ((1, 1, 1), (1, 1, 1)), 3)
    assert check_twisted_conic(conic) == (True, True)
    lopsided = DivisorConfig("twisted_conic", ((1, 1), (2, 1, 1)), 3)
    assert check_twisted_conic(lopsided) == (False, False)


def test_conic_validation():
    with pytest.raises(InputError):
        DivisorConfig("twisted_conic", ((1, 1),), 1)
    with pytest.raises(InputError):
        DivisorConfig("smooth_P1", ((1, 1),), 3)


def test_conic_dm_forces_balanced_totals():
    cfg = DivisorConfig("twisted_conic", ((2, 1), (1, 1, 1)), 3)
    valid, in_dm = check_twisted_conic(cfg)
    assert valid and in_dm
    cfg = DivisorConfig("twisted_conic", ((3,), (1, 1, 1)), 3)
    valid, in_dm = check_twisted_conic(cfg)
    assert valid and not in_dm  # a full-degree point on one component


# ---------------------------------------------------------------------------
# DVR lifting
# ---------------------------------------------------------------------------


def test_dvr_lift_equal_orders():
    lift = dvr_lift(DvrMapData((2, 2, 2)))
    assert lift.m == 2
    assert lift.lifted_orders == (0, 0, 0)
    assert lift.on_axis_proper_transform == (False, False, False)
    assert not lift.meets_some_axis


def test_dvr_lift_distinct_orders():
    lift = dvr_lift(DvrMapData((1, 2, 3)))
    assert lift.m == 1
    assert lift.lifted_orders == (0, 1, 2)
    assert lift.on_axis_proper_transform == (False, True, True)
    assert lift.meets_some_axis


def test_dvr_lift_single_coordinate():
    lift = dvr_lift(DvrMapData((5,)))
    assert lift.m == 5 and lift.lifted_orders == (0,) and not lift.meets_some_axis


def test_dvr_rejects_zero_order():
    with pytest.raises(InputError):
        DvrMapData((1, 0, 2))


# ---------------------------------------------------------------------------
# pencils of cubics
# ---------------------------------------------------------------------------


def pencil_graph():
    return graph([vert(lx=12, l=0)], legs=[(0, i + 1) for i in range(12)])


def test_pencil_single_vertex_passes():
    report = check_pencil_degrees(pencil_graph())
    assert report.ok and report.vertex_results == ((0, True),)


def test_pencil_degenerate_configuration_passes():
    # vertex 0 carries 9 base points with one unit of L: 12 = 9 + 3*1;
    # vertex 1 carries the remaining 3 base points: 3 = 3 + 3*0;
    # a vertex contracted inside the exceptional satisfies 0 = 0 + 3*0
    g = graph(
        [vert(lx=12, l=1), vert(lx=3, l=0), vert(lx=0, l=0)],
        edges=[(0, 1, 1), (0, 2, 1)],
        legs=[(0, i + 1) for i in range(9)] + [(1, 10), (1, 11), (1, 12)],
    )
    report = check_pencil_degrees(g)
    assert report.ok, report


def test_pencil_mutated_control_fails():
    g = graph([vert(lx=12, l=0)], legs=[(0, i + 1) for i in range(9)])
    with pytest.raises(InputError):
        check_pencil_degrees(g)  # wrong leg count is an input error
    bad = graph([vert(lx=11, l=0)], legs=[(0, i + 1) for i in range(12)])
    report = check_pencil_degrees(bad)
    assert not report.ok and report.vertex_results == ((0, False),)
