import pytest

from reference import check_weighted_sequence, monomials_up_to_degree
from torusgit.errors import InputError
from torusgit.lattice import IntMatrix
from torusgit.rees import (
    MonomialWeightedCenter,
    check_presentation,
    exceptional_divisor,
    extended_weighted_blowup,
    saturated_locus,
    weighted_blowup_locus,
)
from torusgit.torus import FinitePartElement, TorusAction, is_semistable, support_key


def action(rows, n=None, **kw):
    if not rows:
        return TorusAction(0, IntMatrix(0, n, ()), **kw)
    return TorusAction(len(rows), IntMatrix.from_rows(rows, len(rows[0])), **kw)


A2_TRIVIAL = action([], n=2)
HYPERBOLA = action([[1, -1]])
ORIGIN = MonomialWeightedCenter((0, 1), (1, 1))


def test_center_validation():
    with pytest.raises(InputError):
        MonomialWeightedCenter((), ())
    with pytest.raises(InputError):
        MonomialWeightedCenter((0,), (0,))
    with pytest.raises(InputError):
        MonomialWeightedCenter((1, 0), (1, 1))


def test_weighted_sequence_small_checks():
    assert check_weighted_sequence(ORIGIN, n_bound=6, total_degree_bound=6)
    assert check_weighted_sequence(MonomialWeightedCenter((0, 1), (1, 2)),
                                   n_bound=6, total_degree_bound=6)
    assert check_weighted_sequence(MonomialWeightedCenter((0,), (3,)),
                                   n_bound=7, total_degree_bound=5)


def test_eb_origin_in_a2():
    eb = extended_weighted_blowup(A2_TRIVIAL, ORIGIN)
    assert eb.ambient.rank == 1 and eb.ambient.dim == 3
    assert eb.ambient.weights.entries == ((1, 1, -1),)
    assert eb.theta == (-1,)
    assert eb.exceptional_index == 2
    assert eb.substitution == (1, 1)
    assert check_presentation(eb) == []


def test_eb_hyperbola():
    eb = extended_weighted_blowup(HYPERBOLA, ORIGIN)
    assert [eb.ambient.character(j) for j in range(3)] == [(1, 1), (-1, 1), (0, -1)]
    assert check_presentation(eb) == []


def test_eb_finite_part_must_preserve_center():
    swap = FinitePartElement((1, 0, 2), IntMatrix.identity(0))
    a = TorusAction(0, IntMatrix(0, 3, ()), finite_part=(swap,))
    with pytest.raises(InputError):
        extended_weighted_blowup(a, MonomialWeightedCenter((0,), (1,)))
    # a center preserved setwise is fine
    eb = extended_weighted_blowup(a, MonomialWeightedCenter((0, 1), (1, 1)))
    assert eb.ambient.finite_part[0].perm == (1, 0, 2, 3)


def test_weighted_blowup_locus_origin_a2():
    eb = extended_weighted_blowup(A2_TRIVIAL, ORIGIN)
    locus = weighted_blowup_locus(eb)
    assert len(locus) == 6
    assert all(s & {0, 1} for s in locus)
    assert frozenset({2}) not in locus
    assert frozenset({0, 2}) in locus


def test_blowup_locus_is_rees_cocharacter_semistability():
    # testing only the Rees cocharacter reproduces the weighted blow-up
    # locus: lambda = (0, ..., 0, -1) is in the limit cone iff no X_j is
    # present, and then it destabilizes theta
    for base, center in (
        (A2_TRIVIAL, ORIGIN),
        (HYPERBOLA, ORIGIN),
        (HYPERBOLA, MonomialWeightedCenter((0,), (2,))),
        (action([[1, 0, -1], [0, 1, -1]]), MonomialWeightedCenter((0, 2), (1, 3))),
    ):
        eb = extended_weighted_blowup(base, center)
        lam = tuple([0] * base.rank + [-1])
        locus = set(weighted_blowup_locus(eb))
        for s in eb.ambient.all_supports():
            cone = [eb.ambient.character(j) for j in sorted(s)]
            lam_in_cone = all(sum(x * y for x, y in zip(lam, col)) >= 0 for col in cone)
            destabilized = lam_in_cone  # <lam, theta> = 1 > 0 always
            assert (s in locus) == (not destabilized)


def test_saturated_locus_hyperbola():
    eb = extended_weighted_blowup(HYPERBOLA, ORIGIN)
    sat = set(saturated_locus(eb))
    wbl = set(weighted_blowup_locus(eb))
    assert sat == {frozenset({0, 1}), frozenset({0, 1, 2})}
    assert frozenset({0, 2}) in wbl - sat  # saturated is strictly smaller
    assert sat <= wbl


def test_saturated_equals_blowup_for_trivial_torus():
    eb = extended_weighted_blowup(A2_TRIVIAL, ORIGIN)
    assert saturated_locus(eb) == weighted_blowup_locus(eb)


def test_saturated_subset_of_blowup_generally(rng):
    from conftest import random_action

    for _ in range(10):
        base = random_action(rng, max_rank=2, max_dim=3, entry_bound=2)
        k = rng.randint(1, base.dim)
        coords = tuple(sorted(rng.sample(range(base.dim), k)))
        center = MonomialWeightedCenter(coords, tuple(rng.randint(1, 2) for _ in coords))
        eb = extended_weighted_blowup(base, center)
        assert set(saturated_locus(eb)) <= set(weighted_blowup_locus(eb))


def test_saturated_locus_matches_invariant_section_witnesses(rng):
    """Independent route to the saturated locus: a support is semistable
    for theta over the moduli space iff some fully invariant monomial of
    positive Rees degree is supported on it.  Witness search up to total
    degree 12 agrees with the cone criterion in both directions on a
    seeded family."""
    for _ in range(25):
        r = rng.randint(0, 2)
        n = rng.randint(1, 3)
        base = (TorusAction(r, IntMatrix.from_rows(
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)], n))
                if r else TorusAction(0, IntMatrix(0, n, ())))
        k = rng.randint(1, n)
        coords = tuple(sorted(rng.sample(range(n), k)))
        center = MonomialWeightedCenter(coords, tuple(rng.randint(1, 2) for _ in coords))
        eb = extended_weighted_blowup(base, center)
        amb = eb.ambient
        sat = set(saturated_locus(eb))
        zero = tuple(0 for _ in range(amb.rank - 1))
        witnesses = []
        for m in monomials_up_to_degree(amb.dim, 12):
            char = amb.weights.mul_vec(m)
            if char[:-1] == zero and char[-1] > 0:
                witnesses.append(frozenset(j for j, e in enumerate(m) if e))
        for s in amb.all_supports():
            assert (s in sat) == any(w <= s for w in witnesses), (
                base.weights.entries, center, sorted(s))


def test_exceptional_divisor():
    eb = extended_weighted_blowup(A2_TRIVIAL, ORIGIN)
    div = exceptional_divisor(eb)
    assert div.exceptional_index == 2
    assert all(2 not in s for s in div.on_divisor)
    assert len(div.on_divisor) == 4
    # the section image never meets the divisor
    for s in A2_TRIVIAL.all_supports():
        assert not div.contains(eb.section_support(s))
    # restricted to the blow-up locus: some X_j present, T absent
    assert set(div.blowup_intersection) == {
        frozenset({0}), frozenset({1}), frozenset({0, 1})
    }


def test_degree_zero_monomials_biject_with_base():
    # Rees-degree-0 ambient monomials, restricted to the section,
    # enumerate the original monomials exactly once (pi_* O = O)
    for base, center in ((A2_TRIVIAL, ORIGIN),
                         (HYPERBOLA, MonomialWeightedCenter((0, 1), (2, 1)))):
        eb = extended_weighted_blowup(base, center)
        bound = 6
        images = []
        for mono in monomials_up_to_degree(base.dim, bound):
            c = center.weighted_degree(mono)
            lift = tuple(mono) + (c,)
            assert eb.rees_degree(lift) == 0
            images.append(eb.section_of_monomial(lift))
        assert sorted(images) == sorted(monomials_up_to_degree(base.dim, bound))


def test_section_is_complement_of_divisor():
    eb = extended_weighted_blowup(HYPERBOLA, ORIGIN)
    t = eb.exceptional_index
    originals = HYPERBOLA.all_supports()
    images = {eb.section_support(s) for s in originals}
    # the section hits every support containing T exactly once
    assert images == {s for s in eb.ambient.all_supports() if t in s}


def test_loci_are_the_sorted_support_scans(rng):
    """The loci keep support_key order without sorting: saturated_locus is
    the sorted is_semistable scan of the ambient, and the other lists are
    the sorted filters of all_supports."""
    from conftest import random_action

    for _ in range(15):
        base = random_action(rng, max_rank=2, max_dim=4, entry_bound=2)
        coords = tuple(sorted(rng.sample(range(base.dim), rng.randint(1, base.dim))))
        eb = extended_weighted_blowup(base, MonomialWeightedCenter(coords, (1,) * len(coords)))
        amb = eb.ambient
        supports = amb.all_supports()
        assert saturated_locus(eb) == sorted(
            (s for s in supports if is_semistable(amb, eb.theta, s)), key=support_key)
        assert weighted_blowup_locus(eb) == sorted(
            (s for s in supports if s & set(coords)), key=support_key)
        div = exceptional_divisor(eb)
        assert list(div.on_divisor) == sorted(
            (s for s in supports if eb.exceptional_index not in s), key=support_key)
        assert list(div.blowup_intersection) == sorted(
            (s for s in div.on_divisor if s & set(coords)), key=support_key)
