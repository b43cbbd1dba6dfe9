import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEGENERATE_20, GENERAL_POSITION_16, random_action, random_character
from reference import hm_pairing, two_step_semistable
from torusgit.errors import ComputationDeclined, InputError
from torusgit.lattice import (
    IntMatrix, cone_nonzero_point, dot, echelon_basis, kernel_basis, primitive, rank,
    scale_to_integers, solve_rational,
)
from torusgit.rees import MonomialWeightedCenter, extended_weighted_blowup
from torusgit.torus import (
    FinitePartElement,
    HmMinimum,
    SignedSquare,
    TorusAction,
    combine_linearizations,
    cone_over_projective,
    effectivize,
    in_orbit_changing_locus,
    is_semistable,
    is_stable,
    limit_cone,
    minimal_hm_values,
    normalized_hm_min,
    semistable_supports,
    stabilizer,
    support_key,
)
from torusgit import torus
from torusgit.torus import _face_direction


def action(rows, **kw):
    return TorusAction(len(rows), IntMatrix.from_rows(rows, len(rows[0])), **kw)


HYPERBOLA = action([[1, -1]])  # A^2 with weights (1, -1)


@pytest.fixture(autouse=True)
def empty_face_table():
    """Every test starts on an empty face table, so that counted calls do not
    depend on which test ran before."""
    torus._face_table.cache_clear()


# ---------------------------------------------------------------------------
# validation of the norm form and the finite part
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q, message", [
    ([[0, 1], [1, 0]], "positive definite"),  # zero leading minor
    ([[1, 2], [2, 1]], "positive definite"),  # negative determinant
    ([[1, 0], [0, 0]], "positive definite"),  # singular
    ([[-1, 0], [0, -1]], "positive definite"),
    ([[2, 1], [0, 1]], "symmetric"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "rank x rank"),
])
def test_rejects_bad_norm_forms(q, message):
    with pytest.raises(InputError, match=message):
        action([[1, 0], [0, 1]], norm_form=IntMatrix.from_rows(q))


def test_accepts_positive_definite_norm_form():
    a = action([[1, 0], [0, 1]], norm_form=IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert a.norm_form.entries == ((2, 1), (1, 1))


def test_rejects_non_unimodular_finite_part():
    double = FinitePartElement((0, 1), IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(InputError, match="unimodular"):
        action([[1, 0], [0, 1]], finite_part=(double,))


# ---------------------------------------------------------------------------
# adding a torus factor
# ---------------------------------------------------------------------------

# rank 2 on A^3: x_1 and x_2 swapped together with the two torus factors
SWAP = FinitePartElement((1, 0, 2), IntMatrix.from_rows([[0, 1], [1, 0]]))
SWAPPED = action([[1, 0, 1], [0, 1, 1]], norm_form=IntMatrix.from_rows([[2, 1], [1, 2]]),
                 finite_part=(SWAP,))
Q_PLUS_ONE = ((2, 1, 0), (1, 2, 0), (0, 0, 1))
SWAP_PLUS_ONE = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_blowup_ambient_adds_the_rees_factor():
    eb = extended_weighted_blowup(SWAPPED, MonomialWeightedCenter((0, 1), (2, 2)))
    amb = eb.ambient
    assert amb.weights.entries == ((1, 0, 1, 0), (0, 1, 1, 0), (2, 2, 0, -1))
    assert amb.norm_form.entries == Q_PLUS_ONE
    assert [(el.perm, el.aut.entries) for el in amb.finite_part] == [((1, 0, 2, 3), SWAP_PLUS_ONE)]


def test_cone_ambient_adds_the_scaling_factor():
    red = cone_over_projective(SWAPPED, (1, 1), 3)
    amb = red.action
    assert amb.weights.entries == ((1, 0, 1), (0, 1, 1), (1, 1, 1))
    assert amb.norm_form.entries == Q_PLUS_ONE
    assert [(el.perm, el.aut.entries) for el in amb.finite_part] == [((1, 0, 2), SWAP_PLUS_ONE)]
    assert red.character == (1, 1, -3)


# ---------------------------------------------------------------------------
# limit cones and the HM pairing
# ---------------------------------------------------------------------------


def test_limit_cone_opposite_weights_is_zero():
    assert limit_cone(HYPERBOLA, frozenset({0, 1})) == ((1,), (-1,))


def test_limit_cone_single_coordinate():
    assert limit_cone(HYPERBOLA, frozenset({0})) == ((1,),)


def test_limit_cone_rank3_diagonal_line():
    a = action([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    cone = limit_cone(a, frozenset({0, 1, 2}))
    # the three inequalities force the diagonal line
    for lam in itertools.product(range(-2, 3), repeat=3):
        inside = all(dot(lam, n) >= 0 for n in cone)
        assert inside == (lam[0] == lam[1] == lam[2]), lam


def test_limit_cone_invalid_index():
    with pytest.raises(InputError):
        limit_cone(HYPERBOLA, frozenset({5}))


def test_hm_pairing():
    a = action([[1, 1]])
    assert hm_pairing(a, (1,), (0,)) == 0
    assert hm_pairing(a, (0,), (7,)) == 0
    assert hm_pairing(a, (1,), (1,)) == -1


# ---------------------------------------------------------------------------
# semistability and stability
# ---------------------------------------------------------------------------


def test_semistable_examples():
    a = action([[1, 1, -1]])
    assert not is_semistable(a, (1,), frozenset({0}))
    assert is_semistable(a, (0,), frozenset({0}))
    assert is_semistable(HYPERBOLA, (0,), frozenset())


def test_full_support_with_zero_cone_is_stable_for_every_character():
    # for an effective action with trivial full-support cone, no
    # one-parameter subgroup has a limit at a point with full support,
    # so the point is stable outright
    eff_slice = effectivize(action([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])).action
    for a, chis in ((HYPERBOLA, [(1,), (-2,), (0,)]),
                    (eff_slice, [(1, 2), (0, 0)])):
        full = frozenset(range(a.dim))
        cone = limit_cone(a, full)
        from torusgit.lattice import cone_nonzero_point

        assert cone_nonzero_point(cone, a.rank) is None
        for chi in chis:
            assert is_semistable(a, chi, full)
            assert is_stable(a, chi, full)


def test_stable_examples():
    assert is_stable(HYPERBOLA, (0,), frozenset({0, 1}))
    assert not is_stable(HYPERBOLA, (0,), frozenset({0}))
    slice_action = action([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert not is_stable(slice_action, (0, 0, 0), frozenset({0, 1, 2}))
    assert is_semistable(slice_action, (0, 0, 0), frozenset({0, 1, 2}))


def test_non_invariant_character_rejected():
    swap = FinitePartElement((1, 0), IntMatrix.from_rows([[0, 1], [1, 0]]))
    a = TorusAction(2, IntMatrix.from_rows([[1, 0], [0, 1]]), finite_part=(swap,))
    with pytest.raises(InputError):
        is_semistable(a, (1, 0), frozenset({0}))
    assert is_semistable(a, (-1, -1), frozenset({0, 1}))


# ---------------------------------------------------------------------------
# normalized minima
# ---------------------------------------------------------------------------


def test_normalized_min_two_positive_weights():
    a = action([[1, 1]])
    res = normalized_hm_min(a, (1,), frozenset({0, 1}))
    assert res.value == SignedSquare(-1, Fraction(1))
    assert res.minimizer == (1,)


def test_normalized_min_zero_character():
    res = normalized_hm_min(HYPERBOLA, (0,), frozenset({0}))
    assert res.value == SignedSquare.zero()


def test_normalized_min_single_ray_positive_value():
    res = normalized_hm_min(HYPERBOLA, (1,), frozenset({1}))
    assert res.value == SignedSquare(1, Fraction(1))
    assert res.minimizer == (-1,)


def test_normalized_min_trivial_cone_signals_no_destabilizer():
    assert normalized_hm_min(HYPERBOLA, (1,), frozenset({0, 1})) is None


def test_normalized_min_respects_norm_form():
    # |lambda|_Q = sqrt(2) for lambda = (1) under Q = [[2]]
    a = TorusAction(1, IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[2]]))
    res = normalized_hm_min(a, (1,), frozenset({0, 1}))
    assert res.value == SignedSquare(-1, Fraction(1, 2))


def test_normalized_min_nonrational_value():
    # cone {lambda : -5 l1 - l2 >= 0}; min of -<lambda, (1,0)>/|lambda| is -1/sqrt(26)
    a = action([[-5], [-1]])
    res = normalized_hm_min(a, (1, 0), frozenset({0}))
    assert res.value == SignedSquare(-1, Fraction(1, 26))


def test_minimal_values_examples():
    assert minimal_hm_values(action([[1, 1]]), (1,)) == {SignedSquare(-1, Fraction(1))}
    assert minimal_hm_values(HYPERBOLA, (1,)) == {
        SignedSquare(-1, Fraction(1)),
        SignedSquare(1, Fraction(1)),
    }
    vals = minimal_hm_values(HYPERBOLA, (0,))
    assert vals == {SignedSquare.zero()}


def test_orbit_changing_locus():
    assert in_orbit_changing_locus(HYPERBOLA, frozenset({0}))
    assert not in_orbit_changing_locus(HYPERBOLA, frozenset({0, 1}))
    assert not in_orbit_changing_locus(HYPERBOLA, frozenset())


@st.composite
def action_and_support(draw):
    r, n = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    w = IntMatrix.from_rows([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(r)], n)
    return TorusAction(r, w), frozenset(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))


@settings(max_examples=150, deadline=None)
@given(action_and_support())
def test_orbit_changing_locus_matches_one_system_per_character(inputs):
    """The one-system test equals the union of one strict system per
    character of the support, the empty support included."""
    from torusgit.lattice import cone_has_point_with

    a, s = inputs
    cone = limit_cone(a, s)
    expected = any(cone_has_point_with(cone, a.character(j)) for j in sorted(s))
    assert in_orbit_changing_locus(a, s) == expected


def test_normalized_min_against_lattice_brute_force(rng):
    """The face-enumeration minimum is achieved by its reported feasible
    minimizer and is not beaten by any lattice direction in a box, under
    random positive-definite norm forms."""
    from torusgit.lattice import IntMatrix as IM

    for _ in range(120):
        r = rng.randint(1, 3)
        n = rng.randint(1, 4)
        w = IM.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)], n)
        a_rows = [[rng.randint(-1, 1) for _ in range(r)] for _ in range(r)]
        sq = IM.from_rows(a_rows, r).transpose().mul(IM.from_rows(a_rows, r))
        q = IM.from_rows([[sq.entries[i][j] + (i == j) for j in range(r)]
                          for i in range(r)], r)
        act = TorusAction(r, w, q)
        chi = random_character(rng, r)
        s = frozenset(j for j in range(n) if rng.random() < 0.7)
        res = normalized_hm_min(act, chi, s)
        cone_rows = [act.character(j) for j in sorted(s)]

        def value_sq(lam):
            num = -dot(lam, chi)
            den = dot(lam, q.mul_vec(lam))
            sign = (num > 0) - (num < 0)
            return SignedSquare(sign, Fraction(num * num, den) if num else Fraction(0))

        if res is None:
            for lam in itertools.product(range(-4, 5), repeat=r):
                assert not any(lam) or any(dot(lam, row) < 0 for row in cone_rows)
            continue
        assert all(dot(res.minimizer, row) >= 0 for row in cone_rows)
        assert value_sq(res.minimizer) == res.value
        for lam in itertools.product(range(-4, 5), repeat=r):
            if not any(lam) or any(dot(lam, row) < 0 for row in cone_rows):
                continue
            assert not (value_sq(lam) < res.value), (w.entries, chi, sorted(s), lam)


def test_sign_agreement_with_semistability(rng):
    # s unstable <=> the normalized minimum is < 0
    for _ in range(40):
        a = random_action(rng, max_rank=3, max_dim=4)
        chi = random_character(rng, a.rank)
        for s in a.all_supports():
            res = normalized_hm_min(a, chi, s)
            unstable = not is_semistable(a, chi, s)
            if res is None:
                assert not unstable  # trivial cone has no destabilizer
            else:
                assert unstable == (res.value.sign < 0), (a.weights.entries, chi, sorted(s))


# ---------------------------------------------------------------------------
# combining linearizations
# ---------------------------------------------------------------------------


def test_combine_worked_example():
    a = action([[1, 1, -1]])
    res = combine_linearizations(a, (1,), (-1,))
    assert res.d == SignedSquare(-1, Fraction(1))
    assert res.e == SignedSquare(1, Fraction(1))
    assert res.m0 == 2
    assert res.combined == (1,)


def test_combine_zero_chi_m():
    a = action([[1, 1, -1]])
    res = combine_linearizations(a, (1,), (0,))
    assert res.m0 == 1
    assert res.combined == (1,)


def test_combine_no_unstable_supports():
    res = combine_linearizations(HYPERBOLA, (0,), (2,))
    assert res.m0 == 1 and res.combined == (2,) and res.d is None


# -- oracle: every unstable support, two minima per support ------------------


def _combine_oracle(a, chi_l, chi_m):
    """(m0, combined, d, e) by evaluating d and e on every chi_l-unstable support."""
    unstable = [s for s in a.all_supports() if not is_semistable(a, chi_l, s)]
    if not unstable:
        return 1, tuple(x + y for x, y in zip(chi_l, chi_m)), None, None
    d = e = None
    for s in unstable:
        val_l = normalized_hm_min(a, chi_l, s).value
        sup_m = normalized_hm_min(a, tuple(-x for x in chi_m), s).value.neg()
        assert val_l.sign < 0
        d = val_l if d is None or d < val_l else d
        e = sup_m if e is None or e < sup_m else e
    m0 = 1
    if e.sign > 0:
        while Fraction(m0 * m0) * d.square <= e.square:
            m0 += 1
    return m0, tuple(m0 * x + y for x, y in zip(chi_l, chi_m)), d, e


def _norm_form(draw, r):
    rows = [[draw(st.integers(-1, 1)) for _ in range(r)] for _ in range(r)]
    sq = IntMatrix.from_rows(rows, r).transpose().mul(IntMatrix.from_rows(rows, r))
    return IntMatrix.from_rows([[sq.entries[i][j] + (i == j) for j in range(r)]
                                for i in range(r)], r)


@st.composite
def hm_inputs(draw, kinds=("identity", "norm", "finite")):
    """(action, chi_l, chi_m) at rank 2 or 3: identity norm form, a random
    positive-definite Q = A^T A + I, or a finite part cycling the character
    coordinates (with a circulant Q it preserves and invariant characters)."""
    r = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(kinds))
    entry = st.integers(-3, 3)
    if kind != "finite":
        n = draw(st.integers(1, 6))
        w = IntMatrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(r)], n)
        q = _norm_form(draw, r) if kind == "norm" else None
        a = TorusAction(r, w, q)
        return a, tuple(draw(entry) for _ in range(r)), tuple(draw(entry) for _ in range(r))
    # columns come in orbits v, Pv, ..., P^(r-1) v of the coordinate cycle P
    blocks = draw(st.integers(1, 6 // r))
    cols, perm = [], []
    for b in range(blocks):
        v = [draw(entry) for _ in range(r)]
        for t in range(r):
            cols.append(v[-t:] + v[:-t] if t else v)
            perm.append(b * r + (t + 1) % r)
    if draw(st.booleans()):
        c = draw(entry)
        perm.append(len(cols))
        cols.append([c] * r)
    n = len(cols)
    w = IntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(r)], n)
    cycle = IntMatrix.from_rows([[1 if i == (j + 1) % r else 0 for j in range(r)]
                                 for i in range(r)], r)
    p_diag = draw(st.integers(2, 4))
    p_off = draw(st.integers(-((p_diag - 1) // (r - 1)), p_diag - 1))  # Q > 0
    q = IntMatrix.from_rows([[p_diag if i == j else p_off for j in range(r)]
                             for i in range(r)], r)
    a = TorusAction(r, w, q, (FinitePartElement(tuple(perm), cycle),))
    return a, (draw(entry),) * r, (draw(entry),) * r


@settings(max_examples=80, deadline=None)
@given(hm_inputs())
def test_combine_matches_every_support_oracle(inputs):
    a, chi_l, chi_m = inputs
    res = combine_linearizations(a, chi_l, chi_m)
    assert (res.m0, res.combined, res.d, res.e) == _combine_oracle(a, chi_l, chi_m)


def _uncached_hm_min(a, chi, s):
    torus._face_table.cache_clear()
    return normalized_hm_min(a, chi, s)


@settings(max_examples=50, deadline=None)
@given(hm_inputs(), st.data())
def test_shared_face_table_matches_uncached_minima(inputs, data):
    """Calls for two characters, on the action and on an equal but distinct
    copy, in a drawn order: each equals a call on a cleared face table."""
    a, chi, chi_2 = inputs
    twin = TorusAction(a.rank, a.weights, a.norm_form, a.finite_part)
    assert twin == a and twin is not a
    calls = [(x, c, s) for x in (a, twin) for c in (chi, chi_2) for s in a.all_supports()]
    fresh = [_uncached_hm_min(*call) for call in calls]
    order = data.draw(st.permutations(range(len(calls))))
    for i in order:
        assert normalized_hm_min(*calls[i]) == fresh[i], calls[i]
    expected = {fresh[i].value for i, (x, c, s) in enumerate(calls)
                if x is a and c == chi and in_orbit_changing_locus(a, s)}
    assert minimal_hm_values(a, chi) == expected


def _span_basis(a, active):
    """The integer kernel of the echelon basis of the active characters."""
    rows = echelon_basis([a.character(j) for j in active], a.rank)
    return kernel_basis(IntMatrix.from_rows(rows, a.rank))


def _hm_min_eqs_oracle(a, chi, s):
    """normalized_hm_min with each zero face searched through its own
    kernel: the span's basis as ``_span_basis`` builds it, the cone rows
    projected onto it, cone_nonzero_point there, and the point mapped back."""
    rows = [a.character(j) for j in sorted(s)]
    best = None
    for size in range(len(s) + 1):
        for active in itertools.combinations(sorted(s), size):
            face = _face_direction(a, chi, active)
            if face is None:
                continue
            v2, lam = face
            if v2 == 0:
                bmat = IntMatrix.from_rows(_span_basis(a, active)).transpose()  # rank x k
                pt = cone_nonzero_point([bmat.transpose().mul_vec(m) for m in rows], bmat.cols)
                found = [] if pt is None else [(SignedSquare.zero(), bmat.mul_vec(pt))]
            else:
                found = [(SignedSquare(-1, v2), lam), (SignedSquare(1, v2), tuple(-e for e in lam))]
            for value, w in found:
                w = primitive(w)
                if any(dot(w, m) < 0 for m in rows):
                    continue
                if best is None or value < best[0] or (value == best[0] and w < best[1]):
                    best = (value, w)
    return None if best is None else HmMinimum(*best)


@st.composite
def zero_face_inputs(draw):
    """(action, chi) at rank 1-3 with many faces on which chi vanishes:
    chi = 0 or a sum of weight columns, under Q = I or Q = A^T A + I, or
    hm_inputs' finite part with an invariant chi."""
    kind = draw(st.sampled_from(["identity", "norm", "finite"]))
    if kind == "finite":
        a, chi, _ = draw(hm_inputs(kinds=("finite",)))
        return a, (0,) * a.rank if draw(st.booleans()) else chi
    r, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    w = IntMatrix.from_rows([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(r)], n)
    a = TorusAction(r, w, _norm_form(draw, r) if kind == "norm" else None)
    cols = draw(st.sets(st.integers(0, n - 1)))
    return a, tuple(sum(a.character(j)[i] for j in cols) for i in range(r))


@settings(max_examples=60, deadline=None)
@given(zero_face_inputs())
def test_zero_faces_match_the_own_kernel_search(inputs):
    a, chi = inputs
    for s in a.all_supports():
        assert normalized_hm_min(a, chi, s) == _hm_min_eqs_oracle(a, chi, s), sorted(s)


def _span_face(a, chi, active):
    """``_face_direction`` without its independence check: the critical
    direction of chi on the span of any active set, dependent or not."""
    basis = _span_basis(a, active)
    if not basis:
        return None
    c = [dot(b, chi) for b in basis]
    if not any(c):
        return (Fraction(0), tuple(basis))
    qb = [a.norm_form.mul_vec(b) for b in basis]
    y = solve_rational([[dot(bi, qbj) for qbj in qb] for bi in basis], c)
    v2 = sum(ci * yi for ci, yi in zip(c, y))
    return (v2, scale_to_integers([sum(b[i] * yj for b, yj in zip(basis, y))
                                   for i in range(a.rank)]))


def _hm_min_every_face_oracle(a, chi, s, faces):
    """normalized_hm_min over all 2^|s| active sets, dependent ones and
    spans of {0} included, with a face table shared the same way."""
    rows = [a.character(j) for j in sorted(s)]
    best = None
    for size in range(len(s) + 1):
        for active in itertools.combinations(sorted(s), size):
            if active not in faces:
                faces[active] = _span_face(a, chi, active)
            if faces[active] is None:
                continue
            v2, lam = faces[active]
            if v2 == 0:
                y = cone_nonzero_point([[dot(b, m) for b in lam] for m in rows], len(lam))
                found = [] if y is None else [
                    (SignedSquare.zero(),
                     tuple(sum(b[i] * yj for b, yj in zip(lam, y)) for i in range(a.rank)))]
            else:
                found = [(SignedSquare(-1, v2), lam), (SignedSquare(1, v2), tuple(-e for e in lam))]
            for value, w in found:
                if any(dot(w, m) < 0 for m in rows):
                    continue
                w = primitive(w)
                if best is None or value < best[0] or (value == best[0] and w < best[1]):
                    best = (value, w)
    return None if best is None else HmMinimum(*best)


@st.composite
def face_walk_inputs(draw):
    """(action, chi) at rank 1-4 and N <= 7 (N <= 6 at rank 4): Q = I or
    Q = A^T A + I, optionally a zero weight row; each column random, zero,
    or a repeat or the negative of an earlier one; chi random, 0, a weight
    column or a sum of columns.  Or hm_inputs' finite part with an
    invariant chi or chi = 0."""
    kind = draw(st.sampled_from(["identity", "norm", "zero_row", "finite"]))
    if kind == "finite":
        a, chi, _ = draw(hm_inputs(kinds=("finite",)))
        return a, (0,) * a.rank if draw(st.booleans()) else chi
    r = draw(st.integers(1, 4))
    cols: list[list[int]] = []
    for _ in range(draw(st.integers(0, 7 if r < 4 else 6))):
        how = draw(st.sampled_from(["random", "zero", "repeat", "opposite"] if cols
                                   else ["random", "zero"]))
        if how == "random":
            cols.append([draw(st.integers(-2, 2)) for _ in range(r)])
        elif how == "zero":
            cols.append([0] * r)
        else:
            c = cols[draw(st.integers(0, len(cols) - 1))]
            cols.append(list(c) if how == "repeat" else [-e for e in c])
    n = len(cols)
    rows = [[c[i] for c in cols] for i in range(r)]
    if kind == "zero_row":
        rows[draw(st.integers(0, r - 1))] = [0] * n
    q = _norm_form(draw, r) if kind == "norm" else None
    a = TorusAction(r, IntMatrix.from_rows(rows, n), q)
    chi_kind = draw(st.sampled_from(["random", "zero", "column", "sum"] if n else ["random", "zero"]))
    if chi_kind == "column":
        return a, a.character(draw(st.integers(0, n - 1)))
    if chi_kind == "sum":
        picked = draw(st.sets(st.integers(0, n - 1), min_size=1))
        return a, tuple(sum(a.character(j)[i] for j in picked) for i in range(r))
    if chi_kind == "zero":
        return a, (0,) * r
    return a, tuple(draw(st.integers(-3, 3)) for _ in range(r))


@settings(max_examples=200, deadline=None)
@given(face_walk_inputs())
def test_face_walk_matches_the_every_face_loop(inputs):
    a, chi = inputs
    oracle_faces: dict = {}
    for s in a.all_supports():  # in support_key order
        assert (normalized_hm_min(a, chi, s)
                == _hm_min_every_face_oracle(a, chi, s, oracle_faces)), sorted(s)


def _counting_face_directions(monkeypatch):
    """The active sets later calls ask ``_face_direction`` for."""
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _face_direction(*args)

    monkeypatch.setattr(torus, "_face_direction", counted)
    return calls


def _rank3(cols):
    return TorusAction(3, IntMatrix.from_rows([[c[i] for c in cols] for i in range(3)]))


def _counted_hm_min(monkeypatch, cols, chi):
    """normalized_hm_min on the full support of the rank-3 columns, and the
    active sets it asked ``_face_direction`` for."""
    calls = _counting_face_directions(monkeypatch)
    return normalized_hm_min(_rank3(cols), chi, frozenset(range(len(cols)))), calls


def test_minimal_values_ask_for_each_independent_set_once(monkeypatch):
    """Every set of at most two of eight general columns is independent and
    lies in an orbit-changing support; the 2^8 supports share one table."""
    cols = GENERAL_POSITION_16[:8]
    calls = _counting_face_directions(monkeypatch)
    minimal_hm_values(_rank3(cols), (1, -2, 3))
    assert sorted(calls) == sorted(t for k in range(3) for t in itertools.combinations(range(8), k))


def test_face_loop_visits_the_sets_below_the_rank(monkeypatch):
    cols = GENERAL_POSITION_16
    assert all(rank(IntMatrix.from_rows(list(t))) == 3 for t in itertools.combinations(cols, 3))
    res, calls = _counted_hm_min(monkeypatch, cols, (1, -2, 3))
    # the empty set, 16 planes and 120 lines, each once
    assert len(calls) == len(set(calls)) == 1 + 16 + 120
    assert res == HmMinimum(SignedSquare(-1, Fraction(2916, 811)), (21, 9, 17))


def test_face_loop_on_weights_in_a_plane_visits_the_same_sets(monkeypatch):
    """Weights spanning only a plane used to cost 2^|s| active sets."""
    res, calls = _counted_hm_min(monkeypatch, DEGENERATE_20, (1, -2, 0))
    assert len(calls) == len(set(calls)) == 1 + 20 + 190
    # the weights surround 0 in their plane, so the limit cone is the line
    # of e3, on which chi vanishes
    assert res == HmMinimum(SignedSquare.zero(), (0, 0, 1))


def test_face_cap_counts_the_sets_below_the_rank(monkeypatch):
    """The cap is checked before the loop against 1 + 20 + 190 = 211 faces."""
    a = TorusAction(3, IntMatrix.from_rows([[c[i] for c in DEGENERATE_20] for i in range(3)]))
    s = frozenset(range(20))
    monkeypatch.setattr(torus, "HM_FACE_CAP", 211)
    assert normalized_hm_min(a, (1, -2, 0), s) == HmMinimum(SignedSquare.zero(), (0, 0, 1))
    monkeypatch.setattr(torus, "HM_FACE_CAP", 210)
    monkeypatch.setattr(torus, "_face_direction", None)  # not reached
    with pytest.raises(ComputationDeclined, match="would visit 211 faces, over the cap of 210"):
        normalized_hm_min(a, (1, -2, 0), s)


@pytest.mark.parametrize("n", range(9))
def test_all_supports_come_in_support_key_order(n):
    supports = TorusAction(1, IntMatrix.from_rows([[1] * n], n)).all_supports()
    assert supports == sorted(supports, key=support_key) and len(set(supports)) == 2 ** n


def test_semistable_supports_is_the_sorted_predicate_scan(rng):
    for _ in range(25):
        a = random_action(rng, max_rank=3, max_dim=5)
        chi = random_character(rng, a.rank)
        expected = sorted((s for s in a.all_supports() if is_semistable(a, chi, s)), key=support_key)
        assert semistable_supports(a, chi) == expected


def test_two_step_property_small_sweep(rng):
    for _ in range(30):
        a = random_action(rng, max_rank=3, max_dim=4)
        chi_l = random_character(rng, a.rank)
        chi_m = random_character(rng, a.rank)
        res = combine_linearizations(a, chi_l, chi_m)
        for m in (res.m0, res.m0 + 1):
            combined = tuple(m * x + y for x, y in zip(chi_l, chi_m))
            for s in a.all_supports():
                assert is_semistable(a, combined, s) == two_step_semistable(a, chi_l, chi_m, s)


def test_two_step_rejects_a_chi_m_of_the_wrong_length():
    a = action([[1, 0, -1], [0, 1, -1]])
    for chi_m in ((1,), (1, 2, 3)):
        with pytest.raises(InputError, match="objective length"):
            two_step_semistable(a, (0, 0), chi_m, frozenset({0}))


def test_support_monotonicity_and_stable_implies_semistable(rng):
    for _ in range(25):
        a = random_action(rng, max_rank=3, max_dim=5)
        chi = random_character(rng, a.rank)
        for s in a.all_supports():
            if is_stable(a, chi, s):
                assert is_semistable(a, chi, s)
            for j in range(a.dim):
                bigger = s | {j}
                if is_semistable(a, chi, s):
                    assert is_semistable(a, chi, bigger)


def test_scaling_invariance(rng):
    for _ in range(15):
        a = random_action(rng, max_rank=3, max_dim=4)
        chi = random_character(rng, a.rank)
        for k in (2, 5):
            scaled = tuple(k * e for e in chi)
            assert semistable_supports(a, chi) == semistable_supports(a, scaled)


def test_finite_part_invariance():
    swap = FinitePartElement((1, 0), IntMatrix.from_rows([[0, 1], [1, 0]]))
    a = TorusAction(2, IntMatrix.from_rows([[1, 0], [0, 1]]), finite_part=(swap,))
    chi = (-1, -1)
    for s in a.all_supports():
        assert is_semistable(a, chi, s) == is_semistable(a, chi, swap.apply_support(s))


# ---------------------------------------------------------------------------
# stabilizers and effectivization
# ---------------------------------------------------------------------------


def test_stabilizer_examples():
    g = stabilizer(HYPERBOLA, frozenset({0, 1}))
    assert g.dimension == 0 and g.invariant_factors == ()
    g = stabilizer(HYPERBOLA, frozenset())
    assert g.dimension == 1 and g.invariant_factors == ()


def test_stabilizer_dimension_formula(rng):
    for _ in range(25):
        a = random_action(rng)
        for s in a.all_supports():
            g = stabilizer(a, s)
            cols = sorted(s)
            r = rank(a.weights.submatrix_cols(cols)) if cols else 0
            assert g.dimension + r == a.rank


def test_effectivize_cubics_slice():
    a = action([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    eff = effectivize(a)
    assert eff.action.rank == 2
    assert eff.quotiented_cocharacters == ((1, 1, 1),)
    # semistability agrees support by support; stability agrees only after
    # discarding the kernel directions (a non-effective action has no
    # stable support at all), which is the point of effectivizing
    for s in a.all_supports():
        assert is_semistable(eff.action, (0, 0), s) == is_semistable(a, (0, 0, 0), s)
        assert not is_stable(a, (0, 0, 0), s)
    assert is_stable(eff.action, (0, 0), frozenset({0, 1, 2}))


def test_effectivize_expressible_characters_agree(rng):
    from torusgit.lattice import smith_normal_form, unimodular_inverse

    for _ in range(10):
        a = random_action(rng, max_rank=3, max_dim=4)
        eff = effectivize(a)
        if eff.action is a:
            continue
        # chi = B chi_eff with B the saturation basis used by effectivize
        # (the first rank(W) columns of the inverse Smith transform)
        snf = smith_normal_form(a.weights)
        k = eff.action.rank
        u_inv = unimodular_inverse(snf.left)
        for _ in range(4):
            chi_eff = random_character(rng, k)
            chi = tuple(
                sum(u_inv.entries[i][j] * chi_eff[j] for j in range(k))
                for i in range(a.rank)
            )
            for s in a.all_supports():
                assert is_semistable(eff.action, chi_eff, s) == is_semistable(a, chi, s)


def test_effectivize_trivial_cases():
    a = action([[1, -1]])
    assert effectivize(a).action is a
    zero = TorusAction(2, IntMatrix.zero(2, 3))
    eff = effectivize(zero)
    assert eff.action.rank == 0 and eff.action.dim == 3


# ---------------------------------------------------------------------------
# the projective-to-cone reduction
# ---------------------------------------------------------------------------


def test_cone_over_projective_trivial_group():
    base = TorusAction(0, IntMatrix(0, 2, ()))
    red = cone_over_projective(base, (), 1)
    assert red.action.rank == 1
    assert [red.action.character(j) for j in range(2)] == [(1,), (1,)]
    assert red.character == (-1,)
    for s in red.action.all_supports():
        expected = bool(s)  # every point of P^1 is semistable; the origin is not
        assert is_semistable(red.action, red.character, s) == expected


def test_cone_over_projective_rejects_nonpositive_degree():
    with pytest.raises(InputError):
        cone_over_projective(HYPERBOLA, (0,), 0)
