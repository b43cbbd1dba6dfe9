import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import cone_nonzero_point_snf, hilbert_basis_by_enumeration, monomials_up_to_degree
from torusgit import lattice
from torusgit.errors import ComputationDeclined, InputError
from torusgit.lattice import (
    IntMatrix,
    cone_has_point_with,
    cone_nonzero_point,
    det,
    dot,
    echelon_basis,
    feasible_system,
    hilbert_basis_bounded,
    is_positive_definite,
    kernel_basis,
    primitive,
    rank,
    smith_normal_form,
    solve_rational,
    span_split,
    unimodular_inverse,
)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_2x2_example():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 1], [-1, 1]]))
    assert snf.diag == (1, 3)


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.diag == (1, 1, 1)


def test_snf_zero_matrix():
    snf = smith_normal_form(IntMatrix.zero(2, 3))
    assert snf.diag == (0, 0)


@st.composite
def small_matrices(draw):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    data = draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return IntMatrix.from_rows(data, c)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_snf_reconstruction(m):
    snf = smith_normal_form(m)
    n = min(m.rows, m.cols)
    target = tuple(
        tuple(snf.diag[i] if i == j and i < n else 0 for j in range(m.cols))
        for i in range(m.rows)
    )
    assert snf.left.mul(m).mul(snf.right).entries == target
    for i in range(n - 1):
        if snf.diag[i]:
            assert snf.diag[i + 1] % snf.diag[i] == 0
    # the transforms are unimodular
    assert abs(det(snf.left)) == 1
    assert abs(det(snf.right)) == 1
    # the Bareiss pivot count gives the same rank
    assert rank(m) == snf.rank


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_mul_matches_triple_loop(r, k, c, data):
    """Every shape, empty inner or outer dimensions included."""
    def matrix(n, m):
        rows = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                                  min_size=n, max_size=n))
        return IntMatrix.from_rows(rows, m)

    a, b = matrix(r, k), matrix(k, c)
    want = tuple(tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(k)) for j in range(c))
                 for i in range(r))
    assert a.mul(b) == IntMatrix(r, c, want)


def test_kernel_basis_spans_kernel():
    m = IntMatrix.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert primitive(basis[0]) in ((1, 1, 1), (-1, -1, -1))
    for b in basis:
        assert m.mul_vec(b) == (0, 0, 0)


def test_unimodular_inverse_roundtrip():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = unimodular_inverse(m)
    assert m.mul(inv).entries == IntMatrix.identity(2).entries


# ---------------------------------------------------------------------------
# Exact elimination, against the Fraction Gauss-Jordan loops it replaced
# ---------------------------------------------------------------------------


def _oracle_inverse(rows):
    n = len(rows)
    aug = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise InputError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    if any(x.denominator != 1 for row in aug for x in row[n:]):
        raise InputError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in aug)


def _oracle_det(rows):
    n = len(rows)
    a = [[Fraction(e) for e in row] for row in rows]
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    prod = Fraction(sign)
    for i in range(n):
        prod *= a[i][i]
    assert prod.denominator == 1
    return int(prod)


def _oracle_solve(gram, rhs):
    n = len(gram)
    a = [list(row) + [rhs[i]] for i, row in enumerate(gram)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise InputError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InputError as exc:
        return "error", str(exc)


@st.composite
def square_matrices(draw, max_n=5):
    """Square integer matrices with many zeros; about a third are made
    singular by replacing the last row with a combination of two others."""
    n = draw(st.integers(0, max_n))
    entry = st.one_of(st.just(0), st.integers(-1, 1), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.integers(0, 2)) == 0:
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@st.composite
def unimodular_matrices(draw, max_n=5):
    """Products of elementary integer row operations on the identity."""
    n = draw(st.integers(1, max_n))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            if draw(st.booleans()):
                rows[i], rows[j] = rows[j], rows[i]
    return rows


def _inverse_outcome(rows):
    kind, value = _outcome(unimodular_inverse, IntMatrix.from_rows(rows, len(rows)))
    return (kind, value.entries) if kind == "ok" else (kind, value)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_and_inverse_match_fraction_elimination(rows):
    m = IntMatrix.from_rows(rows, len(rows))
    assert det(m) == _oracle_det(rows)
    assert _inverse_outcome(rows) == _outcome(_oracle_inverse, rows)


@settings(max_examples=150, deadline=None)
@given(unimodular_matrices())
def test_unimodular_inverse_matches_fraction_elimination(rows):
    inv = _inverse_outcome(rows)
    assert inv == ("ok", _oracle_inverse(rows))
    assert IntMatrix.from_rows(rows).mul(IntMatrix.from_rows(inv[1])).entries == \
        IntMatrix.identity(len(rows)).entries


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.data())
def test_solve_rational_matches_fraction_elimination(rows, data):
    n = len(rows)
    dens = data.draw(st.lists(st.integers(1, 6), min_size=n * n + n, max_size=n * n + n))
    gram = [[Fraction(rows[i][j], dens[i * n + j]) for j in range(n)] for i in range(n)]
    rhs = [Fraction(data.draw(st.integers(-9, 9)), dens[n * n + i]) for i in range(n)]
    assert _outcome(solve_rational, gram, rhs) == _outcome(_oracle_solve, gram, rhs)
    # integer input is taken as it is
    int_rhs = [r.numerator for r in rhs]
    assert _outcome(solve_rational, rows, int_rhs) == _outcome(
        _oracle_solve, [[Fraction(x) for x in r] for r in rows], [Fraction(x) for x in int_rhs])


@settings(max_examples=200, deadline=None)
@given(square_matrices(max_n=4), st.booleans())
def test_positive_definite_matches_leading_minors(rows, gram):
    n = len(rows)
    if gram:  # A^T A + I, always positive definite
        q = [[sum(rows[k][i] * rows[k][j] for k in range(n)) + (i == j) for j in range(n)]
             for i in range(n)]
    else:
        q = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    minors_positive = all(_oracle_det([r[:k] for r in q[:k]]) > 0 for k in range(1, n + 1))
    assert is_positive_definite(IntMatrix.from_rows(q, n)) == minors_positive
    if gram:
        assert minors_positive


def test_elimination_error_texts():
    with pytest.raises(InputError, match="matrix is singular"):
        unimodular_inverse(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(InputError, match="matrix is not unimodular"):
        unimodular_inverse(IntMatrix.from_rows([[2, 1], [1, 2]]))
    with pytest.raises(InputError, match="singular system"):
        solve_rational([[0, 0], [1, 1]], [1, 2])
    with pytest.raises(InputError):
        det(IntMatrix.zero(2, 3))
    assert det(IntMatrix.zero(0, 0)) == 1
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1


@settings(max_examples=100, deadline=None)
@given(square_matrices(max_n=4))
def test_det_and_inverse_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    n = len(rows)
    m = IntMatrix.from_rows(rows, n)
    sm = sympy.Matrix(n, n, [e for row in rows for e in row])
    assert det(m) == int(sm.det())
    if n and abs(sm.det()) == 1:
        assert unimodular_inverse(m).entries == tuple(
            tuple(int(sm.inv()[i, j]) for j in range(n)) for i in range(n))


@st.composite
def row_sets(draw):
    dim = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), max_size=5))
    return dim, rows


@settings(max_examples=150, deadline=None)
@given(row_sets())
def test_echelon_basis_is_the_primitive_rref_of_the_span(inputs):
    """The nonzero rows of sympy's reduced echelon form, each scaled to a
    primitive integer vector; unchanged when a row's multiple, the sum of
    two rows or a reordering is fed in instead."""
    sympy = pytest.importorskip("sympy")
    dim, rows = inputs
    basis = echelon_basis(rows, dim)
    if rows and dim:
        rref, pivots = sympy.Matrix(rows).rref()
        expected = [primitive([int(e * math.lcm(*(int(x.q) for x in rref.row(i))))
                               for e in rref.row(i)]) for i in range(len(pivots))]
    else:
        expected = []
    assert basis == expected
    for more in (rows[::-1], rows + [[2 * e for e in r] for r in rows[:1]],
                 rows + [[a + b for a, b in zip(*rows[:2])]] if len(rows) > 1 else rows):
        assert echelon_basis(more, dim) == basis


def _gram_det(rows):
    """det(R R^T): nonzero exactly when the rows of R are linearly independent."""
    return _oracle_det([[sum(a * b for a, b in zip(u, w)) for w in rows] for u in rows])


@st.composite
def span_split_inputs(draw):
    """(rows, v, Q) at rank 1-4: up to 4 random rows, or a zero row, a
    repeated row or a combination of two rows appended; v random, 0 or a
    combination of the rows; Q = I or A^T A + I."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(vec, max_size=4))
    extra = draw(st.sampled_from(["none", "zero", "repeat", "combination"]))
    if extra == "zero":
        rows.append([0] * n)
    elif extra == "repeat" and rows:
        rows.append(list(draw(st.sampled_from(rows))))
    elif extra == "combination" and len(rows) >= 2:
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    kind = draw(st.sampled_from(["random", "zero", "span"]))
    if kind == "random":
        v = draw(vec)
    else:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        v = [0 if kind == "zero" else sum(c * row[i] for c, row in zip(coeffs, rows))
             for i in range(n)]
    if draw(st.booleans()):
        q = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        a = draw(st.lists(vec, min_size=n, max_size=n))
        q = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
             for i in range(n)]
    return rows, v, q


@settings(max_examples=300, deadline=None)
@given(span_split_inputs())
def test_span_split_is_the_saddle_point_solution(inputs):
    rows, v, q = inputs
    n = len(v)
    split = span_split(rows, v, IntMatrix.from_rows(q, n))
    if _gram_det(rows) == 0:  # dependent, repeated or zero rows
        assert split is None
        return
    lam, y = split
    assert all(isinstance(x, Fraction) for x in lam + y) and len(y) == len(rows)
    assert [sum(q[i][j] * lam[j] for j in range(n)) + sum(yj * row[i] for yj, row in zip(y, rows))
            for i in range(n)] == v
    assert [sum(a * b for a, b in zip(row, lam)) for row in rows] == [0] * len(rows)
    in_span = _gram_det(rows + [v]) == 0
    assert (not any(lam)) == in_span


def test_span_split_examples():
    q = IntMatrix.identity(2)
    assert span_split([], [3, -1], q) == ([3, -1], [])
    assert span_split([[1, 1]], [2, 0], q) == ([1, -1], [1])
    assert span_split([[1, 1]], [2, 2], q) == ([0, 0], [2])
    assert span_split([[1, 0], [0, 1]], [2, 3], q) == ([0, 0], [2, 3])
    for dependent in ([[0, 0]], [[1, 2], [1, 2]], [[1, 2], [-2, -4]], [[1, 0], [0, 1], [1, 1]]):
        assert span_split(dependent, [1, 1], q) is None


# ---------------------------------------------------------------------------
# Cone feasibility
# ---------------------------------------------------------------------------


def test_cone_examples_dim1():
    assert cone_has_point_with(((1,),), (1,))
    assert not cone_has_point_with(((1,), (-1,)), (1,))


def test_cone_example_halfplane():
    half = ((1, -1),)
    assert not cone_has_point_with(half, (-1, 1))
    assert cone_has_point_with(half, (1, -1))


def test_cone_objective_dimension_mismatch():
    with pytest.raises(InputError, match="objective length"):
        cone_has_point_with(((1, 0),), (1,))
    assert cone_has_point_with((), (1,))  # no rows: the whole line


def _brute_force_witness(cone, objective, strict, bound=6):
    """A small nonzero lambda in the cone with <lambda, objective> > 0
    (strict) or >= 0 (not strict)."""
    for lam in itertools.product(range(-bound, bound + 1), repeat=len(objective)):
        if not any(lam) or any(dot(lam, n) < 0 for n in cone):
            continue
        val = dot(lam, objective)
        if val > 0 or (not strict and val == 0):
            return lam
    return None


@st.composite
def cones_and_objectives(draw):
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4))
    ineqs = tuple(
        tuple(draw(st.integers(-3, 3)) for _ in range(dim)) for _ in range(k)
    )
    obj = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    return ineqs, obj


@settings(max_examples=150, deadline=None)
@given(cones_and_objectives(), st.booleans())
def test_cone_feasibility_agrees_with_brute_force(cone_obj, strict):
    """The strict question goes through cone_has_point_with; a nonzero
    point with <lambda, objective> >= 0 through cone_nonzero_point on the
    cone cut by the objective."""
    cone, obj = cone_obj
    if strict:
        decided = cone_has_point_with(cone, obj)
    else:
        point = cone_nonzero_point(cone + (obj,), len(obj))
        decided = point is not None
        if decided:
            assert any(point) and all(dot(point, n) >= 0 for n in cone + (obj,))
    witness = _brute_force_witness(cone, obj, strict)
    if witness is not None:
        assert decided, (cone, obj, strict, witness)
    if not decided:
        assert witness is None
    # scale invariance makes the brute force complete for pure cones at
    # small bounds only in the witness direction; a positive exact answer
    # with no small witness is possible and not a failure.


def test_cone_nonzero_point_finds_rays_and_lineality():
    # pointed cone: single ray
    pt = cone_nonzero_point(((1, -4), (-1, 4), (-1, 0)), 2)
    assert pt is not None and dot(pt, (1, -4)) == 0 and pt[0] <= 0
    # lineality space
    pt = cone_nonzero_point(((1, 1),), 2)
    assert pt is not None
    # the zero cone
    assert cone_nonzero_point(((1,), (-1,)), 1) is None


@pytest.mark.parametrize("dim", [5, 6])
def test_cone_nonzero_point_is_complete_in_higher_dimensions(rng, dim):
    """The cone is nonzero iff it has a point with x_i > 0 or x_i < 0 for
    some i, which Fourier-Motzkin decides without the extreme-ray search.
    Each draw takes dim random normals plus minus a non-negative
    combination of them, so it is {0} whenever that combination is
    positive and the normals are independent, and pointed or with a
    lineality space otherwise."""
    outcomes = set()
    for _ in range(30):
        normals = [tuple(rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(dim))
                   for _ in range(dim)]
        coeffs = [rng.randint(0, 2) for _ in normals]
        normals.append(tuple(-sum(c * n[k] for c, n in zip(coeffs, normals)) for k in range(dim)))
        normals += [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 1))]
        base = [(n, False) for n in normals]
        nonzero = any(
            feasible_system(base + [(tuple(sign * (k == i) for k in range(dim)), True)], dim)
            for i in range(dim) for sign in (1, -1))
        pt = cone_nonzero_point(normals, dim)
        assert (pt is not None) == nonzero, normals
        if pt is not None:
            assert any(pt) and all(dot(pt, n) >= 0 for n in normals)
        outcomes.add(nonzero)
    assert outcomes == {True, False}


@st.composite
def cone_rows(draw):
    """dim 0-6 and up to 10 rows, some repeating, negating or scaling an
    earlier row, some zero."""
    dim = draw(st.integers(0, 6))
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["new", "new", "new", "repeat", "opposite", "scaled", "zero"]))
        if kind == "zero":
            rows.append((0,) * dim)
        elif kind == "new" or not rows:
            rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))))
        else:
            row = draw(st.sampled_from(rows))
            factor = {"repeat": 1, "opposite": -1, "scaled": draw(st.sampled_from([2, 3, -2]))}[kind]
            rows.append(tuple(factor * x for x in row))
    return rows, dim


@settings(max_examples=400, deadline=None)
@given(cone_rows())
def test_cone_nonzero_point_is_the_smith_form_search(inputs):
    """The rank test and the one-elimination rays return exactly the point
    the search through a Smith normal form per kernel returned."""
    rows, dim = inputs
    assert cone_nonzero_point(rows, dim) == cone_nonzero_point_snf(rows, dim)


def test_cone_nonzero_point_on_a_pointed_cone_takes_no_smith_form(monkeypatch):
    def refuse(m):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    # the nonnegative octant cut by x0 + x1 <= x2: pointed, with rays found
    normals = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 1))
    pt = cone_nonzero_point(normals, 3)
    assert pt == (0, 0, 1)
    # the same normals with one more that leaves only the origin
    assert cone_nonzero_point(normals + ((0, 0, -1),), 3) is None


# ---------------------------------------------------------------------------
# Bounded Hilbert basis
# ---------------------------------------------------------------------------


def test_hilbert_basis_cubics_slice():
    w = IntMatrix.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert hilbert_basis_bounded(w, 3) == [(1, 1, 1)]


def test_hilbert_basis_hyperbola():
    w = IntMatrix.from_rows([[1, -1]])
    assert hilbert_basis_bounded(w, 2) == [(1, 1)]


def test_hilbert_basis_empty():
    w = IntMatrix.from_rows([[1, 1]])
    assert hilbert_basis_bounded(w, 5) == []


def test_hilbert_basis_outputs_are_solutions_and_incomparable(rng):
    for _ in range(25):
        r = rng.randint(1, 2)
        n = rng.randint(1, 4)
        w = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)], n
        )
        basis = hilbert_basis_bounded(w, 4)
        zero = tuple(0 for _ in range(r))
        for a in basis:
            assert w.mul_vec(a) == zero
        for a, b in itertools.permutations(basis, 2):
            assert not all(x <= y for x, y in zip(a, b)), (a, b)


@st.composite
def weight_matrices(draw):
    """Rank 0-3 and N <= 7, with zero and repeated columns drawn often."""
    r = draw(st.integers(0, 3))
    n = draw(st.integers(0, 7))
    pool = [tuple(draw(st.integers(-3, 3)) for _ in range(r)) for _ in range(draw(st.integers(1, 4)))]
    pool.append(tuple(0 for _ in range(r)))
    cols = [draw(st.sampled_from(pool)) if draw(st.booleans())
            else tuple(draw(st.integers(-3, 3)) for _ in range(r)) for _ in range(n)]
    return IntMatrix(r, n, tuple(tuple(c[i] for c in cols) for i in range(r)))


@settings(max_examples=300, deadline=None)
@given(weight_matrices(), st.integers(1, 6))
def test_hilbert_basis_completion_is_the_enumeration(w, bound):
    assert hilbert_basis_bounded(w, bound) == hilbert_basis_by_enumeration(w, bound)


def test_hilbert_basis_completion_stops_when_nothing_is_left_to_grow():
    # a bound far past the enumeration's reach: the cubics slice, and a rank-2
    # action whose 14 generators have degree at most 13
    from torusgit.luna import cubics_slice

    assert hilbert_basis_bounded(cubics_slice().weights, 10**6) == [(1, 1, 1)]
    w = IntMatrix.from_rows([[1, 2, -1, -3, 1, 0], [0, 1, 1, -1, -2, 1]])
    basis = hilbert_basis_bounded(w, 10**18)
    assert len(basis) == 14 and sum(basis[-1]) == 13
    assert basis == hilbert_basis_by_enumeration(w, 13)


def test_hilbert_basis_completion_declines_past_the_cap(monkeypatch):
    """The cubics slice lists 7 vectors (3 unit vectors and 4 grown ones), the
    14-generator rank-2 action 114; a cap one lower declines either."""
    from torusgit.luna import cubics_slice

    rank2 = IntMatrix.from_rows([[1, 2, -1, -3, 1, 0], [0, 1, 1, -1, -2, 1]])
    for w, listed in ((cubics_slice().weights, 7), (rank2, 114)):
        monkeypatch.setattr(lattice, "HILBERT_COMPLETION_CAP", listed)
        assert hilbert_basis_bounded(w, 10**6)
        monkeypatch.setattr(lattice, "HILBERT_COMPLETION_CAP", listed - 1)
        with pytest.raises(ComputationDeclined, match=f"listed more than {listed - 1} vectors"):
            hilbert_basis_bounded(w, 10**6)


def test_monomials_up_to_degree_counts():
    assert len(monomials_up_to_degree(2, 3)) == 10  # C(2+3, 2)
    assert monomials_up_to_degree(0, 5) == [()]


def test_feasible_system_declines_a_step_over_the_row_cap(monkeypatch):
    # eliminating either variable pairs 3 positive with 3 negative rows: 9 rows
    rows = [((1, k), False) for k in (1, 2, 3)] + [((-1, -k), False) for k in (1, 2, 3)]
    monkeypatch.setattr(lattice, "FM_ROW_CAP", 9)
    assert feasible_system(rows, 2)
    monkeypatch.setattr(lattice, "FM_ROW_CAP", 8)
    with pytest.raises(ComputationDeclined, match="9 rows"):
        feasible_system(rows, 2)
