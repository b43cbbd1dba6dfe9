"""Exact integer and rational linear algebra.

Everything downstream (semistability tests, wall arrangements, blow-up
loci) reduces to a handful of primitives implemented here:

* Smith normal form over the integers, with the unimodular transforms,
  and the saturated integer kernel derived from it;
* one fraction-free (Bareiss) Gauss-Jordan elimination, behind the rank,
  the determinant, the unimodular inverse, exact rational solves (and
  ``span_split``), Sylvester's test, reduced echelon bases and cone rays;
* the one strict cone question -- is there a lambda in a rational
  polyhedral cone with <lambda, objective> > 0? -- decided by
  Fourier-Motzkin elimination of a mixed strict/non-strict system;
* extraction of a nonzero integer point from a rational polyhedral cone,
  by enumerating candidate minimal faces;
* the minimal generators, up to a degree bound, of the monoid of
  non-negative integer solutions of ``W a = 0`` (invariant monomials),
  by Contejean-Devie completion.

No floating point is used anywhere: coordinates are Python integers and
``fractions.Fraction``.  The predicates here are wall-sensitive, so an
approximate answer would be worse than useless.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .errors import ComputationDeclined, InputError, InternalError


def _as_int_tuple(entries: Iterable[int]) -> tuple[int, ...]:
    return tuple(int(e) for e in entries)


@record
class IntMatrix:
    """Immutable integer matrix, row-major.

    Entries are arbitrary-precision Python ints.  The class is small on
    purpose: anything clever lives in module functions.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InputError("entry count does not match rows x cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(_as_int_tuple(r) for r in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix shapes do not compose")
        # columns without building the transpose; with no rows, zip yields none
        other_cols = tuple(zip(*other.entries)) or ((),) * other.cols
        data = tuple(
            tuple(sum(a * b for a, b in zip(r, c)) for c in other_cols)
            for r in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise InputError("vector length does not match matrix columns")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )

    def submatrix_cols(self, cols: Sequence[int]) -> "IntMatrix":
        data = tuple(tuple(r[j] for j in cols) for r in self.entries)
        return IntMatrix(self.rows, len(cols), data)


def dot(u: Sequence[int], v: Sequence[int]):
    if len(u) != len(v):
        raise InputError("dot product of vectors of different lengths")
    return sum(a * b for a, b in zip(u, v))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for e in v:
        g = math.gcd(g, e)
    if g <= 1:
        return _as_int_tuple(v)
    return tuple(e // g for e in v)


def scale_to_integers(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear denominators and return the primitive integer vector."""
    lcm = math.lcm(*(e.denominator for e in v))
    return primitive(tuple(int(e * lcm) for e in v))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@record
class SmithDecomposition:
    """U * M * V = diag(d_1, ..., d_k) with d_1 | d_2 | ... and U, V unimodular."""

    diag: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, by integer row/column reduction."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    n = min(r, c)
    for t in range(n):
        while True:
            # locate a pivot of minimal absolute value in the working block
            pivot = None
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    e = a[i][j]
                    if e != 0 and (best is None or abs(e) < best):
                        best = abs(e)
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot clears its row and column; enforce divisibility downstream
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < n and a[t][t] < 0:
            negate_row(t)

    diag = tuple(a[i][i] for i in range(n))
    left = IntMatrix.from_rows(u, r)
    right = IntMatrix.from_rows(v, c)
    # reconstruction identity, cheap enough to always assert
    if left.mul(m).mul(right).entries != tuple(
        tuple(diag[i] if i == j and i < n else 0 for j in range(c)) for i in range(r)
    ):
        raise InternalError("Smith normal form reconstruction failed")
    for i in range(n - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise InternalError("zero before nonzero in Smith diagonal")
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise InternalError("divisibility chain violated in Smith diagonal")
    return SmithDecomposition(diag, left, right)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x : M x = 0} (columns of V)."""
    snf = smith_normal_form(m)
    n = min(m.rows, m.cols)
    out = []
    for j in range(m.cols):
        if j >= n or snf.diag[j] == 0:
            out.append(snf.right.col(j))
    return out


def _bareiss(a: list[list[int]], n: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of the integer rows [A | B].

    A is the block of the first n columns of ``a``, whose rows are
    replaced in place; a column of A with no pivot left is skipped.
    Returns (swaps, pivots) with pivots = [1, p_1, ..., p_k] and k the
    rank of A.  The first k rows end as p_k times the first k rows of the
    reduced row echelon form of [A | B], and the other rows of A as 0; so
    if A is square and nonsingular, its block ends as d*I and B's as
    d*A^{-1}B, where d = p_n and det A = (-1)^swaps * d.  Each division by
    the previous pivot is exact, since every intermediate entry is, up to
    sign, a minor of [A | B] (Bareiss, Math. Comp. 22, 1968).  Rows are
    swapped only at a zero pivot, so without a swap or a skip p_k is the
    k-th leading principal minor.
    """
    swaps, pivots = 0, [1]
    for col in range(n):
        k = len(pivots) - 1
        piv = next((i for i in range(k, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            swaps += 1
        pk, prev, rk = a[k][col], pivots[-1], a[k]
        for i in range(len(a)):
            if i != k:
                f = a[i][col]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rk)]
        pivots.append(pk)
    return swaps, pivots


def rank(m: IntMatrix) -> int:
    return len(_bareiss([list(row) for row in m.entries], m.cols)[1]) - 1


def echelon_basis(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """The reduced row echelon basis of the rational span of ``rows``, each
    row scaled to a primitive integer vector with a positive pivot.  It
    depends only on the span, not on the rows that generate it."""
    a = [list(row) for row in rows]
    pivots = _bareiss(a, dim)[1]
    sign = 1 if pivots[-1] > 0 else -1
    return [primitive([sign * x for x in row]) for row in a[:len(pivots) - 1]]


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, again an integer matrix."""
    n = m.rows
    if n != m.cols:
        raise InputError("only square matrices can be inverted")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    pivots = _bareiss(a, n)[1]
    if len(pivots) <= n:
        raise InputError("matrix is singular")
    d = pivots[-1]
    if abs(d) != 1:
        raise InputError("matrix is not unimodular")
    return IntMatrix.from_rows([[d * x for x in row[n:]] for row in a], n)


def det(m: IntMatrix) -> int:
    """Exact determinant."""
    if m.rows != m.cols:
        raise InputError("determinant of a non-square matrix")
    swaps, pivots = _bareiss([list(row) for row in m.entries], m.rows)
    return (-1) ** swaps * pivots[-1] if len(pivots) > m.rows else 0


def is_positive_definite(q: IntMatrix) -> bool:
    """Sylvester's criterion for a symmetric matrix, from one elimination:
    the pivots are the leading principal minors unless one of them is 0."""
    swaps, pivots = _bareiss([list(row) for row in q.entries], q.rows)
    return swaps == 0 and len(pivots) > q.rows and all(p > 0 for p in pivots)


def solve_rational(gram: Sequence[Sequence[int | Fraction]],
                   rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Solve a nonsingular rational linear system exactly.  Each equation
    is scaled to integers by the lcm of its denominators first."""
    n = len(gram)
    a = []
    for eq in ([*row, b] for row, b in zip(gram, rhs)):
        scale = math.lcm(*(x.denominator for x in eq))
        a.append([int(x * scale) for x in eq])
    pivots = _bareiss(a, n)[1]
    if len(pivots) <= n:
        raise InputError("singular system")
    d = pivots[-1]
    return [Fraction(row[n], d) for row in a]


def span_split(rows: Sequence[Sequence[int]], v: Sequence[int],
               q: IntMatrix) -> tuple[list[Fraction], list[Fraction]] | None:
    """None if the rows R are linearly dependent, else (lam, y) with
    [[Q, R^T], [R, 0]] [lam; y] = [v; 0], from one exact saddle-point solve.
    lam is the Q-Riesz vector of v on the annihilator of R: it is 0 exactly
    when v lies in the span of R, and then v = R^T y.  Q must be positive
    definite; then the saddle matrix is singular exactly when R is
    dependent, so the one elimination also decides dependence."""
    n, k = len(v), len(rows)
    saddle = [[*q.row(i), *(row[i] for row in rows)] for i in range(n)]
    try:
        x = solve_rational(saddle + [[*row, *[0] * k] for row in rows], [*v, *[0] * k])
    except InputError:  # the one error it raises: a singular system
        return None
    return x[:n], x[n:]


# ---------------------------------------------------------------------------
# Rational polyhedral cones
# ---------------------------------------------------------------------------


_Row = tuple[tuple[int, ...], bool]  # (coefficients, is_strict)

FM_ROW_CAP = 1_000_000  # rows one Fourier-Motzkin step may produce before it declines
HM_FACE_CAP = 5_000  # faces one normalized Hilbert-Mumford minimum may visit before it declines
HILBERT_COMPLETION_CAP = 100_000  # vectors the Hilbert basis completion may list before it declines


def feasible_system(rows: list[_Row], dim: int) -> bool:
    """Is there a rational point with <coeffs, x> >= 0 (resp. > 0) for all rows?

    Homogeneous Fourier-Motzkin elimination; exact over the rationals and
    valid for mixed strict/non-strict systems.  A step that would produce
    more than ``FM_ROW_CAP`` rows is declined instead of run.
    """
    work: dict[tuple[int, ...], bool] = {}
    for coeffs, strict in rows:
        coeffs = primitive(coeffs)
        if all(e == 0 for e in coeffs):
            if strict:
                return False
            continue
        work[coeffs] = work.get(coeffs, False) or strict

    remaining = list(range(dim))
    while remaining:
        # eliminate the variable producing the fewest pairings
        def cost(k: int) -> tuple[int, int]:
            pos = sum(1 for c in work if c[k] > 0)
            neg = sum(1 for c in work if c[k] < 0)
            return (pos * neg, k)

        var = min(remaining, key=cost)
        remaining.remove(var)
        pos = [(c, s) for c, s in work.items() if c[var] > 0]
        neg = [(c, s) for c, s in work.items() if c[var] < 0]
        zero = [(c, s) for c, s in work.items() if c[var] == 0]
        produced = len(zero) + len(pos) * len(neg)
        if produced > FM_ROW_CAP:
            raise ComputationDeclined(
                f"Fourier-Motzkin step would produce {produced} rows, over the cap of {FM_ROW_CAP}")
        work = {}
        for c, s in zero:
            work[c] = work.get(c, False) or s
        for (p, ps), (q, qs) in itertools.product(pos, neg):
            comb = tuple(p[var] * q[i] - q[var] * p[i] for i in range(dim))
            comb = primitive(comb)
            strict = ps or qs
            if all(e == 0 for e in comb):
                if strict:
                    return False
                continue
            work[comb] = work.get(comb, False) or strict
    return True


def cone_has_point_with(rows: Sequence[Sequence[int]], objective: Sequence[int]) -> bool:
    """Is there a lambda with <lambda, n> >= 0 for every row n and
    <lambda, objective> > 0?

    Only the strict question is asked; the strict row already excludes
    lambda = 0.  Decided exactly by Fourier-Motzkin elimination.  A
    nonzero point of a cone is ``cone_nonzero_point``'s question.
    """
    dim = len(objective)
    if any(len(n) != dim for n in rows):
        raise InputError("objective length does not match the cone dimension")
    system = [(n, False) for n in rows] + [(_as_int_tuple(objective), True)]
    return feasible_system(system, dim)


def cone_nonzero_point(rows: Sequence[Sequence[int]], dim: int) -> tuple[int, ...] | None:
    """A nonzero integer point of {x : <m, x> >= 0 for m in rows}.

    Every nonzero polyhedral cone contains either a nonzero point of its
    lineality space, tested by one rank, or an extreme ray.  Once the
    lineality space is {0} the cone is pointed, and each extreme ray is
    the 1-dimensional kernel of dim - 1 linearly independent active
    normals, read off one elimination.  Fewer normals have a kernel of
    dimension >= 2, so only subsets of size dim - 1 are tried.  The search
    is complete in every dimension, at a cost of C(m, dim - 1) eliminations.
    """
    if dim == 0:
        return None
    normals = [primitive(m) for m in rows]
    normals = [m for m in normals if any(e != 0 for e in m)]
    if not normals:
        return tuple(1 if i == 0 else 0 for i in range(dim))

    def in_cone(x: Sequence[int]) -> bool:
        return all(dot(x, m) >= 0 for m in normals)

    # lineality space first
    mat = IntMatrix.from_rows(normals, dim)
    if rank(mat) < dim:
        return primitive(kernel_basis(mat)[0])
    for subset in itertools.combinations(normals, dim - 1):
        a = [list(m) for m in subset]
        pivots = _bareiss(a, dim)[1]
        if len(pivots) < dim:
            continue
        # the rows are p*(e_lead + c*e_free): (p at free, -row[free] at each lead) spans the kernel
        leads = [next(j for j, x in enumerate(row) if x) for row in a]
        free = next(j for j in range(dim) if j not in leads)
        v = [0] * dim
        v[free] = pivots[-1]
        for lead, row in zip(leads, a):
            v[lead] = -row[free]
        v = primitive(v)
        if in_cone(v):
            return v
        w = tuple(-e for e in v)
        if in_cone(w):
            return w
    return None


# ---------------------------------------------------------------------------
# Bounded Hilbert basis
# ---------------------------------------------------------------------------


def hilbert_basis_bounded(weights: IntMatrix, degree_bound: int) -> list[tuple[int, ...]]:
    """Minimal generators of {a in N^N : W a = 0} of total degree <= bound,
    sorted by (total degree, exponents).

    Contejean-Devie completion (Inform. and Comput. 113, 1994): grow the
    unit vectors one degree at a time, taking each degree's solutions
    before growing from it.  A non-solution a grows to a + e_j only when
    <W a, W e_j> < 0, and never to a vector above a solution already
    found; every minimal solution is reached this way, and a solution
    reached is minimal.  The search stops at the bound, or earlier when
    nothing is left to grow; it declines once it has listed more than
    ``HILBERT_COMPLETION_CAP`` vectors, the unit vectors included.
    """
    if degree_bound < 1:
        raise InputError("degree_bound must be >= 1")
    cols = [weights.col(j) for j in range(weights.cols)]
    # a -> W a over one degree; a solution has W a = 0, so it never grows
    frontier = {tuple(int(i == j) for i in range(len(cols))): c for j, c in enumerate(cols)}
    minimal: list[tuple[int, ...]] = []
    degree, listed = 1, len(frontier)
    while frontier:
        minimal.extend(sorted(a for a, wa in frontier.items() if not any(wa)))
        if degree == degree_bound:
            break
        grown: dict[tuple[int, ...], tuple[int, ...]] = {}
        for a, wa in frontier.items():
            for j, c in enumerate(cols):
                if dot(wa, c) >= 0:
                    continue
                b = tuple(x + (i == j) for i, x in enumerate(a))
                if b not in grown and not any(all(x <= y for x, y in zip(m, b)) for m in minimal):
                    grown[b] = tuple(x + y for x, y in zip(wa, c))
                    if listed + len(grown) > HILBERT_COMPLETION_CAP:
                        raise ComputationDeclined(
                            f"the Hilbert basis completion listed more than "
                            f"{HILBERT_COMPLETION_CAP} vectors by degree {degree + 1}")
        frontier, degree, listed = grown, degree + 1, listed + len(grown)
    return minimal
