import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_action, random_character
from torusgit.errors import ComputationDeclined, InputError
from torusgit.lattice import IntMatrix
from torusgit.torus import FinitePartElement, TorusAction, is_semistable, is_stable, support_key
from torusgit.walls import (
    compute_walls,
    find_generic_character,
    is_generic,
    pull_back,
    verify_ss_equals_s,
)


def action(rows):
    return TorusAction(len(rows), IntMatrix.from_rows(rows, len(rows[0])))


HYPERBOLA = action([[1, -1]])


def test_walls_rank1():
    arr = compute_walls(HYPERBOLA, IntMatrix.identity(1))
    assert arr.walls == ((1,),)  # the single hyperplane {mu = 0}


def test_walls_rank2_three_lines():
    a = action([[1, 0, 1], [0, 1, 1]])
    arr = compute_walls(a, IntMatrix.identity(2))
    # lines spanned by (1,0), (0,1), (1,1), i.e. normals (0,1), (1,0), (1,-1)
    assert set(arr.walls) == {(0, 1), (1, 0), (1, -1)}


def test_walls_dedup_equal_columns():
    a = action([[1, 2], [1, 2]])
    arr = compute_walls(a, IntMatrix.identity(2))
    assert len(arr.walls) == 1


def test_walls_rank_deficient_psi_rejected():
    with pytest.raises(InputError):
        compute_walls(HYPERBOLA, IntMatrix.zero(1, 2))


def test_is_generic():
    a = action([[1, 0, 1], [0, 1, 1]])
    arr = compute_walls(a, IntMatrix.identity(2))
    assert not is_generic(arr, (0, 0))
    assert is_generic(arr, (1, 2))
    assert not is_generic(arr, (1, 1))  # on the wall spanned by (1,1)


def test_find_generic_character_rank1():
    arr = compute_walls(HYPERBOLA, IntMatrix.identity(1))
    assert find_generic_character(arr, 1) == (1,)


def test_find_generic_character_rank2():
    a = action([[1, 0, 1], [0, 1, 1]])
    arr = compute_walls(a, IntMatrix.identity(2))
    mu = find_generic_character(arr, 3)
    assert is_generic(arr, mu)
    assert max(abs(e) for e in mu) <= 3
    assert mu == (1, -1)  # first off the three lines in the documented order


def test_find_generic_character_exhausted():
    # a bound of 0 is rejected as input, so exhaust with walls through all
    # height-1 vectors of Z^1: impossible, hence use the input error instead
    arr = compute_walls(HYPERBOLA, IntMatrix.identity(1))
    with pytest.raises(InputError):
        find_generic_character(arr, 0)


def test_pull_back_is_psi():
    psi = IntMatrix.from_rows([[1, 2]])
    arr = compute_walls(HYPERBOLA, psi)
    assert arr.ambient_rank == 2
    assert pull_back(arr, (3, 1)) == (5,)


def _exhaustive_oracle(a, chi):
    """Every support, by size then lexicographically: the first semistable
    but not stable one, or (True, None)."""
    for s in sorted(a.all_supports(), key=support_key):
        if is_semistable(a, chi, s) and not is_stable(a, chi, s):
            return False, s
    return True, None


def _swap(r):
    """The automorphism of Z^r exchanging the first two coordinates."""
    return IntMatrix.from_rows([[int(j == (1 - i if i < 2 else i)) for j in range(r)]
                                for i in range(r)], r)


@st.composite
def chamber_inputs(draw):
    """(action, chi) at rank 0-4 with at most 7 coordinates: random weights,
    rank-deficient weights (a last row that is a combination of the others),
    or a finite part swapping the first two character coordinates, with
    chi random, zero, minus a non-negative combination of all columns, or
    minus a positive combination of fewer than r columns (orbit sums of
    them under the swap)."""
    r = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["random", "deficient", "swap"] if r >= 2 else ["random"]))
    entry = st.integers(-2, 2)
    finite = ()
    if kind == "swap":
        # columns come in pairs (v, swapped v) or as single swap-fixed columns
        cols, perm, n = [], [], draw(st.integers(0, 7))
        while len(cols) < n:
            v = [draw(entry) for _ in range(r)]
            if len(cols) + 2 <= n and draw(st.booleans()):
                perm += [len(cols) + 1, len(cols)]
                cols += [v, [v[1], v[0]] + v[2:]]
            else:
                perm.append(len(cols))
                cols.append([v[0], v[0]] + v[2:])
        finite = (FinitePartElement(tuple(perm), _swap(r)),)
    else:
        cols = [[draw(entry) for _ in range(r)] for _ in range(draw(st.integers(0, 7)))]
        if kind == "deficient":
            f = [draw(entry) for _ in range(r - 1)]
            cols = [c[:-1] + [sum(x * y for x, y in zip(f, c))] for c in cols]
    n = len(cols)
    a = TorusAction(r, IntMatrix.from_rows([[c[i] for c in cols] for i in range(r)], n),
                    finite_part=finite)
    how = draw(st.sampled_from(["random", "zero", "cone", "wall"]))
    if how == "zero":
        chi = (0,) * r
    elif how in ("cone", "wall") and n:
        coeffs = [draw(st.integers(0, 2)) for _ in range(n)]
        if how == "wall":
            k = max(r - 1, 0)
            few = draw(st.sets(st.integers(0, n - 1), min_size=min(k, 1), max_size=k))
            coeffs = [draw(st.integers(1, 2)) if j in few else 0 for j in range(n)]
        if kind == "swap":  # an orbit sum keeps chi invariant
            coeffs = [x + coeffs[perm[j]] for j, x in enumerate(coeffs)]
        chi = tuple(-sum(x * c[i] for x, c in zip(coeffs, cols)) for i in range(r))
    else:
        chi = tuple(draw(entry) for _ in range(r))
        if kind == "swap":
            chi = (chi[0], chi[0]) + chi[2:]
    return a, chi


@settings(max_examples=300, deadline=None)
@given(chamber_inputs())
def test_verify_matches_the_exhaustive_oracle(inputs):
    a, chi = inputs
    assert verify_ss_equals_s(a, chi) == _exhaustive_oracle(a, chi)


def test_verify_scans_no_supports(monkeypatch):
    """At rank 3 with 18 coordinates the check finishes with Fourier-Motzkin,
    the cone-point search and the Smith normal form disabled, so it runs
    no support scan and asks no lattice-basis question."""
    import torusgit.lattice

    def disabled(*args, **kwargs):
        raise AssertionError("support scan or Smith normal form")

    monkeypatch.setattr(torusgit.lattice, "feasible_system", disabled)
    monkeypatch.setattr(torusgit.lattice, "cone_nonzero_point", disabled)
    cols = [(i % 3 - 1, (i // 3) % 3 - 1, 1 + i // 9) for i in range(18)]
    a = TorusAction(3, IntMatrix.from_rows([[c[i] for c in cols] for i in range(3)], 18))
    mu = find_generic_character(compute_walls(a, IntMatrix.identity(3)), 8)
    monkeypatch.setattr(torusgit.lattice, "smith_normal_form", disabled)  # walls need it
    assert verify_ss_equals_s(a, mu) == (True, None)
    assert verify_ss_equals_s(a, (0, 0, -3)) == (False, frozenset({4}))  # -chi = 3 cols[4]
    assert verify_ss_equals_s(a, (1, 0, -1)) == (False, frozenset({3}))  # -chi = cols[3]
    # -chi = cols[0] + cols[1] is parallel to no single column
    assert verify_ss_equals_s(a, (1, 2, -2)) == (False, frozenset({0, 1}))


def test_verify_ss_equals_s_generic_and_degenerate():
    ok, ce = verify_ss_equals_s(HYPERBOLA, (1,))
    assert ok and ce is None
    ok, ce = verify_ss_equals_s(HYPERBOLA, (0,))
    assert not ok
    assert is_semistable(HYPERBOLA, (0,), ce) and not is_stable(HYPERBOLA, (0,), ce)
    # the support {x} is also semistable but not stable for the zero character
    s = frozenset({0})
    assert is_semistable(HYPERBOLA, (0,), s) and not is_stable(HYPERBOLA, (0,), s)


def test_verify_vacuous_on_dimension_zero():
    from torusgit.lattice import IntMatrix as IM

    point = TorusAction(1, IM(1, 0, ((),)))
    ok, ce = verify_ss_equals_s(point, (1,))
    assert ok and ce is None  # the lone support is unstable for nonzero mu


def test_verify_guard():
    big = TorusAction(1, IntMatrix.from_rows([[1] * 21]))
    with pytest.raises(ComputationDeclined, match=r"^21 coordinates exceed the guard \(max_dim=20\)$"):
        verify_ss_equals_s(big, (1,))


def test_verify_error_order():
    """The dimension guard comes before the character checks, which keep
    the texts of the predicates."""
    swapped = FinitePartElement((1, 0), _swap(2))
    small = TorusAction(2, IntMatrix.from_rows([[1, 0], [0, 1]]), finite_part=(swapped,))
    big = TorusAction(2, IntMatrix.from_rows([[1, 0] * 10 + [1], [0, 1] * 10 + [1]]),
                      finite_part=(FinitePartElement(
                          tuple(j + 1 - 2 * (j % 2) for j in range(20)) + (20,), _swap(2)),))
    for chi in [(1, 2), (1,)]:
        with pytest.raises(ComputationDeclined):
            verify_ss_equals_s(big, chi)
    with pytest.raises(InputError, match="^character length does not match the torus rank$"):
        verify_ss_equals_s(small, (1,))
    with pytest.raises(InputError, match="^character is not invariant under the finite part$"):
        verify_ss_equals_s(small, (1, 2))
    assert verify_ss_equals_s(small, (-1, -1)) == (True, None)
    assert verify_ss_equals_s(big, (-1, -1), max_dim=21) == (False, frozenset({20}))


def test_genericity_soundness(rng):
    """Every generic character has equal semistable and stable loci,
    over 100 random full-rank actions."""
    checked = 0
    for _ in range(100):
        a = random_action(rng, max_rank=3, max_dim=6, full_rank=True)
        arr = compute_walls(a, IntMatrix.identity(a.rank))
        mus = [random_character(rng, a.rank, bound=4) for _ in range(3)]
        mus.append(find_generic_character(arr, 8))
        for mu in mus:
            if not is_generic(arr, mu):
                continue
            ok, ce = verify_ss_equals_s(a, pull_back(arr, mu))
            assert ok, (a.weights.entries, mu, sorted(ce))
            checked += 1
    assert checked >= 100


def test_height_shells_match_the_sorted_order():
    from torusgit.walls import _height_shells

    for n in range(4):
        for b in range(5):
            order = [0] + [x for h in range(1, b + 1) for x in (h, -h)]
            pos = {v: i for i, v in enumerate(order)}
            expected = sorted(
                itertools.product(order, repeat=n),
                key=lambda v: (max((abs(e) for e in v), default=0), tuple(pos[e] for e in v)),
            )
            assert list(_height_shells(n, b)) == expected, (n, b)


def test_generic_character_rank4_stops_early(capsys):
    """The CLI default bound 16 at rank 4 spans 33^4 candidates; the search
    must stop at the first generic one without building them."""
    import json
    import time
    import tracemalloc

    from torusgit.cli import run

    action = json.dumps({"rank": 4, "weights": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                                [0, 0, 0, 1], [1, 1, 1, 1]]})
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rc = run(["generic-character", "--action", action])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["generic"] == [1, -1, 2, -2]
    assert peak < 8 * 2**20, peak
    assert elapsed < 2.0, elapsed
