import itertools

import pytest

from conftest import random_action, random_character
from torusgit.errors import ComputationDeclined, InputError
from torusgit.lattice import IntMatrix
from torusgit.torus import TorusAction
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


def test_verify_ss_equals_s_generic_and_degenerate():
    from torusgit.torus import is_semistable, is_stable

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
    with pytest.raises(ComputationDeclined):
        verify_ss_equals_s(big, (1,))


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
