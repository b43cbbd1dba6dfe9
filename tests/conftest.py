import random

import pytest

from torusgit.lattice import IntMatrix
from torusgit.torus import TorusAction


def random_action(rng: random.Random, max_rank: int = 3, max_dim: int = 5,
                  entry_bound: int = 3, full_rank: bool = False) -> TorusAction:
    """Random diagonal action; with full_rank the weight matrix is resampled
    until its rank equals the torus rank."""
    from torusgit.lattice import rank as mat_rank

    while True:
        r = rng.randint(1, max_rank)
        n = rng.randint(1, max_dim)
        w = IntMatrix.from_rows(
            [[rng.randint(-entry_bound, entry_bound) for _ in range(n)] for _ in range(r)], n
        )
        if full_rank and mat_rank(w) != r:
            continue
        return TorusAction(r, w)


# rank 3, 16 columns, every three of them linearly independent
GENERAL_POSITION_16 = [
    [6, -5, 3], [1, -7, 8], [2, 2, 9], [1, 7, -3], [1, -7, 4], [7, -7, -2], [2, 8, 4],
    [1, 9, -6], [4, 9, -8], [7, -8, -2], [1, 8, -5], [5, 4, -5], [9, -6, 9], [5, 8, -4],
    [2, 9, 9], [4, 2, -6],
]

# rank 3, 20 columns, all with third entry 0: no active set cuts the span to {0}
DEGENERATE_20 = [
    [6, -5, 0], [1, -7, 0], [2, 2, 0], [1, 7, 0], [1, -6, 0], [7, -7, 0], [2, 8, 0],
    [1, 9, 0], [4, 9, 0], [7, -8, 0], [1, 8, 0], [5, 4, 0], [9, -6, 0], [5, 8, 0],
    [2, 9, 0], [4, 2, 0], [3, -1, 0], [-2, 5, 0], [-3, -4, 0], [8, 1, 0],
]


def random_character(rng: random.Random, rank: int, bound: int = 3):
    return tuple(rng.randint(-bound, bound) for _ in range(rank))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
