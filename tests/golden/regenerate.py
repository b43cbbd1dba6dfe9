"""Write ``cli.jsonl``: the exit code and the SHA-256 of stdout of each CLI
call below, run in-process through ``torusgit.cli.run``.

    PYTHONPATH=src python tests/golden/regenerate.py

``tests/test_golden.py`` replays the file.  Regenerate it only for an
intended change of output, and record that change with its reason.

The calls are the fixed ones below, then the ``cli-point`` benchmark calls of
seeds 1-8 (three cycles each), drawn from ``bench/workloads.py``.  Only this
script reads ``bench/``; the replay does not.  Calls run with the working
directory set to this folder, so that the relative paths of the unreadable-path
calls print the same error text wherever the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from torusgit.cli import run

HERE = Path(__file__).resolve().parent
CLI_POINT_SEEDS = range(1, 9)
CLI_POINT_CYCLES = 3

# weight rows of desingularization bases, one tower each (the first has three steps)
TOWER_BASES = (
    [[1, 1, -1, -1, 0], [0, 1, 0, -1, 1]],
    [[1, -1]],
    [[1, 1, -1, -1]],
    [[1, 2, -1, -3]],
    [[1, 0, -1], [0, 1, -1]],
    [[2, -1, -1], [-1, 2, -1]],
)
# weight rows of the actions whose invariant monomials are listed
INVARIANT_ROWS = {
    "cubics-slice": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "rank2-six": [[1, 2, -1, -3, 1, 0], [0, 1, 1, -1, -2, 1]],
    "rank1-four": [[1, 2, -1, -3]],
    "trivial-two": [],
}
INVARIANT_DIMS = {"trivial-two": 2}

# Actions the cli-point workload never draws (it has Q = I and no finite part).
# Rank 2: the coordinate swap x1 <-> x2, x3 <-> x4, x5 <-> x6 with aut = swap of the two
# factors preserves Q, so only characters (a, a) are invariant.
SWAP_RANK2 = {
    "rank": 2,
    "weights": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 2], [2, 1]],
    "norm_form": [[2, 1], [1, 2]],
    "finite_part": [{"perm": [2, 1, 4, 3, 6, 5], "aut": [[0, 1], [1, 0]]}],
}
# Rank 3 with a non-diagonal norm form and no finite part.
SKEW_RANK3 = {
    "rank": 3,
    "weights": [[1, 0, 2], [-1, 1, 0], [0, -2, 1], [2, 1, -1], [-1, -1, -1], [0, 1, 1]],
    "norm_form": [[2, 1, 0], [1, 2, 1], [0, 1, 3]],
}
# The cubics slice and one more orbit of columns under its cyclic symmetry, with a norm
# form the cycle preserves.
CYCLIC_RANK3 = {
    "rank": 3,
    "weights": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2], [1, 1, -3], [-3, 1, 1], [1, -3, 1]],
    "norm_form": [[3, 1, 1], [1, 3, 1], [1, 1, 3]],
    "finite_part": [{"perm": [2, 3, 1, 5, 6, 4],
                     "aut": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}],
}
NORMED = (
    ("swap-rank2", SWAP_RANK2, ([1, 1], [-1, -1], [0, 0], [2, 2]),
     ([1], [1, 2], [3, 4], [1, 3, 5], [2, 4, 6], [5, 6], [1, 2, 3, 4, 5, 6])),
    ("skew-rank3", SKEW_RANK3, ([1, -2, 3], [0, 1, -1], [-1, -1, 0]),
     ([1], [2, 5], [1, 3, 4], [2, 3, 5, 6], [1, 2, 3, 4, 5, 6])),
    ("cyclic-rank3", CYCLIC_RANK3, ([1, 1, 1], [-1, -1, -1], [0, 0, 0]),
     ([1], [1, 2], [4, 5], [1, 5, 6], [1, 2, 3, 4, 5, 6])),
)
HYPERBOLA = json.dumps({"rank": 1, "weights": [[1], [-1]]})


def action_json(rows: list[list[int]], dim: int | None = None) -> str:
    dim = len(rows[0]) if rows else dim
    return json.dumps({"rank": len(rows), "weights": [[r[j] for r in rows] for j in range(dim)]})


def _normed_calls() -> list[tuple[str, list[str]]]:
    """hm-min, minimal-values and combine with a norm form, some with a finite part."""
    out = []
    for name, doc, chars, supports in NORMED:
        action = json.dumps(doc)
        for i, chi in enumerate(chars):
            out.append((f"{name}-minimal-values-{i}",
                        ["minimal-values", "--action", action, "--char", json.dumps(chi)]))
            for j, s in enumerate(supports):
                out.append((f"{name}-hm-min-{i}-{j}",
                            ["hm-min", "--action", action, "--char", json.dumps(chi),
                             "--support", json.dumps(s)]))
        for (i, chi_l), (k, chi_m) in itertools.product(enumerate(chars), repeat=2):
            out.append((f"{name}-combine-{i}-{k}",
                        ["combine", "--action", action, "--char-l", json.dumps(chi_l),
                         "--char-m", json.dumps(chi_m)]))
    return out


def _degenerate_calls() -> list[tuple[str, list[str]]]:
    """The degenerate hm-min and stable calls and the unreadable paths of ``test_cli.py``."""
    sys.path.insert(0, str(HERE.parent))
    from conftest import DEGENERATE_20, GENERAL_POSITION_16
    from test_cli import RANK_6_20

    out = []
    for name, cols, chi in (("general-12", GENERAL_POSITION_16[:12], "[1,-2,3]"),
                            ("general-16", GENERAL_POSITION_16, "[1,-2,3]"),
                            ("degenerate-20", DEGENERATE_20, "[1,-2,0]"),
                            ("rank6-over-cap", RANK_6_20, "[1,-1,2,0,1,-2]")):
        action = json.dumps({"rank": len(cols[0]), "weights": cols})
        full = json.dumps(list(range(1, len(cols) + 1)))
        out.append((f"hm-min-{name}",
                    ["hm-min", "--action", action, "--char", chi, "--support", full]))
        if name != "rank6-over-cap":
            out.append((f"stable-{name}", ["stable", "--action", action, "--char", chi,
                                           "--support", full]))
    for i, (weights, support) in enumerate((([[4, 4, 1], [0, 0, 1]], [1, 2]),
                                            ([[1, 1, 0], [0, 0, 1]], [1, 2]),
                                            ([[4, 4, 1], [0, 0, 1], [4, 4, 2]], [1, 2, 3]))):
        action = json.dumps({"rank": 3, "weights": weights})
        for cmd in ("hm-min", "stable"):
            out.append((f"{cmd}-zero-witness-{i}", [cmd, "--action", action, "--char", "[0,0,0]",
                                                   "--support", json.dumps(support)]))
    out += [
        ("unreadable-long-name",
         ["semistable", "--action", HYPERBOLA, "--char", "1" * 300, "--support", "[1]"]),
        ("unreadable-directory", ["dvr-lift", "--orders", "."]),
        ("unreadable-not-utf8",
         ["semistable", "--action", "not-utf8.json", "--char", "[1]", "--support", "[1]"]),
    ]
    return out


def _cli_point_calls() -> list[tuple[str, list[str]]]:
    sys.path.insert(0, str(HERE.parents[1] / "bench"))
    import workloads

    out = []
    for seed in CLI_POINT_SEEDS:
        cycles = itertools.islice(workloads.cli_cycles(seed), CLI_POINT_CYCLES)
        for c, cycle in enumerate(cycles):
            out += [(f"cli-point-{seed}-{c}-{call.label}", call.argv) for call in cycle]
    return out


def calls() -> list[tuple[str, list[str]]]:
    out = [("luna-cubics", ["luna-cubics"])]
    for i, rows in enumerate(TOWER_BASES, 1):
        out.append((f"desing-verify-{i}", ["desing", "--action", action_json(rows), "--verify"]))
    for name, rows in INVARIANT_ROWS.items():
        for bound in (1, 6, 10):
            out.append((f"invariants-{name}-{bound}",
                        ["invariants", "--action", action_json(rows, INVARIANT_DIMS.get(name)),
                         "--degree-bound", str(bound)]))
    return out + _normed_calls() + _degenerate_calls() + _cli_point_calls()


def replay(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout SHA-256 of one in-process call, run in this folder."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(buf):
            rc = run(argv)
    finally:
        os.chdir(cwd)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> None:
    lines = []
    for label, argv in calls():
        rc, digest = replay(argv)
        lines.append(json.dumps({"label": label, "argv": argv, "exit": rc, "stdout_sha256": digest}))
    HERE.joinpath("cli.jsonl").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
