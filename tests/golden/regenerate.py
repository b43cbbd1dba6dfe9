"""Write ``cli.jsonl``: the exit code and the SHA-256 of stdout of each CLI
call below, run in-process through ``torusgit.cli.run``.

    PYTHONPATH=src python tests/golden/regenerate.py

``tests/test_golden.py`` replays the file.  Regenerate it only for an
intended change of output, and record that change with its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from torusgit.cli import run

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


def action_json(rows: list[list[int]], dim: int | None = None) -> str:
    dim = len(rows[0]) if rows else dim
    return json.dumps({"rank": len(rows), "weights": [[r[j] for r in rows] for j in range(dim)]})


def calls() -> list[tuple[str, list[str]]]:
    out = [("luna-cubics", ["luna-cubics"])]
    for i, rows in enumerate(TOWER_BASES, 1):
        out.append((f"desing-verify-{i}", ["desing", "--action", action_json(rows), "--verify"]))
    for name, rows in INVARIANT_ROWS.items():
        for bound in (1, 6, 10):
            out.append((f"invariants-{name}-{bound}",
                        ["invariants", "--action", action_json(rows, INVARIANT_DIMS.get(name)),
                         "--degree-bound", str(bound)]))
    return out


def replay(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout SHA-256 of one in-process call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(argv)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> None:
    lines = []
    for label, argv in calls():
        rc, digest = replay(argv)
        lines.append(json.dumps({"label": label, "argv": argv, "exit": rc, "stdout_sha256": digest}))
    Path(__file__).with_name("cli.jsonl").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
