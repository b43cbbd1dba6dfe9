"""The tracer wraps every binding, restores them, and its counts repeat.

Run from the root of a checkout: python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_every_module_binding_is_wrapped_and_restored():
    import torusgit
    import torusgit.cli  # noqa: F401  (loads jsonio and cli for the tracer)
    from torusgit import lattice, luna, torus, walls
    from spans import Tracer

    original = lattice.kernel_basis
    holders = [torusgit, lattice, torus, walls, luna]
    assert all(m.kernel_basis is original for m in holders)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.kernel_basis is not original for m in holders)
        walls.kernel_basis(lattice.IntMatrix.from_rows([[1, 1]]))
        torus.TorusAction(1, lattice.IntMatrix.from_rows([[1, -1]])).all_supports()
    finally:
        tracer.uninstall()
    assert all(m.kernel_basis is original for m in holders)
    m = tracer.metrics()
    assert m["lattice.kernel_basis.calls"] == 1
    assert m["lattice.snf.calls"] >= 1
    assert m["torus.action_init.calls"] == 1 and m["torus.supports_scanned"] == 4


def _traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "ms"}, result


@pytest.mark.parametrize("workload", ["cli-point", "chamber"])
def test_two_traced_runs_give_identical_counts(workload):
    first, result = _traced_counts(workload)
    second, _ = _traced_counts(workload)
    assert first == second
    assert first["lattice.snf.calls"] > 0 and first["torus.action_init.calls"] > 0
    if workload == "cli-point":
        assert result["failed"] == 3 and result["attempted"] == 22
