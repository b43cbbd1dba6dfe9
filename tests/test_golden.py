"""Replay the golden CLI corpus: each call's exit code and the SHA-256 of its
stdout must equal the recorded ones (``tests/golden/regenerate.py`` writes them)."""

import json
from pathlib import Path

import pytest

from golden.regenerate import replay

CORPUS = [json.loads(line) for line in
          (Path(__file__).parent / "golden" / "cli.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("call", CORPUS, ids=[c["label"] for c in CORPUS])
def test_golden_call_prints_the_recorded_bytes(call):
    assert replay(call["argv"]) == (call["exit"], call["stdout_sha256"])
