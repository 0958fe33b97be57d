"""The benchmark drives succabs from outside: it wraps functions by name on
``succabs.tagger`` and counts trie nodes with ``SuffixTrie.iter_nodes``.  One
small traced run guards those names and every output pin."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "poslike48", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["counts.trie_nodes"]["value"] > 1
