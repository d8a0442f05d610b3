"""Golden CLI outputs: stdout and exit code of a fixed command list, byte for byte.

The data file freezes what ``qng`` prints for ``check``/``report``/``scan`` in
every format, a scan of every registered theorem over n = 4..7, the ``ng``
sums, every scan predicate kind, a ``--jobs 2`` scan, two proof-check sweeps, the
second across the 32-vertex limit of the blown-up graphs, and
a scan of the external order-9 stream ``tests/data/stream9.g6`` under ``--jobs``
1, 2 and 3, a ``cobar-disconnected`` scan under ``--jobs 2``, and the ``ng``
check and scan of P4, whose lambda_2 sum equals the irrational bound
-1 + sqrt(5), and the thm-1.2 check of K_{1,10} and a scan of two labelings
of it, ``tests/data/star11.g6``, which give one equality class.  Commands run from the repository root, so a stream path in
the argv is relative to it.  Regenerate the file only for an intended change of
output:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from qng.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "golden_cli.json"

THEOREMS = ["1.2", "1.3", "1.4", "1.5", "1.6", "problem1.2", "regular", "2.6", "2.8", "2.9", "2.10"]

COMMANDS: list[list[str]] = [
    *(["check", "--thm", "1.2", "--family", "star 6", "--format", fmt] for fmt in ("text", "json", "csv")),
    *(["report", "--family", "C6", "--format", fmt] for fmt in ("text", "json", "csv")),
    *(["scan", "--n", "6", "--filter", "connected,bipartite", "--thm", "1.5", "--format", fmt]
      for fmt in ("text", "json", "csv")),
    ["report", "--family", "star 7", "--format", "json"],
    ["report", "--family", "join(union(K2;K2);3K1)"],
    ["check", "--thm", "1.3", "--family", "C4", "--format", "json"],
    ["check", "--thm", "1.4", "--family", "join(union(K2;K2);3K1)"],
    ["check", "--thm", "regular", "--family", "cp(K3;K2)", "--format", "json"],
    ["check", "--thm", "2.6", "--family", "K2,5", "--format", "json"],
    ["check", "--thm", "2.8", "--family", "K5", "--format", "json"],
    ["check", "--thm", "2.9", "--family", "union(K5;E1)", "--format", "json"],
    ["check", "--thm", "2.10", "--family", "K6", "--format", "json"],
    ["check", "--thm", "1.6", "--family", "K6"],
    ["check", "--thm", "ng", "--kind", "A", "--k", "2", "--family", "C5", "--format", "json"],
    ["check", "--thm", "ng", "--kind", "L", "--k", "1", "--family", "star 5", "--format", "json"],
    ["check", "--thm", "ng", "--kind", "Q", "--k", "1", "--family", "star 5", "--format", "json"],
    *(["scan", "--n-range", "4..7", "--thm", thm] for thm in THEOREMS),
    ["scan", "--n-range", "4..7", "--thm", "ng", "--kind", "L", "--k", "1"],
    ["scan", "--n-range", "5..7", "--thm", "ng", "--kind", "A", "--k", "2"],
    ["scan", "--n-range", "4..7", "--thm", "ng", "--kind", "Q", "--k", "3"],
    ["scan", "--n-range", "4..7", "--filter", "connected", "--predicate", "sum-open-interval n-1 n"],
    ["scan", "--n", "5", "--filter", "connected", "--predicate", "sum-open-interval 5 6", "--format", "json"],
    ["scan", "--n-range", "4..7", "--predicate", "sum-eq 2n-5"],
    ["scan", "--n-range", "4..7", "--filter", "connected", "--predicate", "sum-le 2n-5"],
    ["scan", "--n-range", "4..7", "--predicate", "sum-ge n-2", "--format", "csv"],
    ["scan", "--n", "4", "--filter", "connected", "--predicate", "sum-le 0", "--format", "json"],
    ["scan", "--n", "7", "--filter", "connected", "--thm", "2.8", "--jobs", "2", "--format", "json"],
    ["proof-check", "--thm", "1.5", "--n-range", "8..12"],
    ["proof-check", "--thm", "1.5", "--n-range", "30..35", "--format", "json"],
    *(["scan", "--n", "9", "--input", "tests/data/stream9.g6", "--filter", "connected",
       "--thm", "problem1.2", "--jobs", jobs, "--format", fmt]
      for jobs in ("1", "2", "3") for fmt in ("text", "json")),
    ["scan", "--n-range", "6..7", "--filter", "cobar-disconnected", "--thm", "1.4", "--jobs", "2"],
    ["check", "--thm", "ng", "--kind", "A", "--k", "2", "--family", "P4", "--format", "json"],
    ["scan", "--n", "4", "--thm", "ng", "--kind", "A", "--k", "2"],
    ["check", "--thm", "1.2", "--family", "star 11"],
    ["scan", "--n", "11", "--input", "tests/data/star11.g6", "--thm", "1.2"],
]


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def test_golden_cli_outputs():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == COMMANDS
    for entry in golden:
        assert run(entry["argv"]) == entry, " ".join(entry["argv"])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DATA.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in COMMANDS]
    DATA.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
