"""The four benchmark workloads: seeded inputs, one timed repetition, oracles.

Every repetition drives the package's public functions and checks each
output against an oracle; a mismatch or an exception counts one failed
operation and never aborts the run.  Expected outputs that do not depend on
the seed were recorded from the package by ``make_oracle.py`` and live in
``oracle.json``.  Package functions are looked up on their module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass

from qng import cli, enumeration, graph, theorems

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_REPORTED_FAILURES = 20


def oracle(workload: str) -> dict:
    with open(os.path.join(HERE, "oracle.json")) as f:
        return json.load(f)[workload]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    classes: int = 0  # classes returned by the repetition's own enumerate_graphs calls


_reported = 0


def _fail(workload: str, op: str, detail: str) -> None:
    global _reported
    if _reported < MAX_REPORTED_FAILURES:
        print(f"FAIL {workload} {op}: {detail}", file=sys.stderr)
    _reported += 1


def _run_op(outcome: Outcome, workload: str, op: str, fn) -> None:
    """Run one operation; ``fn`` returns (ok, value) and may raise."""
    outcome.attempted += 1
    try:
        ok, value = fn()
    except Exception:
        outcome.failed += 1
        _fail(workload, op, traceback.format_exc(limit=3))
        return
    if not ok:
        outcome.failed += 1
        _fail(workload, op, f"output differs from the oracle: {value!r}"[:500])


def _scan_matches(result, expected: dict) -> tuple[bool, dict]:
    got = {
        "total": result.total,
        "counts": dict(sorted(result.counts.items())),
        "equality": result.equality,
        "violations": result.violations,
    }
    return got == expected, got


# ---------------------------------------------------------------------------
# graph6 and bitset helpers, independent of the package


def encode_graph6(n: int, rows: list[int]) -> str:
    chars = [chr(n + 63)]
    buf = nbits = 0
    for col in range(1, n):
        for row in range(col):
            buf = (buf << 1) | (rows[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(buf + 63))
                buf = nbits = 0
    if nbits:
        chars.append(chr((buf << (6 - nbits)) + 63))
    return "".join(chars)


def decode_graph6(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> k & 1 for c in text[1:] for k in range(5, -1, -1)]
    rows = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            i += 1
    return n, rows


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        mask = 0
        for u in range(len(rows)):
            if row >> u & 1:
                mask |= 1 << perm[u]
        out[perm[v]] = mask
    return out


def is_connected(n: int, rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= rows[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    min_reps = 1
    processes = 1  # processes that share the work of a repetition

    def setup(self, seed: int, workdir: str) -> dict:
        return {}

    def rep(self, state: dict) -> Outcome:
        raise NotImplementedError

    def finish(self, state: dict, root: str) -> int:
        """Failed operations found by checks that run after the timed repetitions."""
        return 0


class CensusN8(Workload):
    """Cold n=8 enumeration, the thm-1.2 census and the problem-1.2 scan."""

    name = "census-n8"

    def setup(self, seed: int, workdir: str) -> dict:
        return {"expected": oracle(self.name)}  # the census is the same for every seed

    def rep(self, state: dict) -> Outcome:
        expected = state["expected"]
        out = Outcome()

        def enumerate8():
            graphs = enumeration.enumerate_graphs(8)
            out.classes += len(graphs)
            return len(graphs) == expected["classes"], len(graphs)

        _run_op(out, self.name, "enumerate_graphs(8)", enumerate8)
        _run_op(out, self.name, "scan thm-1.2", lambda: _scan_matches(
            enumeration.scan(8, "all", theorems.check_thm12), expected["thm-1.2"]))
        _run_op(out, self.name, "scan problem-1.2", lambda: _scan_matches(
            enumeration.scan(8, "connected", theorems.check_problem12), expected["problem-1.2"]))
        return out


def _check_ng_a2(g):
    return theorems.check_ng_generic(g, "A", 2)


def _check_ng_l1(g):
    return theorems.check_ng_generic(g, "L", 1)


class RegistryN7(Workload):
    """All 14 single-graph checks over the order-7 classes, relabelled and shuffled."""

    name = "registry-n7"

    def checks(self):
        for key in theorems.THEOREM_CHECKS:
            yield key, theorems.THEOREM_CHECKS[key]
        yield "q1-sum", theorems.check_ng_q1
        yield "ng-A2", _check_ng_a2
        yield "ng-L1", _check_ng_l1

    def setup(self, seed: int, workdir: str) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        with open(os.path.join(HERE, "graphs7.g6")) as f:
            classes = [decode_graph6(line.strip()) for line in f if line.strip()]
        graphs = []
        for n, rows in classes:
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(graph.Graph(n, relabel(rows, perm)))
        rng.shuffle(graphs)
        return {"graphs": graphs, "expected": oracle(self.name)}

    def rep(self, state: dict) -> Outcome:
        expected = state["expected"]
        out = Outcome()
        for key, check in self.checks():
            _run_op(out, self.name, f"scan {key}", lambda: _scan_matches(
                enumeration.scan(7, "all", check, source=state["graphs"]), expected[key]))
        return out


class ProofSweep(Workload):
    """proof_check_thm12 for n = 4..50 and every d2, then proof_check_thm15 for n = 8..50."""

    name = "proof-sweep"  # the same for every seed

    def rep(self, state: dict) -> Outcome:
        out = Outcome()
        for n in range(4, 51):
            for d2 in range(1, n - 1):
                _run_op(out, self.name, f"proof_check_thm12({n}, {d2})",
                        lambda: (theorems.proof_check_thm12(n, d2) is True, False))
        for n in range(8, 51):
            _run_op(out, self.name, f"proof_check_thm15({n})",
                    lambda: (theorems.proof_check_thm15(n) is True, False))
        return out


class StreamN9(Workload):
    """`qng scan` with --jobs 2 over a seeded external stream of order-9 graphs."""

    name = "stream-n9"
    processes = 3  # the parent and two pool workers
    min_reps = 5  # pool tails make single repetitions spread; the median of five is steady
    graphs = 20_000
    duplicate_share = 0.1

    def argv(self, path: str, jobs: int) -> list[str]:
        return ["scan", "--n", "9", "--input", path, "--filter", "connected",
                "--thm", "problem1.2", "--jobs", str(jobs)]

    def setup(self, seed: int, workdir: str) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        n = 9
        stream: list[list[int]] = []
        for _ in range(self.graphs):
            if stream and rng.random() < self.duplicate_share:
                perm = list(range(n))
                rng.shuffle(perm)
                rows = relabel(rng.choice(stream), perm)
            else:
                density = rng.uniform(0.3, 0.7)
                rows = [0] * n
                for v in range(1, n):
                    for u in range(v):
                        if rng.random() < density:
                            rows[u] |= 1 << v
                            rows[v] |= 1 << u
            stream.append(rows)
        path = os.path.join(workdir, "stream-n9.g6")
        with open(path, "w") as f:
            f.writelines(encode_graph6(n, rows) + "\n" for rows in stream)
        connected = sum(is_connected(n, rows) for rows in stream)
        return {"path": path, "connected": connected, "runs": []}

    def rep(self, state: dict) -> Outcome:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(state["path"], 2))
        except Exception:
            code = traceback.format_exc(limit=3)
        state["runs"].append((code, buf.getvalue()))
        return Outcome(attempted=1)  # checked in finish, against the --jobs 1 output

    def finish(self, state: dict, root: str) -> int:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        try:
            ref = subprocess.run(
                [sys.executable, "-m", "qng.cli", *self.argv(state["path"], 1)],
                cwd=root, env=env, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            ref = subprocess.CompletedProcess([], returncode="timeout", stdout="")
        failed = 0
        for code, text in state["runs"]:
            total = re.search(r" total=(\d+) ", text)
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if total is None or int(total.group(1)) != state["connected"]:
                problems.append(f"total differs from {state['connected']} connected inputs")
            if ref.returncode != 0 or text != ref.stdout:
                problems.append("stdout differs from the --jobs 1 output")
            if problems:
                failed += 1
                _fail(self.name, "qng scan --jobs 2", "; ".join(problems) + f": {text[:300]!r}")
        return failed


WORKLOADS = {w.name: w for w in (CensusN8(), RegistryN7(), ProofSweep(), StreamN9())}
