"""Command-line interface: verbs, formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qng
from qng.cli import main, parse_bound_expr, parse_family
from qng.enumeration import canonical_form
from qng.graph import (
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    h_graph,
    join,
    path,
    star,
    to_graph6,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_family_atoms():
    assert parse_family("K6") == complete(6)
    assert parse_family("K3,3") == complete_bipartite(3, 3)
    assert parse_family("P5") == path(5)
    assert parse_family("C6") == cycle(6)
    assert parse_family("star 6") == star(6)
    assert parse_family("H 2 1 1") == h_graph(2, 1, 1)
    assert parse_family("4K1").n == 4 and parse_family("4K1").m == 0


def test_parse_family_compound():
    assert parse_family("join(K2;E3)") == join(complete(2), parse_family("E3"))
    assert parse_family("union(K2;4K1)") == disjoint_union(complete(2), parse_family("4K1"))
    assert parse_family("cp(K3;K2)") == cartesian_product(complete(3), complete(2))
    assert parse_family("join(union(K2;K2);3K1)").n == 7
    with pytest.raises(ValueError):
        parse_family("wat(K2)")


def test_parse_bound_expr():
    assert parse_bound_expr("2n-5", 6) == 7
    assert parse_bound_expr("n-2", 6) == 4
    assert parse_bound_expr("7", 6) == 7
    assert parse_bound_expr("3n-4", 5) == 11
    with pytest.raises(ValueError):
        parse_bound_expr("x+1", 6)


def test_check_verb_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--thm", "1.3",
                           "--graph6", to_graph6(cycle(4)), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equality-certified"
    assert payload["family"] == "C_4"
    assert payload["certified"] is True


def test_check_verb_family_input(capsys):
    code, out, _ = run_cli(capsys, "check", "--thm", "1.4", "--family", "join(union(K2;K2);3K1)")
    assert code == 0
    assert "equality-certified" in out and "(2K_2)∇(3K_1)" in out


def test_scan_verb_interval_counts(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "5", "--filter", "connected",
                           "--predicate", "sum-open-interval 5 6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["equality"]) == 8


def test_scan_determinism_under_jobs(capsys):
    base = run_cli(capsys, "scan", "--n", "5", "--filter", "connected",
                   "--thm", "1.2", "--format", "json")
    parallel = run_cli(capsys, "scan", "--n", "5", "--filter", "connected",
                       "--thm", "1.2", "--format", "json", "--jobs", "2")
    assert base == parallel


def test_scan_csv_and_range(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n-range", "4..5", "--filter", "all",
                           "--thm", "1.2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,kind,graph6"
    assert any(line.startswith("4,equality,") for line in out.splitlines()[1:])


def test_scan_external_input(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("\n".join(to_graph6(g) for g in (cycle(6), complete(6))) + "\n")
    code, out, _ = run_cli(capsys, "scan", "--n", "6", "--filter", "connected",
                           "--thm", "problem1.2", "--input", str(stream), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2
    assert payload["equality"] == [canonical_form(cycle(6)).graph6]


def test_ng_a2_square_radicand_check_and_scan(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", "--thm", "ng", "--kind", "A", "--k", "2",
                           "--graph6", "GKXc{w", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["certified"], payload["lhs_exact"]) == ("equality-certified", True, "4")
    stream = tmp_path / "n8.g6"
    stream.write_text("GKXc{w\nG?????\nG~~~~{\nGCQR@O\n")
    code, out, _ = run_cli(capsys, "scan", "--n", "8", "--thm", "ng", "--kind", "A", "--k", "2",
                           "--input", str(stream))
    assert code == 0
    assert "equality-certified=1 strict=3" in out and "equality: GKXc{w" in out


def test_scan_mixed_order_input(tmp_path, capsys):
    import random

    from qng.enumeration import enumerate_graphs
    from qng.graph import relabel

    rng = random.Random(6)
    lines = []
    for n in (6, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            lines.append(to_graph6(relabel(g, perm)))
    rng.shuffle(lines)
    stream = tmp_path / "mixed.g6"
    stream.write_text("\n".join(lines) + "\n")
    code, mixed, _ = run_cli(capsys, "scan", "--n-range", "6..7", "--thm", "1.2",
                             "--input", str(stream))
    assert code == 0
    singles = ""
    for n in ("6", "7"):
        code, out, _ = run_cli(capsys, "scan", "--n", n, "--thm", "1.2")
        assert code == 0
        singles += out
    assert mixed == singles
    code, _, err = run_cli(capsys, "scan", "--n", "6", "--thm", "1.2", "--input", str(stream))
    assert code == 1
    assert "stream graph of order 7 in a scan for n=6" in err


def test_scan_input_order_outside_range(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("\n".join(to_graph6(g) for g in (cycle(6), complete(7), path(8), cycle(7))) + "\n")
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, "scan", "--n-range", "6..7", "--thm", "1.2", "--jobs", jobs,
                                 "--input", str(stream))
        assert (code, out) == (1, "")
        assert err == "error: stream graph of order 8 in a scan for n=6..7\n"
        code, out, err = run_cli(capsys, "scan", "--n", "6", "--thm", "1.2", "--jobs", jobs,
                                 "--input", str(stream))
        assert (code, out) == (1, "")
        assert err == "error: stream graph of order 7 in a scan for n=6\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_scan_input_from_pipe(tmp_path, capsys):
    import threading

    fifo = tmp_path / "graphs.fifo"
    os.mkfifo(fifo)

    def scan_through_pipe(text, *argv):
        def feed():
            try:
                with open(fifo, "w") as w:
                    w.write(text)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            return run_cli(capsys, "scan", "--thm", "1.2", *argv, "--input", str(fifo))
        finally:
            writer.join()

    order6 = "".join(to_graph6(g) + "\n" for g in (cycle(6), complete(6), path(6), star(6)))
    stream = tmp_path / "graphs.g6"
    stream.write_text(order6)
    for orders in (("--n", "6"), ("--n-range", "6..6")):
        got = scan_through_pipe(order6, *orders)
        assert got == run_cli(capsys, "scan", "--thm", "1.2", *orders, "--input", str(stream))
        assert got[0] == 0 and "n=6" in got[1]
    # a pipe cannot be rewound for a second order's pass
    code, out, err = scan_through_pipe(order6 + to_graph6(cycle(7)) + "\n", "--n-range", "6..7")
    assert (code, out) == (1, "")
    assert "needs a seekable --input" in err


def test_proof_check_verb(capsys):
    code, out, _ = run_cli(capsys, "proof-check", "--thm", "1.5", "--n-range", "8..12")
    assert code == 0
    assert out.count("pass") == 5
    code, out, _ = run_cli(capsys, "proof-check", "--thm", "1.2", "--n", "6")
    assert code == 0


def test_spectrum_verb(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "K4", "--kind", "Q", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalues"] == pytest.approx([6, 2, 2, 2])


def test_enumerate_verb(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--filter", "connected")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_report_verb(capsys):
    code, out, _ = run_cli(capsys, "report", "--family", "C6", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "graph6,bound,lhs,rhs,verdict,family"
    assert "thm-1.2" in out and "regular-bound" in out


def test_scan_violation_exit_code(capsys):
    # an intentionally false bound: every connected order-4 graph violates sum <= 0
    code, out, _ = run_cli(capsys, "scan", "--n", "4", "--filter", "connected",
                           "--predicate", "sum-le 0", "--format", "json")
    assert code == 2
    assert json.loads(out)["violations"]


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "check", "--thm", "1.3", "--graph6", "notgraph6!!")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "check", "--thm", "1.3")
    assert code == 1
    code, _, err = run_cli(capsys, "scan", "--n", "5")
    assert code == 1


@pytest.mark.parametrize("family", ["star", "star x", "star 6 7", "H 1 2", "H 1 2 3 4"])
def test_malformed_family_forms(capsys, family):
    code, out, err = run_cli(capsys, "check", "--thm", "1.2", "--family", family)
    assert (code, out) == (1, "")
    form = "star N" if family.startswith("star") else "H S0 S1 S2"
    assert err == f"error: expected family {form!r}, got {family!r}\n"


@pytest.mark.parametrize("verb", [["scan", "--thm", "ng"], ["proof-check", "--thm", "1.5"]])
@pytest.mark.parametrize("span", ["6", "7..6", "6..", "a..b", "6..7..8"])
def test_n_range_must_be_lo_dot_dot_hi(capsys, verb, span):
    code, out, err = run_cli(capsys, *verb, "--n-range", span)
    assert (code, out) == (1, "")
    assert err == f"error: --n-range takes LO..HI with integers LO <= HI, got {span!r}\n"


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "check", "--thm", "1.3", "--family", "C4",
                           "--format", "json", "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["verdict"] == "equality-certified"


def test_installed_entry_point():
    # the child process imports the qng under test, also when only pytest's pythonpath has it
    src = str(Path(qng.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qng.cli", "check", "--thm", "1.2", "--family", "star 6"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "equality-certified" in proc.stdout
