"""Command-line interface: verbs, formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qng
from qng import spectra
from qng.cli import MAX_FAMILY_DEPTH, main, parse_bound_expr, parse_family
from qng.enumeration import canonical_form
from qng.spectra import spectrum
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


def test_parse_family_nests_up_to_its_depth_limit():
    """Nesting at the limit parses (cp of one-vertex graphs stays one vertex); one level deeper is
    a usage error, which the CLI reports as one line instead of a RecursionError."""
    assert parse_family("cp(" * MAX_FAMILY_DEPTH + "K1" + ";K1)" * MAX_FAMILY_DEPTH) == complete(1)
    deeper = MAX_FAMILY_DEPTH + 1
    with pytest.raises(ValueError, match=f"family expression nested deeper than {MAX_FAMILY_DEPTH}"):
        parse_family("cp(" * deeper + "K1" + ";K1)" * deeper)


def test_parse_bound_expr():
    assert parse_bound_expr("2n-5", 6) == 7
    assert parse_bound_expr("n-2", 6) == 4
    assert parse_bound_expr("7", 6) == 7
    assert parse_bound_expr("3n-4", 5) == 11
    forms = {"2n-5": 7, "2*n-5": 7, "n": 6, "-n+3": -3, "3/2": Fraction(3, 2),
             "n+1/2": Fraction(13, 2), "+5": 5, "7": 7, "n-1": 5}
    assert {text: parse_bound_expr(text, 6) for text in forms} == forms
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


def test_check_verb_reads_one_chunk_of_its_graph(capsys, monkeypatch):
    """``qng check`` reads its graph's kept chunk of one, as ``qng report`` does: thm-1.5
    on K3,3 screens the graph and its complement in one eigvalsh call each and builds
    the complement once."""
    stacks, built = [], []
    eigvalsh, build = np.linalg.eigvalsh, spectra.complement
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(spectra, "complement", lambda g: built.append(g) or build(g))
    spectra.lone_chunk.cache_clear()
    code, out, _ = run_cli(capsys, "check", "--thm", "1.5", "--family", "K3,3")
    assert (code, out) == (0, "EFz_ thm-1.5: equality-certified lhs=7.0 rhs=7 family=K_{3,3}\n")
    assert (stacks, built) == ([(1, 6, 6), (1, 6, 6)], [complete_bipartite(3, 3)])


def test_scan_verb_interval_counts(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "5", "--filter", "connected",
                           "--predicate", "sum-open-interval 5 6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["equality"]) == 8


def test_scan_predicates_at_one_vertex_are_not_applicable(capsys):
    """A graph with no second eigenvalue is not applicable to every q_2 predicate, as
    ``check --thm ng`` reports it, instead of ending the scan in an error."""
    code, out, err = run_cli(capsys, "scan", "--n-range", "1..4", "--predicate", "sum-ge n-2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "n=1 filter=all predicate=sum-ge -1 total=1 not-applicable=1"
    assert [line.split()[0] for line in out.splitlines() if line.startswith("n=")] == ["n=1", "n=2", "n=3", "n=4"]
    for predicate in ("sum-le 3", "sum-eq 3", "sum-open-interval 1 2"):
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "scan", "--n", "1", "--predicate", predicate, "--jobs", jobs)
            assert (code, err) == (0, "")
            assert out == f"n=1 filter=all predicate={predicate} total=1 not-applicable=1\n"
    code, out, _ = run_cli(capsys, "check", "--thm", "ng", "--kind", "A", "--k", "2", "--family", "K1")
    assert (code, out) == (0, "@ ng-A2: not-applicable lhs=None rhs=None (k=2 outside 1..1)\n")


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
    assert payload["equality"] == [canonical_form(cycle(6))]


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

    from qng.enumeration import _relabeled as relabel, enumerate_graphs

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


@pytest.mark.parametrize("family, kind", [("C5", "Q"), ("C5", "L"), ("P4", "Q"), ("P4", "L")])
def test_spectrum_verb_text_and_csv(capsys, family, kind):
    """Both formats list the spectrum in descending order; the values are parsed, not
    pinned, because csv prints the ``repr`` of each LAPACK float."""
    g = parse_family(family)
    want = spectrum(g, kind).values
    code, out, _ = run_cli(capsys, "spectrum", "--family", family, "--kind", kind, "--format", "text")
    prefix = f"{to_graph6(g)} {kind}-spectrum: "
    assert code == 0 and out.startswith(prefix) and out.endswith("\n") and out.count("\n") == 1
    assert [float(v) for v in out[len(prefix):].split()] == pytest.approx(want, abs=1e-9)
    code, out, _ = run_cli(capsys, "spectrum", "--family", family, "--kind", kind, "--format", "csv")
    header, *rows = out.splitlines()
    assert (code, header) == (0, "k,value")
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, g.n + 1))
    assert [float(row.split(",")[1]) for row in rows] == pytest.approx(want, abs=1e-9)


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_violation_exit_code(capsys, fmt):
    # an intentionally false bound: every connected order-4 graph violates sum <= 0
    code, out, _ = run_cli(capsys, "scan", "--n", "4", "--filter", "connected",
                           "--predicate", "sum-le 0", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["violations"]
    else:
        rows = [f"4,violation,{g6}" for g6 in ("CF", "CL", "CN", "C]", "C^", "C~")]
        assert out.splitlines() == ["n,kind,graph6", *rows]


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


@pytest.mark.parametrize("spec, message", [
    ("sum-le", "expected predicate 'sum-le EXPR', got 'sum-le'"),
    ("sum-eq 2n-5 3", "expected predicate 'sum-eq EXPR', got 'sum-eq 2n-5 3'"),
    ("sum-open-interval 3", "expected predicate 'sum-open-interval LO HI', got 'sum-open-interval 3'"),
    ("sum-open-interval 3 4 5", "expected predicate 'sum-open-interval LO HI', got 'sum-open-interval 3 4 5'"),
    ("sum-lt 3", "unknown predicate 'sum-lt 3'"),
])
def test_predicate_errors_name_the_form(capsys, spec, message):
    code, out, err = run_cli(capsys, "scan", "--n", "5", "--predicate", spec)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("verb", [["scan", "--thm", "ng"], ["proof-check", "--thm", "1.5"]])
@pytest.mark.parametrize("span", ["6", "7..6", "6..", "a..b", "6..7..8"])
def test_n_range_must_be_lo_dot_dot_hi(capsys, verb, span):
    code, out, err = run_cli(capsys, *verb, "--n-range", span)
    assert (code, out) == (1, "")
    assert err == f"error: --n-range takes LO..HI with integers LO <= HI, got {span!r}\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "scan", "--n", "5", "--thm", "1.2", "--jobs", jobs)
    assert (code, out) == (1, "")
    assert err == f"error: --jobs takes a positive number of worker processes, got {jobs}\n"


# cp(...) of one-vertex graphs, 1,000 deep: valid, but past the parser's nesting limit
NESTED_FAMILY = "cp(" * 1000 + "K1" + ";K1)" * 1000
# the whole error line of some of the bad inputs below
ERROR_LINES = {
    ("proof-check", "--thm", "1.2", "--n", "2"): "error: proof-check --thm 1.2 requires n >= 4, got n=2\n",
    ("proof-check", "--thm", "1.5", "--n", "7"): "error: proof-check --thm 1.5 requires n >= 8, got n=7\n",
    ("check", "--thm", "1.2", "--family", ""): "error: empty family expression\n",
    ("check", "--thm", "1.2", "--family", "join(K2)"): "error: join(...) needs at least two arguments\n",
    ("spectrum", "--family", NESTED_FAMILY): "error: family expression nested deeper than 100\n",
}


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "5", "--predicate", "sum-le 3/0"],
    ["scan", "--n", "5", "--predicate", " "],
    ["scan", "--n", "6", "--input", "{tmp}/missing.g6", "--thm", "1.2"],
    ["check", "--thm", "1.2", "--family", "K5", "--output", "{tmp}/missing/x"],
    ["scan", "--n", "4", "--thm", "1.2", "--format", "xml"],
    ["check", "--family", "K3"],
    ["scan", "--n", "x", "--thm", "1.2"],
    ["scan", "--n", "6", "--predicate", "sum-le 2n5"],
    ["scan", "--n", "6", "--predicate", "sum-le n5"],
    ["scan", "--n", "6", "--predicate", "sum-le *n"],
    ["check", "--thm", "1.3", "--family", "K99999999999999999999"],
    ["check", "--thm", "1.3", "--family", "E99999999999999999999"],
    ["check", "--thm", "1.3", "--family", "99999999999999999999K1"],
    ["proof-check", "--thm", "1.2", "--n", "2"],
    ["proof-check", "--thm", "1.2", "--n-range", "0..2"],
    ["proof-check", "--thm", "1.5", "--n", "7"],
    ["proof-check", "--thm", "1.5", "--n", "8", "--format", "csv"],
    ["enumerate", "--n", "3", "--format", "json"],
    ["enumerate", "--n", "3", "--format", "csv"],
    ["scan", "--n", "4", "--thm", "1.2", "--predicate", "sum-eq 2"],
    ["scan", "--n", "4"],
    ["check", "--thm", "1.2", "--graph6", "C~", "--family", "K5"],
    ["report", "--graph6", "C~", "--family", "K5"],
    ["spectrum", "--graph6", "C~", "--family", "K5"],
    ["scan", "--n", "3", "--n-range", "4..4", "--thm", "1.2"],
    ["proof-check", "--thm", "1.2", "--n", "5", "--n-range", "6..6"],
    ["check", "--thm", "1.2", "--kind", "A", "--k", "5", "--family", "K4"],
    ["scan", "--n", "4", "--predicate", "sum-eq 2", "--kind", "L", "--k", "1"],
    ["scan", "--n", "4", "--thm", "1.2", "--k", "3"],
    ["check", "--thm", "1.2", "--family", ""],
    ["check", "--thm", "1.2", "--family", "join(K2)"],
    ["spectrum", "--family", NESTED_FAMILY],
], ids=["zero-denominator", "blank-predicate", "missing-input", "missing-output-dir",
        "bad-choice", "missing-required", "bad-int", "unsigned-constant", "n-then-digits",
        "star-without-coefficient", "huge-complete", "huge-empty", "huge-nK1",
        "proof-check-small-n", "proof-check-small-n-range", "proof-check-thm15-small-n", "proof-check-csv",
        "enumerate-json", "enumerate-csv", "thm-and-predicate", "no-check",
        "check-graph6-and-family", "report-graph6-and-family", "spectrum-graph6-and-family",
        "scan-n-and-n-range", "proof-check-n-and-n-range", "check-kind-without-ng",
        "predicate-kind-without-ng", "scan-k-without-ng", "empty-family", "join-of-one", "nested-family"])
def test_bad_input_is_an_error_line(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    if tuple(argv) in ERROR_LINES:
        assert err == ERROR_LINES[tuple(argv)]


def test_ng_index_past_the_order_is_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "check", "--thm", "ng", "--kind", "A", "--k", "9", "--family", "K5",
                           "--format", "json")
    payload = json.loads(out)
    assert (code, payload["bound"], payload["verdict"], payload["notes"]) == (0, "ng-A9", "not-applicable",
                                                                            "k=9 outside 1..5")


def test_empty_scan_line_ends_in_its_total(tmp_path, capsys):
    (tmp_path / "empty.g6").write_text("")
    code, out, _ = run_cli(capsys, "scan", "--n", "11", "--input", str(tmp_path / "empty.g6"), "--thm", "1.2")
    assert (code, out) == (0, "n=11 filter=all predicate=check_thm12 total=0\n")


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


def _valid_lines(n, count, seed):
    import random

    from qng.graph import from_edges

    rng = random.Random(seed)
    return [to_graph6(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]))
            for _ in range(count)]


@pytest.mark.parametrize("n, bad, later, error", [
    (9, "H~~", ["H" + "?" * 5 + "!"], "expected 6 payload characters for n=9, got 2"),
    (8, "G????@", ["G~~"], "nonzero padding bits"),
    (9, "H?????!", ["H~~"], "character out of graph6 range in 'H?????!\\n'"),
    (9, "H~~", ["G~~~~~~~~"], "expected 6 payload characters for n=9, got 2"),
], ids=["payload-length", "padding-bits", "character-range", "before-an-order-error"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_input_reports_the_first_bad_line(tmp_path, capsys, n, bad, later, error, jobs):
    """A bad line after a full chunk, followed in its chunk by another error
    and then by good lines, is the one reported, in process and from a worker."""
    lines = _valid_lines(n, 300, 5) + [bad] + later + _valid_lines(n, 20, 6)
    stream = tmp_path / "bad.g6"
    stream.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "scan", "--n", str(n), "--filter", "connected", "--thm", "problem1.2",
                             "--jobs", jobs, "--input", str(stream))
    assert (code, out) == (1, "")
    assert err == f"error: {error}\n"
