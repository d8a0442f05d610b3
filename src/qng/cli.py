"""Command-line front door: spectra, single-graph checks, scans, proof checks.

Output is byte-deterministic for a fixed command and input, including under
``--jobs`` parallelism.  Exit status 0 means every verdict was strict,
equality-certified or not-applicable; 2 flags a violated verdict (a
counterexample); 1 is reserved for usage and format errors, the argument
parser's own included, each reported as one ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .enumeration import enumerate_graphs, resolve_filter, scan
from .graph import (
    Graph,
    Graph6Error,
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    empty_graph,
    from_graph6,
    graph6_order,
    h_graph,
    join,
    path,
    star,
    to_graph6,
)
from .spectra import spectrum
from .theorems import (
    VIOLATED,
    BoundReport,
    THEOREM_CHECKS,
    Row,
    SumPredicate,
    ng_check,
    proof_check_thm12,
    proof_check_thm15,
    run_all_checks,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: one line, exit 1."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Family mini-language:  K6, K3,3, P5, C6, star 6, H 2 1 1,
# join(...), union(...), cp(...)


_ATOM = re.compile(
    r"^(?:K(?P<ks>\d+),(?P<kt>\d+)|K(?P<k>\d+)|P(?P<p>\d+)|C(?P<c>\d+)|E(?P<e>\d+)|(?P<nk>\d+)K1)$"
)
# Space-separated forms: first word -> (the form, its builder).
_FORMS = {"star": ("star N", star), "H": ("H S0 S1 S2", h_graph)}
MAX_FAMILY_DEPTH = 100  # join/union/cp nesting, far within Python's recursion limit


def parse_family(text: str, _depth: int = 0) -> Graph:
    """Recursive-descent parser for family expressions nested at most ``MAX_FAMILY_DEPTH`` deep."""
    s = text.strip()
    if not s:
        raise UsageError("empty family expression")
    lowered = s.lower()
    for prefix, builder in (("join", join), ("union", disjoint_union), ("cp", cartesian_product)):
        if lowered.startswith(prefix + "(") and s.endswith(")"):
            if _depth == MAX_FAMILY_DEPTH:
                raise UsageError(f"family expression nested deeper than {MAX_FAMILY_DEPTH}")
            inner = s[len(prefix) + 1 : -1]
            parts = _split_args(inner)
            if len(parts) < 2:
                raise UsageError(f"{prefix}(...) needs at least two arguments")
            out = parse_family(parts[0], _depth + 1)
            for part in parts[1:]:
                out = builder(out, parse_family(part, _depth + 1))
            return out
    name, *args = s.split()
    if name in _FORMS:
        form, build = _FORMS[name]
        if len(args) != form.count(" ") or not all(a.isdecimal() for a in args):
            raise UsageError(f"expected family {form!r}, got {text!r}")
        return build(*map(int, args))
    m = _ATOM.match(s.replace(" ", ""))
    if m is None:
        raise UsageError(f"cannot parse family expression {text!r}")
    if m.group("ks"):
        return complete_bipartite(int(m.group("ks")), int(m.group("kt")))
    if m.group("k"):
        return complete(int(m.group("k")))
    if m.group("p"):
        return path(int(m.group("p")))
    if m.group("c"):
        return cycle(int(m.group("c")))
    if m.group("e"):
        return empty_graph(int(m.group("e")))
    return empty_graph(int(m.group("nk")))


def _split_args(inner: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == ";" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (part.strip() for part in parts) if p]


def _load_graph(args) -> Graph:
    return from_graph6(args.graph6) if args.graph6 is not None else parse_family(args.family)


# ---------------------------------------------------------------------------
# Predicates for scans


# An optional n term (a coefficient, with '*' only after digits) and an
# optional constant, which carries its sign after an n term.
_EXPR = re.compile(r"^(?:(?P<a>-?\d*)(?:(?<=\d)\*)?n(?=[+-]|$))?(?P<b>[+-]?\d+(?:/\d+)?)?$")


def parse_bound_expr(text: str, n: int) -> Fraction:
    """Evaluate expressions like '2n-5', '2*n-5', 'n-2', '3/2', '7' at a given order n."""
    m = _EXPR.match(text.replace(" ", ""))
    if m is None or (m.group("a") is None and not m.group("b")):
        raise UsageError(f"cannot parse bound expression {text!r}")
    total = Fraction(0)
    if m.group("a") is not None:
        coeff = {"": 1, "-": -1}.get(m.group("a"))
        total += (int(m.group("a")) if coeff is None else coeff) * n
    if m.group("b"):
        try:
            total += Fraction(m.group("b"))
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in bound expression {text!r}") from None
    return total


_SUM_RELATIONS = {"sum-le": "<=", "sum-ge": ">="}


def build_predicate(spec: str, n: int):
    """Named scan predicates over the q_2 Nordhaus-Gaddum sum.

    sum-open-interval LO HI | sum-eq EXPR: membership, the conjunction of the
    rows that exclude the members (``theorems.SumPredicate``).
    sum-le EXPR | sum-ge EXPR: a bound-table row, reported through the
    standard verdict vocabulary.
    """
    kind, *args = spec.split() or [""]
    if kind == "sum-open-interval" and len(args) == 2:
        lo, hi = (parse_bound_expr(t, n) for t in args)
        return SumPredicate(f"{kind} {lo} {hi}", [("<=", lo), (">=", hi)])
    if kind in ("sum-eq", *_SUM_RELATIONS) and len(args) == 1:
        bound = parse_bound_expr(args[0], n)
        name = f"{kind} {bound}"
        if kind == "sum-eq":
            return SumPredicate(name, [("<", bound), (">", bound)])
        return Row(name, name, _SUM_RELATIONS[kind], (0, bound))
    if kind in ("sum-open-interval", "sum-eq", *_SUM_RELATIONS):
        form = f"{kind} LO HI" if kind == "sum-open-interval" else f"{kind} EXPR"
        raise UsageError(f"expected predicate {form!r}, got {spec!r}")
    raise UsageError(f"unknown predicate {spec!r}")


# ---------------------------------------------------------------------------
# Output formatting


_CSV_COLUMNS = ["graph6", "bound", "lhs", "rhs", "verdict", "family"]


def _reports_csv(reports: list[BoundReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in sorted(reports, key=lambda r: (r.graph6, r.bound)):
        writer.writerow([r.graph6, r.bound, r.lhs, str(r.rhs), r.verdict, r.family or ""])
    return buf.getvalue()


def _reports_text(reports: list[BoundReport]) -> str:
    lines = []
    for r in sorted(reports, key=lambda r: (r.graph6, r.bound)):
        extra = f" family={r.family}" if r.family else ""
        note = f" ({r.notes})" if r.notes else ""
        lines.append(f"{r.graph6} {r.bound}: {r.verdict} lhs={r.lhs} rhs={r.rhs}{extra}{note}")
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(verdicts) -> int:
    return 2 if any(v == VIOLATED for v in verdicts) else 0


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_spectrum(args) -> int:
    g = _load_graph(args)
    spec = spectrum(g, args.kind)
    if args.format == "json":
        payload = {
            "graph6": to_graph6(g),
            "kind": args.kind,
            "eigenvalues": list(spec.values),
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    elif args.format == "csv":
        rows = "\n".join(f"{k + 1},{v!r}" for k, v in enumerate(spec.values))
        _emit(args, "k,value\n" + rows + "\n")
    else:
        vals = " ".join(f"{v:.10f}" for v in spec.values)
        _emit(args, f"{to_graph6(g)} {args.kind}-spectrum: {vals}\n")
    return 0


def _resolve_check(args, n: int = 0):
    """The check of ``--thm``, or of ``--predicate`` at order n; ``--kind``/``--k`` need ``--thm ng``."""
    if args.thm == "ng":
        return ng_check(args.kind or "Q", 2 if args.k is None else args.k)
    if args.kind is not None or args.k is not None:
        raise UsageError("--kind and --k apply only to --thm ng")
    return THEOREM_CHECKS[args.thm] if args.thm else build_predicate(args.predicate, n)


def _format_reports(args, reports: list[BoundReport]) -> str:
    if args.format == "json":
        return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in
                         sorted(reports, key=lambda r: (r.graph6, r.bound))) + "\n"
    if args.format == "csv":
        return _reports_csv(reports)
    return _reports_text(reports)


def _cmd_check(args) -> int:
    check = _resolve_check(args)
    reports = [check(_load_graph(args))]
    _emit(args, _format_reports(args, reports))
    return _exit_code(r.verdict for r in reports)


def _cmd_report(args) -> int:
    reports = run_all_checks(_load_graph(args))
    _emit(args, _format_reports(args, reports))
    return _exit_code(r.verdict for r in reports)


def _cmd_enumerate(args) -> int:
    graphs = enumerate_graphs(args.n)
    _, accept = resolve_filter(args.filter)
    lines = [to_graph6(g) for g in graphs if accept(g)]
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


_N_RANGE = re.compile(r"(\d+)\.\.(\d+)")


def _iter_orders(args) -> list[int]:
    if args.n_range is None:
        return [args.n]
    m = _N_RANGE.fullmatch(args.n_range.strip())
    if m is None or int(m[1]) > int(m[2]):
        raise UsageError(f"--n-range takes LO..HI with integers LO <= HI, got {args.n_range!r}")
    return list(range(int(m[1]), int(m[2]) + 1))


def _graphs_of_order(lines: Iterable[str], n: int, orders: list[int], span: str) -> Iterator[str]:
    """The order-n lines of a graph6 stream, as text: ``scan`` decodes them in its chunks.

    A line whose order is not in ``orders`` is an error.
    """
    for line in lines:
        order = graph6_order(line)
        if order == n:
            yield line
        elif order is not None and order not in orders:
            raise ValueError(f"stream graph of order {from_graph6(line).n} in a scan for n={span}")


def _cmd_scan(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs takes a positive number of worker processes, got {args.jobs}")
    orders = _iter_orders(args)
    with contextlib.ExitStack() as stack:
        f = stack.enter_context(open(args.input)) if args.input else None
        if f is not None and len(orders) > 1 and not f.seekable():
            raise UsageError("--n-range over several orders needs a seekable --input, which is read once per order")
        results = []
        for n in orders:
            check = _resolve_check(args, n)
            source = None
            if f is not None:
                if n != orders[0]:
                    f.seek(0)
                source = _graphs_of_order(f, n, orders, args.n_range or str(args.n))
            results.append(scan(n, args.filter, check, source=source, jobs=args.jobs))
    if args.format == "json":
        text = "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in results) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "kind", "graph6"])
        for r in results:
            for g6 in r.equality:
                writer.writerow([r.n, "equality", g6])
            for g6 in r.violations:
                writer.writerow([r.n, "violation", g6])
        text = buf.getvalue()
    else:
        lines = []
        for r in results:
            counts = (f"{k}={v}" for k, v in sorted(r.counts.items()))
            lines.append(" ".join((f"n={r.n} filter={r.filter_name} predicate={r.predicate_name}",
                                   f"total={r.total}", *counts)))
            if r.equality:
                lines.append("  equality: " + " ".join(r.equality))
            if r.violations:
                lines.append("  VIOLATIONS: " + " ".join(r.violations))
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    return 2 if any(r.violations for r in results) else 0


def _cmd_proof_check(args) -> int:
    outcomes = []
    least = {"1.2": 4, "1.5": 8}[args.thm]
    for n in _iter_orders(args):
        if n < least:
            raise UsageError(f"proof-check --thm {args.thm} requires n >= {least}, got n={n}")
        if args.thm == "1.2":  # proved once for every d2, so one call per order checks them all
            ok = proof_check_thm12(n, 1)
        else:
            ok = proof_check_thm15(n)
        outcomes.append((n, ok))
    if args.format == "json":
        text = json.dumps({str(n): ok for n, ok in outcomes}, sort_keys=True) + "\n"
    else:
        text = "\n".join(f"n={n}: {'pass' if ok else 'FAIL'}" for n, ok in outcomes) + "\n"
    _emit(args, text)
    return 0 if all(ok for _, ok in outcomes) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qng",
        description="Signless-Laplacian Nordhaus-Gaddum bound verification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_graph_args(p):
        graph = p.add_mutually_exclusive_group(required=True)
        graph.add_argument("--graph6", help="graph6 encoding of the input graph")
        graph.add_argument("--family", help="family expression, e.g. 'K3,3', 'C6', 'H 2 1 1', 'join(K2;E3)'")

    def add_order_args(p):
        orders = p.add_mutually_exclusive_group(required=True)
        orders.add_argument("--n", type=int)
        orders.add_argument("--n-range", dest="n_range", help="inclusive range, e.g. 6..8")

    def add_common(p, formats=("json", "csv", "text")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("spectrum", help="eigenvalues of a graph matrix")
    add_graph_args(p)
    p.add_argument("--kind", choices=["A", "L", "Q"], default="Q")
    add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("check", help="run one bound check on one graph")
    add_graph_args(p)
    p.add_argument("--thm", required=True,
                   choices=sorted(THEOREM_CHECKS) + ["ng"])
    p.add_argument("--kind", choices=["A", "L", "Q"], help="with --thm ng (default Q)")
    p.add_argument("--k", type=int, help="with --thm ng (default 2)")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("report", help="run every registered check on one graph")
    add_graph_args(p)
    add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("enumerate", help="stream isomorphism-class representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", default="all")
    add_common(p, formats=("text",))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("scan", help="evaluate a predicate over all graphs of an order")
    add_order_args(p)
    p.add_argument("--filter", default="all",
                   help="comma-joined: all, connected, bipartite, regular, cobar-disconnected")
    check = p.add_mutually_exclusive_group(required=True)
    check.add_argument("--predicate", help="e.g. 'sum-open-interval 5 6', 'sum-eq 2n-5'")
    check.add_argument("--thm", choices=sorted(THEOREM_CHECKS) + ["ng"])
    p.add_argument("--kind", choices=["A", "L", "Q"], help="with --thm ng (default Q)")
    p.add_argument("--k", type=int, help="with --thm ng (default 2)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--input", help="external graph6 stream file (one graph per line)")
    add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("proof-check", help="verify the parametric quotient algebra")
    p.add_argument("--thm", required=True, choices=["1.2", "1.5"])
    add_order_args(p)
    add_common(p, formats=("json", "text"))
    p.set_defaults(func=_cmd_proof_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
