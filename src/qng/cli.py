"""Command-line front door: spectra, single-graph checks, scans, proof checks.

Output is byte-deterministic for a fixed command and input, including under
``--jobs`` parallelism.  Exit status 0 means every verdict was strict,
equality-certified or not-applicable; 2 flags a violated verdict (a
counterexample); 1 is reserved for usage and format errors.
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
from .spectra import compare_sum_with, ng_sum, spectrum
from .theorems import (
    EQUALITY,
    RELATION_SIGNS,
    VIOLATED,
    BoundReport,
    THEOREM_CHECKS,
    check_ng_generic,
    decide,
    proof_check_thm12,
    proof_check_thm15,
    run_all_checks,
    screened_sign,
)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Family mini-language:  K6, K3,3, P5, C6, star 6, H 2 1 1,
# join(...), union(...), cp(...)


_ATOM = re.compile(
    r"^(?:K(?P<ks>\d+),(?P<kt>\d+)|K(?P<k>\d+)|P(?P<p>\d+)|C(?P<c>\d+)|E(?P<e>\d+)|(?P<nk>\d+)K1)$"
)
# Space-separated forms: first word -> (the form, its builder).
_FORMS = {"star": ("star N", star), "H": ("H S0 S1 S2", h_graph)}


def parse_family(text: str) -> Graph:
    """Recursive-descent parser for compositional family expressions."""
    s = text.strip()
    if not s:
        raise UsageError("empty family expression")
    lowered = s.lower()
    for prefix, builder in (("join", join), ("union", disjoint_union), ("cp", cartesian_product)):
        if lowered.startswith(prefix + "(") and s.endswith(")"):
            inner = s[len(prefix) + 1 : -1]
            parts = _split_args(inner)
            if len(parts) < 2:
                raise UsageError(f"{prefix}(...) needs at least two arguments")
            out = parse_family(parts[0])
            for part in parts[1:]:
                out = builder(out, parse_family(part))
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
    if getattr(args, "graph6", None):
        return from_graph6(args.graph6)
    if getattr(args, "family", None):
        return parse_family(args.family)
    raise UsageError("provide --graph6 or --family")


# ---------------------------------------------------------------------------
# Predicates for scans


_EXPR = re.compile(r"^(?:(?P<a>-?\d*)\*?n)?(?P<b>[+-]?\d+(?:/\d+)?)?$")


def parse_bound_expr(text: str, n: int) -> Fraction:
    """Evaluate expressions like '2n-5', 'n-2', '7' at a given order n."""
    m = _EXPR.match(text.replace(" ", ""))
    if m is None or (m.group("a") is None and not m.group("b")):
        raise UsageError(f"cannot parse bound expression {text!r}")
    total = Fraction(0)
    if m.group("a") is not None:
        coeff = {"": 1, "-": -1}.get(m.group("a"))
        total += (int(m.group("a")) if coeff is None else coeff) * n
    if m.group("b"):
        total += Fraction(m.group("b"))
    return total


class SumPredicate:
    """The q_2 sum against rational bounds, each sign near a bound decided exactly.

    ``sum-le B`` and ``sum-ge B`` give the verdict of ``theorems.decide``.
    ``sum-eq B`` and ``sum-open-interval LO HI`` test membership: a graph whose
    sum satisfies every relation is reported ``equality-certified``, any other
    ``non-member``, and there the float screen may only reject.
    """

    def __init__(self, name: str, relations: list[tuple[str, Fraction]], member: bool):
        self.__name__ = name
        self.relations, self.member = relations, member

    def __call__(self, g: Graph) -> str:
        value = ng_sum(g, "Q", 2)
        if not self.member:
            ((relation, bound),) = self.relations
            return decide(g, self.__name__, value, bound,
                          lambda: compare_sum_with(g, "Q", 2, bound), relation).verdict
        for relation, bound in self.relations:
            holds = RELATION_SIGNS[relation]
            rejects = tuple(s for s in (-1, 1) if s not in holds)
            sign, _ = screened_sign(value, float(bound), lambda: compare_sum_with(g, "Q", 2, bound), rejects)
            if sign not in holds:
                return "non-member"
        return EQUALITY


class NgSumCheck:
    """Single-graph Nordhaus-Gaddum check for a fixed matrix kind and index."""

    def __init__(self, kind: str, k: int):
        self.kind, self.k = kind, k
        self.__name__ = f"ng-{kind}{k}"

    def __call__(self, g: Graph) -> BoundReport:
        return check_ng_generic(g, self.kind, self.k)


_SUM_RELATIONS = {"sum-eq": "==", "sum-le": "<=", "sum-ge": ">="}


def build_predicate(spec: str, n: int):
    """Named scan predicates over the q_2 Nordhaus-Gaddum sum.

    sum-open-interval LO HI: strict membership, boundary decided exactly.
    sum-eq EXPR | sum-le EXPR | sum-ge EXPR: bound checks with exact
    escalation, reported through the standard verdict vocabulary.
    """
    tokens = spec.split()
    kind = tokens[0]
    if kind == "sum-open-interval" and len(tokens) == 3:
        lo, hi = (parse_bound_expr(t, n) for t in tokens[1:])
        return SumPredicate(f"{kind} {lo} {hi}", [(">", lo), ("<", hi)], member=True)
    if kind in _SUM_RELATIONS and len(tokens) == 2:
        bound = parse_bound_expr(tokens[1], n)
        return SumPredicate(f"{kind} {bound}", [(_SUM_RELATIONS[kind], bound)], member=kind == "sum-eq")
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


def _resolve_check(args):
    if args.thm == "ng":
        return NgSumCheck(args.kind, args.k)
    if args.thm not in THEOREM_CHECKS:
        raise UsageError(f"unknown theorem name {args.thm!r}")
    return THEOREM_CHECKS[args.thm]


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
    if args.n_range:
        m = _N_RANGE.fullmatch(args.n_range.strip())
        if m is None or int(m[1]) > int(m[2]):
            raise UsageError(f"--n-range takes LO..HI with integers LO <= HI, got {args.n_range!r}")
        return list(range(int(m[1]), int(m[2]) + 1))
    if args.n is None:
        raise UsageError("provide --n or --n-range")
    return [args.n]


def _graphs_of_order(lines: Iterable[str], n: int, orders: list[int], span: str) -> Iterator[Graph]:
    """The order-n graphs of a graph6 stream, decoding no line of another order.

    A line whose order is not in ``orders`` is an error.
    """
    for line in lines:
        order = graph6_order(line)
        if order == n:
            yield from_graph6(line)
        elif order is not None and order not in orders:
            raise ValueError(f"stream graph of order {from_graph6(line).n} in a scan for n={span}")


def _cmd_scan(args) -> int:
    orders = _iter_orders(args)
    with contextlib.ExitStack() as stack:
        f = stack.enter_context(open(args.input)) if args.input else None
        if f is not None and len(orders) > 1 and not f.seekable():
            raise UsageError("--n-range over several orders needs a seekable --input, which is read once per order")
        results = []
        for n in orders:
            if args.predicate:
                check = build_predicate(args.predicate, n)
            elif args.thm:
                check = _resolve_check(args)
            else:
                raise UsageError("provide --predicate or --thm")
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
            counts = " ".join(f"{k}={v}" for k, v in sorted(r.counts.items()))
            lines.append(
                f"n={r.n} filter={r.filter_name} predicate={r.predicate_name} "
                f"total={r.total} {counts}"
            )
            if r.equality:
                lines.append("  equality: " + " ".join(r.equality))
            if r.violations:
                lines.append("  VIOLATIONS: " + " ".join(r.violations))
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    return 2 if any(r.violations for r in results) else 0


def _cmd_proof_check(args) -> int:
    outcomes = []
    for n in _iter_orders(args):
        if args.thm == "1.2":
            ok = all(proof_check_thm12(n, d2) for d2 in range(1, n - 1))
        elif args.thm == "1.5":
            ok = proof_check_thm15(n)
        else:
            raise UsageError("proof-check supports --thm 1.2 or 1.5")
        outcomes.append((n, ok))
    if args.format == "json":
        text = json.dumps({str(n): ok for n, ok in outcomes}, sort_keys=True) + "\n"
    else:
        text = "\n".join(f"n={n}: {'pass' if ok else 'FAIL'}" for n, ok in outcomes) + "\n"
    _emit(args, text)
    return 0 if all(ok for _, ok in outcomes) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qng",
        description="Signless-Laplacian Nordhaus-Gaddum bound verification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_graph_args(p):
        p.add_argument("--graph6", help="graph6 encoding of the input graph")
        p.add_argument("--family", help="family expression, e.g. 'K3,3', 'C6', 'H 2 1 1', 'join(K2;E3)'")

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")
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
    p.add_argument("--kind", choices=["A", "L", "Q"], default="Q")
    p.add_argument("--k", type=int, default=2)
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("report", help="run every registered check on one graph")
    add_graph_args(p)
    add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("enumerate", help="stream isomorphism-class representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", default="all")
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("scan", help="evaluate a predicate over all graphs of an order")
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", dest="n_range", help="inclusive range, e.g. 6..8")
    p.add_argument("--filter", default="all",
                   help="comma-joined: all, connected, bipartite, regular, cobar-disconnected")
    p.add_argument("--predicate", help="e.g. 'sum-open-interval 5 6', 'sum-eq 2n-5'")
    p.add_argument("--thm", choices=sorted(THEOREM_CHECKS) + ["ng"])
    p.add_argument("--kind", choices=["A", "L", "Q"], default="Q")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--input", help="external graph6 stream file (one graph per line)")
    add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("proof-check", help="verify the parametric quotient algebra")
    p.add_argument("--thm", required=True, choices=["1.2", "1.5"])
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", dest="n_range")
    add_common(p)
    p.set_defaults(func=_cmd_proof_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
