"""Record the seed-independent inputs and expected outputs of the benchmark.

Writes ``graphs7.g6`` (the 1,044 order-7 isomorphism classes, canonical and
sorted) and ``oracle.json`` (census-n8 and registry-n7 scan results over
the built-in canonical enumeration).  Run it from the repository root only
when the package's verified results are meant to change:

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qng import enumeration, graph, theorems  # noqa: E402

from workloads import RegistryN7  # noqa: E402


def scan_dict(result) -> dict:
    d = result.to_dict()
    return {key: d[key] for key in ("total", "counts", "equality", "violations")}


def main() -> None:
    with open(os.path.join(HERE, "graphs7.g6"), "w") as f:
        f.writelines(graph.to_graph6(g) + "\n" for g in enumeration.enumerate_graphs(7))
    oracle = {
        "census-n8": {
            "classes": len(enumeration.enumerate_graphs(8)),
            "thm-1.2": scan_dict(enumeration.scan(8, "all", theorems.check_thm12)),
            "problem-1.2": scan_dict(enumeration.scan(8, "connected", theorems.check_problem12)),
        },
        "registry-n7": {
            key: scan_dict(enumeration.scan(7, "all", check)) for key, check in RegistryN7().checks()
        },
    }
    with open(os.path.join(HERE, "oracle.json"), "w") as f:
        json.dump(oracle, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
