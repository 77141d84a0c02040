"""Write optima.json: maximum cross-bifix-free set sizes, found by networkx.

    python3 bench/optima.py            # rewrite bench/optima.json
    python3 bench/optima.py --check    # recompute and compare, exit 1 on a difference

A set is cross-bifix-free exactly when it is a clique of the graph that
joins two bifix-free words of one length when neither has a strict
prefix that is a strict suffix of the other.  networkx's exact
max_weight_clique, with unit weights, gives its largest size.  Needs
networkx (a test extra of the package); the benchmark runs only read
the file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import oracle

LENGTHS = range(3, 11)
OPTIMA_FILE = Path(__file__).with_name("optima.json")


def max_code_size(n: int) -> int:
    import networkx as nx

    words = oracle.bifix_free_words(n)
    graph = nx.Graph()
    graph.add_nodes_from(words)
    graph.add_edges_from(
        (a, b) for a, b in itertools.combinations(words, 2) if not oracle.conflict(a, b)
    )
    _, size = nx.max_weight_clique(graph, weight=None)
    return size


def load() -> dict[int, int]:
    """The sizes optima.json holds, by word length."""
    return {int(n): size for n, size in json.loads(OPTIMA_FILE.read_text())["optima"].items()}


def compute() -> dict:
    return {"source": "networkx.max_weight_clique", "optima": {str(n): max_code_size(n) for n in LENGTHS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the file, write nothing")
    args = parser.parse_args(argv)
    table = compute()
    if args.check:
        stored = json.loads(OPTIMA_FILE.read_text())
        if stored != table:
            print(f"optima.json holds {stored['optima']}, networkx gives {table['optima']}")
            return 1
        print(f"optima.json agrees with networkx: {table['optima']}")
        return 0
    OPTIMA_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
