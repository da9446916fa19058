"""Seeded tree edit distance digest: one line per pair, cost set and label
mode, the distance written with ``float.hex``.

Each pair is drawn from its own ``random.Random(seed)``: a label tree of 4
to 40 nodes and either a copy of it 1-3 edits away (``near``) or a second
tree drawn alone (``far``), both with random leaf texts.  The cost sets mix
integral, dyadic and inexact costs, so the lines cover the Zhang/Shasha
tables and the bounds that settle a distance without them.

``tests/data/ted_digest.txt`` holds the lines, and a Tier-1 test compares
them; the first differing line names its pair.  The file is made on a
commit whose distances are known good, by redirecting the printed lines:
``PYTHONPATH=src python tests/digest.py > tests/data/ted_digest.txt``.
Only a change that means to alter a distance may remake it.  Standard
library only.
"""

from __future__ import annotations

import pathlib
import random
import sys

import generators
from mmlkit import CostConfig, tree_edit_distance

PATH = pathlib.Path(__file__).parent / "data" / "ted_digest.txt"
PAIRS = 300
COSTS = ((1, 1, 1), (1, 1, 0.5), (2, 1, 3), (0.25, 0.5, 0.75), (1, 1, 0.3))


def size(tree) -> int:
    return 1 + sum(size(child) for child in tree[1])


def label_tree(rng: random.Random):
    """A label tree of 4 to 40 nodes."""
    while True:
        tree = generators.random_label_tree(rng, 40)
        if size(tree) >= 4:
            return tree


def pair(seed: int):
    """The kind and the two trees of pair ``seed``."""
    rng = random.Random(seed)
    tree = label_tree(rng)
    a = generators.edited(rng, tree, 0)
    if rng.random() < 0.5:
        return "near", a, generators.edited(rng, tree, rng.randint(1, 3))
    return "far", a, generators.edited(rng, label_tree(rng), 0)


def lines() -> list[str]:
    out = []
    for seed in range(PAIRS):
        kind, a, b = pair(seed)
        for costs in COSTS:
            config = CostConfig(*costs)
            for label_mode in ("name", "name-text"):
                value = tree_edit_distance(a, b, config, label_mode)
                out.append(f"{seed} {kind} {','.join(map(str, costs))} {label_mode} "
                           f"{value.hex()}\n")
    return out


if __name__ == "__main__":
    sys.stdout.write("".join(lines()))
