"""Similarity and distance measures over MathML documents.

Everything here reduces a document (or one of its branches) to either an
element-name histogram or a labeled ordered tree, then compares those:

* L1 histogram distance, absolute and relative,
* ordered tree edit distance with configurable costs: Zhang/Shasha, unless
  the banded string edit distance of the postorder labels, a lower bound,
  meets the top-down distance, banded alike (costs with exact sums),
* earth mover's distance, exact: one minus the shared mass under the
  discrete ground, a small min-cost flow problem under override grounds,
* cosine similarity of histogram vectors,
* document-collection distance under any of :data:`HISTOGRAM_MEASURES`.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Union

from .core import MathDoc, MathNode, _columns, iter_subtree
from .errors import EmptyHistogram

#: Wrapper elements that carry no mathematical content of their own.
STRUCTURAL_NAMES = frozenset({"math", "semantics", "annotation", "annotation-xml"})


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

class Histogram:
    """An immutable element-name multiset.  Zero counts are dropped, so two
    histograms over different universes compare equal when their positive
    counts agree.  The total and the squared norm are summed once, here."""

    __slots__ = ("_counts", "_total", "_norm_sq")

    def __init__(self, counts: Optional[Mapping[str, int]] = None):
        cleaned: dict[str, int] = {}
        for key, value in (counts or {}).items():
            if not isinstance(key, str):
                raise TypeError(f"histogram keys must be strings, got {key!r}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"count for {key!r} must be an integer")
            if value < 0:
                raise ValueError(f"count for {key!r} is negative")
            if value > 0:
                cleaned[key] = value
        self._counts = cleaned
        self._total = sum(cleaned.values())
        self._norm_sq = sum([count * count for count in cleaned.values()])

    @classmethod
    def from_elements(cls, names: Iterable[str]) -> "Histogram":
        return cls(Counter(names))

    @property
    def counts(self) -> Mapping[str, int]:
        return MappingProxyType(self._counts)

    @property
    def total(self) -> int:
        return self._total

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __len__(self):
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self):
        return f"Histogram({self._counts!r})"

    def to_text(self) -> str:
        """Deterministic text form: one ``name<TAB>count`` line per key,
        sorted by name."""
        return "".join(f"{k}\t{self._counts[k]}\n" for k in sorted(self._counts))


def histogram(doc: MathDoc, scope: str = "whole", include_structural: bool = False) -> Histogram:
    """Element-name histogram of a document or one of its branches, without
    the structural wrappers (math, semantics, annotation, annotation-xml)
    unless ``include_structural`` is set."""
    return collection_histogram((doc,), scope, include_structural)


def accumulate(histograms: Iterable[Histogram]) -> Histogram:
    """Key-wise sum of histograms (empty input gives the empty histogram)."""
    counter: Counter[str] = Counter()
    for hist in histograms:
        counter.update(hist._counts)
    return Histogram(counter)


def _overlap(a: Histogram, b: Histogram, scale_a: int = 1, scale_b: int = 1) -> int:
    """Shared mass of ``a`` times ``scale_a`` and ``b`` times ``scale_b``, exact:
    each shared key's smaller scaled count, summed over the smaller histogram."""
    if len(a._counts) > len(b._counts):
        a, b, scale_a, scale_b = b, a, scale_b, scale_a
    get, shared = b._counts.get, 0
    for key, count in a._counts.items():
        other = get(key)
        if other is not None:
            count, other = count * scale_a, other * scale_b
            shared += count if count < other else other
    return shared


def hist_distance_absolute(a: Histogram, b: Histogram) -> float:
    """L1 distance over the union of keys; ``OverflowError`` past the floats."""
    return float(a._total + b._total - 2 * _overlap(a, b))


def hist_distance_relative(a: Histogram, b: Histogram) -> float:
    """Absolute L1 distance scaled by the two totals; 0 when both are empty.
    Bounded by [0, 1]: the exact integer L1 distance divided by the total
    count, one correctly rounded division that holds counts of any size."""
    denominator = a._total + b._total
    if denominator == 0:
        return 0.0
    return (denominator - 2 * _overlap(a, b)) / denominator


def cosine_similarity(a: Histogram, b: Histogram) -> float:
    """Cosine of the angle between the two count vectors, clamped to [0, 1].

    Counts are integers, so the sums below are exact; proportional vectors
    (Cauchy-Schwarz equality) give exactly 1.0 and disjoint ones exactly 0.0.
    """
    if a._total == 0 or b._total == 0:
        raise EmptyHistogram("cosine similarity needs non-empty histograms")
    small, large = (a, b) if len(a._counts) <= len(b._counts) else (b, a)
    get, dot = large._counts.get, 0
    for key, count in small._counts.items():
        other = get(key)
        if other is not None:
            dot += count * other
    if dot == 0:
        return 0.0
    product = a._norm_sq * b._norm_sq
    if dot * dot == product:
        return 1.0
    try:
        root = math.sqrt(product)
    except OverflowError:  # past the floats the integer root, of over 500 bits, is as good
        root = math.isqrt(product)
    return min(1.0, max(0.0, dot / root))


# ---------------------------------------------------------------------------
# tree edit distance (Zhang/Shasha over ordered labeled trees)
# ---------------------------------------------------------------------------

def _cost(value, what: str) -> float:
    """``value`` as a float, if it is a finite non-negative number (not a bool)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{what} must be a number")
    if not 0 <= value <= sys.float_info.max:  # NaN compares false
        raise ValueError(f"{what} must be finite and non-negative")
    return float(value)


@dataclass(frozen=True)
class CostConfig:
    """Per-operation edit costs; all must be finite and non-negative."""

    insert: float = 1.0
    delete: float = 1.0
    rename: float = 1.0

    def __post_init__(self):
        for op in ("insert", "delete", "rename"):
            object.__setattr__(self, op, _cost(getattr(self, op), f"{op} cost"))


_UNIT_COSTS = CostConfig()


def _flatten(tree: Union[MathDoc, MathNode], label_mode: str) -> tuple[tuple, tuple, tuple, tuple]:
    """Postorder arrays for Zhang/Shasha, 1-indexed, as tuples: the labels
    (a name, or a leaf's ``(name, text)`` under ``"name-text"``), the
    leftmost-leaf indices, the keyroots (the last node with each leftmost
    leaf: the root and each node that is not its parent's first child),
    ascending, and the postorder numbers by depth, each level left to right.
    One pass over the preorder index gives them all: handle ``h`` at depth
    ``d[h] = d[parents[h]] + 1`` has postorder number ``k = h + sizes[h] -
    d[h]``, since of the ``h`` nodes before it all but its ``d[h]``
    ancestors close before it, and so do the ``sizes[h] - 1`` below it; its
    leftmost leaf is ``k - sizes[h] + 1``.  A document is immutable, so it
    keeps its arrays per label mode and later calls return them.  A bare
    node's tree is indexed afresh on every call, as :class:`MathDoc`
    indexes one, by :func:`core.iter_subtree` and :func:`core._columns`."""
    if isinstance(tree, MathDoc):
        shape = tree._ted_shapes.get(label_mode)
        if shape is not None:
            return shape
        names, texts, parents, sizes = tree._names, tree._texts, tree._parents, tree._sizes
    elif isinstance(tree, MathNode):
        names, _, texts, parents, sizes = _columns(tuple(iter_subtree(tree)))
    else:
        raise TypeError(f"trees must be a MathDoc or a MathNode, not {type(tree).__name__}")
    with_text = label_mode == "name-text"
    n = len(names)
    labels, lml, depths, keyroots, levels = [None] * (n + 1), [0] * (n + 1), [0] * n, [], []
    for h, name in enumerate(names):
        parent, size = parents[h], sizes[h]
        d = depths[h] = 0 if parent is None else depths[parent] + 1
        k = h + size - d
        labels[k] = (name, texts[h]) if with_text and size == 1 else name
        lml[k] = k - size + 1
        if parent is None or parent + 1 != h:
            keyroots.append(k)
        if d == len(levels):
            levels.append([])
        levels[d].append(k)
    keyroots.sort()
    shape = tuple(labels), tuple(lml), tuple(keyroots), tuple(map(tuple, levels))
    if isinstance(tree, MathDoc):
        tree._ted_shapes[label_mode] = shape
    return shape


def _band(na: int, nb: int, step: float, high: float) -> tuple[int, int]:
    """The diagonals ``j - i``, from ``lo`` to ``hi``, that an alignment of
    strings of lengths ``na`` and ``nb`` costing at most ``high`` can pass
    through, with insertions and deletions of at least ``step`` (all when
    ``step`` is 0): offset ``k`` takes ``|k| + |nb - na - k|`` of them."""
    skew = nb - na
    spare = int(high // step - abs(skew)) // 2 if step else na + nb
    return min(0, skew) - spare, max(0, skew) + spare


def _postorder_sed(labels_a: tuple, labels_b: tuple,
                   insert: float, delete: float, rename: float) -> float:
    """String edit distance between the postorder label arrays that
    :func:`_flatten` gives, renames standing for substitutions.

    A mapping that keeps ancestors and sibling order keeps postorder, so
    every tree edit script is an alignment of the two strings at the same
    cost, and this is a lower bound on the tree edit distance (Guha,
    Jagadish, Koudas, Srivastava & Yu 2002).

    The common prefix and suffix of the two strings go first.  With
    non-negative costs, equal first labels ``x`` align with each other in
    some best alignment (an exchange argument): if ``x`` of A is deleted
    and ``x`` of B inserted, aligning them instead saves both; if one is
    aligned with some later label ``y`` of the other string while its twin
    is deleted or inserted, aligning the twins and deleting or inserting
    ``y`` instead costs no more, since ``y`` is then the one dropped; both
    aligned elsewhere would cross.  So the distance is that of the rest,
    and likewise from the end.  Both strings lose as many labels, so the
    skew, and with it the band, stays as it was.

    Only the cells of the :func:`_band` of ``high`` are then filled
    (Ukkonen 1985), ``high`` starting at ``step * max(|skew|, 1)`` and
    doubling until the banded value is at most ``high``, when the best
    alignment stays in the band, or the band holds every cell: then the
    value is exact."""
    # both arrays start with None, so the prefix holds at least that one
    start = 0
    for x, y in zip(labels_a, labels_b):
        if x != y:
            break
        start += 1
    limit, end = min(len(labels_a), len(labels_b)) - start, 0
    for x, y in zip(reversed(labels_a), reversed(labels_b)):
        if end == limit or x != y:
            break
        end += 1
    # index 0 now holds the prefix's last label, on which no value depends
    labels_a = labels_a[start - 1:len(labels_a) - end]
    labels_b = labels_b[start - 1:len(labels_b) - end]
    na, nb = len(labels_a) - 1, len(labels_b) - 1
    step = min(insert, delete)
    high = step * max(abs(nb - na), 1)
    inf = math.inf
    while True:
        lo, hi = _band(na, nb, step, high)
        # prev[j + 1]: the distance from the first i labels of A to the first
        # j of B.  prev[0] and the cells outside the band stay infinite, so
        # column 0, whose diagonal is prev[0], is filled from above alone.
        prev, cur = [inf] * (nb + 2), [inf] * (nb + 2)
        prev[1:min(hi, nb) + 2] = [j * insert for j in range(min(hi, nb) + 1)]
        for i in range(1, na + 1):
            first, last = max(i + lo, 0), min(i + hi, nb)
            label, left, row = labels_a[i], inf, []
            for diag, up, label_y in zip(prev[first:last + 1], prev[first + 1:last + 2],
                                         labels_b[first:last + 1]):
                best = up + delete
                value = left + insert
                if value < best:
                    best = value
                if label != label_y:
                    diag += rename
                if diag < best:
                    best = diag
                row.append(best)
                left = best
            cur[first + 1:last + 2] = row
            prev, cur = cur, prev
        if prev[nb + 1] <= high or (lo <= -na and hi >= nb):
            return prev[nb + 1]
        high *= 2


def _bounds_meet(labels_a: tuple, lml_a: tuple, levels_a: tuple,
                 labels_b: tuple, lml_b: tuple, levels_b: tuple,
                 insert: float, delete: float, rename: float) -> Optional[float]:
    """The tree edit distance between the trees :func:`_flatten` gives when
    a lower and an upper bound on it meet, else ``None``.

    Lower bound: :func:`_postorder_sed`, the string edit distance ``L`` of
    the two postorder label sequences.

    Upper bound: the top-down distance (Selkow 1977), the cost of the best
    script that maps root to root and aligns the children of each mapped
    pair in order, deleting and inserting whole subtrees.  A mapped pair may
    also be a delete and an insert, so it costs ``min(rename, delete +
    insert)`` when the labels differ.  Only nodes of one depth map, so the
    distances are filled one depth level at a time from the deepest, in one
    table per level indexed by position in the level, and never more cells
    than ``na * nb``.

    Such a script aligns the whole postorder intervals of each pair it maps,
    so as a string alignment it passes through the cell ``(x, y)`` of every
    mapped pair.  If it costs ``L``, each such cell lies in the
    :func:`_band` of ``L``; so pairs outside the band are left infinite, and
    the banded top-down distance is ``L`` exactly when the unbanded one is.
    """
    na, nb = len(labels_a) - 1, len(labels_b) - 1
    low = _postorder_sed(labels_a, labels_b, insert, delete, rename)
    lo, hi = _band(na, nb, min(insert, delete), low)

    relabel = min(rename, delete + insert)
    # below[i][j]: top-down distance between the i-th node of A and the j-th
    # node of B one level down.  The children of a node are the run of the
    # next level that lies left of it in postorder and right of the children
    # of the nodes left of it.
    below: list = []
    for d in reversed(range(min(len(levels_a), len(levels_b)))):
        next_a = levels_a[d + 1] if d + 1 < len(levels_a) else []
        next_b = levels_b[d + 1] if d + 1 < len(levels_b) else []
        drops = [delete * (k - lml_a[k] + 1) for k in next_a]
        adds = [insert * (k - lml_b[k] + 1) for k in next_b]
        level_b = levels_b[d]
        spans_b = []
        start = 0
        for y in level_b:
            end = bisect_left(next_b, y, start)
            spans_b.append((labels_b[y], start, end, insert * (y - lml_b[y]), adds[start:end]))
            start = end
        level = []
        start = first = last = 0
        for x in levels_a[d]:
            end = bisect_left(next_a, x, start)
            label, drop = labels_a[x], delete * (x - lml_a[x])
            first = bisect_left(level_b, x + lo, first)
            last = bisect_right(level_b, x + hi, last)
            row = [math.inf] * len(level_b)
            for j in range(first, last):
                label_y, start_y, end_y, grow, add = spans_b[j]
                if start == end:
                    cost = grow
                elif not add:
                    cost = drop
                else:
                    # align the two runs of children, each kept whole
                    prev = [0.0]
                    for grow_j in add:
                        prev.append(prev[-1] + grow_j)
                    for i in range(start, end):
                        cut = drops[i]
                        left = prev[0] + cut
                        cur = [left]
                        for diag, up, match, grow_j in zip(prev, prev[1:],
                                                           below[i][start_y:end_y], add):
                            best = up + cut
                            grow_j += left
                            if grow_j < best:
                                best = grow_j
                            match += diag
                            if match < best:
                                best = match
                            cur.append(best)
                            left = best
                        prev = cur
                    cost = prev[-1]
                row[j] = cost if label == label_y else cost + relabel
            level.append(row)
            start = end
        below = level
    return low if below[0][0] == low else None


def tree_edit_distance(
    a: Union[MathDoc, MathNode],
    b: Union[MathDoc, MathNode],
    costs: Optional[CostConfig] = None,
    label_mode: str = "name",
) -> float:
    """Minimum-cost ordered edit script turning tree ``a`` into tree ``b``.

    ``label_mode`` is ``"name"`` (labels are element names) or ``"name-text"``
    (leaf labels additionally carry the text content).  ``costs`` is a
    :class:`CostConfig`, unit costs when ``None``.  With unit costs this is
    a metric; rename cost 0 collapses relabelings.  A distance past the
    largest float raises ``OverflowError``, as :func:`hist_distance_absolute`
    does, rather than returning ``inf``.

    Trees equal under the label mode give ``0.0`` before any table is
    built: postorder labels and leftmost leaves fix a labeled ordered tree,
    and with non-negative costs the identity mapping, which costs nothing,
    is optimal.  Text and attributes outside the labels do not count, so
    ``a == b`` is not the test.

    When every sum of costs is exact, as it is in any order when each cost
    is a multiple of ``2**-k`` and ``(|a| + |b|) * max(cost) * 2**k <=
    2**52`` (Goldberg 1991), for integers and 0.5 or 2.25 but never 0.1 or
    0.3, two bounds come next (:func:`_bounds_meet`): the string edit
    distance of the postorder labels, trimmed to where they differ and
    filled on a diagonal band that doubles until it holds the best
    alignment, and the top-down distance, filled only for the pairs that
    band allows.  When they meet, as they usually do on near-duplicates,
    that is the distance, bit for bit what the Zhang/Shasha tables would
    give, and no table is built.  Else the tables run.  A :class:`MathDoc`
    keeps its postorder arrays (:func:`_flatten`) from its first call in
    each label mode on; a bare :class:`MathNode` is flattened on every call.
    """
    if label_mode not in ("name", "name-text"):
        raise ValueError(f"unknown label mode {label_mode!r}")
    if costs is None:
        costs = _UNIT_COSTS
    elif not isinstance(costs, CostConfig):
        raise TypeError(f"costs must be a CostConfig, not {type(costs).__name__}")
    labels_a, lml_a, keyroots_a, levels_a = _flatten(a, label_mode)
    labels_b, lml_b, keyroots_b, levels_b = _flatten(b, label_mode)
    if labels_a == labels_b and lml_a == lml_b:
        return 0.0
    insert, delete, rename = costs.insert, costs.delete, costs.rename
    # each q is a power of two; in integers, since a float times 2**1074 overflows
    ratios = [cost.as_integer_ratio() for cost in (insert, delete, rename)]
    scale = max(q for _, q in ratios)
    if (len(labels_a) + len(labels_b) - 2) * max(p * scale // q for p, q in ratios) <= 2**52:
        settled = _bounds_meet(labels_a, lml_a, levels_a, labels_b, lml_b, levels_b,
                               insert, delete, rename)
        if settled is not None:
            return settled

    # td[x][y] is the distance between the subtrees rooted at x and y.  For
    # the keyroot pair (i, j), fd[x][y] is the distance between the forests
    # lml_a[i]..x and lml_b[j]..y, indexed by postorder number, with row
    # li - 1 and column lj - 1 standing for the empty forest.  A pair writes
    # every cell it reads first, so one fd serves every pair.
    td = [[0.0] * len(labels_b) for _ in labels_a]
    fd = [[0.0] * len(labels_b) for _ in labels_a]
    for i in keyroots_a:
        li = lml_a[i]
        for j in keyroots_b:
            lj = lml_b[j]
            cols = range(lj, j + 1)
            prev = fd[li - 1]
            prev[lj - 1] = left = 0.0
            for y in cols:
                prev[y] = left = left + insert
            for x in range(li, i + 1):
                row, td_row, lx = fd[x], td[x], lml_a[x]
                row[lj - 1] = left = prev[lj - 1] + delete
                # fd[p][q] + td[x][y], with p, q the forests left of x and y
                before = fd[lx - 1]
                if lx != li:
                    for y in cols:
                        best = prev[y] + delete
                        value = left + insert
                        if value < best:
                            best = value
                        value = before[lml_b[y] - 1] + td_row[y]
                        if value < best:
                            best = value
                        row[y] = left = best
                else:
                    label = labels_a[x]
                    for y in cols:
                        best = prev[y] + delete
                        value = left + insert
                        if value < best:
                            best = value
                        ly = lml_b[y]
                        if ly == lj:
                            value = prev[y - 1] + (0.0 if label == labels_b[y] else rename)
                            if value < best:
                                best = value
                            td_row[y] = best
                        else:
                            value = before[ly - 1] + td_row[y]
                            if value < best:
                                best = value
                        row[y] = left = best
                prev = row
    if td[-1][-1] == math.inf:
        raise OverflowError("tree edit distance is past the largest float")
    return td[-1][-1]


# ---------------------------------------------------------------------------
# earth mover's distance (exact transportation problem)
# ---------------------------------------------------------------------------

class GroundDistance:
    """Ground metric between histogram keys.

    The default is the discrete metric (0 on the diagonal, 1 elsewhere);
    individual unordered pairs can be overridden with non-negative values.
    """

    def __init__(self, overrides: Optional[Mapping[tuple[str, str], float]] = None):
        normalized: dict[tuple[str, str], float] = {}
        for key, value in (overrides or {}).items():
            if not isinstance(key, tuple) or len(key) != 2 or not all(
                    isinstance(k, str) for k in key):
                raise TypeError(f"ground distance key {key!r} must be a pair of strings")
            value = _cost(value, f"ground distance for {key!r}")
            x, y = key
            if x == y:
                if value != 0:
                    raise ValueError(f"ground distance of {x!r} to itself must be 0")
                continue
            normalized[(x, y) if x <= y else (y, x)] = value
        self._overrides = normalized

    def distance(self, x: str, y: str) -> float:
        if x == y:
            return 0.0
        key = (x, y) if x <= y else (y, x)
        return self._overrides.get(key, 1.0)


def _min_cost_transport(supply: list[int], demand: list[int],
                        cost: list[list[float]]) -> float:
    """Exact min-cost flow for a balanced transportation problem, via
    successive shortest paths (Bellman-Ford handles residual negatives)."""
    m, n = len(supply), len(demand)
    source, sink = m + n, m + n + 1
    node_count = m + n + 2
    graph: list[list[list]] = [[] for _ in range(node_count)]  # [to, cap, cost, rev_idx]

    def add_edge(u: int, v: int, cap: int, weight: float) -> None:
        graph[u].append([v, cap, weight, len(graph[v])])
        graph[v].append([u, 0, -weight, len(graph[u]) - 1])

    for i, s in enumerate(supply):
        add_edge(source, i, s, 0.0)
    for j, d in enumerate(demand):
        add_edge(m + j, sink, d, 0.0)
    for i in range(m):
        for j in range(n):
            add_edge(i, m + j, sum(supply), cost[i][j])

    total_flow_needed = sum(supply)
    total_cost = 0.0
    flow = 0
    while flow < total_flow_needed:
        dist = [math.inf] * node_count
        in_queue = [False] * node_count
        prev_edge: list[Optional[tuple[int, int]]] = [None] * node_count
        dist[source] = 0.0
        queue = deque([source])
        in_queue[source] = True
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            for edge_index, edge in enumerate(graph[u]):
                v, cap, weight, _ = edge
                if cap > 0 and dist[u] + weight < dist[v] - 1e-12:
                    dist[v] = dist[u] + weight
                    prev_edge[v] = (u, edge_index)
                    if not in_queue[v]:
                        queue.append(v)
                        in_queue[v] = True
        if not math.isfinite(dist[sink]):
            raise ArithmeticError("transportation problem is infeasible")
        bottleneck = total_flow_needed - flow
        v = sink
        while v != source:
            u, edge_index = prev_edge[v]
            bottleneck = min(bottleneck, graph[u][edge_index][1])
            v = u
        v = sink
        while v != source:
            u, edge_index = prev_edge[v]
            edge = graph[u][edge_index]
            edge[1] -= bottleneck
            graph[v][edge[3]][1] += bottleneck
            v = u
        flow += bottleneck
        total_cost += bottleneck * dist[sink]
    return total_cost


def emd(a: Histogram, b: Histogram, ground: Optional[GroundDistance] = None) -> float:
    """Earth mover's distance between the two histograms, each normalized to
    total mass 1, computed exactly.

    Masses are brought to a common integer scale (the lcm of the totals).
    Under the discrete ground (no overrides) the optimal transport leaves the
    shared mass in place and moves the rest at cost 1 (Rubner, Tomasi &
    Guibas 2000): the distance is one minus the shared mass, summed in
    integers and divided once.  Override grounds solve the balanced
    transportation problem with exact integer flows, scaled back.
    """
    if a._total == 0 or b._total == 0:
        raise EmptyHistogram("earth mover's distance needs non-empty histograms")
    scale = math.lcm(a._total, b._total)
    scale_a, scale_b = scale // a._total, scale // b._total
    if ground is None or not ground._overrides:
        return (scale - _overlap(a, b, scale_a, scale_b)) / scale
    keys_a, keys_b = sorted(a._counts), sorted(b._counts)
    supply = [a._counts[k] * scale_a for k in keys_a]
    demand = [b._counts[k] * scale_b for k in keys_b]
    cost = [[ground.distance(ka, kb) for kb in keys_b] for ka in keys_a]
    return _min_cost_transport(supply, demand, cost) / scale


# ---------------------------------------------------------------------------
# document-collection distance
# ---------------------------------------------------------------------------

#: The histogram measures by name; only ``emd`` takes a ground distance.  An
#: entry looks its function up when called, so one wrapped here serves all.
HISTOGRAM_MEASURES: Mapping[str, Callable[..., float]] = MappingProxyType({
    "hist-abs": lambda a, b: hist_distance_absolute(a, b),
    "hist-rel": lambda a, b: hist_distance_relative(a, b),
    "emd": lambda a, b, ground=None: emd(a, b, ground),
    "cosine": lambda a, b: cosine_similarity(a, b),
})


def collection_histogram(docs: Iterable[MathDoc], scope: str = "whole",
                         include_structural: bool = False) -> Histogram:
    """Accumulated histogram of a non-empty document collection: each
    document's names are counted as it is read, into one count, and the
    structural names, unless included, are dropped from it at the end."""
    counts, read = Counter(), 0
    for read, doc in enumerate(docs, 1):
        handles = doc.branch(None if scope == "whole" else scope)
        counts.update(doc._names[handles.start:handles.stop])
    if not read:
        raise ValueError("document collections must be non-empty")
    if not include_structural:
        for name in STRUCTURAL_NAMES:
            counts.pop(name, None)
    return Histogram(counts)


def document_distance(a_docs: Iterable[MathDoc], b_docs: Iterable[MathDoc],
                      measure: str = "emd", scope: str = "whole",
                      include_structural: bool = False,
                      ground: Optional[GroundDistance] = None) -> float:
    """The named measure of :data:`HISTOGRAM_MEASURES` between the
    :func:`collection_histogram` of each side.  ``ground`` is for ``emd``
    only; both are checked before any document is read."""
    compare = HISTOGRAM_MEASURES.get(measure)
    if compare is None:
        raise ValueError(f"unknown measure {measure!r}")
    if ground is not None and measure != "emd":
        raise ValueError(f"a ground distance applies only to 'emd', not {measure!r}")
    hist_a = collection_histogram(a_docs, scope, include_structural)
    hist_b = collection_histogram(b_docs, scope, include_structural)
    return compare(hist_a, hist_b) if ground is None else compare(hist_a, hist_b, ground)
