"""Hypergraphs, matchings, matching covers, and edge colorings.

Edges are stored as sorted tuples of distinct integer vertex labels, so
two edges are equal iff they are equal as sets.  All values are immutable
after construction and every operation is pure.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation
from .tolerances import PROB_SUM_TOL

Edge = tuple[int, ...]


def _label(v) -> int:
    """A vertex label as an int; floats, strings and booleans are refused, not
    converted."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise InputError(f"vertex label {v!r} is not an integer")


def _normalize_edge(edge: Iterable[int]) -> Edge:
    vs = tuple(sorted(set(_label(v) for v in edge)))
    if not vs:
        raise InputError("edges must be nonempty")
    return vs


@dataclass(frozen=True)
class Hypergraph:
    """Finite hypergraph: integer vertices plus a sequence of vertex subsets."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vertices = tuple(sorted(set(_label(v) for v in self.vertices)))
        edges = tuple(_normalize_edge(e) for e in self.edges)
        vset = set(vertices)
        seen = set()
        for e in edges:
            if not set(e) <= vset:
                raise InputError(f"edge {e} contains unknown vertices")
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_simple_graph(self) -> bool:
        """True iff every edge joins exactly two distinct vertices."""
        return all(len(e) == 2 for e in self.edges)

    @cached_property
    def incident(self) -> dict[int, tuple[Edge, ...]]:
        """The edges at each vertex, in edge order: the graph's one adjacency."""
        out: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            for v in e:
                out[v].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        try:
            data = json.loads(text)
            vertices = tuple(data["vertices"])
            edges = tuple(tuple(e) for e in data["edges"])
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise InputError(f"malformed graph JSON: {exc}") from exc
        return cls(vertices, edges)

    @classmethod
    def from_file(cls, path) -> "Hypergraph":
        with open(path) as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except InputError as exc:
            raise InputError(f"graph file {path}: {exc}") from exc


def degree(g: Hypergraph, v: int) -> int:
    """Number of distinct neighbors of v (vertices sharing an edge with v)."""
    if v not in g.incident:
        raise InputError(f"unknown vertex {v}")
    return len({u for e in g.incident[v] for u in e if u != v})


def max_degree(g: Hypergraph) -> int:
    return max((degree(g, v) for v in g.vertices), default=0)


def _is_matching(edges: Sequence[Edge]) -> bool:
    """True iff the edges are pairwise vertex-disjoint: no vertex counted twice."""
    return len({v for e in edges for v in e}) == sum(len(e) for e in edges)


@dataclass(frozen=True)
class MatchingCover:
    """Sequence of matchings with a probability attached to each."""

    matchings: tuple[tuple[Edge, ...], ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        matchings = tuple(tuple(_normalize_edge(e) for e in m) for m in self.matchings)
        probs = tuple(float(p) for p in self.probabilities)
        if len(matchings) != len(probs):
            raise InputError("need one probability per matching")
        if not matchings:
            raise InputError("cover must contain at least one matching")
        for m in matchings:
            if len(set(m)) != len(m):
                raise InputError(f"matching {m} repeats an edge")
            if not _is_matching(m):
                raise InputError(f"{m} is not a matching (adjacent edges)")
        if not all(0 <= p < float("inf") for p in probs):
            raise InputError("probabilities must be finite and nonnegative")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise InputError(f"probabilities sum to {sum(probs)}, expected 1")
        object.__setattr__(self, "matchings", matchings)
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.matchings)

    @property
    def edge_union(self) -> frozenset[Edge]:
        return frozenset(e for m in self.matchings for e in m)

    def is_coloring(self) -> bool:
        """True iff the matchings are pairwise disjoint (a proper edge coloring)."""
        seen: set[Edge] = set()
        for m in self.matchings:
            if seen & set(m):
                return False
            seen.update(m)
        return True

    def covers(self, g: Hypergraph) -> bool:
        return self.edge_union == set(g.edges)

    def with_proportional_probabilities(self) -> "MatchingCover":
        """p_l = |M_l| / total, the weighting used by the coloring-protocol bound."""
        total = sum(len(m) for m in self.matchings)
        if total == 0:
            raise InputError("cover has no edges")
        return MatchingCover(self.matchings, tuple(len(m) / total for m in self.matchings))


def _other(e: Edge, x: int) -> int:
    return e[0] if e[1] == x else e[1]


def _is_bipartite(g: Hypergraph) -> bool:
    """Whether a simple graph 2-colors by depth-first search (no odd cycle)."""
    side: dict[int, int] = {}
    for start in g.vertices:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for e in g.incident[x]:
                y = _other(e, x)
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    return False
    return True


class _EdgeColors:
    """A partial proper edge coloring of a simple graph, with colors below
    `ncolors`; a vertex has at most one edge of each color."""

    def __init__(self, g: Hypergraph, ncolors: int):
        self.ncolors = ncolors
        self.incident = g.incident
        self.color: dict[Edge, int] = {}

    def _edge(self, x: int, c: int) -> Edge | None:
        for e in self.incident[x]:
            if self.color.get(e) == c:
                return e
        return None

    def is_free(self, x: int, c: int) -> bool:
        return self._edge(x, c) is None

    def free(self, *xs: int) -> int | None:
        """The smallest color free at every x in xs, or None."""
        busy = {self.color.get(e) for x in xs for e in self.incident[x]}
        return next((c for c in range(self.ncolors) if c not in busy), None)

    def swap(self, x: int, a: int, b: int) -> int:
        """Swap a and b on the maximal path from x alternating a, b, a, ...;
        b must be free at x, so x ends the path.  Returns the far end."""
        path, want = [], a
        while (e := self._edge(x, want)) is not None:
            path.append(e)
            x = _other(e, x)
            want = b if want == a else a
        for e in path:
            self.color[e] = b if self.color[e] == a else a
        return x


def _bipartite_edge_coloring(g: Hypergraph) -> dict[Edge, int]:
    """Proper edge coloring of a bipartite graph with exactly max-degree colors.

    Classic augmenting construction: when no color is free at both endpoints,
    swap the two candidate colors along the alternating path starting at one
    endpoint; in a bipartite graph that path can never reach the other endpoint.
    """
    colors = _EdgeColors(g, max_degree(g))
    for e in g.edges:
        u, v = e
        common = colors.free(u, v)
        if common is None:
            common = colors.free(u)
            end = colors.swap(v, common, colors.free(v))
            if end == u:  # pragma: no cover - impossible in a bipartite graph
                raise InvariantViolation("alternating path closed a cycle")
        colors.color[e] = common
    return colors.color


def _misra_gries(g: Hypergraph) -> dict[Edge, int]:
    """Proper edge coloring of a simple graph with at most max-degree + 1 colors."""
    colors = _EdgeColors(g, max_degree(g) + 1)
    color = colors.color
    for e0 in g.edges:
        u, v = e0
        # maximal fan of u starting at v
        fan = [v]
        fan_edges = [e0]
        grown = True
        while grown:
            grown = False
            for e in colors.incident[u]:
                x = _other(e, u)
                if e in color and x not in fan and colors.is_free(fan[-1], color[e]):
                    fan.append(x)
                    fan_edges.append(e)
                    grown = True
                    break
        c = colors.free(u)
        d = colors.free(fan[-1])
        if c != d:
            colors.swap(u, d, c)
        # rotate the fan up to its first vertex where d is free; the swap
        # keeps that prefix a fan (Misra & Gries 1992)
        w = next((i for i, x in enumerate(fan) if colors.is_free(x, d)), None)
        if w is None:  # pragma: no cover - the fan argument guarantees a w
            raise InvariantViolation("no rotatable fan prefix found")
        for j in range(w):
            color[fan_edges[j]] = color[fan_edges[j + 1]]
        color[fan_edges[w]] = d
    return color


def _greedy_hyperedge_coloring(g: Hypergraph) -> dict[Edge, int]:
    """Greedy coloring of the line graph, highest-adjacency edges first."""
    adjacency = {e: {f for v in e for f in g.incident[v]} - {e} for e in g.edges}
    order = sorted(g.edges, key=lambda e: (-len(adjacency[e]), e))
    color: dict[Edge, int] = {}
    for e in order:
        busy = {color[f] for f in adjacency[e] if f in color}
        color[e] = next(c for c in range(len(g.edges)) if c not in busy)
    return color


def edge_coloring(g: Hypergraph) -> MatchingCover:
    """Color the edges with disjoint matchings, uniform probabilities attached.

    Bipartite simple graphs get an optimal coloring with max-degree colors;
    other simple graphs use the Misra-Gries fan construction (max degree + 1);
    general hypergraphs fall back to greedy coloring of the line graph.
    """
    if not g.edges:
        raise InputError("cannot color an empty edge set")
    if g.is_simple_graph():
        color = _bipartite_edge_coloring(g) if _is_bipartite(g) else _misra_gries(g)
    else:
        color = _greedy_hyperedge_coloring(g)
    ncolors = max(color.values()) + 1
    matchings = tuple(tuple(e for e in g.edges if color[e] == c)
                      for c in range(ncolors))
    matchings = tuple(m for m in matchings if m)
    m = len(matchings)
    return MatchingCover(matchings, tuple(1.0 / m for _ in range(m)))


def trivial_cover(g: Hypergraph) -> MatchingCover:
    """One edge per matching with uniform probabilities."""
    if not g.edges:
        raise InputError("cannot cover an empty edge set")
    m = len(g.edges)
    return MatchingCover(tuple((e,) for e in g.edges), tuple(1.0 / m for _ in range(m)))


# ---------------------------------------------------------------------------
# generators

def chain(n: int, closed: bool = False) -> Hypergraph:
    """Path (or cycle, if closed) on n vertices labeled 0..n-1."""
    if n < 2:
        raise InputError("chain needs at least 2 vertices")
    edges = [(i, i + 1) for i in range(n - 1)]
    if closed:
        if n < 3:
            raise InputError("closed chain needs at least 3 vertices")
        edges.append((0, n - 1))
    return Hypergraph(tuple(range(n)), tuple(edges))


def square_lattice(width: int, height: int, periodic: bool = False) -> Hypergraph:
    """Square-lattice patch; periodic wraps both directions (torus)."""
    if width < 2 or height < 2:
        raise InputError("square lattice needs width, height >= 2")
    if periodic and (width < 3 or height < 3):
        raise InputError("periodic square lattice needs width, height >= 3")

    def label(x, y):
        return y * width + x

    edges = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                edges.append((label(x, y), label(x + 1, y)))
            elif periodic:
                edges.append((label(x, y), label(0, y)))
            if y + 1 < height:
                edges.append((label(x, y), label(x, y + 1)))
            elif periodic:
                edges.append((label(x, y), label(x, 0)))
    return Hypergraph(tuple(range(width * height)), tuple(edges))


def honeycomb_lattice(width: int, height: int, periodic: bool = False) -> Hypergraph:
    """Honeycomb patch of width x height two-site cells (2*width*height vertices).

    Every vertex of the periodic lattice has degree 3; open patches have
    degree <= 3 with smaller degrees on the boundary.
    """
    if width < 1 or height < 1:
        raise InputError("honeycomb lattice needs width, height >= 1")
    if periodic and (width < 2 or height < 2):
        raise InputError("periodic honeycomb lattice needs width, height >= 2")

    def a(x, y):
        return 2 * (y * width + x)

    def b(x, y):
        return 2 * (y * width + x) + 1

    edges = []
    for y in range(height):
        for x in range(width):
            edges.append((a(x, y), b(x, y)))
            if x > 0:
                edges.append((a(x, y), b(x - 1, y)))
            elif periodic:
                edges.append((a(x, y), b(width - 1, y)))
            if y > 0:
                edges.append((a(x, y), b(x, y - 1)))
            elif periodic:
                edges.append((a(x, y), b(x, height - 1)))
    return Hypergraph(tuple(range(2 * width * height)), tuple(edges))
