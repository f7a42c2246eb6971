import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ffverify import graph as G
from ffverify.errors import InputError


def path123():
    return G.Hypergraph((1, 2, 3), ((1, 2), (2, 3)))


def vertex_disjoint(matching):
    return len({v for e in matching for v in e}) == sum(len(e) for e in matching)


class TestDegree:
    def test_path_middle_vertex(self):
        assert G.degree(path123(), 2) == 2

    def test_single_edge(self):
        g = G.Hypergraph((1, 2), ((1, 2),))
        assert G.degree(g, 1) == 1

    def test_honeycomb_fragment_max_degree(self):
        assert G.max_degree(G.honeycomb_lattice(3, 3)) == 3

    def test_max_degree_of_no_vertices(self):
        assert G.max_degree(G.Hypergraph((), ())) == 0

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            G.degree(path123(), 99)

    def test_hyperedge_neighbors(self):
        g = G.Hypergraph((1, 2, 3), ((1, 2, 3),))
        assert G.degree(g, 1) == 2


class TestIsMatching:
    """Which edge sets a MatchingCover takes as matchings of a graph."""

    def setup_method(self):
        self.g = G.Hypergraph((1, 2, 3, 4), ((1, 2), (2, 3), (3, 4)))

    def test_disjoint_edges(self):
        cover = G.MatchingCover((((1, 2), (3, 4)), ((2, 3),)), (0.5, 0.5))
        assert cover.covers(self.g)

    def test_adjacent_edges(self):
        with pytest.raises(InputError):
            G.MatchingCover((((1, 2), (2, 3)), ((3, 4),)), (0.5, 0.5))

    def test_empty(self):
        assert G.MatchingCover(((),), (1.0,)).matchings == ((),)

    def test_edge_not_in_graph(self):
        cover = G.MatchingCover((((1, 4),), ((1, 2), (3, 4)), ((2, 3),)), (0.2, 0.4, 0.4))
        assert not cover.covers(self.g)


class TestValidation:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(InputError):
            G.Hypergraph((1, 2), ((1, 2), (2, 1)))

    def test_unknown_edge_vertex(self):
        with pytest.raises(InputError):
            G.Hypergraph((1, 2), ((1, 3),))

    def test_empty_edge(self):
        with pytest.raises(InputError):
            G.Hypergraph((1, 2), ((),))

    def test_loop_is_not_simple(self):
        g = G.Hypergraph((1, 2), ((1,), (1, 2)))
        assert not g.is_simple_graph()


class TestEdgeColoring:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_even_cycle_two_matchings(self, n):
        cover = G.edge_coloring(G.chain(n, closed=True))
        assert len(cover) == 2

    def test_triangle_three_matchings(self):
        assert len(G.edge_coloring(G.chain(3, closed=True))) == 3

    def test_square_patch_four_matchings(self):
        g = G.square_lattice(4, 4)
        cover = G.edge_coloring(g)
        assert len(cover) == 4
        assert cover.covers(g)

    def test_honeycomb_three_matchings(self):
        g = G.honeycomb_lattice(3, 2, periodic=True)
        assert len(G.edge_coloring(g)) == 3

    def test_members_are_matchings_and_disjoint(self):
        g = G.Hypergraph(range(5), combinations(range(5), 2))
        cover = G.edge_coloring(g)
        assert all(vertex_disjoint(m) for m in cover.matchings)
        assert cover.is_coloring()
        assert cover.covers(g)
        assert G.max_degree(g) <= len(cover) <= G.max_degree(g) + 1

    def test_uniform_probabilities(self):
        cover = G.edge_coloring(G.chain(5))
        assert all(abs(p - 1.0 / len(cover)) < 1e-15 for p in cover.probabilities)

    def test_empty_graph(self):
        with pytest.raises(InputError):
            G.edge_coloring(G.Hypergraph((1,), ()))

    def test_bipartite_alternating_path_swap(self):
        """Edge (0, 4) comes last and finds no color free at both ends, so the
        alternating path from 4 swaps two colors; max-degree colors still do."""
        g = G.Hypergraph(range(6), [(1, 5), (2, 4), (1, 4), (2, 5), (0, 5), (0, 4)])
        cover = G.edge_coloring(g)
        assert len(cover) == G.max_degree(g) == 3
        assert cover.covers(g) and cover.is_coloring()
        assert all(vertex_disjoint(m) for m in cover.matchings)

    def test_hypergraph_greedy(self):
        g = G.Hypergraph(tuple(range(6)),
                         ((0, 1, 2), (2, 3), (3, 4, 5), (0, 5), (1, 4)))
        cover = G.edge_coloring(g)
        assert cover.covers(g)
        assert cover.is_coloring()
        assert all(vertex_disjoint(m) for m in cover.matchings)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=16), st.data())
    def test_random_simple_graphs_within_vizing(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=min(30, len(pairs)), unique=True))
        g = G.Hypergraph(tuple(range(n)), tuple(edges))
        cover = G.edge_coloring(g)
        assert cover.covers(g)
        assert cover.is_coloring()
        assert all(vertex_disjoint(m) for m in cover.matchings)
        assert len(cover) <= G.max_degree(g) + 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
           st.data())
    def test_random_bipartite_graphs_use_max_degree_colors(self, left, right, data):
        pairs = [(i, left + j) for i in range(left) for j in range(right)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=len(pairs), unique=True))
        edges = data.draw(st.permutations(edges))
        g = G.Hypergraph(range(left + right), edges)
        cover = G.edge_coloring(g)
        assert cover.covers(g) and cover.is_coloring()
        assert all(vertex_disjoint(m) for m in cover.matchings)
        assert len(cover) == G.max_degree(g)


# Colorings as the toolkit builds them, so that a rewrite of a colorer that
# changes any matching (and so any protocol) fails here.
PINNED_COLORINGS = {
    # Misra-Gries swaps a non-empty path and rotates a strict prefix of the fan
    "paw": (G.Hypergraph(range(4), [(0, 1), (0, 2), (1, 2), (0, 3)]),
            (((1, 2), (0, 3)), ((0, 2),), ((0, 1),))),
    "closed-chain-5": (G.chain(5, closed=True),
                       (((0, 1), (3, 4)), ((1, 2), (0, 4)), ((2, 3),))),
    "K5": (G.Hypergraph(range(5), combinations(range(5), 2)),
           (((0, 3), (1, 2)), ((0, 4), (1, 3)), ((0, 1), (2, 4)), ((0, 2), (3, 4)),
            ((1, 4), (2, 3)))),
    "periodic-square-3x3": (G.square_lattice(3, 3, periodic=True),
                            (((0, 1), (3, 4), (7, 8)), ((0, 3), (4, 5), (6, 7), (2, 8)),
                             ((1, 4), (2, 5), (0, 6)), ((1, 2), (3, 6), (4, 7), (5, 8)),
                             ((0, 2), (3, 5), (1, 7), (6, 8)))),
    # the graph of test_bipartite_alternating_path_swap
    "bipartite-swap": (G.Hypergraph(range(6), [(1, 5), (2, 4), (1, 4), (2, 5), (0, 5),
                                               (0, 4)]),
                       (((1, 5), (0, 4)), ((1, 4), (2, 5)), ((2, 4), (0, 5)))),
}


@pytest.mark.parametrize("name", PINNED_COLORINGS)
def test_coloring_is_pinned(name):
    g, matchings = PINNED_COLORINGS[name]
    assert G.edge_coloring(g).matchings == matchings


class TestChromaticIndexBounds:
    """Edge colorings of simple graphs use max degree to max degree + 1 colors."""

    @staticmethod
    def assert_within(g, max_deg):
        assert G.max_degree(g) == max_deg
        assert max_deg <= len(G.edge_coloring(g)) <= max_deg + 1

    def test_c4(self):
        self.assert_within(G.chain(4, closed=True), 2)

    def test_honeycomb_patch(self):
        self.assert_within(G.honeycomb_lattice(3, 3), 3)

    def test_star(self):
        star = G.Hypergraph(tuple(range(6)), tuple((0, i) for i in range(1, 6)))
        self.assert_within(star, 5)


class TestMatchingCover:
    def test_probability_sum_enforced(self):
        with pytest.raises(InputError):
            G.MatchingCover((((1, 2),),), (0.9,))

    def test_negative_probability(self):
        with pytest.raises(InputError):
            G.MatchingCover((((1, 2),), ((3, 4),)), (1.5, -0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability(self, bad):
        with pytest.raises(InputError, match="probabilities must be finite"):
            G.MatchingCover((((1, 2),), ((3, 4),)), (1.0, bad))

    def test_member_must_be_matching(self):
        with pytest.raises(InputError):
            G.MatchingCover((((1, 2), (2, 3)),), (1.0,))

    def test_proportional_probabilities(self):
        cover = G.MatchingCover((((1, 2), (3, 4)), ((2, 3),)), (0.5, 0.5))
        prop = cover.with_proportional_probabilities()
        assert prop.probabilities == (2 / 3, 1 / 3)

    @pytest.mark.parametrize("matchings, probabilities, message", [
        ((((1, 2),), ((3, 4),)), (1.0,), "one probability per matching"),
        ((), (), "at least one matching"),
        ((((1, 2), (2, 1)),), (1.0,), r"matching \(\(1, 2\), \(1, 2\)\) repeats an edge"),
    ], ids=["missing-probability", "no-matching", "repeated-edge"])
    def test_refused(self, matchings, probabilities, message):
        with pytest.raises(InputError, match=message):
            G.MatchingCover(matchings, probabilities)

    @pytest.mark.parametrize("build, message", [
        (lambda: G.MatchingCover(((),), (1.0,)).with_proportional_probabilities(),
         "cover has no edges"),
        (lambda: G.trivial_cover(G.Hypergraph((0, 1), ())), "cannot cover an empty edge set"),
    ], ids=["proportional", "trivial"])
    def test_no_edges_to_cover(self, build, message):
        with pytest.raises(InputError, match=message):
            build()

    def test_overlapping_matchings_are_no_coloring(self):
        cover = G.MatchingCover((((1, 2),), ((1, 2), (3, 4))), (0.5, 0.5))
        assert not cover.is_coloring()


class TestGenerators:
    def test_open_chain(self):
        g = G.chain(5)
        assert g.n_vertices == 5 and g.n_edges == 4

    def test_closed_chain(self):
        g = G.chain(5, closed=True)
        assert g.n_edges == 5

    def test_chain_too_small(self):
        with pytest.raises(InputError):
            G.chain(1)

    def test_square_open_counts(self):
        g = G.square_lattice(3, 4)
        assert g.n_vertices == 12
        assert g.n_edges == 2 * 3 * 4 - 3 - 4

    def test_square_periodic_counts(self):
        g = G.square_lattice(4, 4, periodic=True)
        assert g.n_edges == 2 * 16
        assert all(G.degree(g, v) == 4 for v in g.vertices)

    def test_square_periodic_too_small(self):
        with pytest.raises(InputError):
            G.square_lattice(2, 4, periodic=True)

    def test_honeycomb_periodic_counts(self):
        g = G.honeycomb_lattice(5, 10, periodic=True)
        assert g.n_vertices == 100
        assert g.n_edges == 150
        assert all(G.degree(g, v) == 3 for v in g.vertices)

    def test_honeycomb_open_degrees(self):
        g = G.honeycomb_lattice(2, 2)
        assert G.max_degree(g) == 3

    @pytest.mark.parametrize("build, message", [
        (lambda: G.chain(2, closed=True), "closed chain needs at least 3 vertices"),
        (lambda: G.square_lattice(1, 3), r"square lattice needs width, height >= 2"),
        (lambda: G.honeycomb_lattice(1, 2, periodic=True),
         r"periodic honeycomb lattice needs width, height >= 2"),
        (lambda: G.honeycomb_lattice(0, 1), r"honeycomb lattice needs width, height >= 1"),
    ], ids=["closed-chain-2", "square-1x3", "periodic-honeycomb-1x2", "honeycomb-0x1"])
    def test_too_small(self, build, message):
        with pytest.raises(InputError, match=message):
            build()


def graph_json(g: G.Hypergraph) -> str:
    return json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]})


class TestJson:
    def test_round_trip(self):
        g = G.honeycomb_lattice(2, 2)
        assert G.Hypergraph.from_json(graph_json(g)) == g

    def test_schema(self):
        text = '{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}'
        assert G.Hypergraph.from_json(text) == G.chain(3)

    def test_malformed(self):
        with pytest.raises(InputError):
            G.Hypergraph.from_json('{"vertices": [1]}')

    def test_file_round_trip(self, tmp_path):
        g = G.Hypergraph(range(4), combinations(range(4), 2))
        path = tmp_path / "g.json"
        path.write_text(graph_json(g))
        assert G.Hypergraph.from_file(path) == g
