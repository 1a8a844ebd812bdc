"""Graph construction, the instance file format, and the generators."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindecay.core import BLUE, GREEN, SpinSystem
from spindecay.errors import GraphFormatError, InvalidParameterError
from spindecay.graphs import (
    Boundary,
    cycle,
    complete,
    double_star,
    dumps,
    VERTEX_CAP,
    from_edges,
    loads,
    max_degree,
    path,
    random_regular,
    random_tree,
    require_vertex,
    star,
)

from helpers import JSON_VALUES


def test_from_edges_builds_sorted_adjacency():
    g = from_edges(4, [(2, 0), (0, 1), (3, 1)])
    assert g.adj == ((1, 2), (0, 3), (0,), (1,))
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 3)]
    assert g.edge_count() == 3
    assert max_degree(g) == 2


@pytest.mark.parametrize("edges,fragment", [
    ([(0, 0)], "self-loop"),
    ([(0, 1), (1, 0)], "duplicate"),
    ([(0, 5)], "outside"),
    ([(0,)], "pair"),
])
def test_from_edges_rejects_malformed_edges(edges, fragment):
    with pytest.raises(GraphFormatError) as exc:
        from_edges(3, edges)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("v, fragment", [
    (True, "True is not an integer vertex"),
    (1.0, "1.0 is not an integer vertex"),
    ("1", "'1' is not an integer vertex"),
    (3, "3 outside 0..2"),
    (-1, "-1 outside 0..2"),
], ids=["bool", "float", "str", "too-large", "negative"])
def test_every_vertex_check_names_what_is_wrong(v, fragment):
    # a bool is an int to Python, and 1.0 == 1, so neither may pass as vertex 1
    with pytest.raises(GraphFormatError, match=f"edges\\[1\\]: vertex {fragment}"):
        from_edges(3, [(0, 2), (0, v)])
    with pytest.raises(GraphFormatError, match=f"lambda_v: vertex {fragment}"):
        from_edges(3, [(0, 1)], lambda_v={v: 2.0})
    with pytest.raises(GraphFormatError, match=f"fixed: vertex {fragment}"):
        Boundary(fixed={v: BLUE}).validate_against(path(3))
    with pytest.raises(InvalidParameterError, match=f"order entry {fragment}"):
        require_vertex(path(3), v, "order entry")


def test_activity_falls_back_to_the_global_field():
    g = from_edges(3, [(0, 1), (1, 2)], lambda_v={1: 2.5})
    s = SpinSystem(0.0, 1.0, 0.7)
    assert g.activity(0, s) == 0.7
    assert g.activity(1, s) == 2.5


def test_lambda_v_must_be_positive():
    with pytest.raises(GraphFormatError):
        from_edges(2, [(0, 1)], lambda_v={0: 0.0})
    with pytest.raises(GraphFormatError):
        from_edges(2, [(0, 1)], lambda_v={5: 1.0})


def test_boundary_validation():
    with pytest.raises(GraphFormatError):
        Boundary(fixed={0: "purple"})
    with pytest.raises(GraphFormatError):
        Boundary(fixed={0: BLUE}, S=frozenset({1}))
    b = Boundary(fixed={0: BLUE, 1: GREEN}, S=frozenset({1}))
    with pytest.raises(GraphFormatError):
        b.validate_against(path(1))


def test_round_trip_through_the_file_format():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)], lambda_v={2: 1.5},
                   labels=["a", "b", "c", "d"])
    b = Boundary(fixed={3: GREEN, 1: BLUE}, S=frozenset({3}))
    s = SpinSystem(0.1, 2.0, 0.9)
    inst = loads(dumps(g, b, s))
    assert inst.graph == g
    assert inst.boundary == b
    assert inst.system == s


@pytest.mark.parametrize("text,fragment", [
    ("{", "invalid JSON"),
    ("[]", "top level"),
    ('{"edges": []}', "n"),
    ('{"n": 2, "edges": [], "extra": 1}', "unknown fields"),
    ('{"n": 2, "edges": [], "fixed": {"x": "blue"}}', "bad vertex key"),
    ('{"n": 2, "edges": [], "params": {"beta": 0.1}}', "params"),
])
def test_loads_reports_the_offending_field(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        loads(text)
    assert fragment in str(exc.value)


def test_generator_shapes():
    assert path(5).edge_count() == 4
    assert cycle(6).edge_count() == 6
    assert all(complete(5).degree(v) == 4 for v in range(5))
    st5 = star(5)
    assert st5.degree(0) == 5 and all(st5.degree(v) == 1 for v in range(1, 6))
    ds = double_star(3)
    assert ds.degree(0) == 4 and ds.degree(1) == 4 and ds.n == 8
    with pytest.raises(InvalidParameterError):
        cycle(2)


def test_random_tree_is_a_tree_and_deterministic():
    for seed in range(5):
        g = random_tree(12, seed=seed)
        assert g.edge_count() == 11
        # connectivity via one sweep
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == 12
    assert random_tree(12, seed=3) == random_tree(12, seed=3)
    assert random_tree(12, seed=3) != random_tree(12, seed=4)


def test_random_regular_degrees():
    g = random_regular(10, 3, seed=1)
    assert all(g.degree(v) == 3 for v in range(10))
    assert random_regular(10, 3, seed=1) == random_regular(10, 3, seed=1)
    with pytest.raises(InvalidParameterError):
        random_regular(5, 3, seed=0)  # odd degree sum


@pytest.mark.parametrize("n, d", [(60, 6), (20, 7), (8, 7)])
def test_random_regular_repairs_pairings_that_stay_multigraphs(n, d):
    # no simple pairing in 1000 tries; from_edges refuses loops and repeats
    g = random_regular(n, d, seed=1)
    assert {len(a) for a in g.adj} == {d}
    assert g == random_regular(n, d, seed=1)


def test_random_regular_keeps_the_graphs_its_retries_find():
    assert list(random_regular(10, 3, seed=1).edges()) == [
        (0, 5), (0, 6), (0, 8), (1, 3), (1, 8), (1, 9), (2, 4), (2, 5),
        (2, 6), (3, 7), (3, 9), (4, 7), (4, 8), (5, 7), (6, 9),
    ]


@st.composite
def _documents(draw):
    """Any JSON value, or a valid document with one field, or one value
    inside a field, replaced by any JSON value."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    x = draw(JSON_VALUES)
    doc = {"n": 3, "edges": [[0, 1], [1, 2]], "lambda_v": {"1": 0.5}, "fixed": {"0": "blue"},
           "S": [0], "params": {"beta": 0.1, "gamma": 1.0, "lambda": 1.0},
           "labels": ["a", "b", "c"]}
    key = draw(st.sampled_from(sorted(doc)))
    inner = {
        "n": x,
        "edges": [[0, 1], [1, x]] if draw(st.booleans()) else [[0, 1], x],
        "lambda_v": {"1": x} if draw(st.booleans()) else {str(x): 0.5},
        "fixed": {"0": x} if draw(st.booleans()) else {str(x): "green"},
        "S": [x],
        "params": {"beta": x, "gamma": 1.0, "lambda": 1.0},
        "labels": ["a", x, "c"],
    }
    doc[key] = x if draw(st.booleans()) else inner[key]
    return doc


@given(_documents())
@settings(max_examples=400, deadline=None)
def test_loads_returns_an_instance_or_a_format_error(doc):
    try:
        loads(json.dumps(doc))
    except GraphFormatError:
        pass


def test_loads_caps_the_vertex_count():
    assert loads(json.dumps({"n": VERTEX_CAP, "edges": []})).graph.n == VERTEX_CAP
    with pytest.raises(GraphFormatError, match="n: at most"):
        loads(json.dumps({"n": VERTEX_CAP + 1, "edges": []}))
