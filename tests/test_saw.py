"""Walk-tree construction: child order, cycle closures, boundary leaves.

The tree is read through dump_levels, which records the nodes the walk
kernel visits, so every property here is a property of the evaluated tree.
"""
from __future__ import annotations

import pytest

from spindecay.core import BLUE, GREEN, SpinSystem
from spindecay.errors import BudgetExceededError, InvalidParameterError
from spindecay.estimator import Depth, bounds, decay_curve
from spindecay.graphs import Boundary, complete, cycle, from_edges, path, random_regular
from spindecay.saw import FIXED, FREE, closing_spin, dump_levels

HARDCORE = SpinSystem(0.0, 1.0, 1.0)
SOFT = SpinSystem(0.3, 1.2, 0.8)


def _child(node, origin):
    return [c for c in node["children"] if c["origin"] == origin][0]


def _size(node):
    return 1 + sum(_size(c) for c in node.get("children", ()))


def _expanded(node):
    kids = node.get("children")
    return 0 if kids is None else 1 + sum(_expanded(c) for c in kids)


def test_children_come_in_ascending_vertex_order():
    g = from_edges(4, [(0, 3), (0, 1), (0, 2)])
    kids = dump_levels(g, 0, 1)["children"]
    assert [c["origin"] for c in kids] == [1, 2, 3]
    assert all(c["kind"] == FREE and c["depth"] == 1 for c in kids)


def test_parent_edge_is_not_walked_back():
    mid = dump_levels(path(3), 1, 3)
    assert _child(mid, 0)["children"] == []


def test_triangle_closures_pin_opposite_spins():
    root = dump_levels(complete(3), 0, 3)

    # 0 -> 1 -> 2 -> 0: the closing edge (2,0) outranks the departure (0,1)
    deep = _child(_child(root, 1), 2)["children"]
    assert len(deep) == 1 and deep[0]["kind"] == FIXED and deep[0]["spin"] == BLUE

    # 0 -> 2 -> 1 -> 0: closing from 1, departure went to 2
    deep = _child(_child(root, 2), 1)["children"]
    assert len(deep) == 1 and deep[0]["kind"] == FIXED and deep[0]["spin"] == GREEN

    assert closing_spin(1, 2) == BLUE
    assert closing_spin(2, 1) == GREEN


def test_boundary_vertices_become_fixed_leaves():
    b = Boundary(fixed={2: GREEN})
    leaf = _child(dump_levels(path(3), 1, 3, b), 2)
    assert leaf["kind"] == FIXED and leaf["spin"] == GREEN
    assert "children" not in leaf  # fixed leaves are never expanded


def _brute_size(adj, v, depth):
    """Independent recount: prefixes of self-avoiding walks from v."""

    def walk(u, visited, walked, d):
        total = 1
        if d == depth:
            return total
        for w in adj[u]:
            if w == walked:
                continue
            if w in visited:
                total += 1  # closure leaf, counted but never expanded
            else:
                total += walk(w, visited | {w}, u, d + 1)
        return total

    return walk(v, frozenset({v}), None, 0)


@pytest.mark.parametrize("g", [complete(4), cycle(5), path(4),
                               from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])])
def test_tree_size_matches_independent_recount(g):
    # depth n + 2 lies past the longest walk, so it is the whole tree
    for depth in (0, 1, 2, g.n + 2):
        assert _size(dump_levels(g, 0, depth)) == _brute_size(g.adj, 0, depth)


def test_tree_size_respects_boundaries_and_caps():
    g = complete(4)
    b = Boundary(fixed={1: BLUE, 2: BLUE, 3: BLUE})
    assert _size(dump_levels(g, 0, 6, b)) == 4  # root plus three leaves
    assert _size(dump_levels(g, 1, 6, b)) == 1  # a pinned root never expands
    with pytest.raises(BudgetExceededError):
        bounds(g, HARDCORE, 0, policy=Depth(6), budget=3)


def test_root_node_validation():
    with pytest.raises(InvalidParameterError):
        dump_levels(path(2), 5, 1)


def test_dump_levels_shape():
    doc = dump_levels(cycle(4), 0, depth=2)
    assert doc["origin"] == 0 and doc["kind"] == FREE
    assert {c["origin"] for c in doc["children"]} == {1, 3}
    grand = doc["children"][0]["children"]
    assert all(set(node) <= {"origin", "kind", "spin", "depth", "children"}
               for node in grand)


@pytest.mark.parametrize("boundary", [None, Boundary(fixed={3: BLUE, 5: GREEN}),
                                      Boundary(fixed={3: BLUE, 5: GREEN}, S=frozenset({5}))])
def test_dumped_tree_is_the_evaluated_tree(boundary):
    g = random_regular(10, 3, seed=3)
    for v in (0, 3, 7):
        for t in range(6):
            expanded = bounds(g, SOFT, v, boundary, Depth(t)).expanded
            assert _expanded(dump_levels(g, v, t, boundary)) == expanded


def test_decay_curve_points_are_depth_walks():
    g = random_regular(16, 3, seed=5)
    b = Boundary(fixed={9: BLUE})
    for v, boundary in ((0, None), (4, b)):
        curve = decay_curve(g, SOFT, v, boundary, t_max=7)
        for pt in curve:
            single = bounds(g, SOFT, v, boundary, Depth(pt.t))
            assert (pt.p_lo, pt.p_hi, pt.width) == (single.p_lo, single.p_hi, single.width)
