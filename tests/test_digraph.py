"""The digraph helpers against their oracles, on random digraphs with
cycles, self-loops, isolated nodes and repeated edges, and on random
inclusion graphs over small weights."""

from hypothesis import given, settings, strategies as st

from superweyl.digraph import components, members, reach, reduction
from superweyl.oracles import components_mutual, reach_warshall, reduction_naive
from superweyl.primposet import InclusionGraph, hasse, transitive_closure
from superweyl.rootdata import Weight, weight


@st.composite
def digraphs(draw, max_nodes=12):
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    succ = [[] for _ in range(n)]
    for v, w in edges:
        succ[v].append(w)
    return succ


def condensation(succ, comps):
    """The component DAG, one edge per edge between two components."""
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    return [
        [comp_of[w] for v in comp for w in succ[v] if comp_of[w] != c]
        for c, comp in enumerate(comps)
    ]


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_helpers_match_oracles(succ):
    assert [set(members(bits)) for bits in reach(succ)] == reach_warshall(succ)
    comps = components(succ)
    assert sorted(v for comp in comps for v in comp) == list(range(len(succ)))
    assert {frozenset(comp) for comp in comps} == components_mutual(succ)
    position = {v: k for k, comp in enumerate(comps) for v in comp}
    for v, heads in enumerate(succ):
        assert all(position[w] <= position[v] for w in heads)
    dag = condensation(succ, comps)
    kept = reduction(dag)
    assert all(len(heads) == len(set(heads)) for heads in kept)
    got = {(u, v) for u, heads in enumerate(kept) for v in heads}
    assert got == reduction_naive(dag)


def oracle_hasse(g: InclusionGraph) -> InclusionGraph:
    """Classes as mutual-reachability classes, each shown by its least
    member, and the covers of the naive reduction with their tags."""
    nodes = sorted(g.nodes, key=Weight.sort_key)
    index = {w: i for i, w in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for a, b, _ in g.edges:
        succ[index[a]].append(index[b])
    classes = sorted(components_mutual(succ), key=min)
    cls_of = {v: k for k, c in enumerate(classes) for v in c}
    tags = {}
    for a, b, tag in g.edges:
        k, l = cls_of[index[a]], cls_of[index[b]]
        if k != l:
            tags.setdefault((k, l), set()).add(tag)
    dag = [[l for k2, l in tags if k2 == k] for k in range(len(classes))]
    rep = [nodes[min(c)] for c in classes]
    return InclusionGraph(
        set(rep),
        {
            (rep[k], rep[l], ",".join(sorted(tags[k, l])))
            for k, l in reduction_naive(dag)
        },
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_inclusion_graph_queries_match_oracles(data):
    succ = data.draw(digraphs(max_nodes=8))
    nodes = [weight([k, -k]) for k in range(len(succ))]
    g = InclusionGraph()
    for w in nodes:
        g.add_node(w)
    for v, heads in enumerate(succ):
        for w in heads:
            g.add_edge(nodes[v], nodes[w], data.draw(st.sampled_from("rs")))
    edge_succ = [[] for _ in nodes]
    for a, b, _ in g.edges:
        edge_succ[nodes.index(a)].append(nodes.index(b))
    far = reach_warshall(edge_succ)
    relation = {(nodes[v], nodes[w]) for v in range(len(nodes)) for w in far[v]}
    assert g.relation() == relation
    outside = weight([-1, 1])
    for a in nodes + [outside]:
        assert all(g.leq(a, b) == ((a, b) in relation) for b in nodes + [outside])

    closed = transitive_closure(g)
    assert closed.nodes == g.nodes and closed.edges >= g.edges
    assert all(a != b and tag == "closure" for a, b, tag in closed.edges - g.edges)
    assert {(a, b) for a, b, _ in closed.edges} == {
        (a, b) for a, b in relation if a != b
    }

    want = sorted(
        (
            tuple(sorted((nodes[v] for v in c), key=Weight.sort_key))
            for c in components_mutual(edge_succ)
        ),
        key=lambda c: c[0].sort_key(),
    )
    assert g.equality_classes() == want
    for graph in (g, closed):
        h, oracle = hasse(graph), oracle_hasse(graph)
        assert (h.nodes, h.edges) == (oracle.nodes, oracle.edges)
