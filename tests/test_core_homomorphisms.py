"""Tests for homomorphisms, cores and structure operations."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core import (
    Fact,
    HomomorphismSearch,
    Instance,
    MarkedInstance,
    RelationSymbol,
    core,
    diagonal,
    direct_product,
    find_homomorphism,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphically_incomparable,
    homomorphisms,
    is_core,
    is_homomorphism,
    marked_homomorphism_exists,
    power,
)
from repro.workloads.csp_zoo import clique_template, cycle_graph

EDGE = RelationSymbol("edge", 2)
A = RelationSymbol("A", 1)


def path(length):
    return Instance([Fact(EDGE, (i, i + 1)) for i in range(length)])


def test_path_maps_into_clique():
    assert has_homomorphism(path(3), clique_template(2))
    assert has_homomorphism(path(5), clique_template(3))


def test_odd_cycle_not_two_colourable():
    assert not has_homomorphism(cycle_graph(3), clique_template(2))
    assert has_homomorphism(cycle_graph(4), clique_template(2))
    assert has_homomorphism(cycle_graph(3), clique_template(3))


def test_found_homomorphism_is_valid():
    source = cycle_graph(4)
    target = clique_template(2)
    hom = find_homomorphism(source, target)
    assert hom is not None
    assert is_homomorphism(hom, source, target)


def test_homomorphism_respects_fixed_assignment():
    source = path(2)
    target = clique_template(3)
    hom = find_homomorphism(source, target, fixed={0: 1})
    assert hom is not None and hom[0] == 1


def test_unary_relations_constrain_homomorphisms():
    source = Instance([Fact(A, ("x",)), Fact(EDGE, ("x", "y"))])
    target = Instance([Fact(EDGE, (0, 1)), Fact(A, (1,))])
    assert not has_homomorphism(source, target)
    target_ok = target.with_facts([Fact(A, (0,))])
    assert has_homomorphism(source, target_ok)


def test_enumerate_all_homomorphisms():
    homs = list(homomorphisms(path(1), clique_template(2)))
    assert len(homs) == 2  # 0->1 or 1->0


def test_empty_source_always_maps():
    assert has_homomorphism(Instance([]), clique_template(2))


def test_marked_homomorphism():
    source = MarkedInstance(path(2), (0,))
    target = MarkedInstance(clique_template(2), (0,))
    assert marked_homomorphism_exists(source, target)
    # Forcing both endpoints of an edge onto the same mark must fail.
    bad_source = MarkedInstance(path(1), (0, 1))
    bad_target = MarkedInstance(clique_template(2), (0, 0))
    assert not marked_homomorphism_exists(bad_source, bad_target)


def test_core_of_disjoint_edges_is_one_edge():
    graph = Instance([Fact(EDGE, (0, 1)), Fact(EDGE, (2, 3)), Fact(EDGE, (4, 5))])
    kernel = core(graph)
    assert len(kernel.active_domain) == 2
    assert is_core(kernel)
    assert homomorphically_equivalent(kernel, graph)


def test_core_of_symmetric_even_cycle_is_edge():
    symmetric = Instance(
        [Fact(EDGE, (i, (i + 1) % 4)) for i in range(4)]
        + [Fact(EDGE, ((i + 1) % 4, i)) for i in range(4)]
    )
    kernel = core(symmetric)
    assert len(kernel.active_domain) == 2
    assert homomorphically_equivalent(kernel, symmetric)


def test_core_of_clique_is_itself():
    assert len(core(clique_template(3)).active_domain) == 3


def test_homomorphic_incomparability():
    assert homomorphically_incomparable(cycle_graph(3), clique_template(2))


def test_direct_product_projections_are_homomorphisms():
    product = direct_product(cycle_graph(3), clique_template(3))
    assert has_homomorphism(product, cycle_graph(3))
    assert has_homomorphism(product, clique_template(3))


def test_power_and_diagonal():
    squared = power(clique_template(2), 2)
    assert ((0, 0), (1, 1)) in squared.tuples(EDGE)
    assert diagonal(clique_template(2)) == {(0, 0), (1, 1)}


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=3))
def test_paths_always_map_to_cliques(length, clique_size):
    """Property: any directed path maps homomorphically into K_n for n >= 2."""
    assert has_homomorphism(path(length), clique_template(clique_size))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=7))
def test_cycle_two_colourability_matches_parity(length):
    assert has_homomorphism(cycle_graph(length), clique_template(2)) == (length % 2 == 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=6))
def test_core_is_homomorphically_equivalent(length):
    graph = cycle_graph(length)
    kernel = core(graph)
    assert homomorphically_equivalent(graph, kernel)
    assert is_core(kernel)


@st.composite
def small_graphs(draw, size):
    """A digraph on ``range(size)`` with some vertices in ``A``."""
    vertex = st.integers(min_value=0, max_value=size - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=5))
    marked = draw(st.sets(vertex, max_size=2))
    return Instance(
        [Fact(EDGE, edge) for edge in edges] + [Fact(A, (v,)) for v in marked]
    )


@settings(max_examples=80, deadline=None)
@given(small_graphs(4), small_graphs(3), st.data())
def test_domains_narrow_the_search(source, target, data):
    """Property: ``solve``/``all`` under ``domains`` give exactly the
    unrestricted homomorphisms (checked against brute force) whose images lie
    in the domains."""
    elements = sorted(source.active_domain)
    images = sorted(target.active_domain)
    domains = data.draw(
        st.dictionaries(
            st.sampled_from(elements), st.sets(st.sampled_from(images), max_size=2)
        )
    )
    search = HomomorphismSearch(source, target)
    unrestricted = [
        dict(zip(elements, values))
        for values in itertools.product(images, repeat=len(elements))
        if is_homomorphism(dict(zip(elements, values)), source, target)
    ]
    assert sorted(map(sorted_items, search.all())) == sorted(map(sorted_items, unrestricted))
    expected = [
        hom
        for hom in unrestricted
        if all(hom[element] in allowed for element, allowed in domains.items())
    ]
    got = list(search.all(domains=domains))
    assert sorted(map(sorted_items, got)) == sorted(map(sorted_items, expected))
    solved = search.solve(domains=domains)
    assert (solved is None) == (not expected)
    assert solved is None or solved in expected


def test_domains_are_checked_against_every_fact():
    """Narrowing both ends of an edge to one image each must still check the
    edge between them."""
    search = HomomorphismSearch(path(1), path(2))
    assert search.solve(domains={0: {0}, 1: {2}}) is None
    assert search.solve(domains={0: {1}, 1: {2}}) == {0: 1, 1: 2}
    assert list(search.all(domains={1: {1}})) == [{0: 0, 1: 1}]


def sorted_items(mapping):
    return sorted(mapping.items())
