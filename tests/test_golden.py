"""Golden digests of the model layer.

Each model built from the toy instance is pinned by the SHA-256 of its
variables (name, kind, bounds, tag), constraints (name, terms in order,
sense, right-hand side, origin) and objective, and by the SHA-256 of its
MPS text.  Any change to variable or row order, to the order of the terms
inside a row, or to a name shows up here; a change to the model layer that
must not alter the models keeps these digests as they are.
"""

import hashlib

import pytest

from cttsolve.formulations import (DIVE_KINDS, Neighborhood,
                                   PeriodAssignment, add_clique_cuts,
                                   add_implied_bound_cuts, add_pattern_cuts,
                                   all_patterns, build_dive, build_monolithic,
                                   build_surface, build_surface2,
                                   greedy_clique_cover)
from cttsolve.instance import build_conflict_graph
from cttsolve.milp import export_mps

GOLDEN = {
    "monolithic": (
        "fc547a4982a6b3cebce31810ab8b0de20d0d4c519a635e28a83fbad1816541c0",
        "8092f70f519620bdaf37bf29bbe71489f908a31f84b475b017cb4f505ad25cfc"),
    "surface": (
        "d098ae1fdafef5c7105bbcaebfe07f7f8c4d69e468486a2ffba5bd2d44be62ae",
        "45a6eae287f98cff867e2459f7a3bcf8753ca95380a6ae5fc859e81538d3beb6"),
    "surface2": (
        "0c6c1570b0f2292714090593edee169ce67a2aa647e59ed7874a5ab25a649393",
        "4ca47cdc5c7b42762fa7b4c9754d15d157b26fdede7757f6c27e5b8e89b8600f"),
    "period-fixed": (
        "73ee86697de87da7755862ae14a4cd459e51d17a437ce0bbdb7b2f5491598618",
        "82f3bc29122c9da12bce5c27a48ab894b198ce4b7e978ef2d5981cd13f12b4a8"),
    "day-fixed": (
        "d1238ea380864af3ce696870016afe40786da8fee3341c74ef31a49518be9d15",
        "91dc40aa16d4d731587ab07543ac2888ec15b627e1e7f57ef9456835c16e9c93"),
}


def model_digest(model) -> str:
    h = hashlib.sha256()
    for v in model.variables:
        h.update(repr((v.name, v.kind, v.lower, v.upper, v.tag)).encode())
        h.update(b"\n")
    for c in model.constraints:
        h.update(repr((c.name, c.terms, c.sense, c.rhs, c.origin)).encode())
        h.update(b"\n")
    h.update(repr((model.objective_terms, model.objective_constant)).encode())
    return h.hexdigest()


def with_cuts(model, instance):
    graph = build_conflict_graph(instance)
    add_clique_cuts(model, greedy_clique_cover(graph), graph)
    add_implied_bound_cuts(model)
    add_pattern_cuts(model, all_patterns(instance.periods_per_day))
    return model


BASIS = PeriodAssignment({
    "c1": frozenset({1, 2, 3}),
    "c2": frozenset({4, 5}),
    "c3": frozenset({4, 5}),
})


def build(name, instance):
    if name == "monolithic":
        return with_cuts(build_monolithic(instance), instance)
    if name == "surface":
        return with_cuts(build_surface(instance), instance)
    if name == "surface2":
        return with_cuts(build_surface2(instance), instance)
    # a dive as the strategies build it, from the surface's period
    # assignment: restrict, then implied-bound cuts
    model = build_dive(build_monolithic(instance).freeze(),
                       Neighborhood(name, BASIS, 0.0))
    add_implied_bound_cuts(model)
    return model


@pytest.mark.parametrize("name", ["monolithic", "surface", "surface2",
                                  *DIVE_KINDS])
def test_model_digest(name, toy_instance):
    model = build(name, toy_instance)
    text = export_mps(model)
    got = (model_digest(model), hashlib.sha256(text.encode()).hexdigest())
    assert got == GOLDEN[name]
