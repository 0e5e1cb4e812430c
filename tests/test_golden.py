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

from cttsolve.formulations import (DIVE_KINDS, PeriodAssignment,
                                   add_clique_cuts, add_implied_bound_cuts,
                                   add_pattern_cuts, build_dive,
                                   build_monolithic, build_surface,
                                   build_surface2, greedy_clique_cover)
from cttsolve.instance import build_conflict_graph
from cttsolve.milp import export_mps

GOLDEN = {
    "monolithic": (
        "72bab6c9e914836774395b31c533e448f19edcdb7e66e7b145187af8665f8588",
        "74c6c5e8ee72b1c2d119cf0b11ac3927b10a4db56a3adf8dc92fd70fb79a2b18"),
    "surface": (
        "5bf2cbe7697283bbad96aafcab9ab92a5b0cc501423cf255a4265f6d6975f2a6",
        "c22ae0038b1aece93fc1df3fa07b8fcdb2fae5ee84c62d420b1a1db9b273ff1e"),
    "surface2": (
        "55ce49567c631ce45c5317339acdc50e93504b4f4e71d79af0579b7437b9e994",
        "2eddc6641e0fe3981b0439be8390ea663515f0b983d10f596ee7ed780f37ce66"),
    "period-fixed": (
        "982322a2ed77d27c031823e68b3f07efc4a2dbaebacd7f4614dafa8245fadea5",
        "85971c6c208dc758ce22d7f676c36172414fe5fd7a919317ef1380333676b64a"),
    "day-fixed": (
        "95397764ee0b5594eabb1e5986164bec8833495a59e408c7da0d621efe069d9f",
        "81d68783f564e55f7f121373357bf840771de6998f31f713cd0907483f03f49a"),
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
    add_pattern_cuts(model)
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
    model = build_dive(build_monolithic(instance).freeze(), name, BASIS)
    add_implied_bound_cuts(model)
    return model


@pytest.mark.parametrize("name", ["monolithic", "surface", "surface2",
                                  *DIVE_KINDS])
def test_model_digest(name, toy_instance):
    model = build(name, toy_instance)
    text = export_mps(model)
    got = (model_digest(model), hashlib.sha256(text.encode()).hexdigest())
    assert got == GOLDEN[name]
