import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costplan.errors import GroundingError, PddlSyntaxError, UnsupportedFeatureError
from costplan.intervals import INF, CostInterval
from costplan.manifest import EstimatorManifest, ManifestEntry, ManifestLevel, parse_manifest
from costplan.pddl import (
    ActionSchema,
    Atom,
    DomainAst,
    PredicateSchema,
    RESERVED_HEADS,
    ProblemAst,
    ground,
    parse_domain,
    parse_problem,
    print_domain,
    print_problem,
)

EMPTY = EstimatorManifest(default_prior=CostInterval(0.0, INF), entries=())

MINIMAL = """
(define (domain mini)
  (:requirements :strips)
  (:predicates (p) (q))
  (:action flip :parameters () :precondition (and (p)) :effect (and (q) (not (p)))))
"""


def test_parse_minimal_domain():
    domain = parse_domain(MINIMAL)
    assert domain.name == "mini"
    assert len(domain.actions) == 1
    assert domain.actions[0].pre == (Atom("p", ()),)
    assert domain.actions[0].delete == (Atom("p", ()),)


def test_unsupported_requirement_rejected():
    text = "(define (domain x) (:requirements :probabilistic-effects))"
    with pytest.raises(UnsupportedFeatureError, match="probabilistic-effects"):
        parse_domain(text)


def test_unsupported_section_rejected():
    with pytest.raises(UnsupportedFeatureError, match=":functions"):
        parse_domain("(define (domain x) (:functions (cost)))")


def test_syntax_error_carries_location():
    with pytest.raises(PddlSyntaxError, match="line"):
        parse_domain("(define (domain x) (:predicates (p))")
    # CRLF line ends, tabs and comments (which may hold parentheses)
    cases = [
        ("(define (domain x))\r\n  )", 2, 3),
        ("(define (domain x))\n\t\t(p)", 2, 3),
        ("(define (domain x)) ; (p))\n;)\n \t)", 3, 3),
        ("; (define\r\n(define (domain x)\r\n\t(:predicates (p)) ; )\r\n", 2, 1),
    ]
    for text, line, column in cases:
        with pytest.raises(PddlSyntaxError) as info:
            parse_domain(text)
        assert (info.value.line, info.value.column) == (line, column), text


def test_undeclared_variable_rejected():
    text = """
    (define (domain x) (:predicates (p ?a - object))
      (:action bad :parameters (?x - object) :precondition (and (p ?y)) :effect (and (p ?x))))
    """
    with pytest.raises(PddlSyntaxError, match=r"\?y"):
        parse_domain(text)


def test_drive_domain_shapes(drive_paths):
    with open(drive_paths["domain"]) as fh:
        domain = parse_domain(fh.read())
    assert len(domain.predicates) == 1
    assert len(domain.actions) == 1
    assert domain.actions[0].params == (("?from", "loc"), ("?to", "loc"))


def test_parse_problem(drive_paths):
    with open(drive_paths["problem"]) as fh:
        problem = parse_problem(fh.read())
    assert problem.domain == "drive"
    assert problem.objects == (("a", "loc"), ("b", "loc"))
    assert problem.goal == (Atom("at", ("b",)),)


# ---------------------------------------------------------------------------
# Grounding

def test_drive_grounds_to_two_actions(drive_task):
    assert sorted(a.name for a in drive_task.actions) == ["drive a b", "drive b a"]
    assert len(drive_task.facts) == 2


def test_zero_objects_zero_actions():
    domain = parse_domain(
        "(define (domain x) (:requirements :strips :typing) (:types t)"
        " (:predicates (p ?a - t))"
        " (:action go :parameters (?a - t) :precondition (and (p ?a)) :effect (and (p ?a))))"
    )
    problem = ProblemAst(name="empty", domain="x", objects=(), init=(), goal=())
    task = ground(domain, problem, EMPTY)
    assert task.n_actions == 0


def test_three_objects_three_actions():
    domain = parse_domain(
        "(define (domain x) (:requirements :strips :typing) (:types t)"
        " (:predicates (p ?a - t) (q ?a - t))"
        " (:action go :parameters (?a - t) :precondition (and (p ?a)) :effect (and (q ?a))))"
    )
    problem = ProblemAst(
        name="three", domain="x",
        objects=(("o1", "t"), ("o2", "t"), ("o3", "t")),
        init=(Atom("p", ("o1",)),), goal=(),
    )
    task = ground(domain, problem, EMPTY)
    assert sorted(a.name for a in task.actions) == ["go o1", "go o2", "go o3"]


def test_type_hierarchy_grounding():
    domain = parse_domain(
        "(define (domain x) (:requirements :strips :typing)"
        " (:types car bike - vehicle)"
        " (:predicates (ready ?v - vehicle))"
        " (:action use :parameters (?v - vehicle) :precondition (and (ready ?v))"
        "  :effect (and (ready ?v))))"
    )
    problem = ProblemAst(
        name="h", domain="x", objects=(("c", "car"), ("b", "bike")),
        init=(), goal=(),
    )
    task = ground(domain, problem, EMPTY)
    assert task.n_actions == 2


def test_undefined_type_rejected():
    domain = parse_domain(
        "(define (domain x) (:requirements :strips :typing) (:types t) (:predicates (p)))"
    )
    problem = ProblemAst(name="bad", domain="x", objects=(("o", "nosuch"),), init=(), goal=())
    with pytest.raises(GroundingError, match="nosuch"):
        ground(domain, problem, EMPTY)


def test_manifest_entry_for_unknown_action_rejected(drive_paths):
    with open(drive_paths["domain"]) as fh:
        domain = parse_domain(fh.read())
    with open(drive_paths["problem"]) as fh:
        problem = parse_problem(fh.read())
    manifest = parse_manifest(
        '{"actions": [{"action": "fly a b", "estimators": []}]}'
    )
    with pytest.raises(GroundingError, match="fly a b"):
        ground(domain, problem, manifest)


def test_default_chain_fills_gaps(drive_task):
    # both drive actions have manifest chains; a manifest-free task gets priors
    assert all(len(c) == 2 for c in drive_task.chains)


PIN_DOMAIN = """
(define (domain pin)
  (:requirements :strips :typing)
  (:types car - vehicle vehicle - thing a - b b - a place)
  (:predicates (at ?v - vehicle ?l - place) (free ?t - b)
               (tagged ?v - thing) (untagged ?v - thing))
  (:action move :parameters (?v - vehicle ?from ?to - place)
    :precondition (at ?v ?from) :effect (and (at ?v ?to) (not (at ?v ?from))))
  (:action tag :parameters (?t - b ?v - thing)
    :precondition (free ?t) :effect (and (tagged ?v) (not (untagged ?v)))))
"""

PIN_PROBLEM = """
(define (problem pin1) (:domain pin)
  (:objects c1 - car v1 - vehicle p1 p2 - place x - a)
  (:init (at c1 p1) (at v1 p2) (free x))
  (:goal (and (at c1 p2) (tagged v1))))
"""

PIN_MANIFEST = {
    "default": {"prior": [0.5, None]},
    "actions": [
        {"action": "tag x v1", "true_cost": 3.0},
        {"action": "move c1 p1 p2", "true_cost": 5.0, "prior": [1.0, 20.0],
         "estimators": [{"time_ms": 1.0, "interval": [2.0, 8.0]},
                        {"time_ms": 10.0, "interval": [5.0, 5.0]}]},
        {"action": "move c1 p2 p1", "true_cost": 6.0,
         "estimators": [{"time_ms": 2.0, "interval": [1.0, 9.0]}]},
        {"action": "move v1 p2 p1", "estimators": []},
        {"action": "tag x c1", "true_cost": 4.0},
    ],
}


def test_grounding_pins_fact_and_action_order():
    # Fact ids follow first use (init, goal, then each action's pre, add and
    # delete atoms); they set successor order and A*'s FIFO ties, so every
    # same-seed report depends on them. car < vehicle < thing is a two-level
    # hierarchy, a - b - a a cycle, and move with ?from = ?to contradicts itself.
    manifest = parse_manifest(json.dumps(PIN_MANIFEST))
    task = ground(parse_domain(PIN_DOMAIN), parse_problem(PIN_PROBLEM), manifest)
    assert task.facts == (
        "at c1 p1", "at v1 p2", "free x", "at c1 p2", "tagged v1",
        "at v1 p1", "tagged c1", "untagged c1", "untagged v1",
    )
    assert (task.init, task.goal) == ({0, 1, 2}, {3, 4})
    assert [(a.id, a.name, a.pre, a.add, a.delete) for a in task.actions] == [
        (0, "move c1 p1 p2", {0}, {3}, {0}),
        (1, "move c1 p2 p1", {3}, {0}, {3}),
        (2, "move v1 p1 p2", {5}, {1}, {5}),
        (3, "move v1 p2 p1", {1}, {5}, {1}),
        (4, "tag x c1", {2}, {6}, {7}),
        (5, "tag x v1", {2}, {4}, {8}),
    ]
    default = CostInterval(0.5, INF)
    assert task.priors == (CostInterval(1.0, 20.0), default, default, default, default, default)
    assert task.chains == (
        (ManifestLevel(1.0, CostInterval(2.0, 8.0)), ManifestLevel(10.0, CostInterval(5.0, 5.0))),
        (ManifestLevel(2.0, CostInterval(1.0, 9.0)),),
        (), (), (), (),
    )
    by_action = manifest.by_action()
    assert task.chains[0] is by_action["move c1 p1 p2"].levels  # the manifest's own records
    assert task.true_costs == {0: 5.0, 1: 6.0, 4: 4.0, 5: 3.0}


def brute_force_bindings(schema, objects_by_type):
    """Independent oracle: nested loops over object pools, then the
    same self-contradiction filter grounding applies."""
    pools = [objects_by_type.get(t, []) for _, t in schema.params]
    count = 0
    for combo in itertools.product(*pools):
        binding = {v: o for (v, _), o in zip(schema.params, combo)}
        add = {a.ground(binding) for a in schema.add}
        dele = {a.ground(binding) for a in schema.delete}
        if add & dele:
            continue
        count += 1
    return count


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grounding_count_matches_brute_force(data):
    n_types = data.draw(st.integers(1, 3))
    types = tuple((f"t{i}", "object") for i in range(n_types))
    objects = []
    for i in range(data.draw(st.integers(0, 5))):
        objects.append((f"o{i}", f"t{data.draw(st.integers(0, n_types - 1))}"))
    n_params = data.draw(st.integers(0, 3))
    params = tuple((f"?x{j}", f"t{data.draw(st.integers(0, n_types - 1))}") for j in range(n_params))
    pred = PredicateSchema("p", (("?v", "object"),))
    args0 = tuple(f"?x{j}" for j in range(n_params))
    schema = ActionSchema(
        name="go",
        params=params,
        pre=(Atom("p", args0[:1]),) if n_params else (),
        add=(Atom("p", args0[-1:]),) if n_params else (Atom("p", ()),),
        delete=(Atom("p", args0[:1]),) if n_params else (),
    )
    domain = DomainAst("g", (":strips", ":typing"), types, (pred,), (schema,))
    problem = ProblemAst("g1", "g", tuple(objects), (), ())
    task = ground(domain, problem, EMPTY)

    objects_by_type = {}
    for obj, typ in objects:
        objects_by_type.setdefault(typ, []).append(obj)
    assert task.n_actions == brute_force_bindings(schema, objects_by_type)


# ---------------------------------------------------------------------------
# Pretty-printer round trip

def test_domain_roundtrip(drive_paths):
    with open(drive_paths["domain"]) as fh:
        domain = parse_domain(fh.read())
    assert parse_domain(print_domain(domain)) == domain


def test_problem_roundtrip(drive_paths):
    with open(drive_paths["problem"]) as fh:
        problem = parse_problem(fh.read())
    assert parse_problem(print_problem(problem)) == problem


names = st.from_regex(r"[a-z][a-z0-9\-]{0,6}", fullmatch=True).filter(
    lambda name: name not in RESERVED_HEADS
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_generated_domain_roundtrip(data):
    types = tuple((t, "object") for t in data.draw(
        st.lists(names, min_size=1, max_size=3, unique=True)))
    type_names = [t for t, _ in types]
    preds = []
    for pname in data.draw(st.lists(names, min_size=1, max_size=3, unique=True)):
        arity = data.draw(st.integers(0, 2))
        preds.append(PredicateSchema(
            pname, tuple((f"?v{i}", data.draw(st.sampled_from(type_names))) for i in range(arity))
        ))
    actions = []
    for aname in data.draw(st.lists(names, min_size=1, max_size=2, unique=True)):
        params = tuple(
            (f"?x{i}", data.draw(st.sampled_from(type_names)))
            for i in range(data.draw(st.integers(0, 2)))
        )
        vars_ = tuple(v for v, _ in params)
        def atom():
            p = data.draw(st.sampled_from(preds))
            return Atom(p.name, tuple(
                data.draw(st.sampled_from(vars_)) if vars_ else "obj"
                for _ in p.params
            ))
        actions.append(ActionSchema(
            name=aname, params=params,
            pre=(atom(),), add=(atom(),), delete=(atom(),),
        ))
    domain = DomainAst("gen", (":strips", ":typing"), types, tuple(preds), tuple(actions))
    assert parse_domain(print_domain(domain)) == domain
