"""PDDL frontend: parse a STRIPS+typing subset and ground to a PlanningTask.

Supported grammar:

    (define (domain D)
      (:requirements :strips :typing)
      (:types t1 t2 - parent ...)
      (:predicates (p ?x - t ...) ...)
      (:action a
        :parameters (?x - t ...)
        :precondition (and (p ?x) ...)          ; or a single atom
        :effect (and (q ?x) (not (p ?x)) ...))) ; or a single literal

    (define (problem P)
      (:domain D)
      (:objects o1 o2 - t ...)
      (:init (p o1) ...)
      (:goal (and (p o2) ...)))

Anything else is rejected with an unsupported-feature error. Costs never
come from PDDL; they come from the estimator manifest.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import GroundingError, PddlSyntaxError, UnsupportedFeatureError
from .manifest import EstimatorManifest
from .task import ChainSpec, Fact, GroundAction, PlanningTask

SUPPORTED_REQUIREMENTS = {":strips", ":typing"}
ROOT_TYPE = "object"
#: Words the parser reads as formula heads, never as predicate names.
RESERVED_HEADS = frozenset({"and", "not", "or", "forall", "exists", "when", "="})


# ---------------------------------------------------------------------------
# S-expression reader

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


_TOKEN = re.compile(r";|[()]|[^ \t\r\n();]+")  # a comment start, a parenthesis or a word


def _tokenize(text: str):
    tokens = []
    for line, chars in enumerate(text.split("\n"), 1):
        for match in _TOKEN.finditer(chars):
            if match.group() == ";":
                break  # the comment runs to the end of the line
            tokens.append(_Token(match.group().lower(), line, match.start() + 1))
    return tokens


def _read_sexpr(tokens, pos):
    if pos >= len(tokens):
        raise PddlSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok.text == ")":
        raise PddlSyntaxError("unexpected ')'", tok.line, tok.column)
    if tok.text != "(":
        return tok, pos + 1
    items = []
    pos += 1
    while True:
        if pos >= len(tokens):
            raise PddlSyntaxError("missing ')'", tok.line, tok.column)
        if tokens[pos].text == ")":
            return items, pos + 1
        item, pos = _read_sexpr(tokens, pos)
        items.append(item)


def _parse_sexpr(text: str):
    tokens = _tokenize(text)
    expr, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise PddlSyntaxError("trailing tokens after top-level form", extra.line, extra.column)
    return expr


def _word(item, context: str) -> str:
    if not isinstance(item, _Token):
        raise PddlSyntaxError(f"expected a symbol in {context}, got a list")
    return item.text


# ---------------------------------------------------------------------------
# ASTs

@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple  # variable (?x) or object names

    def ground(self, binding: dict) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(a, a) for a in self.args))


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    params: tuple  # of (var, type)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple  # of (var, type)
    pre: tuple  # of Atom
    add: tuple  # of Atom
    delete: tuple  # of Atom


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: tuple
    types: tuple  # of (type, parent)
    predicates: tuple  # of PredicateSchema
    actions: tuple  # of ActionSchema


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain: str
    objects: tuple  # of (object, type)
    init: tuple  # of Atom
    goal: tuple  # of Atom


# ---------------------------------------------------------------------------
# Parsing helpers

def _parse_typed_list(items, context: str):
    """Parse 'a b - t c - u d' into ((a,t),(b,t),(c,u),(d,object))."""
    out = []
    pending = []
    i = 0
    while i < len(items):
        word = _word(items[i], context)
        if word == "-":
            if i + 1 >= len(items):
                raise PddlSyntaxError(f"dangling '-' in {context}")
            typ = _word(items[i + 1], context)
            out.extend((name, typ) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(word)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return tuple(out)


def _parse_atom(expr, context: str) -> Atom:
    if not isinstance(expr, list) or not expr:
        raise PddlSyntaxError(f"expected an atom in {context}")
    head = _word(expr[0], context)
    if head in RESERVED_HEADS:
        raise UnsupportedFeatureError(f"'{head}' not allowed as a predicate in {context}")
    return Atom(head, tuple(_word(a, context) for a in expr[1:]))


def _parse_conjunction(expr, context: str):
    """A single atom, or (and atom...); returns a tuple of atoms."""
    if isinstance(expr, list) and expr and isinstance(expr[0], _Token) and expr[0].text == "and":
        return tuple(_parse_atom(e, context) for e in expr[1:])
    return (_parse_atom(expr, context),)


def _parse_effect(expr, context: str):
    """Conjunction of literals; returns (add, delete) atom tuples."""
    if isinstance(expr, list) and expr and isinstance(expr[0], _Token) and expr[0].text == "and":
        literals = expr[1:]
    else:
        literals = [expr]
    add, delete = [], []
    for lit in literals:
        if (
            isinstance(lit, list)
            and lit
            and isinstance(lit[0], _Token)
            and lit[0].text == "not"
        ):
            if len(lit) != 2:
                raise PddlSyntaxError(f"malformed (not ...) in {context}")
            delete.append(_parse_atom(lit[1], context))
        else:
            add.append(_parse_atom(lit, context))
    return tuple(add), tuple(delete)


def _check_schema_vars(schema: ActionSchema) -> None:
    declared = {v for v, _ in schema.params}
    for atom in schema.pre + schema.add + schema.delete:
        for arg in atom.args:
            if arg.startswith("?") and arg not in declared:
                raise PddlSyntaxError(
                    f"action {schema.name}: variable {arg} not declared in parameters"
                )


def parse_domain(text: str) -> DomainAst:
    expr = _parse_sexpr(text)
    if not isinstance(expr, list) or _word(expr[0], "domain") != "define":
        raise PddlSyntaxError("domain file must start with (define ...)")
    header = expr[1]
    if not isinstance(header, list) or _word(header[0], "domain header") != "domain":
        raise PddlSyntaxError("expected (domain NAME)")
    name = _word(header[1], "domain name")

    requirements = []
    types = []
    predicates = []
    actions = []
    for section in expr[2:]:
        if not isinstance(section, list) or not section:
            raise PddlSyntaxError("malformed domain section")
        key = _word(section[0], "domain section")
        if key == ":requirements":
            for req in section[1:]:
                word = _word(req, ":requirements")
                if word not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeatureError(f"requirement {word} is not supported")
                requirements.append(word)
        elif key == ":types":
            types.extend(_parse_typed_list(section[1:], ":types"))
        elif key == ":predicates":
            for pred in section[1:]:
                if not isinstance(pred, list) or not pred:
                    raise PddlSyntaxError("malformed predicate schema")
                pname = _word(pred[0], ":predicates")
                params = _parse_typed_list(pred[1:], f"predicate {pname}")
                predicates.append(PredicateSchema(pname, params))
        elif key == ":action":
            actions.append(_parse_action(section))
        else:
            raise UnsupportedFeatureError(f"domain section {key} is not supported")

    domain = DomainAst(
        name=name,
        requirements=tuple(requirements),
        types=tuple(types),
        predicates=tuple(predicates),
        actions=tuple(actions),
    )
    for schema in domain.actions:
        _check_schema_vars(schema)
    return domain


def _parse_action(section) -> ActionSchema:
    name = _word(section[1], ":action")
    params = ()
    pre = ()
    add, delete = (), ()
    i = 2
    while i < len(section):
        key = _word(section[i], f"action {name}")
        if i + 1 >= len(section):
            raise PddlSyntaxError(f"action {name}: {key} missing a value")
        value = section[i + 1]
        if key == ":parameters":
            if not isinstance(value, list):
                raise PddlSyntaxError(f"action {name}: :parameters must be a list")
            params = _parse_typed_list(value, f"action {name} parameters")
        elif key == ":precondition":
            pre = _parse_conjunction(value, f"action {name} precondition")
        elif key == ":effect":
            add, delete = _parse_effect(value, f"action {name} effect")
        else:
            raise UnsupportedFeatureError(f"action {name}: {key} is not supported")
        i += 2
    return ActionSchema(name=name, params=params, pre=pre, add=add, delete=delete)


def parse_problem(text: str) -> ProblemAst:
    expr = _parse_sexpr(text)
    if not isinstance(expr, list) or _word(expr[0], "problem") != "define":
        raise PddlSyntaxError("problem file must start with (define ...)")
    header = expr[1]
    if not isinstance(header, list) or _word(header[0], "problem header") != "problem":
        raise PddlSyntaxError("expected (problem NAME)")
    name = _word(header[1], "problem name")

    domain = None
    objects = ()
    init = []
    goal = ()
    for section in expr[2:]:
        if not isinstance(section, list) or not section:
            raise PddlSyntaxError("malformed problem section")
        key = _word(section[0], "problem section")
        if key == ":domain":
            domain = _word(section[1], ":domain")
        elif key == ":objects":
            objects = _parse_typed_list(section[1:], ":objects")
        elif key == ":init":
            init = [_parse_atom(a, ":init") for a in section[1:]]
        elif key == ":goal":
            if len(section) != 2:
                raise PddlSyntaxError(":goal takes exactly one formula")
            goal = _parse_conjunction(section[1], ":goal")
        else:
            raise UnsupportedFeatureError(f"problem section {key} is not supported")
    if domain is None:
        raise PddlSyntaxError(f"problem {name}: missing (:domain ...)")
    return ProblemAst(name=name, domain=domain, objects=objects, init=tuple(init), goal=goal)


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through the parser)

def _fmt_typed_list(pairs) -> str:
    return " ".join(f"{name} - {typ}" for name, typ in pairs)


def _fmt_atom(atom: Atom) -> str:
    return "(" + " ".join((atom.predicate,) + atom.args) + ")"


def print_domain(domain: DomainAst) -> str:
    lines = [f"(define (domain {domain.name})"]
    if domain.requirements:
        lines.append("  (:requirements " + " ".join(domain.requirements) + ")")
    if domain.types:
        lines.append("  (:types " + _fmt_typed_list(domain.types) + ")")
    preds = " ".join(
        f"({p.name}{' ' if p.params else ''}{_fmt_typed_list(p.params)})"
        for p in domain.predicates
    )
    lines.append(f"  (:predicates {preds})")
    for a in domain.actions:
        lines.append(f"  (:action {a.name}")
        lines.append(f"    :parameters ({_fmt_typed_list(a.params)})")
        lines.append("    :precondition (and " + " ".join(map(_fmt_atom, a.pre)) + ")")
        effects = [_fmt_atom(x) for x in a.add] + [f"(not {_fmt_atom(x)})" for x in a.delete]
        lines.append("    :effect (and " + " ".join(effects) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def print_problem(problem: ProblemAst) -> str:
    lines = [
        f"(define (problem {problem.name})",
        f"  (:domain {problem.domain})",
    ]
    if problem.objects:
        lines.append("  (:objects " + _fmt_typed_list(problem.objects) + ")")
    lines.append("  (:init " + " ".join(map(_fmt_atom, problem.init)) + ")")
    lines.append("  (:goal (and " + " ".join(map(_fmt_atom, problem.goal)) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Grounding

def _type_closure(types):
    """type -> set of itself plus all descendants."""
    parents = dict(types)
    closure = {ROOT_TYPE: {ROOT_TYPE}}
    names = set(parents) | set(parents.values()) | {ROOT_TYPE}
    for t in names:
        closure.setdefault(t, {t})

    def ancestors(t):
        seen = [t]
        while t in parents and parents[t] not in seen:
            t = parents[t]
            seen.append(t)
        if ROOT_TYPE not in seen:
            seen.append(ROOT_TYPE)
        return seen

    for t in names:
        for anc in ancestors(t):
            closure.setdefault(anc, {anc}).add(t)
    return closure


def enumerate_bindings(schema: ActionSchema, objects_by_type: dict):
    """All type-consistent bindings whose ground add/delete sets are disjoint.

    Bindings that would make an action add and delete the same fact are
    self-contradictory under STRIPS and are skipped (e.g. moving from a
    location to itself).
    """
    pools = []
    for var, typ in schema.params:
        pools.append([(var, obj) for obj in objects_by_type.get(typ, ())])
    for combo in itertools.product(*pools):
        binding = dict(combo)
        add = {a.ground(binding) for a in schema.add}
        delete = {a.ground(binding) for a in schema.delete}
        if add & delete:
            continue
        yield binding


def ground(
    domain: DomainAst,
    problem: ProblemAst,
    manifest: EstimatorManifest,
    name: str | None = None,
) -> PlanningTask:
    """Instantiate schemas over typed objects; attach estimator chains."""
    if problem.domain != domain.name:
        raise GroundingError(
            f"problem references domain {problem.domain!r}, parsed {domain.name!r}"
        )
    closure = _type_closure(domain.types)
    known_types = set(closure)
    objects_by_type = {t: [] for t in known_types}
    for obj, typ in problem.objects:
        if typ not in known_types:
            raise GroundingError(f"object {obj}: undefined type {typ}")
        for t, members in closure.items():
            if typ in members:
                objects_by_type[t].append(obj)
    for _, typ in itertools.chain(
        (p for schema in domain.predicates for p in schema.params),
        (p for schema in domain.actions for p in schema.params),
    ):
        if typ not in known_types:
            raise GroundingError(f"undefined type {typ}")

    fact_ids: dict = {}

    def fact_id(atom: Atom) -> int:
        key = " ".join((atom.predicate,) + atom.args)
        if key not in fact_ids:
            fact_ids[key] = len(fact_ids)
        return fact_ids[key]

    init = frozenset(fact_id(a) for a in problem.init)
    goal = frozenset(fact_id(a) for a in problem.goal)

    actions = []
    for schema in domain.actions:
        for binding in enumerate_bindings(schema, objects_by_type):
            args = tuple(binding[v] for v, _ in schema.params)
            gname = " ".join((schema.name,) + args)
            actions.append(
                GroundAction(
                    id=len(actions),
                    name=gname,
                    pre=frozenset(fact_id(a.ground(binding)) for a in schema.pre),
                    add=frozenset(fact_id(a.ground(binding)) for a in schema.add),
                    delete=frozenset(fact_id(a.ground(binding)) for a in schema.delete),
                )
            )

    by_name = {a.name: a for a in actions}
    entries = manifest.by_action()
    for entry_name in entries:
        if entry_name not in by_name:
            raise GroundingError(
                f"manifest entry {entry_name!r} names no ground action"
            )

    chains = []
    true_costs = {}
    for action in actions:
        entry = entries.get(action.name)
        if entry is None:
            chains.append(
                ChainSpec(action_id=action.id, prior=manifest.default_prior, levels=())
            )
        else:
            chains.append(
                ChainSpec(
                    action_id=action.id,
                    prior=entry.prior or manifest.default_prior,
                    levels=tuple((lvl.time_ms, lvl.interval) for lvl in entry.levels),
                )
            )
            if entry.true_cost is not None:
                true_costs[action.id] = entry.true_cost

    facts = tuple(Fact(id=i, name=n) for n, i in fact_ids.items())
    return PlanningTask(
        name=name or f"{domain.name}/{problem.name}",
        facts=facts,
        init=init,
        goal=goal,
        actions=tuple(actions),
        chains=tuple(chains),
        true_costs=true_costs if true_costs else None,
    )
