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
from .task import GroundAction, PlanningTask

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

def _fact_name(atom: Atom, binding: dict) -> str:
    return " ".join((atom.predicate, *(binding.get(x, x) for x in atom.args)))


def ground(
    domain: DomainAst,
    problem: ProblemAst,
    manifest: EstimatorManifest,
    name: str | None = None,
) -> PlanningTask:
    """Instantiate schemas over typed objects in one pass; attach the manifest.

    Each binding's atoms are keyed once. A binding whose add and delete
    atoms meet would add and delete the same fact, which is
    self-contradictory under STRIPS, so it is skipped (e.g. moving from a
    location to itself). Fact ids are numbered in order of first use: init,
    goal, then each action's pre, add and delete atoms. An action's prior
    is its manifest entry's prior or else the manifest default; its chain is
    the entry's own levels, empty when it has no entry.
    """
    if problem.domain != domain.name:
        raise GroundingError(
            f"problem references domain {problem.domain!r}, parsed {domain.name!r}"
        )
    parents = dict(domain.types)
    ancestors = {}  # type -> itself, then its ancestors up to the root or a cycle
    for typ in {ROOT_TYPE, *parents, *parents.values()}:
        line = [typ]
        while line[-1] in parents and parents[line[-1]] not in line:
            line.append(parents[line[-1]])
        ancestors[typ] = line if ROOT_TYPE in line else line + [ROOT_TYPE]
    objects_by_type = {typ: [] for typ in ancestors}
    for obj, typ in problem.objects:
        if typ not in ancestors:
            raise GroundingError(f"object {obj}: undefined type {typ}")
        for t in ancestors[typ]:
            objects_by_type[t].append(obj)
    for schema in (*domain.predicates, *domain.actions):
        for _, typ in schema.params:
            if typ not in ancestors:
                raise GroundingError(f"undefined type {typ}")

    fact_ids: dict = {}  # fact name -> id, in id order

    def fact_id(key: str) -> int:
        return fact_ids.setdefault(key, len(fact_ids))

    init = frozenset(fact_id(_fact_name(a, {})) for a in problem.init)
    goal = frozenset(fact_id(_fact_name(a, {})) for a in problem.goal)

    actions = []
    for schema in domain.actions:
        variables = [v for v, _ in schema.params]
        for combo in itertools.product(*(objects_by_type[t] for _, t in schema.params)):
            binding = dict(zip(variables, combo))
            pre, add, delete = (
                [_fact_name(a, binding) for a in atoms]
                for atoms in (schema.pre, schema.add, schema.delete)
            )
            if not set(add).isdisjoint(delete):
                continue
            actions.append(GroundAction(
                id=len(actions),
                name=" ".join((schema.name, *(binding[v] for v in variables))),
                pre=frozenset(map(fact_id, pre)),
                add=frozenset(map(fact_id, add)),
                delete=frozenset(map(fact_id, delete)),
            ))

    entries = manifest.by_action()
    names = {a.name for a in actions}
    for entry_name in entries:
        if entry_name not in names:
            raise GroundingError(f"manifest entry {entry_name!r} names no ground action")
    found = [entries.get(a.name) for a in actions]
    true_costs = {
        i: e.true_cost for i, e in enumerate(found) if e and e.true_cost is not None
    }
    return PlanningTask(
        name=name or f"{domain.name}/{problem.name}",
        facts=tuple(fact_ids),
        init=init,
        goal=goal,
        actions=tuple(actions),
        priors=tuple(e.prior if e and e.prior else manifest.default_prior for e in found),
        chains=tuple(e.levels if e else () for e in found),
        true_costs=true_costs or None,
    )
