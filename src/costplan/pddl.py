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
from .task import GroundAction, PlanningTask, mask_of

SUPPORTED_REQUIREMENTS = {":strips", ":typing"}
ROOT_TYPE = "object"
#: Words the parser reads as formula heads, never as predicate names.
RESERVED_HEADS = frozenset({"and", "not", "or", "forall", "exists", "when", "="})


# ---------------------------------------------------------------------------
# S-expression reader

#: A comment (matched as "" to the end of its line), "(", ")" or a word.
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


def _position(text: str, index: int) -> tuple:
    """(line, column) of the index-th token; re-scans the original text, as
    lower-casing can change lengths but makes no separator."""
    start = next(itertools.islice(_TOKEN.finditer(text), index, None)).start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _parse_sexpr(text: str):
    """The one top-level form as nested lists of lower-case words (str).

    The loop keeps no token index: an error finds its token's index afterwards.
    """
    tokens = _TOKEN.findall(text.lower())
    items = top = []
    stack = []  # the enclosing list of each open "("
    rest = iter(tokens)
    for tok in rest:
        if tok == "(":
            stack.append(items)
            items.append(items := [])  # into the enclosing list, then descend
        elif tok == ")":
            if not stack:  # the loop ends when the form closes, so this is its first token
                raise PddlSyntaxError("unexpected ')'", *_position(text, _first_word(tokens)))
            items = stack.pop()
            if not stack:
                break
        elif tok:  # "" is a comment
            items.append(tok)
            if not stack:
                break  # a bare word is the whole form
    else:
        if stack:
            raise PddlSyntaxError("missing ')'", *_position(text, _innermost_open(tokens)))
        raise PddlSyntaxError("unexpected end of input")
    trailing = list(rest)
    if any(trailing):
        index = len(tokens) - len(trailing) + _first_word(trailing)
        raise PddlSyntaxError("trailing tokens after top-level form", *_position(text, index))
    return top[0]


def _first_word(tokens: list) -> int:
    """Index of the first token that is not a comment."""
    return next(index for index, tok in enumerate(tokens) if tok)


def _innermost_open(tokens: list) -> int:
    """Index of the last "(" that no later ")" closes."""
    depth = 0
    for index in range(len(tokens) - 1, -1, -1):
        if tokens[index] == ")":
            depth += 1
        elif tokens[index] == "(":
            if not depth:
                return index
            depth -= 1


def _word(item, context: tuple) -> str:
    if not isinstance(item, str):
        raise _not_a_symbol(context)
    return item


def _not_a_symbol(context: tuple) -> PddlSyntaxError:
    """The error for a list where a word belongs; a context is a tuple of
    words, joined only when an error is raised."""
    return PddlSyntaxError(f"expected a symbol in {' '.join(context)}, got a list")


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

def _parse_typed_list(items, context: tuple):
    """Parse 'a b - t c - u d' into ((a,t),(b,t),(c,u),(d,object))."""
    if not items:
        return ()
    if list in map(type, items):
        raise _not_a_symbol(context)
    out = []
    pending = []
    i = 0
    while i < len(items):
        word = items[i]
        if word == "-":
            if i + 1 >= len(items):
                raise PddlSyntaxError(f"dangling '-' in {' '.join(context)}")
            typ = items[i + 1]
            out.extend((name, typ) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(word)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return tuple(out)


def _parse_atom(expr, context: tuple) -> Atom:
    if not isinstance(expr, list) or not expr:
        raise PddlSyntaxError(f"expected an atom in {' '.join(context)}")
    head = expr[0]
    if type(head) is str and head in RESERVED_HEADS:
        raise UnsupportedFeatureError(
            f"'{head}' not allowed as a predicate in {' '.join(context)}")
    if list in map(type, expr):  # every word in one pass
        raise _not_a_symbol(context)
    return Atom(head, tuple(expr[1:]))


def _parse_conjunction(expr, context: tuple):
    """A single atom, or (and atom...); returns a tuple of atoms."""
    if isinstance(expr, list) and expr and expr[0] == "and":
        return tuple([_parse_atom(e, context) for e in expr[1:]])
    return (_parse_atom(expr, context),)


def _parse_effect(expr, context: tuple):
    """Conjunction of literals; returns (add, delete) atom tuples."""
    if isinstance(expr, list) and expr and expr[0] == "and":
        literals = expr[1:]
    else:
        literals = [expr]
    add, delete = [], []
    for lit in literals:
        if isinstance(lit, list) and lit and lit[0] == "not":
            if len(lit) != 2:
                raise PddlSyntaxError(f"malformed (not ...) in {' '.join(context)}")
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


def _define(expr, kind: str) -> str:
    """NAME of a top-level (define (KIND NAME) ...) form, kind "domain" or "problem"."""
    if not isinstance(expr, list) or len(expr) < 2 or _word(expr[0], (kind,)) != "define":
        raise PddlSyntaxError(f"{kind} file must start with (define ({kind} NAME) ...)")
    header = expr[1]
    if not isinstance(header, list) or len(header) < 2 or _word(header[0], (kind,)) != kind:
        raise PddlSyntaxError(f"expected ({kind} NAME)")
    return _word(header[1], (kind, "name"))


def parse_domain(text: str) -> DomainAst:
    expr = _parse_sexpr(text)
    name = _define(expr, "domain")

    requirements = []
    types = []
    predicates = []
    actions = []
    for section in expr[2:]:
        if not isinstance(section, list) or not section:
            raise PddlSyntaxError("malformed domain section")
        key = _word(section[0], ("domain section",))
        if key == ":requirements":
            for req in section[1:]:
                word = _word(req, (":requirements",))
                if word not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeatureError(f"requirement {word} is not supported")
                requirements.append(word)
        elif key == ":types":
            types.extend(_parse_typed_list(section[1:], (":types",)))
        elif key == ":predicates":
            for pred in section[1:]:
                if not isinstance(pred, list) or not pred:
                    raise PddlSyntaxError("malformed predicate schema")
                pname = _word(pred[0], (":predicates",))
                params = _parse_typed_list(pred[1:], ("predicate", pname))
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
    if len(section) < 2:
        raise PddlSyntaxError(":action needs a name")
    name = _word(section[1], (":action",))
    params = ()
    pre = ()
    add, delete = (), ()
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, str):
            raise _not_a_symbol(("action", name))
        if i + 1 >= len(section):
            raise PddlSyntaxError(f"action {name}: {key} missing a value")
        value = section[i + 1]
        if key == ":parameters":
            if not isinstance(value, list):
                raise PddlSyntaxError(f"action {name}: :parameters must be a list")
            params = _parse_typed_list(value, ("action", name, "parameters"))
        elif key == ":precondition":
            pre = _parse_conjunction(value, ("action", name, "precondition"))
        elif key == ":effect":
            add, delete = _parse_effect(value, ("action", name, "effect"))
        else:
            raise UnsupportedFeatureError(f"action {name}: {key} is not supported")
        i += 2
    return ActionSchema(name, params, pre, add, delete)


def parse_problem(text: str) -> ProblemAst:
    expr = _parse_sexpr(text)
    name = _define(expr, "problem")

    domain = None
    objects = ()
    init = []
    goal = ()
    for section in expr[2:]:
        if not isinstance(section, list) or not section:
            raise PddlSyntaxError("malformed problem section")
        key = _word(section[0], ("problem section",))
        if key == ":domain":
            if len(section) != 2:
                raise PddlSyntaxError(":domain takes exactly one name")
            domain = _word(section[1], (":domain",))
        elif key == ":objects":
            objects = _parse_typed_list(section[1:], (":objects",))
        elif key == ":init":
            init = [_parse_atom(a, (":init",)) for a in section[1:]]
        elif key == ":goal":
            if len(section) != 2:
                raise PddlSyntaxError(":goal takes exactly one formula")
            goal = _parse_conjunction(section[1], (":goal",))
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
    goal, then each action's pre, add and delete atoms; fact sets are int
    bitsets over them. An action's prior is its manifest entry's prior or
    else the manifest default; its chain is the entry's own levels, empty
    when it has no entry.
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
    fact_id = fact_ids.setdefault  # fact_id(name, len(fact_ids)) numbers a new name

    init = mask_of(fact_id(_fact_name(a, {}), len(fact_ids)) for a in problem.init)
    goal = mask_of(fact_id(_fact_name(a, {}), len(fact_ids)) for a in problem.goal)

    actions = []
    for schema in domain.actions:
        variables = [v for v, _ in schema.params]
        parts = (schema.pre, schema.add, schema.delete)
        for combo in itertools.product(*(objects_by_type[t] for _, t in schema.params)):
            if variables:
                binding = dict(zip(variables, combo))
                pre, add, delete = [[_fact_name(a, binding) for a in atoms] for atoms in parts]
                action_name = " ".join((schema.name, *(binding[v] for v in variables)))
            else:  # the schema is its one ground action
                pre, add, delete = [
                    [" ".join((a.predicate, *a.args)) for a in atoms] for atoms in parts
                ]
                action_name = schema.name
            if add and delete and not set(add).isdisjoint(delete):
                continue
            masks = []
            for names in (pre, add, delete):
                mask = 0
                for key in names:
                    mask |= 1 << fact_id(key, len(fact_ids))
                masks.append(mask)
            actions.append(GroundAction(len(actions), action_name, *masks))

    entries = manifest.by_action()
    names = {a.name for a in actions}
    if not entries.keys() <= names:
        missing = next(entry_name for entry_name in entries if entry_name not in names)
        raise GroundingError(f"manifest entry {missing!r} names no ground action")
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
