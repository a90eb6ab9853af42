"""Forward-chaining materialization of triple-pattern rules.

Rules are Horn-style: a conjunctive body of triple patterns and a head
of patterns over body variables only.  ``materialize`` extends its
input graph in place to the least fixpoint, with semi-naive iteration:
round 1 joins each rule once over the whole graph; later rounds join
once per body atom, that atom against the previous round's delta and
the others against the whole graph.  Heads never invent terms, so the
fixpoint always terminates.

``join`` is the one basic-graph-pattern executor, shared with
``query.evaluate``.  ``plan`` orders its body greedily by cardinality:
each atom is counted on its own graph, through ``Graph.count``, which
counts a pattern once per graph state, and the next atom is the
smallest of those connected to the atoms already placed.  ``join`` then
extends its solutions atom by atom through ``Graph.extend``.  A solution
is a row, a tuple of terms indexed by slot, and ``materialize``
instantiates rule heads from those slots.

Rule files (``parse_rules``/``export_rules``) write one rule as
``name: s p o & s p o => s p o .``, with ``?variables`` and terms read
and written as in Turtle by ``serdes``; a malformed file raises
``RuleSyntaxError`` at a line and column.  The builtin rules are one
text in that syntax, ``BUILTIN_RULES``, and ``builtin_ruleset`` reads it
with the default prefixes, whatever prefixes a caller's rule file uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .rdf import Graph, PrefixMap, is_iri, is_literal
from .serdes import PositionedError, TokenStream, term_to_ttl


class RuleError(Exception):
    """A malformed rule or rule set.  A fault of one rule carries that
    rule and the part at fault: ``"name"`` for a repeated name, ``"body"``
    for an empty body, or the unbound head ``Var``."""

    def __init__(self, message: str, rule: Optional[Rule] = None, part=None):
        super().__init__(message)
        self.rule = rule
        self.part = part


class RuleSyntaxError(PositionedError, RuleError):
    pass


class Var:
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "?%s" % self.name


Pattern = tuple  # (Term | Var, Term | Var, Term | Var)


def pattern_vars(p: Pattern) -> set[str]:
    return {t.name for t in p if isinstance(t, Var)}


@dataclass(frozen=True)
class Rule:
    name: str
    body: tuple[Pattern, ...]
    head: tuple[Pattern, ...]

    def validate(self) -> None:
        if not self.body:
            raise RuleError("rule %s: empty body" % self.name, self, "body")
        bound = set().union(*map(pattern_vars, self.body))
        for p in self.head:
            for t in p:
                if isinstance(t, Var) and t.name not in bound:
                    raise RuleError("rule %s: head variable %s not bound in body"
                                    % (self.name, t), self, t)


@dataclass
class RuleSet:
    rules: list[Rule]

    def __post_init__(self):
        names = set()
        for r in self.rules:
            if r.name in names:
                raise RuleError("duplicate rule name %r" % r.name, r, "name")
            names.add(r.name)
            r.validate()

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


# ``measures-disposition`` and its ``-via-plan`` twin derive one shortcut,
# an item's measured disposition, over the executed process and over the
# plan that the process realizes.
BUILTIN_RULES = """\
subclass-transitivity: ?c rdfs:subClassOf ?d & ?d rdfs:subClassOf ?e
    => ?c rdfs:subClassOf ?e .
type-propagation: ?x rdf:type ?c & ?c rdfs:subClassOf ?d => ?x rdf:type ?d .
measures-disposition:
    ?proc pato:executes ?item & ?proc obi:has_specified_output ?datum
    & ?datum obi:has_value_specification ?vs & ?vs obi:specifies_value_of ?disp
    => ?item more:measures_disposition ?disp .
measures-disposition-via-plan:
    ?plan bfo:concretizes ?item & ?proc obi:realizes ?plan
    & ?proc obi:has_specified_output ?datum
    & ?datum obi:has_value_specification ?vs & ?vs obi:specifies_value_of ?disp
    => ?item more:measures_disposition ?disp .
"""


def builtin_ruleset() -> RuleSet:
    """``BUILTIN_RULES``, read with ``PrefixMap.default()``."""
    return _RuleParser(BUILTIN_RULES, PrefixMap.default()).rule_set([])


# ---------------------------------------------------------------------------
# Evaluation

def plan(graphs: Sequence[Graph], body: Sequence[Pattern]) -> list[tuple[int, int]]:
    """The join order of ``body`` as ``(atom index, estimate)`` pairs.

    Each atom is counted once, with its variables as wildcards, against
    its own graph ``graphs[i]``.  The next atom is one that shares a
    variable with the atoms already placed (any atom, if none does), and
    among those the one with the fewest matches; ties keep body order.
    """
    remaining = [(i, pattern_vars(atom),
                  g.count(*(None if isinstance(t, Var) else t for t in atom)))
                 for i, (g, atom) in enumerate(zip(graphs, body))]
    order = []
    bound: set[str] = set()
    while remaining:
        best = min(remaining, key=lambda entry: (not (entry[1] & bound), entry[2]))
        remaining.remove(best)
        order.append((best[0], best[2]))
        bound |= best[1]
    return order


def join(graphs: Sequence[Graph], body: Sequence[Pattern]) -> tuple[dict, list[tuple]]:
    """Every solution under which each atom ``body[i]`` matches a triple of
    ``graphs[i]``, joining the atoms in the order ``plan`` gives.

    Returns ``(slots, rows)``.  A row starts with the body's constants,
    then holds each variable in the order the atoms bind it; ``slots``
    maps each constant and each ``Var`` to its index in the row.  A
    variable repeated within one atom gets one slot per occurrence, and
    only the rows in which those slots hold the same term are kept.
    """
    slots: dict = {}
    for atom in body:
        for t in atom:
            if not isinstance(t, Var):
                slots.setdefault(t, len(slots))
    rows = [tuple(slots)]
    width = len(slots)
    for i, _ in plan(graphs, body):
        atom = body[i]
        step = tuple(slots.get(t) for t in atom)
        rows = graphs[i].extend(step, rows)
        for t, k in zip(atom, step):
            if k is None:  # a new term, appended at ``width``
                k = slots.setdefault(t, width)
                if k != width:  # a repeat of a variable new in this atom
                    rows = [r for r in rows if r[k] == r[width]]
                width += 1
    return slots, rows


def _derive(full: Graph, graphs: list[Graph], rule: Rule, out: set[tuple]) -> None:
    """Add to ``out`` every head instantiation of ``join(graphs, rule.body)``
    not in ``full``, as a plain ``(s, p, o)`` tuple."""
    slots, rows = join(graphs, rule.body)
    for head in rule.head:
        # head constants the body lacks are put in front of each row
        extra = tuple(t for t in head if t not in slots)
        get = itemgetter(*(slots[t] + len(extra) if t in slots else extra.index(t)
                           for t in head))
        for row in rows:
            t = get(extra + row)
            s, p, _ = t
            if is_literal(s) or not is_iri(p):
                continue  # unrepresentable instantiation
            if t not in full:
                out.add(t)


def materialize(g: Graph, rs: RuleSet) -> Graph:
    """Least fixpoint of ``g`` under ``rs``: extends ``g`` in place and
    returns it.  A caller that still needs the input passes a copy.

    Round 1 joins each rule once over the whole graph.  Each later round
    joins once per body atom, that atom against the previous round's new
    triples and every other atom against the whole graph.  Neither graph
    changes within a round, so ``plan`` counts each atom once per round.
    """
    new: set[tuple] = set()
    for rule in rs:
        _derive(g, [g] * len(rule.body), rule, new)
    while new:
        g.update(new)
        delta = Graph(new)
        new = set()
        for rule in rs:
            for i in range(len(rule.body)):
                graphs = [g] * len(rule.body)
                graphs[i] = delta
                _derive(g, graphs, rule, new)
    return g


# ---------------------------------------------------------------------------
# Rule file syntax:  name: s p o & s p o ... => s p o [& s p o ...] .

class _RuleParser(TokenStream):
    error = RuleSyntaxError
    variable = Var

    def rule_set(self, builtins: list[Rule]) -> RuleSet:
        """The rules of the text, after those ``builtins`` whose names it
        does not use.  A fault ``RuleSet`` finds in a rule of the text is
        raised at its token: the repeated name, the ``=>`` after an empty
        body, or the unbound head variable."""
        rules = []
        at = {}  # id of a rule of the text -> (name offset, '=>' offset, head tokens)
        while self.peek()[0] is not None:
            kind, name, offset = self.next()
            if kind == "pname" and name.endswith(":") and name != ":":
                name = name[:-1]  # "r1:" lexes as a prefixed name, local part empty
            elif kind not in ("word", "pname") or self.next()[:2] != ("pname", ":"):
                self.err("expected a rule name and ':'", offset)
            body = self._patterns()
            arrow = self.peek()[2]
            self.expect_punct("=>")
            start = self.pos
            head = self._patterns()
            rule = Rule(name=name, body=body, head=head)
            at[id(rule)] = offset, arrow, self.tokens[start:self.pos]
            self.expect_punct(".")
            rules.append(rule)
        have = {r.name for r in rules}
        try:
            return RuleSet([r for r in builtins if r.name not in have] + rules)
        except RuleError as e:
            name_at, arrow, head = at[id(e.rule)]
            if e.part == "name":
                self.err(str(e), name_at)
            if e.part == "body":
                self.err(str(e), arrow)
            self.err(str(e), next(o for k, v, o in head
                                  if k == "var" and v[1:] == e.part.name))

    def _patterns(self) -> tuple[Pattern, ...]:
        """The patterns up to '=>' or '.', each optionally followed by '&'."""
        patterns = []
        while self.peek()[:2] not in (("punct", "=>"), ("punct", ".")):
            patterns.append((self.term(), self.term(verb=True), self.term()))
            self.accept("&")
        return tuple(patterns)


def parse_rules(text: str, prefixes: Optional[PrefixMap] = None,
                include_builtins: bool = True) -> RuleSet:
    return _RuleParser(text, prefixes).rule_set(
        builtin_ruleset().rules if include_builtins else [])


def export_rules(rs: RuleSet) -> str:
    """Serialize a rule set back to the line-oriented syntax."""
    pm = PrefixMap.default()

    def patterns(ps):
        return " & ".join(" ".join(
            "?%s" % t.name if isinstance(t, Var) else term_to_ttl(t, pm) for t in p)
            for p in ps)

    return "".join(
        "%s: %s => %s .\n" % (r.name, patterns(r.body), patterns(r.head))
        for r in rs
    )
