"""Forward-chaining materialization of triple-pattern rules.

Rules are Horn-style: a conjunctive body of triple patterns and a head
of patterns over body variables only.  ``materialize`` computes the
least fixpoint with semi-naive iteration: round 1 joins each rule once
over the whole graph; later rounds join once per body atom, that atom
against the previous round's delta and the others against the whole
graph.  Heads never invent terms, so the fixpoint always terminates.

``join`` is the one basic-graph-pattern executor, shared with
``query.evaluate``.  ``plan`` orders its body greedily by cardinality:
each atom is counted once on its own graph, and the next atom is the
smallest of those connected to the atoms already placed.  ``join`` then
compiles the ordered body once and extends the bindings atom by atom
with index walks specialized to which positions are already known.

Rule files (``parse_rules``/``export_rules``) write one rule as
``name: s p o & s p o => s p o .``, with ``?variables`` and terms read
and written as in Turtle by ``serdes``; a malformed file raises
``RuleSyntaxError`` at a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional, Sequence

from . import vocab
from .rdf import Graph, IRI, Literal, PrefixMap, Triple
from .serdes import PositionedError, TokenStream, term_to_ttl


class RuleError(Exception):
    pass


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
            raise RuleError("rule %s: empty body" % self.name)
        bound = set()
        for p in self.body:
            bound |= pattern_vars(p)
        for p in self.head:
            unbound = pattern_vars(p) - bound
            if unbound:
                raise RuleError(
                    "rule %s: head variable(s) not bound in body: %s"
                    % (self.name, ", ".join(sorted(unbound)))
                )


@dataclass
class RuleSet:
    rules: list[Rule]

    def __post_init__(self):
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise RuleError("duplicate rule names")
        for r in self.rules:
            r.validate()

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def builtin_shortcut_rule() -> Rule:
    """Item measures the disposition reached via its executed processes."""
    proc, item, datum, vs, disp = (Var(n) for n in ("proc", "item", "datum", "vs", "disp"))
    return Rule(
        name="measures-disposition",
        body=(
            (proc, vocab.PATO_EXECUTES, item),
            (proc, vocab.OBI_HAS_SPECIFIED_OUTPUT, datum),
            (datum, vocab.OBI_HAS_VALUE_SPECIFICATION, vs),
            (vs, vocab.OBI_SPECIFIES_VALUE_OF, disp),
        ),
        head=((item, vocab.MORE_MEASURES_DISPOSITION, disp),),
    )


def builtin_shortcut_rule_via_plan() -> Rule:
    """Same head derived over the plan-mediated chain."""
    plan, proc, item, datum, vs, disp = (
        Var(n) for n in ("plan", "proc", "item", "datum", "vs", "disp")
    )
    return Rule(
        name="measures-disposition-via-plan",
        body=(
            (plan, vocab.BFO_CONCRETIZES, item),
            (proc, vocab.OBI_REALIZES, plan),
            (proc, vocab.OBI_HAS_SPECIFIED_OUTPUT, datum),
            (datum, vocab.OBI_HAS_VALUE_SPECIFICATION, vs),
            (vs, vocab.OBI_SPECIFIES_VALUE_OF, disp),
        ),
        head=((item, vocab.MORE_MEASURES_DISPOSITION, disp),),
    )


def builtin_rules() -> list[Rule]:
    c, d, e, x = Var("c"), Var("d"), Var("e"), Var("x")
    return [
        Rule(
            name="subclass-transitivity",
            body=((c, vocab.RDFS_SUBCLASSOF, d), (d, vocab.RDFS_SUBCLASSOF, e)),
            head=((c, vocab.RDFS_SUBCLASSOF, e),),
        ),
        Rule(
            name="type-propagation",
            body=((x, vocab.RDF_TYPE, c), (c, vocab.RDFS_SUBCLASSOF, d)),
            head=((x, vocab.RDF_TYPE, d),),
        ),
        builtin_shortcut_rule(),
        builtin_shortcut_rule_via_plan(),
    ]


def builtin_ruleset() -> RuleSet:
    return RuleSet(builtin_rules())


# ---------------------------------------------------------------------------
# Evaluation

def _subst(p: Pattern, binding: dict) -> tuple:
    return tuple(binding.get(t.name, None) if isinstance(t, Var) else t for t in p)


_NO_ENTRIES = MappingProxyType({})  # read-only stand-in for a missing index key


def _compile(body: Sequence[Pattern]) -> list[tuple]:
    """Classify each position of each atom of ``body``, in join order.

    A position becomes ``(key, const, new)``: a constant is
    ``(None, term, None)``, a variable bound by an earlier atom is
    ``(name, None, None)``, and a variable bound by this atom is
    ``(None, None, name)``.  A known position reads as
    ``b.get(key, const)`` either way, because no binding has the key None.
    """
    bound = set()
    steps = []
    for atom in body:
        steps.append(tuple(
            (None, t, None) if not isinstance(t, Var)
            else (t.name, None, None) if t.name in bound
            else (None, None, t.name)
            for t in atom))
        bound |= pattern_vars(atom)
    return steps


def _extend(g: Graph, step: tuple, solutions: list[dict]) -> list[dict]:
    """Each binding of ``solutions`` extended over every triple of ``g``
    that matches the compiled atom ``step``.

    Each of the eight shapes of known positions walks one index directly
    and writes only the atom's new variables into a copy of the binding.
    """
    (sk, sc, sn), (pk, pc, pn), (ok, oc, on) = step
    spo, pos = g._spo, g._pos
    out: list[dict] = []
    add = out.append
    new = [n for n in (sn, pn, on) if n is not None]
    if len(set(new)) < len(new):
        # a variable repeated within the atom: its positions must agree
        for b in solutions:
            known = (b.get(k, c) if n is None else None for k, c, n in step)
            for t in g.match(*known):
                nb = b.copy()
                if all(nb.setdefault(n, x) is x
                       for (_, _, n), x in zip(step, t) if n is not None):
                    add(nb)
    elif sn is None and pn is None and on is None:  # (s, p, o)
        for b in solutions:
            s, p = b.get(sk, sc), b.get(pk, pc)
            if b.get(ok, oc) in spo.get(s, _NO_ENTRIES).get(p, ()):
                add(b)
    elif sn is None and pn is None:  # (s, p, ?)
        for b in solutions:
            for o in spo.get(b.get(sk, sc), _NO_ENTRIES).get(b.get(pk, pc), ()):
                nb = b.copy()
                nb[on] = o
                add(nb)
    elif sn is None and on is None:  # (s, ?, o)
        for b in solutions:
            o = b.get(ok, oc)
            for p, objs in spo.get(b.get(sk, sc), _NO_ENTRIES).items():
                if o in objs:
                    nb = b.copy()
                    nb[pn] = p
                    add(nb)
    elif pn is None and on is None:  # (?, p, o)
        for b in solutions:
            for s in pos.get(b.get(pk, pc), _NO_ENTRIES).get(b.get(ok, oc), ()):
                nb = b.copy()
                nb[sn] = s
                add(nb)
    elif sn is None:  # (s, ?, ?)
        for b in solutions:
            for p, objs in spo.get(b.get(sk, sc), _NO_ENTRIES).items():
                for o in objs:
                    nb = b.copy()
                    nb[pn] = p
                    nb[on] = o
                    add(nb)
    elif pn is None:  # (?, p, ?)
        for b in solutions:
            for o, subjs in pos.get(b.get(pk, pc), _NO_ENTRIES).items():
                for s in subjs:
                    nb = b.copy()
                    nb[sn] = s
                    nb[on] = o
                    add(nb)
    elif on is None:  # (?, ?, o)
        for b in solutions:
            o = b.get(ok, oc)
            for p, os_ in pos.items():
                for s in os_.get(o, ()):
                    nb = b.copy()
                    nb[sn] = s
                    nb[pn] = p
                    add(nb)
    else:  # (?, ?, ?)
        for b in solutions:
            for s, po in spo.items():
                for p, objs in po.items():
                    for o in objs:
                        nb = b.copy()
                        nb[sn] = s
                        nb[pn] = p
                        nb[on] = o
                        add(nb)
    return out


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


def join(graphs: Sequence[Graph], body: Sequence[Pattern]) -> list[dict]:
    """Every binding under which each atom ``body[i]`` matches a triple of
    ``graphs[i]``, joining the atoms in the order ``plan`` gives."""
    order = [i for i, _ in plan(graphs, body)]
    solutions = [{}]
    for i, step in zip(order, _compile([body[i] for i in order])):
        if not solutions:
            break
        solutions = _extend(graphs[i], step, solutions)
    return solutions


def _derive(full: Graph, graphs: list[Graph], rule: Rule, out: set[Triple]) -> None:
    """Add to ``out`` every head instantiation of ``join(graphs, rule.body)``
    not in ``full``."""
    for binding in join(graphs, rule.body):
        for hp in rule.head:
            s, p, o = _subst(hp, binding)
            if isinstance(s, Literal) or not isinstance(p, IRI):
                continue  # unrepresentable instantiation
            t = Triple(s, p, o)
            if t not in full:
                out.add(t)


def materialize(g: Graph, rs: RuleSet) -> Graph:
    """Least fixpoint of ``g`` under ``rs``; returns a new graph.

    Round 1 joins each rule once over the whole graph.  Each later round
    joins once per body atom, that atom against the previous round's new
    triples and every other atom against the whole graph.
    """
    for r in rs:
        r.validate()
    full = g.copy()
    new: set[Triple] = set()
    for rule in rs:
        _derive(full, [full] * len(rule.body), rule, new)
    while new:
        full.update(new)
        delta = Graph(new)
        new = set()
        for rule in rs:
            for i in range(len(rule.body)):
                graphs = [full] * len(rule.body)
                graphs[i] = delta
                _derive(full, graphs, rule, new)
    return full


# ---------------------------------------------------------------------------
# Rule file syntax:  name: s p o & s p o ... => s p o [& s p o ...] .

class _RuleParser(TokenStream):
    error = RuleSyntaxError
    variable = Var

    def rules(self) -> list[Rule]:
        rules = []
        while self.peek()[0] is not None:
            kind, name, offset = self.next()
            if kind == "pname" and name.endswith(":") and name != ":":
                name = name[:-1]  # "r1:" lexes as a prefixed name, local part empty
            elif kind not in ("word", "pname") or self.next()[:2] != ("pname", ":"):
                self.err("expected a rule name and ':'", offset)
            body = self._patterns()
            self.expect_punct("=>")
            head = self._patterns()
            self.expect_punct(".")
            rules.append(Rule(name=name, body=body, head=head))
        return rules

    def _patterns(self) -> tuple[Pattern, ...]:
        """Triple patterns up to '=>' or '.', each optionally followed by '&'."""
        patterns = []
        while self.peek()[:2] not in (("punct", "=>"), ("punct", ".")):
            patterns.append((self.term(), self.term(verb=True), self.term()))
            self.accept("&")
        return tuple(patterns)


def parse_rules(text: str, prefixes: Optional[PrefixMap] = None,
                include_builtins: bool = True) -> RuleSet:
    rules = _RuleParser(text, prefixes).rules()
    if include_builtins:
        have = {r.name for r in rules}
        rules = [r for r in builtin_rules() if r.name not in have] + rules
    return RuleSet(rules)


def export_rules(rs: RuleSet, prefixes: Optional[PrefixMap] = None) -> str:
    """Serialize a rule set back to the line-oriented syntax."""
    pm = prefixes or PrefixMap.default()

    def patterns(ps):
        return " & ".join(" ".join(
            "?%s" % t.name if isinstance(t, Var) else term_to_ttl(t, pm) for t in p)
            for p in ps)

    return "".join(
        "%s: %s => %s .\n" % (r.name, patterns(r.body), patterns(r.head))
        for r in rs
    )
