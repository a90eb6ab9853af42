"""Independent reference implementations over graphs and terms, used
as test oracles.

Everything here deliberately avoids the code paths it checks: plain
loops over triple lists, repeat-until-fixpoint iteration, nested-loop
joins.
"""

import datetime
import re
from fractions import Fraction

from morekg import vocab
from morekg.privacy import AuditViolation, _entailed
from morekg.rdf import (Graph, IRI, Literal, PrefixMap, iri_value, is_iri,
                        is_literal, literal_parts)
from morekg.rules import Var, join
from morekg.serdes import _CURIE_RE


def naive_rdfs_fixpoint(triples) -> set[tuple]:
    """Repeat-until-fixpoint subclass transitivity + type propagation."""
    facts = set(triples)
    changed = True
    while changed:
        changed = False
        sub = [(s, o) for s, p, o in facts if p == vocab.RDFS_SUBCLASSOF]
        typ = [(s, o) for s, p, o in facts if p == vocab.RDF_TYPE]
        new = set()
        for c, d in sub:
            for d2, e in sub:
                if d == d2:
                    new.add((c, vocab.RDFS_SUBCLASSOF, e))
        for x, c in typ:
            for c2, d in sub:
                if c == c2:
                    new.add((x, vocab.RDF_TYPE, d))
        before = len(facts)
        facts |= new
        changed = len(facts) > before
    return facts


def naive_shortcut_inferences(triples) -> set[tuple]:
    """Nested-loop join of the 4-pattern shortcut body."""
    executes, outputs, has_vs, svo = (
        [(s, o) for s, p2, o in triples if p2 == p]
        for p in (vocab.PATO_EXECUTES, vocab.OBI_HAS_SPECIFIED_OUTPUT,
                  vocab.OBI_HAS_VALUE_SPECIFICATION, vocab.OBI_SPECIFIES_VALUE_OF))
    out = set()
    for proc, item in executes:
        for proc2, datum in outputs:
            if proc2 != proc:
                continue
            for datum2, vs in has_vs:
                if datum2 != datum:
                    continue
                for vs2, disp in svo:
                    if vs2 != vs:
                        continue
                    out.add((item, vocab.MORE_MEASURES_DISPOSITION, disp))
    return out


def _unify(pattern, triple, binding):
    """``binding`` extended so that ``pattern`` equals ``triple``, or None."""
    out = dict(binding)
    for pt, tt in zip(pattern, triple):
        if isinstance(pt, Var):
            if pt.name in out:
                if out[pt.name] != tt:
                    return None
            else:
                out[pt.name] = tt
        elif pt != tt:
            return None
    return out


def as_dicts(solutions) -> list[dict]:
    """``rules.join``'s ``(slots, rows)`` as one name -> term dict per
    row, the form of the references below."""
    slots, rows = solutions
    names = [(t.name, k) for t, k in slots.items() if isinstance(t, Var)]
    return [{name: row[k] for name, k in names} for row in rows]


def reference_bgp_eval(graph: Graph, patterns) -> list[dict]:
    """Brute-force nested-loop BGP evaluation in syntactic pattern order."""
    return reference_join([graph] * len(patterns), patterns)


def reference_join(graphs, patterns) -> list[dict]:
    """Brute-force nested loops in syntactic pattern order, pattern ``i``
    over the triples of ``graphs[i]``."""
    solutions = [{}]
    for g, p in zip(graphs, patterns):
        all_triples = list(g)
        next_solutions = []
        for b in solutions:
            for t in all_triples:
                nb = _unify(p, t, b)
                if nb is not None:
                    next_solutions.append(nb)
        solutions = next_solutions
    return solutions


def materialize_naive(g: Graph, rs) -> Graph:
    """Repeat-all-rules-until-no-change reference evaluator.

    Each rule body is joined by nested loops over ``Graph.match`` in the
    body's own order: no planner and none of ``morekg.rules``' join code.
    """
    def bindings(body, binding):
        if not body:
            yield binding
            return
        pattern = body[0]
        bound = (binding.get(t.name) if isinstance(t, Var) else t
                 for t in pattern)
        for t in graph.match(*bound):
            nb = _unify(pattern, t, binding)
            if nb is not None:
                yield from bindings(body[1:], nb)

    graph = g.copy()
    changed = True
    while changed:
        changed = False
        for rule in rs:
            additions: set[tuple] = set()
            for b in bindings(rule.body, {}):
                for head in rule.head:
                    s, p, o = (b[t.name] if isinstance(t, Var) else t
                               for t in head)
                    if not is_literal(s) and is_iri(p):
                        additions.add((s, p, o))
            if graph.update(additions):
                changed = True
    return graph


# The value order as two separate cascades, one for FILTER and one for
# sorting, as ``morekg.query`` stated it before ``_value_key`` joined them.

_STRING_DATATYPES = {iri_value(vocab.XSD_STRING),
                     "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"}

# Numbers by their own rule: the XSD lexical forms, each read as an exact
# ``Fraction``; a double or float is the exact value of its binary float.
_INTEGER = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)"
_DOUBLE = _DECIMAL + r"([eE][+-]?[0-9]+)?"
_NUMBER_FORMS = {vocab.XSD + name: (re.compile(form), binary) for name, form, binary in [
    ("integer", _INTEGER, False), ("long", _INTEGER, False), ("int", _INTEGER, False),
    ("decimal", _DECIMAL, False), ("double", _DOUBLE, True), ("float", _DOUBLE, True),
    ("gYear", r"-?[0-9]{4,}", False)]}


def reference_number(term):
    if not is_literal(term):
        return None
    lexical, datatype, _ = literal_parts(term)
    form, binary = _NUMBER_FORMS.get(datatype, (None, False))
    if form is None or not form.fullmatch(lexical):
        return None
    if not binary:
        return Fraction(lexical)
    try:
        return Fraction(float(lexical))
    except OverflowError:  # the float is infinite
        return None


def _date_value(term):
    if is_literal(term):
        lexical, datatype, _ = literal_parts(term)
        if datatype == iri_value(vocab.XSD_DATE):
            try:
                return datetime.date.fromisoformat(lexical)
            except ValueError:
                return None
    return None


def reference_compare(op: str, a, b) -> bool:
    """``FILTER(a op b)``: numbers, then dates, then string-typed literals
    by lexical form; any other pair is a type error, which is false."""
    if op in ("=", "!="):
        na, nb = reference_number(a), reference_number(b)
        if na is not None and nb is not None:
            eq = na == nb
        else:
            eq = a == b
        return eq if op == "=" else not eq

    na, nb = reference_number(a), reference_number(b)
    if na is not None and nb is not None:
        av, bv = na, nb
    else:
        da, db = _date_value(a), _date_value(b)
        if da is not None and db is not None:
            av, bv = da, db
        elif (is_literal(a) and is_literal(b)
              and literal_parts(a)[1] in _STRING_DATATYPES
              and literal_parts(b)[1] in _STRING_DATATYPES):
            av, bv = literal_parts(a)[0], literal_parts(b)[0]
        else:
            return False
    if op == "<":
        return av < bv
    if op == "<=":
        return av <= bv
    if op == ">":
        return av > bv
    return av >= bv


def reference_sort_key(term) -> tuple:
    """ORDER BY's key: unbound, numbers, dates, other literals, IRIs,
    blank nodes."""
    if term is None:
        return (0, "")
    num = reference_number(term)
    if num is not None:
        return (1, num)
    d = _date_value(term)
    if d is not None:
        return (2, d.isoformat())
    if is_literal(term):
        lexical, datatype, lang = literal_parts(term)
        return (3, (lexical, datatype, lang or ""))
    if is_iri(term):
        return (4, iri_value(term))
    return (5, term[2:])  # the blank node's label


# The canonical writers and the role view as they were before they read
# the indexes: one line or one triple at a time, over ``iter(graph)``.

def reference_write_ntriples(g: Graph) -> str:
    """One N-Triples line per triple, the lines sorted."""
    return "".join(sorted("%s %s %s .\n" % (s, p, o) for s, p, o in g))


def reference_compact(pm: PrefixMap, iri: str) -> str:
    """``pm.compact`` as a scan of every prefix: the longest namespace
    that starts the IRI wins, the first label of a namespace wins a tie,
    and an empty namespace never matches."""
    value = iri[1:-1]
    best = None
    for prefix, ns in pm.items():
        if ns and value.startswith(ns) and (best is None or len(ns) > len(best[1])):
            best = prefix, ns
    if best is None:
        return iri
    return "%s:%s" % (best[0], value[len(best[1]):])


def reference_write_turtle(g: Graph, prefixes=None) -> str:
    """Triples grouped into a subject -> predicate -> objects copy, each
    level sorted by the terms' Turtle texts, IRIs compacted by
    ``reference_compact``."""
    pm = PrefixMap.default() if prefixes is None else prefixes

    def render(term):
        if is_iri(term):
            curie = reference_compact(pm, term)
            if _CURIE_RE.fullmatch(curie):
                return curie
        return term

    lines = ["@prefix %s: <%s> ." % (p, ns) for p, ns in sorted(pm.items())]
    lines.append("")
    by_subject: dict = {}
    for s, p, o in g:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)
    for s in sorted(by_subject, key=render):
        preds = by_subject[s]
        parts = []
        for p in sorted(preds, key=render):
            objs = sorted(preds[p], key=render)
            pstr = "a" if p == vocab.RDF_TYPE else render(p)
            parts.append("%s %s" % (pstr, ", ".join(map(render, objs))))
        lines.append("%s %s ." % (render(s), " ;\n    ".join(parts)))
    return "".join(line + "\n" for line in lines)


def reference_apply_policy(g: Graph, p, role_name: str) -> list[tuple]:
    """The role's view as a list of triples: each triple of ``g`` kept,
    dropped or replaced by its band triple in turn."""
    role = p.role(role_name)
    denied = _entailed(g, p.denied_targets(role_name))
    removed = {s for cls in denied for s, pr, o in g if (pr, o) == (vocab.RDF_TYPE, cls)}
    out = []
    for t in g:
        s, pr, o = t
        if s in removed or o in removed:
            continue
        if pr in denied:
            spec = role.generalizations.get(pr)
            if spec is not None:
                label = spec.band_label(o)
                if label is not None:
                    out.append((s, IRI(iri_value(pr) + "Band"), Literal(label)))
            continue
        out.append(t)
    return out


def reference_audit_violations(view: Graph, p, role_name: str) -> list:
    """Every violation found by one scan of the view, in scan order."""
    denied = _entailed(view, p.denied_targets(role_name))
    out = []
    for t in view:
        _, p, o = t
        if p in denied:
            out.append(AuditViolation(t, "denied predicate %s" % iri_value(p)))
        if p == vocab.RDF_TYPE and o in denied:
            out.append(AuditViolation(t, "instance of denied class %s" % iri_value(o)))
    return out


def shapes(s, p, o):
    """The seven patterns ``match`` answers for one triple's terms."""
    return [(s, None, None), (None, p, None), (None, None, o),
            (s, p, None), (s, None, o), (None, p, o), (s, p, o)]


def check_against_scan(g: Graph, expected: set, absent=()) -> None:
    """Every read of ``g`` agrees with a scan of the set ``expected``: all
    seven ``match`` shapes, ``count`` and a one-atom ``join`` over patterns
    built from the triples of ``expected`` and ``absent``, plus ``in``,
    the objects of each subject and predicate, and ``len``."""
    assert len(g) == len(expected)
    assert set(g) == expected
    for t in list(expected) + list(absent):
        assert (t in g) == (t in expected)
        assert {x[2] for x in g.match(t[0], t[1])} == {
            x[2] for x in expected if x[:2] == t[:2]}
        for pattern in shapes(*t):
            scan = {x for x in expected
                    if all(q is None or q == v for q, v in zip(pattern, x))}
            assert set(g.match(*pattern)) == scan, pattern
            assert g.count(*pattern) == len(scan), pattern
            atom = tuple(Var(n) if q is None else q for n, q in zip("spo", pattern))
            joined = {tuple(b.get(n, q) for n, q in zip("spo", pattern))
                      for b in as_dicts(join([g], [atom]))}
            assert joined == scan, pattern
