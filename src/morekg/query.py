"""Parser and evaluator for the SPARQL subset used by the competency
questions: basic graph patterns, FILTER, GROUP BY with aggregates,
ORDER BY, LIMIT/OFFSET, DISTINCT.

Terms are read by ``serdes.TokenStream``, so IRIs, prefixed names and
literals read exactly as in Turtle; blank nodes are rejected, since in
SPARQL they would be variables.  A malformed query, one that uses a
variable its WHERE clause does not bind, sorts on a variable that is not
a result column, or gives a solution modifier twice, raises
``QuerySyntaxError`` at a line and column.

Evaluation uses bag semantics.  A number is valued once as an exact
``decimal.Decimal`` (a double as its exact binary value), so FILTER,
ORDER BY, the canonical sort, MIN and MAX compare numbers exactly and in
C; SUM and AVG add in a context that cannot round, and the one division
and the rendering use ``Fraction``.  The basic graph pattern is joined
by ``rules.join``, the executor and planner that ``materialize`` uses
too, and ``explain`` prints ``rules.plan``'s order and estimates.  Its
solutions are slot rows: each variable is resolved to its slot once per
query, and projections, GROUP BY keys, aggregates and FILTERs read the
row by index.  When no ORDER BY is given, result rows are sorted
canonically so output is deterministic: by value, and rows whose values
tie (``"1"^^xsd:integer`` and ``"1.0"^^xsd:decimal``) by their terms'
texts, so the order does not depend on how the graph was built.

One value order, ``_value_key``, serves FILTER, ORDER BY, the canonical
sort and aggregates, after SPARQL 1.1's ORDER BY and operator mapping
(sections 15.1 and 17.3).  Its ranks are: unbound, numbers, valid
``xsd:date``s, other literals by lexical form, datatype and language,
IRIs, blank nodes.  ``=`` and ``!=`` compare two numbers by value and
other terms as RDF terms (SPARQL's sameTerm: equal texts).  ``<``,
``<=``, ``>`` and ``>=`` compare two numbers, two dates, or two
string-typed literals by lexical form; any other pair is a type error,
and the comparison is false.  Each term is valued once per graph: the
memo is kept in the graph's ``value_memo`` slot, so it dies with the
graph, and a graph queried many times values each term once.
"""

from __future__ import annotations

import datetime
import re
import warnings
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import cache, reduce
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Optional, Union

from . import vocab
from .rdf import (RDF_LANG_STRING, XSD_STRING, Graph, Literal, PrefixMap, Term, iri_value,
                  is_iri, literal_parts)
from .rules import Var, join, pattern_vars, plan
from .serdes import PositionedError, TokenStream, term_to_ttl


class QueryError(Exception):
    pass


class QuerySyntaxError(PositionedError, QueryError):
    pass


# The XSD lexical forms of each numeric datatype family, in ASCII digits
# only: ``Decimal`` and ``float`` also read "1_000", " 5", "Infinity" and
# non-ASCII digits.  INF and NaN are left out, as they have no exact value.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_DOUBLE_RE = re.compile(_DECIMAL + r"(?:[eE][+-]?[0-9]+)?")
NUMERIC_LEXICAL = {
    vocab.XSD + "integer": _INTEGER_RE,
    vocab.XSD + "long": _INTEGER_RE,
    vocab.XSD + "int": _INTEGER_RE,
    vocab.XSD + "decimal": re.compile(_DECIMAL),
    vocab.XSD + "double": _DOUBLE_RE,
    vocab.XSD + "float": _DOUBLE_RE,
    vocab.XSD + "gYear": re.compile(r"-?[0-9]{4,}"),
}

_STRING_DATATYPES = {XSD_STRING, RDF_LANG_STRING}
_XSD_DATE = iri_value(vocab.XSD_DATE)
_XSD_INTEGER = iri_value(vocab.XSD_INTEGER)
_XSD_DECIMAL = iri_value(vocab.XSD_DECIMAL)

_OPERATORS = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
# The solution modifiers by their first keyword, with their place in the
# order SPARQL 1.1 requires (LIMIT and OFFSET in either order); each may be
# given once.
_MODIFIERS = {"GROUP": ("GROUP BY", 0), "ORDER": ("ORDER BY", 1),
              "LIMIT": ("LIMIT", 2), "OFFSET": ("OFFSET", 2)}


# Sums of numbers: wide enough that adding exact values never rounds, and
# a sum that did round would raise ``Inexact`` rather than pass.
_EXACT_SUM = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _number(lexical: str, datatype: str) -> Optional[Decimal]:
    """The exact value of a numeric literal, or None: the decimal value of
    an integer, decimal or gYear, and a double's or float's binary value."""
    form = NUMERIC_LEXICAL.get(datatype)
    if form is None or not form.fullmatch(lexical):
        return None
    if form is not _DOUBLE_RE:
        return Decimal(lexical)
    value = Decimal(float(lexical))
    return value if value.is_finite() else None  # 1e400 reads as inf


def numeric_value(term) -> Optional[Fraction]:
    """``term``'s number as an exact ``Fraction``, or None if it has none."""
    rank, value = _value_key(term)
    return Fraction(value) if rank == 1 else None


def _value_key(term) -> tuple:
    """``(rank, value)``: the one place that says what a term's value is
    and how it orders.  Ranks: 0 unbound, 1 numbers, 2 valid ``xsd:date``s,
    3 other literals as ``(lexical, datatype, lang)``, 4 IRIs, 5 blank
    nodes (as ``_:label``, which orders as the label); values compare
    only within a rank."""
    if term is None:
        return (0, "")
    parts = literal_parts(term)
    if parts is None:
        return (4, iri_value(term)) if is_iri(term) else (5, term)
    lexical, datatype, lang = parts
    num = _number(lexical, datatype)
    if num is not None:
        return (1, num)
    if datatype == _XSD_DATE:
        try:
            return (2, datetime.date.fromisoformat(lexical))
        except ValueError:
            pass
    return (3, (lexical, datatype, lang or ""))


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class VarProjection:
    name: str


@dataclass(frozen=True)
class AggProjection:
    func: str          # AVG | COUNT | SUM | MIN | MAX
    arg: Optional[str]  # variable name, or None for COUNT(*)
    alias: str


Projection = Union[VarProjection, AggProjection]


@dataclass(frozen=True)
class Comparison:
    op: str  # = != < <= > >=
    lhs: object  # Var | Term
    rhs: object


@dataclass(frozen=True)
class BoolOp:
    op: str  # && || !
    operands: tuple


FilterExpr = Union[Comparison, BoolOp]


@dataclass
class QueryAst:
    prefixes: PrefixMap
    projections: list[Projection]
    where: list[tuple]
    filters: list[FilterExpr] = field(default_factory=list)
    distinct: bool = False
    group_by: list[str] = field(default_factory=list)
    order_by: list[tuple[str, str]] = field(default_factory=list)  # (var, asc|desc)
    limit: Optional[int] = None
    offset: Optional[int] = None

    @property
    def columns(self) -> list[str]:
        return [p.name if isinstance(p, VarProjection) else p.alias
                for p in self.projections]


@dataclass
class SolutionTable:
    columns: list[str]
    rows: list[tuple]  # tuples of Term | None


@dataclass
class PlanDescription:
    steps: list[str]

    def __str__(self):
        return "\n".join(self.steps)


# ---------------------------------------------------------------------------
# Parsing

class _QueryParser(TokenStream):
    error = QuerySyntaxError
    variable = Var

    def _is_kw(self, tok, kw):
        return tok[0] == "word" and tok[1].upper() == kw

    def _expect_kw(self, kw):
        tok = self.next()
        if not self._is_kw(tok, kw):
            self.err("expected %s, got %r" % (kw, tok[1] or "end of input"), tok[2])

    def parse(self) -> QueryAst:
        self.uses: list[tuple[str, str, int]] = []  # (role, variable, offset)
        while self._is_kw(self.peek(), "PREFIX"):
            self.pos += 1
            self.prefix()

        self._expect_kw("SELECT")
        distinct = False
        if self._is_kw(self.peek(), "DISTINCT"):
            self.pos += 1
            distinct = True
        projections = self._projections()
        self._expect_kw("WHERE")
        self.expect_punct("{")
        where, filters = self._group_graph_pattern()

        group_by: list[str] = []
        order_by: list[tuple[str, str]] = []
        bounds: dict[str, int] = {}  # LIMIT and OFFSET
        seen: list[str] = []  # the modifiers so far, in order
        place = 0
        while True:
            tok = self.peek()
            if tok[0] is None:
                break
            modifier = _MODIFIERS.get(tok[1].upper()) if tok[0] == "word" else None
            if modifier is None:
                self.err("unexpected token %r" % tok[1], tok[2])
            clause, at = modifier
            if clause in seen:
                self.err("%s given twice" % clause, tok[2])
            if at < place:
                self.err("%s must come before %s" % (clause, seen[-1]), tok[2])
            seen.append(clause)
            place = at
            self.next()
            if clause == "GROUP BY":
                self._expect_kw("BY")
                while self.peek()[0] == "var":
                    _, var, offset = self.next()
                    group_by.append(var[1:])
                    self.uses.append(("GROUP BY", var[1:], offset))
                if not group_by:
                    self.err("GROUP BY requires at least one variable", tok[2])
            elif clause == "ORDER BY":
                self._expect_kw("BY")
                while True:
                    t = self.peek()
                    if t[0] == "var":
                        self.next()
                        direction = "asc"
                    elif self._is_kw(t, "ASC") or self._is_kw(t, "DESC"):
                        direction = t[1].lower()
                        self.next()
                        self.expect_punct("(")
                        t = self.next()
                        if t[0] != "var":
                            self.err("expected variable in %s()" % direction.upper(), t[2])
                        self.expect_punct(")")
                    else:
                        break
                    order_by.append((t[1][1:], direction))
                    self.uses.append(("ORDER BY", t[1][1:], t[2]))
                if not order_by:
                    self.err("ORDER BY requires at least one sort key", tok[2])
            else:  # LIMIT or OFFSET
                n = self.next()
                if n[0] != "integer" or not n[1].isdigit():  # no sign
                    self.err("expected unsigned integer after %s" % clause, n[2])
                bounds[clause] = int(n[1])

        where_vars = set().union(*map(pattern_vars, where))
        grouped = group_by or any(isinstance(p, AggProjection) for p in projections)
        ast = QueryAst(prefixes=self.prefixes, projections=projections,
                       where=where, filters=filters, distinct=distinct,
                       group_by=group_by, order_by=order_by,
                       limit=bounds.get("LIMIT"), offset=bounds.get("OFFSET"))
        for role, var, offset in self.uses:
            if role == "ORDER BY":  # a sort key is a result column
                if var not in ast.columns:
                    self.err("ORDER BY variable ?%s is not a result column" % var, offset)
            elif var not in where_vars:
                self.err("%s variable ?%s not in WHERE clause" % (role, var), offset)
            elif role == "projected" and grouped and var not in group_by:
                self.err("projected variable ?%s must appear in GROUP BY" % var, offset)
        return ast

    def _projections(self) -> list[Projection]:
        out: list[Projection] = []
        while True:
            tok = self.peek()
            if tok[0] == "var":
                self.next()
                out.append(VarProjection(tok[1][1:]))
                self.uses.append(("projected", tok[1][1:], tok[2]))
            elif self.accept("("):
                func_tok = self.next()
                if func_tok[0] != "word" or func_tok[1].upper() not in (
                        "AVG", "COUNT", "SUM", "MIN", "MAX"):
                    self.err("expected aggregate function", func_tok[2])
                func = func_tok[1].upper()
                self.expect_punct("(")
                arg_tok = self.next()
                if arg_tok[0] == "var":
                    arg = arg_tok[1][1:]
                    self.uses.append(("aggregated", arg, arg_tok[2]))
                elif arg_tok[:2] == ("punct", "*") and func == "COUNT":
                    arg = None
                else:
                    self.err("expected variable in aggregate", arg_tok[2])
                self.expect_punct(")")
                self._expect_kw("AS")
                alias_tok = self.next()
                if alias_tok[0] != "var":
                    self.err("expected alias variable after AS", alias_tok[2])
                self.expect_punct(")")
                out.append(AggProjection(func, arg, alias_tok[1][1:]))
            else:
                break
        if not out:
            self.err("SELECT requires at least one projection", self.peek()[2])
        return out

    def term(self, what="term", verb=False):
        if self.peek()[0] == "blank":
            self.err("blank nodes are not supported in queries", self.peek()[2])
        return super().term(what, verb)

    def _group_graph_pattern(self):
        patterns: list[tuple] = []
        filters: list[FilterExpr] = []
        while not self.accept("}"):
            tok = self.peek()
            if tok[0] is None:
                self.err("unterminated WHERE block", tok[2])
            if self._is_kw(tok, "FILTER"):
                self.next()
                self.expect_punct("(")
                filters.append(self._or_expr())
                self.expect_punct(")")
            else:
                self.triples(lambda *t: patterns.append(t), (".", "}"))
                self.accept(".")
        return patterns, filters

    def _or_expr(self) -> FilterExpr:
        operands = [self._and_expr()]
        while self.accept("||"):
            operands.append(self._and_expr())
        return operands[0] if len(operands) == 1 else BoolOp("||", tuple(operands))

    def _and_expr(self) -> FilterExpr:
        operands = [self._unary_expr()]
        while self.accept("&&"):
            operands.append(self._unary_expr())
        return operands[0] if len(operands) == 1 else BoolOp("&&", tuple(operands))

    def _unary_expr(self) -> FilterExpr:
        if self.accept("!"):
            return BoolOp("!", (self._unary_expr(),))
        if self.accept("("):
            e = self._or_expr()
            self.expect_punct(")")
            return e
        return self._comparison()

    def _comparison(self) -> Comparison:
        lhs = self._operand()
        op_tok = self.next()
        if op_tok[0] != "punct" or op_tok[1] not in _OPERATORS:
            self.err("expected comparison operator, got %r" % op_tok[1], op_tok[2])
        return Comparison(op_tok[1], lhs, self._operand())

    def _operand(self):
        offset = self.peek()[2]
        t = self.term()
        if isinstance(t, Var):
            self.uses.append(("filter", t.name, offset))
        return t


def parse_query(text: str) -> QueryAst:
    return _QueryParser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation

def _both(a, b):
    return lambda row: a(row) and b(row)


def _either(a, b):
    return lambda row: a(row) or b(row)


def _row_test(expr: FilterExpr, slot: dict, key):
    """``expr`` as a test of one row, each variable read at its slot and
    each term valued by ``key``.  A type error makes a comparison false."""
    if isinstance(expr, BoolOp):
        tests = [_row_test(e, slot, key) for e in expr.operands]
        if expr.op == "!":
            return lambda row: not tests[0](row)
        # one short-circuit closure per operator, left to right
        return reduce(_both if expr.op == "&&" else _either, tests)
    cmp = _OPERATORS[expr.op]
    ordering = expr.op not in ("=", "!=")
    lhs, rhs = (itemgetter(slot[t.name]) if isinstance(t, Var) else (lambda row, t=t: t)
                for t in (expr.lhs, expr.rhs))

    def test(row):
        a, b = lhs(row), rhs(row)
        (ra, va), (rb, vb) = key(a), key(b)
        if ra == rb == 1 or (ra == rb == 2 and ordering):
            return cmp(va, vb)  # two numbers, or two dates ordered
        if not ordering:
            return cmp(a, b)  # other terms are equal if they are the same term
        # two string-typed literals order by lexical form alone
        return (ra == rb == 3 and va[1] in _STRING_DATATYPES
                and vb[1] in _STRING_DATATYPES and cmp(va[0], vb[0]))
    return test


def format_decimal(value: Fraction, places: int = 6) -> str:
    """Round half-up rendering of an exact rational to fixed places."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    scale = 10 ** places
    scaled = (value * scale * 2 + 1) // 2  # round half up
    whole, frac = divmod(int(scaled), scale)
    if places == 0:
        return "%s%d" % (sign, whole)
    return "%s%d.%0*d" % (sign, whole, places, frac)


def _aggregate(func: str, k: Optional[int], rows: list[tuple], avg_places: int,
               key) -> Optional[Term]:
    """``func`` over the terms at slot ``k`` of ``rows``, numbers read by
    ``key``; COUNT counts rows."""
    if func == "COUNT":
        return Literal(str(len(rows)), _XSD_INTEGER)
    if not rows:
        return None
    terms = list(map(itemgetter(k), rows))
    keys = list(map(key, terms))
    if set(map(itemgetter(0), keys)) != {1}:
        term = next(t for t, (rank, _) in zip(terms, keys) if rank != 1)
        warnings.warn("non-numeric value %r in %s; group yields unbound"
                      % (render_term(term), func))
        return None
    nums = list(map(itemgetter(1), keys))
    if func == "MIN":
        return terms[nums.index(min(nums))]  # the first term of least value
    if func == "MAX":
        return terms[nums.index(max(nums))]
    total = Fraction(reduce(_EXACT_SUM.add, nums))
    if func == "SUM":
        if total.denominator == 1:
            return Literal(str(total.numerator), _XSD_INTEGER)
        return Literal(format_decimal(total, avg_places), _XSD_DECIMAL)
    # AVG
    return Literal(format_decimal(total / len(nums), avg_places), _XSD_DECIMAL)


def evaluate(g: Graph, q: QueryAst, avg_places: int = 6) -> SolutionTable:
    if avg_places < 0:
        raise QueryError("decimal places must be 0 or more, got %d" % avg_places)
    key = g.value_memo
    if key is None:  # each term is valued once per graph
        key = g.value_memo = cache(_value_key)
    slots, solutions = join([g] * len(q.where), q.where)
    # a basic graph pattern binds every WHERE variable in every row
    slot = {t.name: k for t, k in slots.items() if isinstance(t, Var)}
    for f in q.filters:
        solutions = list(filter(_row_test(f, slot, key), solutions))

    if q.group_by or any(isinstance(p, AggProjection) for p in q.projections):
        if q.group_by:
            group_key = itemgetter(*[slot[v] for v in q.group_by])
            by_key: dict = {}
            for row in solutions:
                by_key.setdefault(group_key(row), []).append(row)
            groups = list(by_key.values())
        else:
            groups = [solutions]  # one group, empty or not
        # a projected variable is grouped on, so each member holds its term
        rows = [tuple([members[0][slot[p.name]] if isinstance(p, VarProjection)
                       else _aggregate(p.func, slot.get(p.arg), members, avg_places, key)
                       for p in q.projections])
                for members in groups]
    elif len(q.projections) > 1:
        rows = list(map(itemgetter(*[slot[p.name] for p in q.projections]), solutions))
    else:  # one column: itemgetter of one slot gives the term, zip the 1-tuple
        rows = list(zip(map(itemgetter(slot[q.projections[0].name]), solutions)))

    if q.distinct:
        rows = list(dict.fromkeys(rows))

    # each row is decorated with its keys once; the canonical sort keeps
    # output deterministic, and ORDER BY keys are stable sorts on top.  Rows
    # whose keys tie compare by their terms, which differ only where both
    # are terms: an unbound slot's key ties only with another unbound one
    decorated = [(tuple(map(key, row)), row) for row in rows]
    decorated.sort()
    cols = q.columns
    for var, direction in reversed(q.order_by):
        idx = cols.index(var)
        decorated.sort(key=lambda d: d[0][idx], reverse=(direction == "desc"))
    rows = list(map(itemgetter(1), decorated))

    if q.offset:
        rows = rows[q.offset:]
    if q.limit is not None:
        rows = rows[:q.limit]
    return SolutionTable(columns=q.columns, rows=rows)


def explain(q: QueryAst, g: Graph) -> PlanDescription:
    """The join order ``evaluate`` uses on ``g``, with each pattern's
    estimated cardinality; informational only."""
    def show(t):
        return "?%s" % t.name if isinstance(t, Var) else term_to_ttl(t, q.prefixes)

    steps = []
    for n, (i, estimate) in enumerate(plan([g] * len(q.where), q.where), start=1):
        p = q.where[i]
        steps.append("%d. match %s %s %s  (est. %s)"
                     % (n, show(p[0]), show(p[1]), show(p[2]), estimate))
    return PlanDescription(steps)


# ---------------------------------------------------------------------------
# Result rendering

def render_term(term) -> str:
    """A CSV or text cell: a literal's lexical form, an IRI without its
    brackets, a blank node as ``_:label``, and unbound as empty."""
    if term is None:
        return ""
    if is_iri(term):
        return iri_value(term)
    parts = literal_parts(term)
    return term if parts is None else parts[0]


def to_csv(table: SolutionTable) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    text = {t: render_term(t) for t in set().union(*table.rows)}  # each term once
    writer.writerows([text[t] for t in row] for row in table.rows)
    return buf.getvalue()


def to_text(table: SolutionTable) -> str:
    cells = [[render_term(t) for t in row] for row in table.rows]
    widths = [len(c) for c in table.columns]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [" | ".join(c.ljust(w) for c, w in zip(table.columns, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    lines.append("(%d row%s)" % (len(cells), "" if len(cells) == 1 else "s"))
    return "".join(line + "\n" for line in lines)
