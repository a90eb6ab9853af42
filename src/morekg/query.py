"""Parser and evaluator for the SPARQL subset used by the competency
questions: basic graph patterns, FILTER, GROUP BY with aggregates,
ORDER BY, LIMIT/OFFSET, DISTINCT.

Terms are read by ``serdes.TokenStream``, so IRIs, prefixed names and
literals read exactly as in Turtle; blank nodes are rejected, since in
SPARQL they would be variables.  A malformed query raises
``QuerySyntaxError`` at a line and column.

Evaluation uses bag semantics with exact rational arithmetic for
numeric comparisons and aggregates.  The basic graph pattern is joined
by ``rules.join``, the executor and planner that ``materialize`` uses
too, and ``explain`` prints ``rules.plan``'s order and estimates.  When
no ORDER BY is given, result rows are sorted canonically so output is
deterministic.
"""

from __future__ import annotations

import datetime
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import vocab
from .rdf import Graph, IRI, Literal, PrefixMap, Term
from .rules import Var, join, pattern_vars, plan
from .serdes import PositionedError, TokenStream, term_to_ttl


class QueryError(Exception):
    pass


class QuerySyntaxError(PositionedError, QueryError):
    pass


_NUMERIC_DATATYPES = {
    vocab.XSD_INTEGER.value,
    vocab.XSD_DECIMAL.value,
    vocab.XSD_DOUBLE.value,
    "http://www.w3.org/2001/XMLSchema#float",
    "http://www.w3.org/2001/XMLSchema#long",
    "http://www.w3.org/2001/XMLSchema#int",
    "http://www.w3.org/2001/XMLSchema#gYear",
}

_STRING_DATATYPES = {vocab.XSD_STRING.value, "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"}


def numeric_value(term) -> Optional[Fraction]:
    if not isinstance(term, Literal) or term.datatype not in _NUMERIC_DATATYPES:
        return None
    try:
        if term.datatype == vocab.XSD_DOUBLE.value or term.datatype.endswith("#float"):
            return Fraction(float(term.lexical))
        return Fraction(term.lexical)
    except (ValueError, ZeroDivisionError):
        return None


def date_value(term) -> Optional[datetime.date]:
    if isinstance(term, Literal) and term.datatype == vocab.XSD_DATE.value:
        try:
            return datetime.date.fromisoformat(term.lexical)
        except ValueError:
            return None
    return None


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

    def validate(self) -> None:
        where_vars = set()
        for p in self.where:
            where_vars |= pattern_vars(p)
        has_agg = any(isinstance(p, AggProjection) for p in self.projections)
        for p in self.projections:
            if isinstance(p, VarProjection):
                if p.name not in where_vars:
                    raise QueryError("projected variable ?%s not in WHERE clause" % p.name)
                if has_agg and p.name not in self.group_by:
                    raise QueryError(
                        "projected variable ?%s must appear in GROUP BY" % p.name)
            elif p.arg is not None and p.arg not in where_vars:
                raise QueryError("aggregated variable ?%s not in WHERE clause" % p.arg)
        for g in self.group_by:
            if g not in where_vars:
                raise QueryError("GROUP BY variable ?%s not in WHERE clause" % g)

        def check_expr(e):
            if isinstance(e, Comparison):
                for side in (e.lhs, e.rhs):
                    if isinstance(side, Var) and side.name not in where_vars:
                        raise QueryError(
                            "filter variable ?%s not in WHERE clause" % side.name)
            else:
                for op in e.operands:
                    check_expr(op)

        for f in self.filters:
            check_expr(f)

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
        limit = offset_ = None
        while True:
            tok = self.peek()
            if self._is_kw(tok, "GROUP"):
                self.next()
                self._expect_kw("BY")
                while self.peek()[0] == "var":
                    group_by.append(self.next()[1][1:])
                if not group_by:
                    self.err("GROUP BY requires at least one variable", tok[2])
            elif self._is_kw(tok, "ORDER"):
                self.next()
                self._expect_kw("BY")
                found = False
                while True:
                    t = self.peek()
                    if t[0] == "var":
                        self.next()
                        order_by.append((t[1][1:], "asc"))
                        found = True
                    elif self._is_kw(t, "ASC") or self._is_kw(t, "DESC"):
                        direction = t[1].lower()
                        self.next()
                        self.expect_punct("(")
                        v = self.next()
                        if v[0] != "var":
                            self.err("expected variable in %s()" % direction.upper(), v[2])
                        self.expect_punct(")")
                        order_by.append((v[1][1:], direction))
                        found = True
                    else:
                        break
                if not found:
                    self.err("ORDER BY requires at least one sort key", tok[2])
            elif self._is_kw(tok, "LIMIT"):
                self.next()
                n = self.next()
                if n[0] != "integer":
                    self.err("expected integer after LIMIT", n[2])
                limit = int(n[1])
            elif self._is_kw(tok, "OFFSET"):
                self.next()
                n = self.next()
                if n[0] != "integer":
                    self.err("expected integer after OFFSET", n[2])
                offset_ = int(n[1])
            elif tok[0] is None:
                break
            else:
                self.err("unexpected token %r" % tok[1], tok[2])

        ast = QueryAst(prefixes=self.prefixes, projections=projections,
                       where=where, filters=filters, distinct=distinct,
                       group_by=group_by, order_by=order_by,
                       limit=limit, offset=offset_)
        ast.validate()
        return ast

    def _projections(self) -> list[Projection]:
        out: list[Projection] = []
        while True:
            tok = self.peek()
            if tok[0] == "var":
                self.next()
                out.append(VarProjection(tok[1][1:]))
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
                self._triples_block(patterns)
        return patterns, filters

    def _triples_block(self, patterns):
        subject = self.term()
        while True:
            predicate = self.term(verb=True)
            patterns.append((subject, predicate, self.term()))
            while self.accept(","):
                patterns.append((subject, predicate, self.term()))
            # a trailing ';' before the '.' or '}' is allowed
            if not self.accept(";") or self.peek()[1] in (".", "}"):
                break
        self.accept(".")

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
        lhs = self.term()
        op_tok = self.next()
        if op_tok[0] != "punct" or op_tok[1] not in ("=", "!=", "<", "<=", ">", ">="):
            self.err("expected comparison operator, got %r" % op_tok[1], op_tok[2])
        rhs = self.term()
        return Comparison(op_tok[1], lhs, rhs)


def parse_query(text: str) -> QueryAst:
    return _QueryParser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation

class _FilterTypeError(Exception):
    pass


def _compare(op: str, a: Term, b: Term) -> bool:
    if op in ("=", "!="):
        na, nb = numeric_value(a), numeric_value(b)
        if na is not None and nb is not None:
            eq = na == nb
        else:
            eq = a == b
        return eq if op == "=" else not eq

    na, nb = numeric_value(a), numeric_value(b)
    if na is not None and nb is not None:
        av, bv = na, nb
    else:
        da, db = date_value(a), date_value(b)
        if da is not None and db is not None:
            av, bv = da, db
        elif (isinstance(a, Literal) and isinstance(b, Literal)
              and a.datatype in _STRING_DATATYPES and b.datatype in _STRING_DATATYPES):
            av, bv = a.lexical, b.lexical
        else:
            raise _FilterTypeError("incomparable terms")
    if op == "<":
        return av < bv
    if op == "<=":
        return av <= bv
    if op == ">":
        return av > bv
    return av >= bv


def _eval_filter(expr: FilterExpr, binding: dict) -> bool:
    """Error-as-false semantics for type errors."""
    if isinstance(expr, Comparison):
        def resolve(side):
            if isinstance(side, Var):
                value = binding.get(side.name)
                if value is None:
                    raise _FilterTypeError("unbound variable ?%s" % side.name)
                return value
            return side
        try:
            return _compare(expr.op, resolve(expr.lhs), resolve(expr.rhs))
        except _FilterTypeError:
            return False
    if expr.op == "&&":
        return all(_eval_filter(e, binding) for e in expr.operands)
    if expr.op == "||":
        return any(_eval_filter(e, binding) for e in expr.operands)
    return not _eval_filter(expr.operands[0], binding)


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


def _aggregate(func: str, arg: Optional[str], rows: list[dict],
               avg_places: int) -> Optional[Term]:
    if func == "COUNT":
        if arg is None:
            n = len(rows)
        else:
            n = sum(1 for r in rows if r.get(arg) is not None)
        return Literal(str(n), vocab.XSD_INTEGER.value)

    values: list[tuple[Fraction, Term]] = []
    for r in rows:
        term = r.get(arg)
        if term is None:
            continue
        if not isinstance(term, Literal):
            # IRIs/blank nodes are not values; skip them
            continue
        num = numeric_value(term)
        if num is None:
            warnings.warn("non-numeric literal %r in %s; group yields unbound"
                          % (term.lexical, func))
            return None
        values.append((num, term))
    if not values:
        return None
    if func == "MIN":
        return min(values, key=lambda v: v[0])[1]
    if func == "MAX":
        return max(values, key=lambda v: v[0])[1]
    total = sum(v[0] for v in values)
    if func == "SUM":
        if total.denominator == 1:
            return Literal(str(total.numerator), vocab.XSD_INTEGER.value)
        return Literal(format_decimal(total, avg_places), vocab.XSD_DECIMAL.value)
    # AVG
    return Literal(format_decimal(total / len(values), avg_places),
                   vocab.XSD_DECIMAL.value)


def _sort_key(term) -> tuple:
    if term is None:
        return (0, "")
    num = numeric_value(term)
    if num is not None:
        return (1, num)
    d = date_value(term)
    if d is not None:
        return (2, d.isoformat())
    if isinstance(term, Literal):
        return (3, (term.lexical, term.datatype, term.lang or ""))
    if isinstance(term, IRI):
        return (4, term.value)
    return (5, term.label)


def _row_key(row: tuple) -> tuple:
    return tuple(_sort_key(t) for t in row)


def evaluate(g: Graph, q: QueryAst, avg_places: int = 6) -> SolutionTable:
    solutions = join([g] * len(q.where), q.where)
    for f in q.filters:
        solutions = [b for b in solutions if _eval_filter(f, b)]

    has_agg = any(isinstance(p, AggProjection) for p in q.projections)
    rows: list[tuple] = []
    if has_agg or q.group_by:
        groups: dict[tuple, list[dict]] = {}
        for b in solutions:
            key = tuple(b.get(v) for v in q.group_by)
            groups.setdefault(key, []).append(b)
        if not q.group_by and not groups:
            groups[()] = []  # aggregates over the empty solution sequence
        for key, members in groups.items():
            row = []
            for p in q.projections:
                if isinstance(p, VarProjection):
                    row.append(key[q.group_by.index(p.name)])
                else:
                    row.append(_aggregate(p.func, p.arg, members, avg_places))
            rows.append(tuple(row))
    else:
        for b in solutions:
            rows.append(tuple(b.get(p.name) for p in q.projections))

    if q.distinct:
        seen = set()
        deduped = []
        for r in rows:
            if r not in seen:
                seen.add(r)
                deduped.append(r)
        rows = deduped

    # canonical pre-sort keeps output deterministic; ORDER BY keys are then
    # applied as stable sorts on top
    rows.sort(key=_row_key)
    cols = q.columns
    for var, direction in reversed(q.order_by):
        if var in cols:
            idx = cols.index(var)
            rows.sort(key=lambda r: _sort_key(r[idx]), reverse=(direction == "desc"))

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
    if term is None:
        return ""
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    return "_:%s" % term.label


def to_csv(table: SolutionTable) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([render_term(t) for t in row])
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
