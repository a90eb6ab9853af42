"""N-Triples and Turtle-subset reading/writing, and the term syntax that
the query and rule parsers share with Turtle.

The Turtle subset covers ``@prefix`` directives, prefixed names, the
``a`` keyword, ``;`` predicate lists, ``,`` object lists, typed and
language-tagged literals, and bare integer/decimal shorthand.  No
collections, blank-node property lists, or ``@base``.

``TokenStream`` lexes Turtle, queries and rule files with one regex and
builds their terms with one method, so an IRI, prefixed name or literal
reads the same in all three; ``term_to_ttl`` writes terms back in that
syntax.  N-Triples keeps its own line parser, with a cache of the terms
it has seen.

Canonical output is byte-deterministic: a pure function of the triple
set, independent of insertion order.
"""

from __future__ import annotations

import re
from typing import Optional

from .rdf import IRI, BlankNode, Graph, Literal, PrefixMap, Term, RdfError
from . import vocab


class PositionedError(Exception):
    """An error at a line and column of a parsed text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class ParseError(PositionedError, RdfError):
    pass


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_RE = re.compile(r'[\\"\n\r\t]')
_UNESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|.)")
_IRI_ESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8})?")


def escape_string(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(0)], s)


def _uchar(e: str) -> str:
    """The character of a ``uXXXX``/``UXXXXXXXX`` escape body."""
    code = int(e[1:], 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise RdfError("\\%s is not a Unicode scalar value" % e)
    return chr(code)


def unescape_string(s: str) -> str:
    def repl(m):
        e = m.group(1)
        if e == "u" or e == "U":
            raise RdfError("\\%s escape needs %d hex digits" % (e, 4 if e == "u" else 8))
        if len(e) > 1:
            return _uchar(e)
        try:
            return {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}[e]
        except KeyError:
            raise RdfError("unknown escape sequence \\%s" % e) from None
    return _UNESCAPE_RE.sub(repl, s)


def unescape_iri(s: str) -> str:
    """Decode the ``\\u``/``\\U`` escapes of an IRI reference's text.

    Those are the only escapes an IRI reference allows, and they may not
    encode a character it excludes: space, controls or ``<>"{}|^`\\``.
    """
    def repl(m):
        e = m.group(1)
        if e is None:
            raise RdfError("IRI escape must be \\uXXXX or \\UXXXXXXXX")
        c = _uchar(e)
        if c <= " " or c in '<>"{}|^`\\':
            raise RdfError("\\%s in an IRI encodes %r, which IRIs may not contain"
                           % (e, c))
        return c
    return _IRI_ESCAPE_RE.sub(repl, s) if "\\" in s else s


def term_to_nt(term: Term) -> str:
    if isinstance(term, IRI):
        return "<%s>" % term.value
    if isinstance(term, BlankNode):
        return "_:%s" % term.label
    if term.lang:
        return '"%s"@%s' % (escape_string(term.lexical), term.lang)
    if term.datatype == vocab.XSD_STRING.value:
        return '"%s"' % escape_string(term.lexical)
    return '"%s"^^<%s>' % (escape_string(term.lexical), term.datatype)


# ---------------------------------------------------------------------------
# N-Triples

_NT_TERM_RE = re.compile(
    r"""\s*(?:
        (?P<iri><[^<>"\s]*>)
      | (?P<blank>_:[A-Za-z0-9_][A-Za-z0-9_-]*)
      | (?P<lit>"(?:[^"\\]|\\.)*")
        (?:\^\^(?P<dt><[^<>"\s]*>)|@(?P<lang>[a-zA-Z]+(?:-[a-zA-Z0-9]+)*))?
      | (?P<dot>\.)
    )""",
    re.X,
)


def _nt_term(m: re.Match) -> Term:
    if m.group("iri"):
        return IRI(unescape_iri(m.group("iri")[1:-1]))
    if m.group("blank"):
        return BlankNode(m.group("blank")[2:])
    lex = unescape_string(m.group("lit")[1:-1])
    dt = m.group("dt")
    lang = m.group("lang")
    if lang:
        return Literal(lex, lang=lang)
    if dt:
        return Literal(lex, unescape_iri(dt[1:-1]))
    return Literal(lex)


def _nt_parse_line(line: str, lineno: int, graph: Graph, cache: dict) -> None:
    pos = 0
    terms = []
    saw_dot = False
    while pos < len(line):
        m = _NT_TERM_RE.match(line, pos)
        if not m or m.end() == pos:
            rest = line[pos:].strip()
            if not rest:
                break
            raise ParseError("malformed term %r" % rest[:20], lineno, pos + 1)
        pos = m.end()
        if m.group("dot"):
            saw_dot = True
            if line[pos:].strip():
                raise ParseError("content after terminating dot", lineno, pos + 1)
            break
        key = m.group(0)
        term = cache.get(key)
        if term is None:
            try:
                term = _nt_term(m)
            except RdfError as e:
                # ``key`` may start with blanks; point at the term itself
                column = m.start() + len(key) - len(key.lstrip()) + 1
                raise ParseError(str(e), lineno, column) from None
            cache[key] = term
        terms.append(term)
    if not terms and not saw_dot:
        return
    if len(terms) != 3 or not saw_dot:
        raise ParseError("expected exactly 3 terms and a terminating dot", lineno, pos)
    s, p, o = terms
    try:
        graph.add(s, p, o)
    except RdfError as e:
        raise ParseError(str(e), lineno, 1) from None


def parse_ntriples(text: str) -> Graph:
    graph = Graph()
    cache: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        _nt_parse_line(line, lineno, graph, cache)
    return graph


def write_ntriples(g: Graph) -> str:
    """``g`` as canonical N-Triples: one line per triple, sorted."""
    cache: dict = {}

    def nt(term):
        s = cache.get(term)
        if s is None:
            s = cache[term] = term_to_nt(term)
        return s

    lines = ["%s %s %s ." % (nt(s), nt(p), nt(o)) for s, p, o in g]
    lines.sort()
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Term syntax shared by the Turtle, query and rule parsers

# One lexer for all three: the IRIREF, PNAME, blank-node and literal
# productions that Turtle and SPARQL share, plus the variables, words and
# punctuation that queries and rules add.  Each grammar rejects the
# tokens it has no place for.  Order matters only where two alternatives
# can start alike (pname before word, iriref before punct's '<', @prefix
# before lang, decimal before integer); otherwise the commonest Turtle
# tokens come first, which is the fastest order measured.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+|\#[^\n]*)
    | (?P<pname>(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_-]*)?)
    | (?P<iriref><[^<>"\s]*>)
    | (?P<punct>=>|&&|\|\||!=|<=|>=|[=<>!&{}().;,*])
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<prefix_kw>@prefix\b)
    | (?P<lang>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<decimal>[+-]?[0-9]+\.[0-9]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<blank>_:[A-Za-z0-9_][A-Za-z0-9_-]*)
    | (?P<word>[A-Za-z][A-Za-z0-9_-]*)
    """,
    re.X,
)


class TokenStream:
    """The tokens of one text, read front to back by a recursive-descent
    parser, and the term builder that all three parsers share.

    A subclass sets ``error`` to its positioned error class and, if its
    grammar has variables, ``variable`` to the class that names one.
    """

    error = ParseError
    variable = None

    def __init__(self, text: str, prefixes: Optional[PrefixMap] = None):
        self.text = text
        self.prefixes = PrefixMap.default() if prefixes is None else prefixes
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        end = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != end:
                break
            end = m.end()
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        if end != len(text):
            self.err("unexpected character %r" % text[end], end)
        self.tokens.append((None, "", end))  # the end, which reading never passes

    def err(self, message: str, offset: int):
        line = self.text.count("\n", 0, offset) + 1
        raise self.error(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] is not None:
            self.pos += 1
        return tok

    def accept(self, ch: str) -> bool:
        """Consume the next token if it is the punctuation ``ch``."""
        tok = self.tokens[self.pos]
        if tok[1] == ch and tok[0] == "punct":
            self.pos += 1
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.accept(ch):
            tok = self.peek()
            self.err("expected %r, got %r" % (ch, tok[1] or "end of input"), tok[2])

    def prefix(self) -> None:
        """Read and register a prefix label and its namespace IRI."""
        kind, label, offset = self.next()
        if kind != "pname" or not label.endswith(":"):
            self.err("expected prefix label ending in ':'", offset)
        kind, ns, offset = self.next()
        if kind != "iriref":
            self.err("expected namespace IRI, got %r" % (ns or "end of input"), offset)
        try:
            self.prefixes.register(label[:-1], unescape_iri(ns[1:-1]))
        except RdfError as e:
            self.err(str(e), offset)

    def term(self, what: str = "term", verb: bool = False):
        """The next term: an IRI, a prefixed name, a blank node, a number,
        a string with its ``^^`` datatype or ``@`` language, a variable
        where the grammar has them, or ``a`` where ``verb`` is set.  An
        invalid term raises ``error`` at its first character."""
        kind, value, offset = self.next()
        try:
            if kind == "pname":
                return self.prefixes.expand(value)
            if kind == "iriref":
                return IRI(unescape_iri(value[1:-1]))
            if kind == "string":
                lex = unescape_string(value[1:-1])
                suffix, tag, _ = self.peek()
                if suffix == "lang":
                    self.pos += 1
                    return Literal(lex, lang=tag[1:])
                if suffix != "dtsep":
                    return Literal(lex)
                self.pos += 1
                dkind, dt, _ = self.next()
                if dkind == "iriref":
                    return Literal(lex, unescape_iri(dt[1:-1]))
                if dkind == "pname":
                    return Literal(lex, self.prefixes.expand(dt).value)
                raise RdfError("expected datatype IRI, got %r" % (dt or "end of input"))
            if kind == "blank":
                return BlankNode(value[2:])
            if kind == "integer":
                return Literal(value, vocab.XSD_INTEGER.value)
            if kind == "decimal":
                return Literal(value, vocab.XSD_DECIMAL.value)
        except RdfError as e:
            self.err(str(e), offset)
        if kind == "var" and self.variable is not None:
            return self.variable(value[1:])
        if verb and kind == "word" and value == "a":
            return vocab.RDF_TYPE
        self.err("expected %s, got %r" % (what, value or "end of input"), offset)


# ---------------------------------------------------------------------------
# Turtle subset

class _TurtleParser(TokenStream):
    def parse(self) -> Graph:
        graph = Graph()
        while self.peek()[0] is not None:
            if self.peek()[0] == "prefix_kw":
                self.pos += 1
                self.prefix()
            else:
                self._triples(graph)
            self.expect_punct(".")
        return graph

    def _triples(self, graph: Graph):
        start = self.peek()[2]
        subject = self.term("subject")
        while True:
            predicate = self.term("predicate", verb=True)
            while True:
                obj = self.term("object")
                try:
                    graph.add(subject, predicate, obj)
                except RdfError as e:
                    self.err(str(e), start)
                if not self.accept(","):
                    break
            # a trailing ';' before the '.' is allowed
            if not self.accept(";") or self.peek()[:2] == ("punct", "."):
                break


def parse_turtle(text: str) -> Graph:
    return _TurtleParser(text).parse()


_SAFE_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*\Z")
_SAFE_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


def term_to_ttl(term: Term, pm: PrefixMap) -> str:
    """A term as Turtle, query and rule text spell it: an IRI as a CURIE
    where that lexes back to the same IRI, anything else as N-Triples."""
    if isinstance(term, IRI):
        curie = pm.compact(term)
        prefix, _, local = curie.partition(":")
        if not (_SAFE_PREFIX_RE.match(prefix)
                and (local == "" or _SAFE_LOCAL_RE.match(local))):
            return "<%s>" % term.value
        return curie
    return term_to_nt(term)


def write_turtle(g: Graph, prefixes: Optional[PrefixMap] = None) -> str:
    """``g`` as canonical Turtle: subjects, predicates and objects sorted,
    IRIs written as CURIEs of ``prefixes`` (default: the project's)."""
    pm = PrefixMap.default() if prefixes is None else prefixes
    cache: dict = {}
    lines = ["@prefix %s: <%s> ." % (p, ns) for p, ns in sorted(pm.items())]
    lines.append("")

    by_subject: dict = {}
    for s, p, o in g:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)

    def render(term):
        out = cache.get(term)
        if out is None:
            out = cache[term] = term_to_ttl(term, pm)
        return out

    for s in sorted(by_subject, key=render):
        preds = by_subject[s]
        parts = []
        for p in sorted(preds, key=render):
            objs = sorted(preds[p], key=render)
            pstr = "a" if p == vocab.RDF_TYPE else render(p)
            parts.append("%s %s" % (pstr, ", ".join(render(o) for o in objs)))
        lines.append("%s %s ." % (render(s), " ;\n    ".join(parts)))
    return "".join(line + "\n" for line in lines)


def parse_file(path) -> Graph:
    """Parse ``.nt`` or ``.ttl`` by extension (Turtle by default)."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if str(path).endswith(".nt"):
        return parse_ntriples(text)
    return parse_turtle(text)


def write_file(g: Graph, path) -> None:
    """Write ``.nt`` or ``.ttl`` by extension (Turtle by default)."""
    if str(path).endswith(".nt"):
        text = write_ntriples(g)
    else:
        text = write_turtle(g)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
