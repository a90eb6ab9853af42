"""N-Triples and Turtle-subset reading/writing, and the term syntax that
both share with the query and rule parsers.

The Turtle subset covers ``@prefix`` directives, prefixed names, the
``a`` keyword, ``;`` predicate lists, ``,`` object lists, typed and
language-tagged literals, and bare integer/decimal shorthand.  No
collections, blank-node property lists, or ``@base``.

``TokenStream`` lexes N-Triples, Turtle, queries and rule files with one
regex and builds their terms with one method, so an IRI, blank node or
literal reads the same in all four; ``term_to_ttl`` writes terms back in
Turtle's syntax.

A term is its canonical N-Triples text (see ``rdf``), so ``write_ntriples``
sorts and joins the lines of the terms as they are.  Reading, a line in
canonical form, ``<s> <p> <o> .``, is split at its first two spaces; a
text that matches ``rdf.CANONICAL_TERM`` is already its term, and a
per-parse dict shares it among the triples that name it.  Every other
line goes to the line parser, a ``TokenStream`` over that line whose
terms are IRIs, blank nodes and literals; it accepts any valid layout
and is the only source of positioned errors.

Turtle has two readers too.  While the text keeps ``write_turtle``'s
layout, each line is split at its first spaces and at ``", "``, and a text
not yet cached in this parse must be one that the writer writes: a term's
canonical text, or a CURIE by the one ``PN_PREFIX``/``PN_LOCAL`` rule that
the lexer also reads.  From the first statement that will not split, the
token parser reads on to the end; it alone raises positioned errors.

Canonical output is byte-deterministic: a pure function of the triple
set, independent of insertion order.  ``write_file`` writes either
format as its lines, never joined into one text.
"""

from __future__ import annotations

import functools
import re
from typing import Optional

from .rdf import (BLANK_LABEL, CANONICAL_TERM, IRI, LANGTAG, BlankNode, Graph, Literal,
                  PrefixMap, RdfError, Term, is_iri, iri_value, unescape_iri,
                  unescape_string)
from . import vocab


class PositionedError(Exception):
    """An error at a line and column of a parsed text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class ParseError(PositionedError, RdfError):
    pass


# ---------------------------------------------------------------------------
# Term syntax shared by the N-Triples, Turtle, query and rule parsers

# The one rule for a prefixed name's parts: the ASCII part of Turtle's
# PN_PREFIX and PN_LOCAL, without dots.  ``write_turtle`` writes a CURIE,
# and the line reader reads one, only if ``_CURIE_RE`` matches it whole.
PN_PREFIX = r"[A-Za-z][A-Za-z0-9_-]*"
PN_LOCAL = r"[A-Za-z0-9_][A-Za-z0-9_-]*"
_CURIE_RE = re.compile(r"%s:(?:%s)?" % (PN_PREFIX, PN_LOCAL))
_PN_PREFIX_RE = re.compile(PN_PREFIX)
_PN_LOCAL_RE = re.compile("(?:%s)?" % PN_LOCAL)  # or none, as in "ex:"

# One lexer for all four: the IRIREF, PNAME, blank-node and literal
# productions that Turtle and SPARQL share, plus the variables, words and
# punctuation that queries and rules add.  Each grammar rejects the
# tokens it has no place for; Turtle reads the lang token "@prefix" at
# the start of a statement as its directive.  Order matters only where
# two alternatives can start alike (pname before word, iriref before
# punct's '<', decimal before integer); otherwise the commonest Turtle
# tokens come first, which is the fastest order measured.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+|\#[^\n]*)
    | (?P<pname>(?:%s)?:(?:%s)?)
    | (?P<iriref><[^<>" \t\r\n]*>)
    | (?P<punct>=>|&&|\|\||!=|<=|>=|[=<>!&{}().;,*])
    | (?P<string>"(?:[^"\\\r\n]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<lang>@%s)
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<decimal>[+-]?[0-9]+\.[0-9]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<blank>_:%s)
    | (?P<word>[A-Za-z][A-Za-z0-9_-]*)
    """ % (PN_PREFIX, PN_LOCAL, LANGTAG, BLANK_LABEL),
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

    def __init__(self, text: str, prefixes: Optional[PrefixMap] = None,
                 start: int = 0):
        self.text = text
        self.prefixes = PrefixMap.default() if prefixes is None else prefixes
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        end = start  # offsets, and so error positions, are in the whole text
        for m in _TOKEN_RE.finditer(text, start):
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

    def triples(self, emit, ends: tuple) -> None:
        """Read ``S P O , O ; P O`` and pass each triple to ``emit``.  A
        trailing ``;`` is allowed before a token of ``ends``, which ends
        the statement and is left unread."""
        subject = self.term("subject")
        while True:
            predicate = self.term("predicate", verb=True)
            emit(subject, predicate, self.term("object"))
            while self.accept(","):
                emit(subject, predicate, self.term("object"))
            if not self.accept(";") or self.peek()[1] in ends:
                return

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
                    return Literal(lex, iri_value(self.prefixes.expand(dt)))
                raise RdfError("expected datatype IRI, got %r" % (dt or "end of input"))
            if kind == "blank":
                return BlankNode(value[2:])
            if kind == "integer":
                return Literal(value, iri_value(vocab.XSD_INTEGER))
            if kind == "decimal":
                return Literal(value, iri_value(vocab.XSD_DECIMAL))
        except RdfError as e:
            self.err(str(e), offset)
        if kind == "var" and self.variable is not None:
            return self.variable(value[1:])
        if verb and kind == "word" and value == "a":
            return vocab.RDF_TYPE
        self.err("expected %s, got %r" % (what, value or "end of input"), offset)


# ---------------------------------------------------------------------------
# N-Triples

class _NTriplesLine(TokenStream):
    """The tokens of one N-Triples line.  Its terms are IRIs, blank nodes
    and literals, all written out in full, and its errors name the line
    of the document."""

    def __init__(self, line: str, lineno: int):
        self.lineno = lineno
        super().__init__(line, PrefixMap())

    def err(self, message: str, offset: int):
        raise self.error(message, self.lineno, offset + 1)

    def term(self, what: str = "term", verb: bool = False):
        kind, value, offset = self.peek()
        if kind not in ("iriref", "blank", "string"):
            self.err("expected %s, got %r" % (what, value or "end of input"), offset)
        return super().term(what)


def _nt_parse_line(line: str, lineno: int, graph: Graph) -> None:
    """Parse one line of any valid layout, or raise a positioned error."""
    ts = _NTriplesLine(line, lineno)
    if ts.peek()[0] is None:
        return  # a blank or comment line
    s, p, o = ts.term("subject"), ts.term("predicate"), ts.term("object")
    ts.expect_punct(".")
    kind, value, offset = ts.peek()
    if kind is not None:
        ts.err("expected end of line, got %r" % value, offset)
    try:
        graph.add(s, p, o)
    except RdfError as e:
        ts.err(str(e), 0)


def _nt_canonical(text: str, seen: dict) -> Optional[Term]:
    """``text``, now in ``seen``, if it is a term's canonical text; else None."""
    if CANONICAL_TERM.fullmatch(text):
        seen[text] = text
        return text
    return None


def _nt_lines(text: str) -> list[str]:
    """The lines of an N-Triples text; a line ends at LF, CR or CRLF."""
    if "\r" in text:  # the writer writes none, so most texts are split as they are
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_ntriples(text: str) -> Graph:
    graph = Graph()
    add = graph.add
    seen: dict = {}  # each term's text, so that its triples share one string
    get = seen.get
    for lineno, line in enumerate(_nt_lines(text), start=1):
        # A canonical line, "<s> <p> <o> .", whose three texts are each a
        # term's canonical text is added as it is; any other line, valid
        # or not, goes to the line parser, which alone raises errors.
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[2][-2:] == " .":
            s = get(parts[0]) or _nt_canonical(parts[0], seen)
            p = get(parts[1]) or _nt_canonical(parts[1], seen)
            o = parts[2][:-2]
            o = get(o) or _nt_canonical(o, seen)
            if s and p and o:
                try:
                    add(s, p, o)
                    continue
                except RdfError:
                    pass  # the line parser raises it at its position
        _nt_parse_line(line, lineno, graph)
    return graph


def _ntriples_lines(g: Graph) -> list[str]:
    """The lines of ``g`` as canonical N-Triples, one per triple, sorted."""
    lines = [" ".join(t) + " .\n" for t in g]
    # no line is a prefix of another, so the newline leaves the order as is
    lines.sort()
    return lines


def write_ntriples(g: Graph) -> str:
    """``g`` as canonical N-Triples: one line per triple, sorted."""
    return "".join(_ntriples_lines(g))


# ---------------------------------------------------------------------------
# Turtle subset

class _TurtleParser(TokenStream):
    def parse(self, graph: Optional[Graph] = None) -> Graph:
        graph = Graph() if graph is None else graph

        def add(s, p, o):  # an invalid triple fails at its statement's start
            try:
                graph.add(s, p, o)
            except RdfError as e:
                self.err(str(e), start)

        while True:
            kind, value, start = self.peek()
            if kind is None:
                return graph
            if kind == "lang" and value == "@prefix":
                self.pos += 1
                self.prefix()
            else:
                self.triples(add, (".",))
            self.expect_punct(".")


def _ttl_read_canonical(text: str, graph: Graph, prefixes: PrefixMap) -> int:
    """Add the statements of ``text`` to ``graph`` while they keep
    ``write_turtle``'s layout and texts: ``@prefix`` lines, which the token
    parser reads, then per subject ``S P O, O ;`` and ``    P O .`` lines.
    Returns the offset of the first statement that does not, or len(text)."""
    nouns, verbs = {}, {"a": vocab.RDF_TYPE}  # text -> term; ``a`` is a verb only

    def term(text: str, seen: dict) -> Term:
        """``text``'s term, now in ``seen``, if it is canonical or a CURIE."""
        if _nt_canonical(text, seen) is None:
            if not _CURIE_RE.fullmatch(text):
                raise RdfError("not a term as write_turtle writes one: %r" % text)
            seen[text] = prefixes.expand(text)
        return seen[text]

    get, vget, add = nouns.get, verbs.get, graph.add
    header, subject, end = True, None, -1  # subject: set within a statement
    for line in text.split("\n"):
        pos, end = end + 1, end + 1 + len(line)
        try:
            if subject is None:
                start = pos
                if not line:
                    continue
                if header and line.startswith("@prefix "):
                    _TurtleParser(line, prefixes).parse(graph)
                    continue
                header = False  # from here on, terms are cached
                s, _, line = line.partition(" ")
                subject = get(s) or term(s, nouns)
            elif line[:4] == "    ":
                line = line[4:]
            else:
                return start
            p, _, line = line.partition(" ")
            predicate = vget(p) or term(p, verbs)
            if line[-2:] not in (" ;", " ."):
                return start
            for o in line[:-2].split(", "):
                add(subject, predicate, get(o) or term(o, nouns))
        except RdfError:
            return start
        if line[-1] == ".":
            subject = None
    return start if subject is not None else len(text)


def parse_turtle(text: str) -> Graph:
    graph, prefixes = Graph(), PrefixMap.default()
    start = _ttl_read_canonical(text, graph, prefixes)
    return _TurtleParser(text, prefixes, start).parse(graph)


# A map has few labels, so each is checked once; the bound keeps maps of
# many labels from growing it.
@functools.lru_cache(maxsize=64)
def _is_label(label: str) -> bool:
    return _PN_PREFIX_RE.fullmatch(label) is not None


def term_to_ttl(term: Term, pm: PrefixMap) -> str:
    """A term as Turtle, query and rule text spell it: an IRI as a CURIE
    where that lexes back to the same IRI, anything else as N-Triples.
    The local part is checked per IRI and the prefix label once."""
    if is_iri(term):
        curie = pm.compact(term)
        if curie != term:
            # a valid label holds no ":", so the first one ends it
            label, _, local = curie.partition(":")
            if _PN_LOCAL_RE.fullmatch(local) and _is_label(label):
                return curie
    return term


def _turtle_lines(g: Graph, prefixes: Optional[PrefixMap] = None) -> list[str]:
    """The text of ``write_turtle(g, prefixes)`` as newline-terminated
    pieces: the ``@prefix`` lines, a blank line, then one statement per
    subject, sorted."""
    pm = PrefixMap.default() if prefixes is None else prefixes
    render = functools.cache(lambda term: term_to_ttl(term, pm))
    # each term is rendered once per call.  Distinct terms render to
    # distinct texts, and a subject's text is followed by " ", below any
    # character a subject holds, so sorting the statements sorts them by
    # subject; a part sorts by its predicate's text, "a" by "rdf:type".
    statements = []
    for s, po in g.stars():
        parts = []
        for p, objs in po:
            ptext = render(p)
            otext = (", ".join(sorted(map(render, objs))) if type(objs) is set
                     else render(objs))
            parts.append((ptext, "%s %s" % ("a" if p == vocab.RDF_TYPE else ptext, otext)))
        parts.sort()
        statements.append("%s %s .\n" % (render(s), " ;\n    ".join([part for _, part in parts])))
    statements.sort()
    lines = ["@prefix %s: <%s> .\n" % (p, ns) for p, ns in sorted(pm.items())]
    lines.append("\n")
    lines += statements
    return lines


def write_turtle(g: Graph, prefixes: Optional[PrefixMap] = None) -> str:
    """``g`` as canonical Turtle: subjects, predicates and objects sorted,
    IRIs written as CURIEs of ``prefixes`` (default: the project's)."""
    return "".join(_turtle_lines(g, prefixes))


def parse_file(path) -> Graph:
    """Parse ``.nt`` or ``.ttl`` by extension (Turtle by default)."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if str(path).endswith(".nt"):
        return parse_ntriples(text)
    return parse_turtle(text)


def write_file(g: Graph, path) -> None:
    """Write ``.nt`` or ``.ttl`` by extension (Turtle by default).  The
    lines are written one by one, never joined into one text."""
    if str(path).endswith(".nt"):
        lines = _ntriples_lines(g)
    else:
        lines = _turtle_lines(g)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)
