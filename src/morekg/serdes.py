"""N-Triples and Turtle-subset reading/writing.

The Turtle subset covers ``@prefix`` directives, prefixed names, the
``a`` keyword, ``;`` predicate lists, ``,`` object lists, typed and
language-tagged literals, and bare integer/decimal shorthand.  No
collections, blank-node property lists, or ``@base``.

Canonical output is byte-deterministic: a pure function of the triple
set, independent of insertion order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .rdf import IRI, BlankNode, Graph, Literal, PrefixMap, Term, RdfError
from . import vocab


class ParseError(RdfError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


@dataclass
class SerializationConfig:
    format: str = "ntriples"  # ntriples | turtle
    prefixes: PrefixMap = field(default_factory=PrefixMap.default)
    canonical: bool = True


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


def write_ntriples(g: Graph, cfg: Optional[SerializationConfig] = None) -> str:
    cfg = cfg or SerializationConfig()
    cache: dict = {}

    def nt(term):
        s = cache.get(term)
        if s is None:
            s = cache[term] = term_to_nt(term)
        return s

    lines = ["%s %s %s ." % (nt(s), nt(p), nt(o)) for s, p, o in g]
    if cfg.canonical:
        lines.sort()
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Turtle subset

_TTL_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+|\#[^\n]*)
    | (?P<prefix_kw>@prefix\b)
    | (?P<iriref><[^<>"\s]*>)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<lang>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
    | (?P<decimal>[+-]?[0-9]+\.[0-9]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<blank>_:[A-Za-z0-9_][A-Za-z0-9_-]*)
    | (?P<pname>(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_-]*)?)
    | (?P<kw_a>a\b)
    | (?P<punct>[.;,])
    """,
    re.X,
)


class _TurtleParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        self.pos = 0
        self.prefixes = PrefixMap.default()
        self._tokenize()

    def _line_col(self, offset: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, offset) + 1
        last_nl = self.text.rfind("\n", 0, offset)
        return line, offset - last_nl

    def _err(self, message: str, offset: int):
        line, col = self._line_col(offset)
        raise ParseError(message, line, col)

    def _tokenize(self):
        prev_end = 0
        for m in _TTL_TOKEN_RE.finditer(self.text):
            if m.start() != prev_end:
                self._err("unexpected character %r" % self.text[prev_end], prev_end)
            prev_end = m.end()
            kind = m.lastgroup
            if kind != "ws":
                self.tokens.append((kind, m.group(0), m.start()))
        if prev_end != len(self.text):
            self._err("unexpected character %r" % self.text[prev_end], prev_end)

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str):
        tok = self._next()
        if tok[0] != kind:
            self._err("expected %s, got %r" % (what, tok[1] or "end of input"), tok[2])
        return tok

    def _expect_punct(self, ch: str):
        tok = self._next()
        if tok[0] != "punct" or tok[1] != ch:
            self._err("expected %r, got %r" % (ch, tok[1] or "end of input"), tok[2])

    def parse(self) -> Graph:
        graph = Graph()
        while self._peek()[0] is not None:
            if self._peek()[0] == "prefix_kw":
                self._directive()
            else:
                self._triples(graph)
        return graph

    def _directive(self):
        self._next()  # @prefix
        kind, value, offset = self._next()
        if kind != "pname" or not value.endswith(":"):
            self._err("expected prefix label ending in ':'", offset)
        iri_tok = self._expect("iriref", "namespace IRI")
        self.prefixes.register(value[:-1], self._iri_text(*iri_tok[1:]))
        self._expect_punct(".")

    def _triples(self, graph: Graph):
        subject = self._subject()
        while True:
            predicate = self._verb()
            while True:
                obj = self._object()
                try:
                    graph.add(subject, predicate, obj)
                except RdfError as e:
                    self._err(str(e), self._peek()[2])
                tok = self._peek()
                if tok[0] == "punct" and tok[1] == ",":
                    self._next()
                    continue
                break
            tok = self._peek()
            if tok[0] == "punct" and tok[1] == ";":
                self._next()
                # tolerate trailing ';' before '.'
                nxt = self._peek()
                if nxt[0] == "punct" and nxt[1] == ".":
                    break
                continue
            break
        self._expect_punct(".")

    def _resolve_pname(self, value: str, offset: int) -> IRI:
        try:
            return self.prefixes.expand(value)
        except RdfError as e:
            self._err(str(e), offset)

    def _iri_text(self, value: str, offset: int) -> str:
        try:
            return unescape_iri(value[1:-1])
        except RdfError as e:
            self._err(str(e), offset)

    def _iri(self, value: str, offset: int) -> IRI:
        text = self._iri_text(value, offset)
        try:
            return IRI(text)
        except RdfError as e:
            self._err(str(e), offset)

    def _string(self, value: str, offset: int) -> str:
        try:
            return unescape_string(value[1:-1])
        except RdfError as e:
            self._err(str(e), offset)

    def _subject(self) -> Term:
        kind, value, offset = self._next()
        if kind == "iriref":
            return self._iri(value, offset)
        if kind == "pname":
            return self._resolve_pname(value, offset)
        if kind == "blank":
            return BlankNode(value[2:])
        self._err("expected subject, got %r" % (value or "end of input"), offset)

    def _verb(self) -> IRI:
        kind, value, offset = self._next()
        if kind == "kw_a":
            return vocab.RDF_TYPE
        if kind == "iriref":
            return self._iri(value, offset)
        if kind == "pname":
            return self._resolve_pname(value, offset)
        self._err("expected predicate, got %r" % (value or "end of input"), offset)

    def _object(self) -> Term:
        kind, value, offset = self._next()
        if kind == "iriref":
            return self._iri(value, offset)
        if kind == "pname":
            return self._resolve_pname(value, offset)
        if kind == "blank":
            return BlankNode(value[2:])
        if kind == "integer":
            return Literal(value, vocab.XSD_INTEGER.value)
        if kind == "decimal":
            return Literal(value, vocab.XSD_DECIMAL.value)
        if kind == "string":
            lex = self._string(value, offset)
            nxt = self._peek()
            if nxt[0] == "dtsep":
                self._next()
                dkind, dvalue, doffset = self._next()
                if dkind == "iriref":
                    return Literal(lex, self._iri_text(dvalue, doffset))
                if dkind == "pname":
                    return Literal(lex, self._resolve_pname(dvalue, doffset).value)
                self._err("expected datatype IRI", doffset)
            if nxt[0] == "lang":
                self._next()
                return Literal(lex, lang=nxt[1][1:])
            return Literal(lex)
        self._err("expected object, got %r" % (value or "end of input"), offset)


def parse_turtle(text: str) -> Graph:
    return _TurtleParser(text).parse()


_SAFE_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*\Z")
_SAFE_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


def _ttl_term(term: Term, pm: PrefixMap, cache: dict) -> str:
    out = cache.get(term)
    if out is not None:
        return out
    if isinstance(term, IRI):
        curie = pm.compact(term)
        if curie.startswith("<"):
            out = curie
        else:
            prefix, _, local = curie.partition(":")
            if _SAFE_PREFIX_RE.match(prefix) and (local == "" or _SAFE_LOCAL_RE.match(local)):
                out = curie
            else:
                out = "<%s>" % term.value
    else:
        out = term_to_nt(term)
    cache[term] = out
    return out


def write_turtle(g: Graph, cfg: Optional[SerializationConfig] = None) -> str:
    cfg = cfg or SerializationConfig(format="turtle")
    pm = cfg.prefixes
    cache: dict = {}
    lines = ["@prefix %s: <%s> ." % (p, ns) for p, ns in sorted(pm.items())]
    lines.append("")

    by_subject: dict = {}
    for s, p, o in g:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)

    def render(term):
        return _ttl_term(term, pm, cache)

    subjects = by_subject.keys()
    if cfg.canonical:
        subjects = sorted(subjects, key=render)
    for s in subjects:
        preds = by_subject[s]
        pred_keys = preds.keys()
        if cfg.canonical:
            pred_keys = sorted(pred_keys, key=render)
        parts = []
        for p in pred_keys:
            objs = preds[p]
            if cfg.canonical:
                objs = sorted(objs, key=render)
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


def write_file(g: Graph, path, canonical: bool = True) -> None:
    if str(path).endswith(".nt"):
        text = write_ntriples(g, SerializationConfig(canonical=canonical))
    else:
        text = write_turtle(g, SerializationConfig(format="turtle", canonical=canonical))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
