"""Core RDF terms and an indexed in-memory triple store.

A term is a ``str``: its canonical N-Triples text (W3C RDF 1.1
N-Triples), ``<iri>``, ``_:label``, ``"lex"``, ``"lex"@lang`` or
``"lex"^^<datatype>``.  Each term has one text, so two terms are the
same term iff their texts are equal: terms compare with ``==``, never
``is``, and a canonical writer joins the texts as they are.  ``IRI``,
``BlankNode`` and ``Literal`` check their arguments and build the text;
``is_iri``, ``is_literal``, ``iri_value`` and ``literal_parts`` read it
back, and ``CANONICAL_TERM`` matches exactly the texts they build, so
a reader can take such a text as it is.  No other module reads a term's
characters; ``ingestion.mint_iri`` alone writes one, an IRI of
components its own rule admits, in the text ``IRI`` builds.  Nothing
is interned: a parse shares each term among its triples through its
own cache, and a term lives as long as a graph or row holds it.  A
triple is a plain ``(s, p, o)`` tuple of terms.

The graph keeps two nested-dict indexes, SPO and POS; SPO also answers
membership.  A pattern is answered by lookups alone unless it binds the
object but not the predicate; then the object is looked up under each
predicate of the subject (SPO) or of the whole graph (POS).  A KG built
from a fixed vocabulary has few predicates, and its queries and rules
name them.

An index leaf (the objects of one subject and predicate, or the subjects
of one predicate and object) is the term itself while it holds one term,
and a ``set`` from the second term on.  Most leaves of a KG hold one
term, so this saves a container the garbage collector would walk for
nearly every triple; a dict whose keys and values are all ``str`` is not
tracked by the collector at all.  ``Graph`` has no remove, so a ``set``
never shrinks back, and ``Graph.without`` writes each leaf it keeps in
the form of what it keeps: each leaf has one form for its content, and
equal graphs have equal indexes.  ``Graph`` reads the leaves through
``_leaf_terms`` or a ``type(leaf) is set`` test; the one reader outside
it is ``Graph.stars``, whose caller gets the SPO leaves in this form.

Three methods walk the indexes.  ``Graph.extend`` extends rows, tuples
of terms indexed by slot, by the triples that match one pattern;
``rules.join`` chains it atom by atom, and ``match`` is one row of it.
``Graph.stars`` yields each subject with its predicates and their
leaves, which the Turtle writer reads.  ``Graph.without`` filters both
indexes into a subgraph, leaf by leaf; role views are built with it,
and ``copy`` is ``without`` with nothing dropped.
"""

from __future__ import annotations

import functools
import re
from operator import itemgetter
from types import MappingProxyType
from typing import ItemsView, Iterator, Optional

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
RDF_LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


class RdfError(Exception):
    """Base error for the RDF layer."""


class MalformedTripleError(RdfError):
    pass


class UnresolvedPrefixError(RdfError):
    pass


# The one rule for the characters an IRI may not hold: space, the
# controls and <>"{}|^`\ (the IRIREF production of Turtle and N-Triples).
_IRI_EXCLUDED_CHARS = r'\x00-\x20<>"{}|^`\\'
IRI_EXCLUDED = re.compile("[%s]" % _IRI_EXCLUDED_CHARS)
# The one rule for a language tag (the LANGTAG production of Turtle and
# N-Triples), as a pattern the readers interpolate.
LANGTAG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
_LANGTAG_RE = re.compile(LANGTAG)
# The one rule for a blank-node label, which ``BlankNode`` checks and the
# readers lex: the ASCII part of the BLANK_NODE_LABEL production, without
# dots.
BLANK_LABEL = r"[A-Za-z0-9_][A-Za-z0-9_-]*"
_BLANK_LABEL_RE = re.compile(BLANK_LABEL)

# ---------------------------------------------------------------------------
# String and IRI escapes: N-Triples escapes only these five characters in
# a literal's lexical form, and reads the numeric escapes too.

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_RE = re.compile(r'[\\"\n\r\t]')
_UNESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|.)")
_IRI_ESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8})?")


def escape_string(s: str) -> str:
    if _ESCAPE_RE.search(s) is None:  # most lexical forms: nothing to escape
        return s
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
    return _UNESCAPE_RE.sub(repl, s) if "\\" in s else s


def unescape_iri(s: str) -> str:
    """Decode the ``\\u``/``\\U`` escapes of an IRI reference's text.

    Those are the only escapes an IRI reference allows.  The decoded IRI
    may not hold a character ``IRI_EXCLUDED`` names, raw or escaped.
    """
    def repl(m):
        if m.group(1) is None:
            raise RdfError("IRI escape must be \\uXXXX or \\UXXXXXXXX")
        return _uchar(m.group(1))
    iri = _IRI_ESCAPE_RE.sub(repl, s) if "\\" in s else s
    bad = IRI_EXCLUDED.search(iri)
    if bad:
        raise RdfError("IRIs may not contain %r" % bad.group())
    return iri


# ---------------------------------------------------------------------------
# Terms

Term = str  # the term's canonical N-Triples text


def IRI(value: str) -> Term:
    if not value or IRI_EXCLUDED.search(value):
        raise RdfError("IRI must be non-empty and hold no space, control "
                       "or any of <>\"{}|^`\\: %r" % value)
    return "<%s>" % value


def BlankNode(label: str) -> Term:
    if not _BLANK_LABEL_RE.fullmatch(label):
        raise RdfError("blank node label must be ASCII letters, digits, '_' "
                       "and '-', not starting with '-': %r" % label)
    return "_:" + label


def Literal(lexical: str, datatype: Optional[str] = None,
            lang: Optional[str] = None) -> Term:
    """A literal; ``datatype`` is a bare IRI, ``xsd:string`` when neither
    it nor ``lang`` is given, and ``rdf:langString`` with ``lang``."""
    if lang is not None:
        if not _LANGTAG_RE.fullmatch(lang):
            raise RdfError("language tag must be letters, then "
                           "hyphen-led letters or digits: %r" % lang)
        if datatype is not None and datatype != RDF_LANG_STRING:
            raise RdfError("language-tagged literal must use the langString datatype")
        return '"%s"@%s' % (escape_string(lexical), lang)
    if datatype is None:
        return '"%s"' % escape_string(lexical)
    return '"%s"%s' % (escape_string(lexical), _datatype_suffix(datatype))


# Checking a datatype IRI costs a scan of its characters, and a graph uses
# few datatypes.  A bad one raises on every call: lru_cache stores results,
# not exceptions.  The bound keeps a parse of many datatypes from growing it.
@functools.lru_cache(maxsize=64)
def _datatype_suffix(datatype: str) -> str:
    """A typed literal's ``^^<datatype>``; none for ``xsd:string``."""
    if datatype == XSD_STRING:
        return ""
    if not datatype or IRI_EXCLUDED.search(datatype):
        raise RdfError("datatype IRI must be non-empty and hold no space, "
                       "control or any of <>\"{}|^`\\: %r" % datatype)
    return "^^<%s>" % datatype


# The texts ``IRI``, ``BlankNode`` and ``Literal`` build: a text that
# matches whole is already its own term.  A literal uses only the five
# escapes of ``escape_string``, holds none of those characters raw, and
# has no ``^^xsd:string``.
_CANONICAL_IRI = "<[^%s]+>" % _IRI_EXCLUDED_CHARS
CANONICAL_TERM = re.compile(
    r'%s|_:%s|"(?:[^"\\\n\r\t]|\\[\\"nrt])*"(?:@%s|\^\^(?!%s)%s)?'
    % (_CANONICAL_IRI, BLANK_LABEL, LANGTAG, re.escape("<%s>" % XSD_STRING),
       _CANONICAL_IRI))


def is_iri(t: Term) -> bool:
    return t[:1] == "<"


def is_literal(t: Term) -> bool:
    return t[:1] == '"'


def iri_value(t: Term) -> str:
    """The IRI an IRI term names, without its angle brackets."""
    return t[1:-1]


def literal_parts(t: Term) -> Optional[tuple[str, str, Optional[str]]]:
    """A literal term's ``(lexical, datatype, lang)``, ``lang`` None unless
    the datatype is ``rdf:langString``; None for an IRI or blank node."""
    if t[:1] != '"':
        return None
    end = t.rindex('"')  # a datatype IRI or language tag holds no '"'
    lexical = t[1:end]
    if "\\" in lexical:
        lexical = unescape_string(lexical)
    if end + 1 == len(t):
        return lexical, XSD_STRING, None
    if t[end + 1] == "@":
        return lexical, RDF_LANG_STRING, t[end + 2:]
    return lexical, t[end + 4:-1], None


def _reject_triple(s: Term, p: Term, o: Term) -> None:
    t = (s, p, o)
    if not s or s[0] not in "<_":
        raise MalformedTripleError("triple subject must be an IRI or a blank node: %r" % (t,))
    if not p or p[0] != "<":
        raise MalformedTripleError("triple predicate must be an IRI: %r" % (t,))
    raise MalformedTripleError("triple object must be a term: %r" % (t,))


def _leaf_terms(leaf) -> set | tuple:
    """The terms of an index leaf: a ``set`` as it is, a bare term as a
    one-element tuple, and None (a missing key) as an empty tuple."""
    if type(leaf) is set:
        return leaf
    return () if leaf is None else (leaf,)


_NO_ENTRIES = MappingProxyType({})  # read-only stand-in for a missing index key
_NOTHING: frozenset = frozenset()


def _filter_index(index: dict, keys, inner_keys, terms) -> tuple[dict, int]:
    """A new ``index`` without the outer keys in ``keys``, the inner keys
    in ``inner_keys`` and the leaf terms in ``terms``, and the number of
    leaf terms it keeps.  Each leaf keeps its one form, and no inner dict
    is left empty; bare leaves are terms and are shared."""
    out: dict = {}
    n = 0
    for k, inner in index.items():
        if k in keys:
            continue
        kept = {}
        for k2, leaf in inner.items():
            if k2 in inner_keys:
                continue
            if type(leaf) is set:
                leaf = leaf - terms
                size = len(leaf)
                if size > 1:
                    n += size - 1  # the one term per leaf is counted below
                elif size:
                    leaf, = leaf
                else:
                    continue
            elif leaf in terms:
                continue
            kept[k2] = leaf
        if kept:
            out[k] = kept
            n += len(kept)
    return out, n


class Graph:
    """Set of triples with SPO and POS indexes.

    ``_spo[s][p]`` and ``_pos[p][o]`` are leaves: one bare term, or a
    ``set`` of two or more (see the module docstring).

    ``_counts`` memoises ``count`` by pattern, for the graph as it was
    when its length was ``_counts_len``: with no remove, a graph is
    unchanged while its length is.

    ``value_memo`` is None, or a one-term function that a reader caches
    for this graph; ``query.evaluate`` keeps its term values there, so a
    graph queried many times values each term once.  A value depends on
    the term's text alone, so the memo stays valid as the graph grows.
    It dies with the graph, and ``copy`` and ``without`` start without one.

    Single-writer, multi-reader: mutate only with exclusive access.
    """

    __slots__ = ("_len", "_spo", "_pos", "_counts", "_counts_len", "value_memo")

    def __init__(self, triples=None):
        self._len = 0
        self._spo: dict = {}
        self._pos: dict = {}
        self._counts: dict = {}
        self._counts_len = 0
        self.value_memo = None
        if triples:
            self.update(triples)

    def __len__(self):
        return self._len

    def __iter__(self) -> Iterator[tuple[Term, Term, Term]]:
        for s, po in self._spo.items():
            for p, objs in po.items():
                if type(objs) is set:
                    for o in objs:
                        yield s, p, o
                else:
                    yield s, p, objs

    def __contains__(self, t: tuple[Term, Term, Term]) -> bool:
        s, p, o = t
        return o in _leaf_terms(self._spo.get(s, {}).get(p))

    def __eq__(self, other):
        return (isinstance(other, Graph) and self._len == other._len
                and self._spo == other._spo)

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Add a triple; returns True iff it was not already present."""
        # each term is told by its first character: a subject is an IRI or a
        # blank node, a predicate an IRI, an object either or a literal
        if (not s or s[0] not in "<_" or not p or p[0] != "<"
                or not o or o[0] not in '<_"'):
            _reject_triple(s, p, o)
        po = self._spo.get(s)
        if po is None:
            self._spo[s] = {p: o}
        else:
            objs = po.get(p)
            if objs is None:
                po[p] = o
            elif type(objs) is set:
                if o in objs:
                    return False
                objs.add(o)
            elif objs == o:
                return False
            else:
                po[p] = {objs, o}
        os_ = self._pos.get(p)
        if os_ is None:
            self._pos[p] = {o: s}
        else:
            subjs = os_.get(o)
            if subjs is None:
                os_[o] = s
            elif type(subjs) is set:
                subjs.add(s)
            else:
                os_[o] = {subjs, s}
        self._len += 1
        return True

    def update(self, triples) -> int:
        """Insert many triples; returns the number actually added."""
        add = self.add
        n = 0
        for s, p, o in triples:
            if add(s, p, o):
                n += 1
        return n

    def copy(self) -> "Graph":
        """Independent copy, built from the indexes without re-inserting."""
        return self.without()

    def without(self, nodes=_NOTHING, predicates=_NOTHING) -> "Graph":
        """The subgraph of every triple that has no node of ``nodes`` as
        its subject or object and no predicate in ``predicates``: SPO and
        POS filtered in one pass each, without re-inserting.  ``nodes``
        and ``predicates`` are sets."""
        g = Graph()
        g._spo, g._len = _filter_index(self._spo, nodes, predicates, nodes)
        g._pos, _ = _filter_index(self._pos, predicates, nodes, nodes)
        return g

    def stars(self) -> Iterator[tuple[Term, ItemsView[Term, Term | set]]]:
        """Each subject with the ``(predicate, leaf)`` items of its SPO
        entry, as they are: a leaf is a bare term, the one object, or a
        ``set`` of two or more objects, and is not to be mutated.  The one
        reader of leaves outside ``Graph``; the graph must not change
        while a caller walks them."""
        for s, po in self._spo.items():
            yield s, po.items()

    def extend(self, step: tuple, rows: list[tuple]) -> list[tuple]:
        """Each row of ``rows`` extended by every triple of the graph that
        matches ``step``; the one index walk of joins and ``match``.

        ``step`` gives, for s, p and o, the index of the row term that
        the position must equal, or None where the position is free.
        The free positions' terms are appended to the row in s, p, o
        order.  Each of the eight shapes walks one index directly.
        """
        si, pi, oi = step
        spo, pos = self._spo, self._pos
        out: list[tuple] = []
        add = out.append
        if si is not None and pi is not None and oi is not None:  # (s, p, o)
            for b in rows:
                objs = spo.get(b[si], _NO_ENTRIES).get(b[pi])
                o = b[oi]
                if objs == o or (type(objs) is set and o in objs):
                    add(b)
        elif si is not None and pi is not None:  # (s, p, ?)
            for b in rows:
                objs = spo.get(b[si], _NO_ENTRIES).get(b[pi])
                if type(objs) is set:
                    for o in objs:
                        add(b + (o,))
                elif objs is not None:
                    add(b + (objs,))
        elif si is not None and oi is not None:  # (s, ?, o)
            for b in rows:
                o = b[oi]
                for p, objs in spo.get(b[si], _NO_ENTRIES).items():
                    if objs == o or (type(objs) is set and o in objs):
                        add(b + (p,))
        elif pi is not None and oi is not None:  # (?, p, o)
            for b in rows:
                subjs = pos.get(b[pi], _NO_ENTRIES).get(b[oi])
                if type(subjs) is set:
                    for s in subjs:
                        add(b + (s,))
                elif subjs is not None:
                    add(b + (subjs,))
        elif si is not None:  # (s, ?, ?)
            for b in rows:
                for p, objs in spo.get(b[si], _NO_ENTRIES).items():
                    for o in _leaf_terms(objs):
                        add(b + (p, o))
        elif pi is not None:  # (?, p, ?)
            for b in rows:
                for o, subjs in pos.get(b[pi], _NO_ENTRIES).items():
                    if type(subjs) is set:
                        for s in subjs:
                            add(b + (s, o))
                    else:
                        add(b + (subjs, o))
        elif oi is not None:  # (?, ?, o)
            for b in rows:
                o = b[oi]
                for p, os_ in pos.items():
                    for s in _leaf_terms(os_.get(o)):
                        add(b + (s, p))
        else:  # (?, ?, ?)
            for b in rows:
                for t in self:
                    add(b + t)
        return out

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> Iterator[tuple[Term, Term, Term]]:
        """The triples agreeing with every bound position: ``extend`` of
        the one row ``(s, p, o)``, whose free positions follow it."""
        pattern = (s, p, o)
        step = tuple(None if t is None else i for i, t in enumerate(pattern))
        free = iter(range(3, 6))
        get = itemgetter(*(next(free) if i is None else i for i in step))
        return map(get, self.extend(step, [pattern]))

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        """Number of triples matching the pattern, counted once per graph
        state: a repeat on an unchanged graph is one dict lookup."""
        if self._counts_len != self._len:
            self._counts = {}
            self._counts_len = self._len
        n = self._counts.get((s, p, o))
        if n is None:
            n = self._counts[s, p, o] = self._count(s, p, o)
        return n

    def _count(self, s, p, o) -> int:
        if s is None and p is None and o is None:
            return self._len
        if s is not None and p is not None and o is None:
            return len(_leaf_terms(self._spo.get(s, {}).get(p)))
        if s is None and p is not None and o is not None:
            return len(_leaf_terms(self._pos.get(p, {}).get(o)))
        if p is not None and o is None and s is None:
            return sum(len(v) if type(v) is set else 1
                       for v in self._pos.get(p, {}).values())
        return sum(1 for _ in self.match(s, p, o))


class PrefixMap:
    """Prefix label -> namespace IRI mapping with CURIE expand/compact."""

    def __init__(self, mapping: Optional[dict[str, str]] = None):
        self._map: dict[str, str] = dict(mapping or {})
        self._compactor = None  # (pattern, namespace -> label), see compact

    @classmethod
    def default(cls) -> "PrefixMap":
        from . import vocab
        return cls(dict(vocab.DEFAULT_PREFIXES))

    def register(self, prefix: str, namespace: str) -> None:
        self._map[prefix] = namespace
        self._compactor = None

    def items(self):
        return self._map.items()

    def expand(self, curie: str) -> Term:
        prefix, sep, local = curie.partition(":")
        if not sep:
            raise UnresolvedPrefixError("not a CURIE: %r" % curie)
        ns = self._map.get(prefix)
        if ns is None:
            raise UnresolvedPrefixError("unknown prefix %r in %r" % (prefix, curie))
        return IRI(ns + local)

    def compact(self, iri: Term) -> str:
        """Longest-namespace-match CURIE, or the IRI term itself.  When
        labels share a namespace the first registered wins, and an empty
        namespace never matches.

        One match of an alternation of the namespaces, longest first, so
        the first alternative that matches is the longest namespace; it
        is built on first use and dropped by ``register``."""
        if self._compactor is None:
            labels: dict[str, str] = {}
            for prefix, ns in self._map.items():
                if ns:
                    labels.setdefault(ns, prefix)
            alternation = "|".join(map(re.escape, sorted(labels, key=len, reverse=True)))
            # an empty map gets a pattern that never matches
            self._compactor = re.compile(alternation or "(?!)"), labels
        pattern, labels = self._compactor
        m = pattern.match(iri, 1, len(iri) - 1)  # within the angle brackets
        if m is None:
            return iri
        return "%s:%s" % (labels[m.group()], iri[m.end():-1])
