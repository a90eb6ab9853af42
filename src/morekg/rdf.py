"""Core RDF term model and an indexed in-memory triple store.

Terms are interned: constructing an ``IRI``, ``BlankNode`` or ``Literal``
from the same arguments returns the same immutable object, so terms
compare and hash by identity.  The intern tables live for the process.
The graph keeps two nested-dict indexes, SPO and POS; SPO also answers
membership.  A pattern is answered by lookups alone unless it binds the
object but not the predicate; then the object is looked up under each
predicate of the subject (SPO) or of the whole graph (POS).  A KG built
from a fixed vocabulary has few predicates, and its queries and rules
name them.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
RDF_LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


class RdfError(Exception):
    """Base error for the RDF layer."""


class MalformedTripleError(RdfError):
    pass


class UnresolvedPrefixError(RdfError):
    pass


# Intern tables: constructor arguments -> the one term they build.  Only
# valid terms are stored, so each distinct term is checked once; storing
# with ``setdefault`` keeps one instance when two threads miss at once.
_IRIS: dict = {}
_BLANKS: dict = {}
_LITERALS: dict = {}
_SPACE_RE = re.compile(r"\s")  # the same set as str.isspace


def _new_term(cls, **fields):
    term = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(term, name, value)
    return term


class _Term:
    """Interned, immutable; equality and hashing are by identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class IRI(_Term):
    __slots__ = ("value",)

    def __new__(cls, value: str):
        term = _IRIS.get(value)
        if term is None:
            if not value or _SPACE_RE.search(value):
                raise RdfError("IRI must be non-empty and contain no whitespace: %r" % value)
            term = _IRIS.setdefault(value, _new_term(cls, value=value))
        return term

    def __reduce__(self):
        return IRI, (self.value,)

    def __repr__(self):
        return "IRI(%r)" % self.value


class BlankNode(_Term):
    __slots__ = ("label",)

    def __new__(cls, label: str):
        term = _BLANKS.get(label)
        if term is None:
            if not label:
                raise RdfError("blank node label must be non-empty")
            term = _BLANKS.setdefault(label, _new_term(cls, label=label))
        return term

    def __reduce__(self):
        return BlankNode, (self.label,)

    def __repr__(self):
        return "BlankNode(%r)" % self.label


class Literal(_Term):
    __slots__ = ("lexical", "datatype", "lang")

    def __new__(cls, lexical: str, datatype: Optional[str] = None,
                lang: Optional[str] = None):
        key = (lexical, datatype, lang)
        term = _LITERALS.get(key)
        if term is None:
            if lang is not None:
                if datatype is not None and datatype != RDF_LANG_STRING:
                    raise RdfError("language-tagged literal must use the langString datatype")
                datatype = RDF_LANG_STRING
            elif datatype is None:
                datatype = XSD_STRING
            elif not datatype or _SPACE_RE.search(datatype):
                raise RdfError("datatype IRI must be non-empty and contain no "
                               "whitespace: %r" % datatype)
            # the normalized key makes Literal("x") and
            # Literal("x", XSD_STRING) one object
            norm = (lexical, datatype, lang)
            term = _LITERALS.get(norm)
            if term is None:
                term = _LITERALS.setdefault(norm, _new_term(
                    cls, lexical=lexical, datatype=datatype, lang=lang))
            _LITERALS[key] = term
        return term

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.lang)

    def __repr__(self):
        if self.lang:
            return "Literal(%r, lang=%r)" % (self.lexical, self.lang)
        return "Literal(%r, %r)" % (self.lexical, self.datatype)


Term = IRI | BlankNode | Literal


class Triple(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


def _reject_triple(s: Term, p: Term, o: Term) -> None:
    t = Triple(s, p, o)
    if isinstance(s, Literal):
        raise MalformedTripleError("triple subject may not be a literal: %r" % (t,))
    raise MalformedTripleError("triple predicate must be an IRI: %r" % (t,))


def _copy_index(index: dict) -> dict:
    return {k: {k2: v.copy() for k2, v in inner.items()} for k, inner in index.items()}


class Graph:
    """Set of triples with SPO and POS indexes.

    Single-writer, multi-reader: mutate only with exclusive access.
    """

    __slots__ = ("_len", "_spo", "_pos")

    def __init__(self, triples=None):
        self._len = 0
        self._spo: dict = {}
        self._pos: dict = {}
        if triples:
            self.update(triples)

    def __len__(self):
        return self._len

    def __iter__(self) -> Iterator[Triple]:
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield Triple(s, p, o)

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        return o in self._spo.get(s, {}).get(p, ())

    def __eq__(self, other):
        return (isinstance(other, Graph) and self._len == other._len
                and self._spo == other._spo)

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Add a triple; returns True iff it was not already present."""
        if isinstance(s, Literal) or not isinstance(p, IRI):
            _reject_triple(s, p, o)
        po = self._spo.get(s)
        if po is None:
            self._spo[s] = {p: {o}}
        else:
            objs = po.get(p)
            if objs is None:
                po[p] = {o}
            elif o in objs:
                return False
            else:
                objs.add(o)
        os_ = self._pos.get(p)
        if os_ is None:
            self._pos[p] = {o: {s}}
        else:
            subjs = os_.get(o)
            if subjs is None:
                os_[o] = {s}
            else:
                subjs.add(s)
        self._len += 1
        return True

    def insert(self, t: Triple) -> bool:
        s, p, o = t
        return self.add(s, p, o)

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
        g = Graph()
        g._len = self._len
        g._spo = _copy_index(self._spo)
        g._pos = _copy_index(self._pos)
        return g

    def triples(self) -> set[Triple]:
        return set(self)

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> Iterator[Triple]:
        """Yield triples agreeing with every bound position."""
        if s is not None and p is not None and o is not None:
            if o in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, o)
        elif s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj)
        elif s is not None and o is not None:
            for pred, objs in self._spo.get(s, {}).items():
                if o in objs:
                    yield Triple(s, pred, o)
        elif p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
        elif s is not None:
            for pred, objs in self._spo.get(s, {}).items():
                for obj in objs:
                    yield Triple(s, pred, obj)
        elif p is not None:
            for obj, subjs in self._pos.get(p, {}).items():
                for subj in subjs:
                    yield Triple(subj, p, obj)
        elif o is not None:
            for pred, os_ in self._pos.items():
                for subj in os_.get(o, ()):
                    yield Triple(subj, pred, o)
        else:
            yield from self

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        """Number of triples matching the pattern (cheap for common shapes)."""
        if s is None and p is None and o is None:
            return self._len
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is None and p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if p is not None and o is None and s is None:
            return sum(len(v) for v in self._pos.get(p, {}).values())
        return sum(1 for _ in self.match(s, p, o))

    def objects(self, s: Term, p: Term) -> Iterator[Term]:
        yield from self._spo.get(s, {}).get(p, ())


class PrefixMap:
    """Prefix label -> namespace IRI mapping with CURIE expand/compact."""

    def __init__(self, mapping: Optional[dict[str, str]] = None):
        self._map: dict[str, str] = dict(mapping or {})

    @classmethod
    def default(cls) -> "PrefixMap":
        from . import vocab
        return cls(dict(vocab.DEFAULT_PREFIXES))

    def register(self, prefix: str, namespace: str) -> None:
        self._map[prefix] = namespace

    def namespace(self, prefix: str) -> Optional[str]:
        return self._map.get(prefix)

    def items(self):
        return self._map.items()

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._map

    def expand(self, curie: str) -> IRI:
        prefix, sep, local = curie.partition(":")
        if not sep:
            raise UnresolvedPrefixError("not a CURIE: %r" % curie)
        ns = self._map.get(prefix)
        if ns is None:
            raise UnresolvedPrefixError("unknown prefix %r in %r" % (prefix, curie))
        return IRI(ns + local)

    def compact(self, iri: IRI) -> str:
        """Longest-namespace-match CURIE, or the IRI in angle brackets."""
        best = None
        best_ns = ""
        for prefix, ns in self._map.items():
            if iri.value.startswith(ns) and len(ns) > len(best_ns):
                best = prefix
                best_ns = ns
        if best is None:
            return "<%s>" % iri.value
        return "%s:%s" % (best, iri.value[len(best_ns):])
