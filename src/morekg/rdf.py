"""Core RDF term model and an indexed in-memory triple store.

Terms are immutable and hashable; the graph keeps three nested-dict
indexes (SPO, POS, OSP) so that any single-triple pattern can be
answered with dictionary lookups only.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
RDF_LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


class RdfError(Exception):
    """Base error for the RDF layer."""


class MalformedTripleError(RdfError):
    pass


class UnresolvedPrefixError(RdfError):
    pass


class IRI:
    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not value or any(c.isspace() for c in value):
            raise RdfError("IRI must be non-empty and contain no whitespace: %r" % value)
        self.value = value
        self._hash = hash(("iri", value))

    def __eq__(self, other):
        return isinstance(other, IRI) and self.value == other.value

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "IRI(%r)" % self.value


class BlankNode:
    __slots__ = ("label", "_hash")

    def __init__(self, label: str):
        if not label:
            raise RdfError("blank node label must be non-empty")
        self.label = label
        self._hash = hash(("blank", label))

    def __eq__(self, other):
        return isinstance(other, BlankNode) and self.label == other.label

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "BlankNode(%r)" % self.label


class Literal:
    __slots__ = ("lexical", "datatype", "lang", "_hash")

    def __init__(self, lexical: str, datatype: Optional[str] = None, lang: Optional[str] = None):
        if lang is not None:
            if datatype is not None and datatype != RDF_LANG_STRING:
                raise RdfError("language-tagged literal must use the langString datatype")
            datatype = RDF_LANG_STRING
        elif datatype is None:
            datatype = XSD_STRING
        self.lexical = lexical
        self.datatype = datatype
        self.lang = lang
        self._hash = hash(("lit", lexical, datatype, lang))

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.lang == other.lang
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.lang:
            return "Literal(%r, lang=%r)" % (self.lexical, self.lang)
        return "Literal(%r, %r)" % (self.lexical, self.datatype)


Term = IRI | BlankNode | Literal


class Triple(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


def _check_triple(t: Triple) -> None:
    if isinstance(t.subject, Literal):
        raise MalformedTripleError("triple subject may not be a literal: %r" % (t,))
    if not isinstance(t.predicate, IRI):
        raise MalformedTripleError("triple predicate must be an IRI: %r" % (t,))


def _copy_index(index: dict) -> dict:
    return {k: {k2: v.copy() for k2, v in inner.items()} for k, inner in index.items()}


class Graph:
    """Set of triples with SPO/POS/OSP indexes.

    Single-writer, multi-reader: mutate only with exclusive access.
    """

    __slots__ = ("_triples", "_spo", "_pos", "_osp")

    def __init__(self, triples=None):
        self._triples: set[Triple] = set()
        self._spo: dict = {}
        self._pos: dict = {}
        self._osp: dict = {}
        if triples:
            for t in triples:
                self.insert(t)

    def __len__(self):
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __eq__(self, other):
        return isinstance(other, Graph) and self._triples == other._triples

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True iff it was not already present."""
        _check_triple(t)
        if t in self._triples:
            return False
        self._triples.add(t)
        s, p, o = t
        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        return True

    def add(self, s: Term, p: Term, o: Term) -> bool:
        return self.insert(Triple(s, p, o))

    def update(self, triples) -> int:
        """Insert many triples; returns the number actually added."""
        n = 0
        for t in triples:
            if self.insert(t):
                n += 1
        return n

    def copy(self) -> "Graph":
        """Independent copy, built from the indexes without re-inserting."""
        g = Graph()
        g._triples = self._triples.copy()
        g._spo = _copy_index(self._spo)
        g._pos = _copy_index(self._pos)
        g._osp = _copy_index(self._osp)
        return g

    def triples(self) -> set[Triple]:
        return set(self._triples)

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> Iterator[Triple]:
        """Yield triples agreeing with every bound position."""
        if s is not None and p is not None and o is not None:
            t = Triple(s, p, o)
            if t in self._triples:
                yield t
        elif s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj)
        elif s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
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
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, o)
        else:
            yield from self._triples

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        """Number of triples matching the pattern (cheap for common shapes)."""
        if s is None and p is None and o is None:
            return len(self._triples)
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is None and p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if p is not None and o is None and s is None:
            return sum(len(v) for v in self._pos.get(p, {}).values())
        return sum(1 for _ in self.match(s, p, o))

    def subjects(self, p: Term, o: Term) -> Iterator[Term]:
        yield from self._pos.get(p, {}).get(o, ())

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
