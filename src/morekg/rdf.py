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

An index leaf (the objects of one subject and predicate, or the subjects
of one predicate and object) is the term itself while it holds one term,
and a ``set`` from the second term on.  Most leaves of a KG hold one
term, so this saves a container the garbage collector would walk for
nearly every triple.  ``Graph`` has no remove, so a ``set`` never shrinks
back, and ``Graph.without`` writes each leaf it keeps in the form of what
it keeps: each leaf has one form for its content, and equal graphs have
equal indexes.  Only ``Graph`` reads the leaves, through ``_leaf_terms``
or a ``type(leaf) is set`` test.

Three methods walk the indexes.  ``Graph.extend`` extends rows, tuples
of terms indexed by slot, by the triples that match one pattern;
``rules.join`` chains it atom by atom, and ``match`` is one row of it.
``Graph.stars`` yields each subject with its predicates and their
objects, which the writers read.  ``Graph.without`` filters both indexes
into a subgraph, leaf by leaf; role views are built with it, and
``copy`` is ``without`` with nothing dropped.
"""

from __future__ import annotations

import re
from operator import itemgetter
from types import MappingProxyType
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
# The one rule for the characters an IRI may not hold: space, the
# controls and <>"{}|^`\ (the IRIREF production of Turtle and N-Triples).
IRI_EXCLUDED = re.compile(r'[\x00-\x20<>"{}|^`\\]')
# The one rule for a language tag (the LANGTAG production of Turtle and
# N-Triples), as a pattern the readers interpolate.
LANGTAG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
_LANGTAG_RE = re.compile(LANGTAG)


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
            if not value or IRI_EXCLUDED.search(value):
                raise RdfError("IRI must be non-empty and hold no space, control "
                               "or any of <>\"{}|^`\\: %r" % value)
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
                if not _LANGTAG_RE.fullmatch(lang):
                    raise RdfError("language tag must be letters, then "
                                   "hyphen-led letters or digits: %r" % lang)
                if datatype is not None and datatype != RDF_LANG_STRING:
                    raise RdfError("language-tagged literal must use the langString datatype")
                datatype = RDF_LANG_STRING
            elif datatype is None:
                datatype = XSD_STRING
            elif not datatype or IRI_EXCLUDED.search(datatype):
                raise RdfError("datatype IRI must be non-empty and hold no space, "
                               "control or any of <>\"{}|^`\\: %r" % datatype)
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
    is left empty; bare leaves are interned terms and are shared."""
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
        new = tuple.__new__  # skips the namedtuple's Python-level __new__
        for s, po in self._spo.items():
            for p, objs in po.items():
                if type(objs) is set:
                    for o in objs:
                        yield new(Triple, (s, p, o))
                else:
                    yield new(Triple, (s, p, objs))

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        return o in _leaf_terms(self._spo.get(s, {}).get(p))

    def __eq__(self, other):
        return (isinstance(other, Graph) and self._len == other._len
                and self._spo == other._spo)

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Add a triple; returns True iff it was not already present."""
        if isinstance(s, Literal) or not isinstance(p, IRI):
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
            elif objs is o:
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

    def stars(self) -> Iterator[tuple[Term, list[tuple[Term, set | tuple]]]]:
        """Each subject with its ``(predicate, objects)`` pairs, read from
        SPO; the objects are a container of terms not to be mutated."""
        for s, po in self._spo.items():
            yield s, [(p, _leaf_terms(objs)) for p, objs in po.items()]

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
                if objs is o or (type(objs) is set and o in objs):
                    add(b)
        elif si is not None and pi is not None:  # (s, p, ?)
            for b in rows:
                for o in _leaf_terms(spo.get(b[si], _NO_ENTRIES).get(b[pi])):
                    add(b + (o,))
        elif si is not None and oi is not None:  # (s, ?, o)
            for b in rows:
                o = b[oi]
                for p, objs in spo.get(b[si], _NO_ENTRIES).items():
                    if objs is o or (type(objs) is set and o in objs):
                        add(b + (p,))
        elif pi is not None and oi is not None:  # (?, p, o)
            for b in rows:
                for s in _leaf_terms(pos.get(b[pi], _NO_ENTRIES).get(b[oi])):
                    add(b + (s,))
        elif si is not None:  # (s, ?, ?)
            for b in rows:
                for p, objs in spo.get(b[si], _NO_ENTRIES).items():
                    for o in _leaf_terms(objs):
                        add(b + (p, o))
        elif pi is not None:  # (?, p, ?)
            for b in rows:
                for o, subjs in pos.get(b[pi], _NO_ENTRIES).items():
                    for s in _leaf_terms(subjs):
                        add(b + (s, o))
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
              o: Optional[Term] = None) -> Iterator[Triple]:
        """Yield triples agreeing with every bound position: ``extend`` of
        the one row ``(s, p, o)``, whose free positions follow it."""
        pattern = (s, p, o)
        step = tuple(None if t is None else i for i, t in enumerate(pattern))
        free = iter(range(3, 6))
        get = itemgetter(*(next(free) if i is None else i for i in step))
        new = tuple.__new__
        for row in self.extend(step, [pattern]):
            yield new(Triple, get(row))

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        """Number of triples matching the pattern (cheap for common shapes)."""
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
