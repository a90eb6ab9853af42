import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from morekg.rdf import (XSD_STRING, BlankNode, Graph, IRI, Literal,
                        MalformedTripleError, PrefixMap, RdfError,
                        UnresolvedPrefixError, _leaf_terms, escape_string, iri_value,
                        is_iri, is_literal, literal_parts)
from morekg import vocab
from morekg.rules import Var, join
from morekg.serdes import write_ntriples, write_turtle

from graph_oracles import (as_dicts, check_against_scan, reference_compact, reference_join,
                           shapes)
from strategies import graphs, rule_graphs, triples

EX_S = IRI("http://example.org/s")
EX_P = IRI("http://example.org/p")
EX_O = IRI("http://example.org/o")
DECIMAL_ONE_FIVE = Literal("1.5", iri_value(vocab.XSD_DECIMAL))


class TestTerms:
    def test_terms_are_their_canonical_ntriples_text(self):
        assert IRI("http://example.org/x") == "<http://example.org/x>"
        assert BlankNode("b1") == "_:b1"
        assert Literal("a\"b\\c\nd") == '"a\\"b\\\\c\\nd"'
        assert Literal("hallo", lang="de") == '"hallo"@de'
        assert DECIMAL_ONE_FIVE == '"1.5"^^<http://www.w3.org/2001/XMLSchema#decimal>'

    def test_plain_literal_defaults_to_xsd_string(self):
        assert literal_parts(Literal("hi")) == ("hi", XSD_STRING, None)

    def test_lang_literal_uses_langstring(self):
        assert literal_parts(Literal("hallo", lang="de")) == (
            "hallo", "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString", "de")

    def test_lang_literal_rejects_other_datatype(self):
        with pytest.raises(RdfError):
            Literal("hallo", iri_value(vocab.XSD_INTEGER), lang="de")

    @pytest.mark.parametrize("tag", ["", "en us", "1x", "en-", "-en", "de\n"])
    def test_lang_literal_rejects_malformed_tag(self, tag):
        with pytest.raises(RdfError, match="language tag"):
            Literal("hallo", lang=tag)

    # a label the readers cannot lex would write N-Triples they reject
    @pytest.mark.parametrize("label", ["", "a.b", "a b", "-a", "\u00e9"])
    def test_blank_node_rejects_label_outside_the_grammar(self, label):
        with pytest.raises(RdfError, match="blank node label"):
            BlankNode(label)

    def test_iri_rejects_whitespace_and_empty(self):
        with pytest.raises(RdfError):
            IRI("http://example.org/a b")
        with pytest.raises(RdfError):
            IRI("")

    @pytest.mark.parametrize("datatype", ["", "http://example.org/a b"])
    def test_literal_datatype_rejects_whitespace_and_empty(self, datatype):
        with pytest.raises(RdfError):
            Literal("x", datatype)

    # a checked datatype is cached, but a bad one is not: it raises each time
    @given(st.one_of(st.just(""), st.builds(
        lambda a, c, b: a + c + b, st.text(max_size=8),
        st.sampled_from([chr(n) for n in range(0x21)] + list('<>"{}|^`\\')),
        st.text(max_size=8))))
    def test_bad_datatype_raises_on_every_call(self, datatype):
        for _ in range(2):
            with pytest.raises(RdfError, match="datatype IRI"):
                Literal("x", datatype)

    @given(st.text(alphabet=st.one_of(st.sampled_from('"\\\n\r\t'), st.characters()),
                   max_size=20))
    def test_escape_string_escapes_the_five_characters(self, text):
        escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
        assert escape_string(text) == "".join(escapes.get(c, c) for c in text)

    def test_term_equality_is_type_aware(self):
        assert IRI("http://example.org/x") != Literal("http://example.org/x")

    def test_plain_and_xsd_string_literal_are_one_term(self):
        assert Literal("x") == Literal("x", XSD_STRING)
        assert Literal("y", XSD_STRING) == Literal("y")

    def test_iri_rejects_each_excluded_character(self):
        for c in [chr(n) for n in range(0x21)] + list('<>"{}|^`\\'):
            with pytest.raises(RdfError):
                IRI("http://example.org/a%sb" % c)
            with pytest.raises(RdfError):
                Literal("x", "http://example.org/a%sb" % c)

    @pytest.mark.parametrize("c", ["\u00a0", "\u2028", "\u3000", "~", "%", "#"])
    def test_iri_allows_other_characters(self, c):
        assert iri_value(IRI("http://example.org/a%sb" % c)) == "http://example.org/a%sb" % c

    def test_kind_readers(self):
        assert [(is_iri(t), is_literal(t)) for t in (EX_S, BlankNode("b"), Literal("<x>"))] \
            == [(True, False), (False, False), (False, True)]
        assert literal_parts(EX_S) is None and literal_parts(BlankNode("b")) is None

    @given(triples)
    def test_rebuilt_terms_are_equal(self, t):
        # a term rebuilt from what the readers give back, or unpickled,
        # equals the original
        def rebuild(term):
            if is_iri(term):
                return IRI(iri_value(term))
            if not is_literal(term):
                return BlankNode(term[2:])
            lexical, datatype, lang = literal_parts(term)
            return Literal(lexical, datatype, lang)

        for term in t:
            assert rebuild(term) == term
        assert pickle.loads(pickle.dumps(t)) == t
        assert tuple(map(rebuild, t)) in Graph([t])


class TestGraph:
    def test_add_twice_returns_false_and_keeps_size(self):
        g = Graph()
        t = (EX_S, EX_P, DECIMAL_ONE_FIVE)
        assert g.add(*t) is True
        assert g.add(*t) is False
        assert len(g) == 1

    def test_add_decimal_literal(self):
        g = Graph()
        assert g.add(EX_S, EX_P, Literal("1", iri_value(vocab.XSD_DECIMAL)))
        assert len(g) == 1

    def test_literal_subject_rejected(self):
        g = Graph()
        with pytest.raises(MalformedTripleError):
            g.add(Literal("x"), EX_P, EX_O)

    @pytest.mark.parametrize("s", ["plain subject", "", None])
    def test_non_term_subject_rejected(self, s):
        g = Graph()
        with pytest.raises(MalformedTripleError, match="subject must be an IRI or a blank node"):
            g.add(s, EX_P, EX_O)
        assert len(g) == 0

    def test_blank_node_subject_accepted(self):
        g = Graph()
        assert g.add(BlankNode("b0"), EX_P, EX_O)

    def test_non_iri_predicate_rejected(self):
        g = Graph()
        with pytest.raises(MalformedTripleError):
            g.add(EX_S, Literal("p"), EX_O)

    @pytest.mark.parametrize("p", ["plain predicate", "", None])
    def test_non_term_predicate_rejected(self, p):
        g = Graph()
        with pytest.raises(MalformedTripleError, match="predicate must be an IRI"):
            g.add(EX_S, p, EX_O)
        assert len(g) == 0

    @pytest.mark.parametrize("o", ["plain text", "", None])
    def test_non_term_object_rejected(self, o):
        g = Graph()
        with pytest.raises(MalformedTripleError, match="object must be a term"):
            g.add(EX_S, EX_P, o)
        assert len(g) == 0

    def test_match_empty_graph(self):
        assert list(Graph().match()) == []

    def test_match_predicate_wildcard(self):
        g = Graph()
        for i in range(3):
            g.add(IRI("http://example.org/s%d" % i), vocab.RDF_TYPE, EX_O)
        assert len(list(g.match(None, vocab.RDF_TYPE, None))) == 3

    def test_match_study_individuals(self, fixture_graph, fixture_bundle):
        studies = list(fixture_graph.match(None, vocab.RDF_TYPE, vocab.MORE_STUDY))
        assert len(studies) == 1  # one study row in the bundle CSV
        assert fixture_bundle.metadata.id in iri_value(studies[0][0])

    @given(graphs())
    def test_triples_are_plain_tuples(self, g):
        # __iter__ and every match shape yield (s, p, o) as a plain tuple
        for t in g:
            assert type(t) is tuple and len(t) == 3
            for pattern in shapes(*t) + [(None, None, None)]:
                assert all(type(x) is tuple for x in g.match(*pattern)), pattern

    @given(graphs(), triples)
    def test_index_coherence(self, g, extra):
        # every pattern answered via an index equals a full-scan filter, on
        # the graph and on its copy; inserting into the copy leaves the
        # source as it was
        all_triples = set(g.match())
        extras = [extra]
        if all_triples:
            # new triples that share index keys with an existing one
            s, p, o = next(iter(all_triples))
            es, ep, eo = extra
            extras += [(s, p, eo), (es, p, o), (s, ep, o)]
        patterns = [shape for t in list(all_triples)[:5] + extras
                    for shape in shapes(*t)]

        def check(h):
            for pattern in patterns:
                scan = {t for t in all_triples
                        if all(q is None or q == v for q, v in zip(pattern, t))}
                assert set(h.match(*pattern)) == scan
                assert h.count(*pattern) == len(scan)

        copy = g.copy()
        check(g)
        check(copy)
        copy.update(extras)
        assert len(g) == len(all_triples)
        check(g)

    @given(st.lists(triples))
    def test_cardinality_is_distinct_count(self, ts):
        g = Graph()
        for t in ts:
            g.add(*t)
        assert len(g) == len(set(ts))

    @given(graphs(), triples, st.data())
    def test_count_memo_follows_the_graph_property(self, g, extra, data):
        # count keeps each pattern's count while the graph's length holds;
        # every check repeats counts taken on an earlier state, so a memo
        # kept past an add, or seen by a copy or a subgraph, disagrees
        # with match.  The added triples share index keys with one of g's.
        extras = [extra]
        if len(g):
            s, p, o = next(iter(g))
            es, ep, eo = extra
            extras += [(s, p, eo), (es, p, o), (s, ep, o)]
        patterns = {(None, None, None)} | {
            shape for t in list(g) + extras for shape in shapes(*t)}

        def check(h):
            for pattern in patterns:
                assert h.count(*pattern) == len(list(h.match(*pattern))), pattern

        check(g)
        copy = g.copy()
        for t in extras:
            g.add(*t)
            check(g)
        size = len(g)
        assert g.add(*extras[0]) is False  # a duplicate leaves the length as it is
        assert len(g) == size
        check(g)
        check(copy)
        copy.update(extras)
        check(copy)
        nodes = {x for s, _, o in g for x in (s, o)}
        view = g.without(data.draw(st.sets(st.sampled_from(sorted(nodes)))),
                         data.draw(st.sets(st.sampled_from(sorted({p for _, p, _ in g})))))
        check(view)
        check(g)


EX_S2, EX_S3 = IRI("http://example.org/s2"), IRI("http://example.org/s3")
EX_P2 = IRI("http://example.org/p2")
EX_O2, EX_O3 = IRI("http://example.org/o2"), IRI("http://example.org/o3")
# never added; each shares one index key with the triples the tests add
ABSENT_TRIPLES = [(EX_S, IRI("http://example.org/absent"), EX_O),
                  (EX_S2, EX_P, IRI("http://example.org/absent"))]


def _check_against_scan(g, expected):
    check_against_scan(g, expected, ABSENT_TRIPLES)


class TestLeaves:
    """An index leaf is a bare term while it holds one term and a set from
    the second term on; every read must see both forms alike."""

    def test_leaf_grows_from_one_term_to_two_and_ignores_duplicates(self):
        g = Graph()
        expected = set()
        steps = [
            [(EX_S, EX_P, EX_O)],  # both leaves bare
            # the (s, p) leaf and the (p, o) leaf each get a second term
            [(EX_S, EX_P, EX_O2), (EX_S2, EX_P, EX_O)],
            [],  # duplicates only
        ]
        for step in steps:
            for t in step:
                assert g.add(*t) is True
                expected.add(t)
            for t in sorted(expected, key=repr):
                assert g.add(*t) is False
            _check_against_scan(g, expected)

    def test_copy_promotes_its_own_leaves(self):
        source = {(EX_S, EX_P, EX_O), (EX_S, EX_P, EX_O2),
                  (EX_S2, EX_P, EX_O), (EX_S3, EX_P2, EX_O3)}
        g = Graph(source)
        c = g.copy()
        extra = {(EX_S, EX_P, EX_O3),     # a set leaf grows
                 (EX_S3, EX_P2, EX_O),    # a bare leaf becomes a set
                 (EX_S2, EX_P2, EX_O3)}   # and a (p, o) set leaf
        assert c.update(extra) == len(extra)
        _check_against_scan(g, source)
        _check_against_scan(c, source | extra)

    def test_equal_whatever_the_insertion_order(self):
        ts = [(EX_S, EX_P, EX_O), (EX_S, EX_P, EX_O2),
              (EX_S2, EX_P, EX_O), (EX_S, EX_P2, EX_O3),
              (EX_S3, EX_P2, EX_O3)]
        first = Graph(ts)
        for order in itertools.permutations(ts):
            g = Graph(order)
            assert g == first and g.copy() == first
        assert Graph(ts[1:]) != first
        assert Graph(ts[1:] + [(EX_S3, EX_P, EX_O)]) != first

    def test_without_leaves_each_leaf_in_its_one_form(self):
        source = {(EX_S, EX_P, EX_O), (EX_S, EX_P, EX_O2),
                  (EX_S2, EX_P, EX_O), (EX_S3, EX_P, EX_O),
                  (EX_S3, EX_P2, EX_O3), (EX_S2, EX_P2, EX_O2)}
        g = Graph(source)
        cases = [
            (set(), set()),             # a copy
            ({EX_O2}, set()),           # an (s, p) set leaf becomes bare
            ({EX_S3}, set()),           # a (p, o) set of three keeps two
            ({EX_S2, EX_S3}, set()),    # ... and of one becomes bare
            (set(), {EX_P}),            # inner dicts left empty go
            ({EX_S2, EX_O2}, {EX_P2}),
            ({EX_S, EX_S2, EX_S3}, set()),  # nothing left
        ]
        for nodes, predicates in cases:
            kept = {(s, p, o) for s, p, o in source if p not in predicates
                    and s not in nodes and o not in nodes}
            view, expected = g.without(nodes, predicates), Graph(kept)
            assert view == expected and view._pos == expected._pos, (nodes, predicates)
            assert all(inner for index in (view._spo, view._pos) for inner in index.values())
            _check_against_scan(view, kept)
        # the subgraph's leaves are its own
        view = g.without({EX_S3}, set())
        view.update([(EX_S, EX_P, EX_O3), (EX_S3, EX_P, EX_O)])
        _check_against_scan(g, source)

    @given(rule_graphs(), st.data())
    def test_without_property(self, g, data):
        ts = sorted(g, key=repr)
        nodes = data.draw(st.sets(st.sampled_from(
            sorted({x for s, _, o in ts for x in (s, o)}, key=repr))))
        predicates = data.draw(st.sets(st.sampled_from(
            sorted({p for _, p, _ in ts}, key=repr))))
        kept = {(s, p, o) for s, p, o in ts if p not in predicates
                and s not in nodes and o not in nodes}
        view, expected = g.without(nodes, predicates), Graph(kept)
        assert view == expected and view._pos == expected._pos
        _check_against_scan(view, kept)
        assert set(g) == set(ts)

    @given(rule_graphs())
    def test_stars_hold_each_subject_once_and_every_triple(self, g):
        subjects = [s for s, _ in g.stars()]
        assert len(subjects) == len(set(subjects))
        leaves = [leaf for _, pairs in g.stars() for _, leaf in pairs]
        assert all(len(leaf) > 1 for leaf in leaves if isinstance(leaf, set))
        star_triples = [(s, p, o) for s, pairs in g.stars() for p, leaf in pairs
                        for o in _leaf_terms(leaf)]
        assert len(star_triples) == len(g) and set(star_triples) == set(g)

    def test_distinct_pairs_hold_no_set_leaf(self):
        def set_leaf_sizes(index):
            return [len(leaf) for inner in index.values() for leaf in inner.values()
                    if isinstance(leaf, set)]

        g = Graph()
        for i in range(4):
            # (s, p) pairs and (p, o) pairs all distinct; subjects,
            # predicates and objects each repeat
            g.add(IRI("http://example.org/s%d" % (i % 2)),
                  IRI("http://example.org/p%d" % (i // 2)),
                  IRI("http://example.org/o%d" % i))
        assert sum(len(inner) for inner in g._spo.values()) == 4
        assert sum(len(inner) for inner in g._pos.values()) == 4
        assert set_leaf_sizes(g._spo) == set_leaf_sizes(g._pos) == []
        g.add(IRI("http://example.org/s0"), IRI("http://example.org/p0"),
              IRI("http://example.org/o1"))
        assert set_leaf_sizes(g._spo) == set_leaf_sizes(g._pos) == [2]


def _fresh(term):
    """An equal term that is a different object, as a second parse of the
    same text gives."""
    out = "".join(list(term))
    assert out == term and out is not term
    return out


class TestEqualNotIdenticalTerms:
    """Terms are compared by value: every read and write of the store must
    treat an equal term from elsewhere as the term itself."""

    @given(graphs())
    def test_add_of_an_equal_triple_is_a_duplicate(self, g):
        for t in list(g):
            before = g.copy()
            assert g.add(*map(_fresh, t)) is False
            assert len(g) == len(before)
            # the leaves stay bare where they were
            assert g == before and g._pos == before._pos

    @given(graphs())
    def test_reads_with_equal_terms_agree(self, g):
        for t in g:
            fresh = tuple(map(_fresh, t))
            assert fresh in g
            for pattern, fresh_pattern in zip(shapes(*t), shapes(*fresh)):
                assert set(g.match(*fresh_pattern)) == set(g.match(*pattern))
                assert g.count(*fresh_pattern) == g.count(*pattern)
                step = tuple(None if x is None else i for i, x in enumerate(pattern))
                assert (g.extend(step, [fresh_pattern]) == g.extend(step, [pattern]))

    @given(graphs())
    def test_join_of_a_repeated_variable_matches_equal_terms(self, g):
        # each subject is also the object of its own triple, as an equal
        # term that is another object
        loops = Graph((s, p, _fresh(s)) for s, p, _ in g)
        x = Var("x")
        for p in {p for _, p, _ in g}:
            body = [(x, _fresh(p), x)]
            got = as_dicts(join([loops], body))
            want = reference_join([loops], body)
            assert sorted(d["x"] for d in got) == sorted(d["x"] for d in want)
            assert len(got) == loops.count(None, p, None)

    @given(graphs(), st.data())
    def test_without_and_writers_with_equal_terms_agree(self, g, data):
        terms = sorted({x for t in g for x in t})
        nodes = data.draw(st.sets(st.sampled_from(terms))) if terms else set()
        predicates = {p for _, p, _ in g if data.draw(st.booleans())}
        assert (g.without({_fresh(n) for n in nodes}, {_fresh(p) for p in predicates})
                == g.without(nodes, predicates))
        copy = Graph(tuple(map(_fresh, t)) for t in g)
        assert copy == g
        assert write_ntriples(copy) == write_ntriples(g)
        assert write_turtle(copy) == write_turtle(g)


class TestPrefixMap:
    def test_expand_more_has_age(self):
        pm = PrefixMap.default()
        assert pm.expand("more:hasAge") == IRI("https://w3id.org/more#hasAge")

    def test_expand_obi(self):
        pm = PrefixMap.default()
        assert pm.expand("obi:has_specified_output") == IRI(
            "http://purl.obolibrary.org/obo/OBI_has_specified_output")

    def test_expand_xsd_decimal(self):
        assert PrefixMap.default().expand("xsd:decimal") == IRI(
            "http://www.w3.org/2001/XMLSchema#decimal")

    def test_expand_unknown_prefix(self):
        with pytest.raises(UnresolvedPrefixError):
            PrefixMap.default().expand("zzz:thing")

    def test_compact(self):
        pm = PrefixMap.default()
        assert pm.compact(IRI("https://w3id.org/more#study")) == "more:study"

    def test_compact_unregistered(self):
        assert PrefixMap.default().compact(IRI("http://example.org/x")) == \
            "<http://example.org/x>"

    def test_compact_longest_match(self):
        pm = PrefixMap({"a": "http://x.org/", "b": "http://x.org/deep/"})
        assert pm.compact(IRI("http://x.org/deep/z")) == "b:z"

    # namespaces of few characters, so that they nest and repeat, with the
    # regex metacharacters among them and the empty namespace in reach;
    # the IRIs start with a namespace or not
    _NS = st.text(alphabet="ab/#.+?(|", max_size=4)

    @given(st.lists(st.tuples(st.sampled_from("pqrs"), _NS), max_size=6),
           st.lists(st.tuples(_NS, st.text(alphabet="ab.|z", max_size=3)), max_size=8),
           st.tuples(st.sampled_from("pqrst"), _NS))
    def test_compact_equals_reference_property(self, entries, iris, later):
        pm = PrefixMap(dict(entries))
        terms = ["<%s%s>" % pair for pair in iris]
        for _ in range(2):  # before and after a register
            assert [pm.compact(t) for t in terms] == \
                [reference_compact(pm, t) for t in terms]
            pm.register(*later)

    def test_compact_ties_and_empty_namespace(self):
        pm = PrefixMap({"e": "", "x": "http://x.org/", "y": "http://x.org/"})
        assert pm.compact(IRI("http://x.org/a")) == "x:a"
        assert pm.compact(IRI("http://z.org/a")) == "<http://z.org/a>"
        pm.register("d", "http://x.org/a")
        assert pm.compact(IRI("http://x.org/a.b")) == "d:.b"

    @pytest.mark.parametrize("curie", [
        "iao:plan_specification", "more:hasAge", "bfo:Process", "pato:executes",
    ])
    def test_round_trip(self, curie):
        pm = PrefixMap.default()
        assert pm.compact(pm.expand(curie)) == curie

    @given(st.sampled_from(sorted(vocab.DEFAULT_PREFIXES)),
           st.text(alphabet="abcXYZ019_", min_size=1, max_size=10))
    def test_round_trip_property(self, prefix, local):
        pm = PrefixMap.default()
        curie = "%s:%s" % (prefix, local)
        expanded = pm.expand(curie)
        # longest-match may pick another prefix only if namespaces nest
        assert pm.expand(pm.compact(expanded)) == expanded
