import random

import pytest
from hypothesis import given, settings, strategies as st

from morekg import vocab
from morekg.query import QuerySyntaxError, evaluate, parse_query
from morekg.rdf import (CANONICAL_TERM, BlankNode, Graph, IRI, Literal, PrefixMap,
                        iri_value, literal_parts)
from morekg.rules import RuleSyntaxError, parse_rules
from morekg.serdes import (ParseError, _nt_lines, _nt_parse_line,
                           _ttl_read_canonical, _TurtleParser, parse_ntriples,
                           parse_turtle, term_to_ttl, write_file, write_ntriples,
                           write_turtle)

from graph_oracles import reference_write_ntriples, reference_write_turtle
from strategies import graphs, rule_triples, triples

EX = "http://example.org/"


def tg(*triples):
    return Graph(triples)


class TestNTriples:
    def test_empty_string(self):
        assert len(parse_ntriples("")) == 0

    def test_single_line_decimal(self):
        g = parse_ntriples(
            '<http://a> <http://b> "1.5"^^<http://www.w3.org/2001/XMLSchema#decimal> .')
        assert len(g) == 1
        _, _, o = next(iter(g))
        assert o == Literal("1.5", iri_value(vocab.XSD_DECIMAL))

    def test_comments_and_blank_lines(self):
        g = parse_ntriples("# hi\n\n<http://a> <http://b> <http://c> .\n")
        assert len(g) == 1

    def test_duplicates_deduplicated(self):
        line = "<http://a> <http://b> <http://c> ."
        assert len(parse_ntriples(line + "\n" + line)) == 1

    def test_malformed_term_reports_position(self):
        with pytest.raises(ParseError) as e:
            parse_ntriples("<http://a> nonsense <http://c> .")
        assert e.value.line == 1

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_ntriples("<http://a> <http://b> <http://c>")

    # N-Triples and Turtle read a line with one lexer and one term builder,
    # so each fault is reported alike: a character that does not lex at
    # that character, a missing dot at the end of the line, and a triple
    # its terms cannot form at the line's start.
    @pytest.mark.parametrize("text,column", [
        ('<http://e/s> <http://e/p> <http://e/o o> .', 33),
        ('<http://e/s> <http://e/p>   "abc .', 29),
        ('<http://e/s> <http://e/p> <http://e/o>', 39),
        ('"s" <http://e/p> <http://e/o> .', 1),
        ('<http://e/s> _:p <http://e/o> .', 1),
        # blanks are space and tab only: U+00A0, U+2003 and U+000C are not
        ('<http://e/s>\u00a0<http://e/p> <http://e/o> .', 13),
        ('<http://e/s> <http://e/p>\u2003<http://e/o> .', 26),
        ('<http://e/s> <http://e/p> <http://e/o>\x0c.', 39),
        ('\u00a0<http://e/s> <http://e/p> <http://e/o> .', 1),
        ('<http://e/s> <http://e/p> <http://e/o> .\u2003', 41),
    ])
    def test_error_position(self, text, column):
        errors = []
        for parse in (parse_ntriples, parse_turtle):
            with pytest.raises(ParseError) as e:
                parse(text)
            errors.append((str(e.value), e.value.line, e.value.column))
        assert errors[0] == errors[1]
        assert errors[0][1:] == (1, column)

    def test_escapes_round_trip(self):
        lit = Literal('he said "hi"\n\tand left\\')
        g = tg((IRI(EX + "s"), IRI(EX + "p"), lit))
        assert parse_ntriples(write_ntriples(g)) == g

    def test_unicode_escape_decoded(self):
        g = parse_ntriples('<http://a> <http://b> "gr\\u00FC\\u00DFe" .')
        assert literal_parts(next(iter(g))[2])[0] == "grüße"

    def test_empty_graph_writes_empty_string(self):
        assert write_ntriples(Graph()) == ""

    def test_write_is_deterministic(self):
        g = tg((IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o")))
        assert write_ntriples(g) == write_ntriples(g)

    def test_canonical_output_insertion_order_independent(self):
        ts = [(IRI(EX + c), IRI(EX + "p"), IRI(EX + "o")) for c in "abc"]
        for perm in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            g = Graph(ts[i] for i in perm)
            assert write_ntriples(g) == write_ntriples(Graph(ts))

    def test_fixture_round_trip(self, fixture_graph):
        assert parse_ntriples(write_ntriples(fixture_graph)) == fixture_graph

    @settings(max_examples=60)
    @given(graphs())
    def test_round_trip_property(self, g):
        assert parse_ntriples(write_ntriples(g)) == g


class TestWritersEqualReferences:
    """The writers read the indexes; their output must be byte for byte
    that of writing one triple at a time, so a changed sort order or
    layout fails here, where round trips and determinism would not."""

    @settings(max_examples=80)
    @given(graphs())
    def test_property(self, g):
        assert write_ntriples(g) == reference_write_ntriples(g)
        assert write_turtle(g) == reference_write_turtle(g)
        pm = PrefixMap({"ex": EX, "more": vocab.MORE})
        assert write_turtle(g, pm) == reference_write_turtle(g, pm)

    # a CURIE is written only where its label and its local part both lex;
    # any other label gives the full IRI, as a bad local part does
    @pytest.mark.parametrize("label, local, curie", [
        ("ex", "a", "ex:a"), ("ex", "", "ex:"), ("e-x_1", "a-b", "e-x_1:a-b"),
        ("ex", "a/b", None), ("ex", "-a", None), ("", "a", None), ("1x", "a", None),
        ("e:x", "a", None), ("e x", "a", None)])
    def test_term_to_ttl_checks_label_and_local(self, label, local, curie):
        term = IRI(EX + local)
        assert term_to_ttl(term, PrefixMap({label: EX})) == (curie or term)

    @pytest.mark.parametrize("name", ["fixture_graph", "fixture_materialized"])
    def test_fixture(self, request, name):
        g = request.getfixturevalue(name)
        assert write_ntriples(g) == reference_write_ntriples(g)
        assert write_turtle(g) == reference_write_turtle(g)

    # the lines of the triples put in, not of the graph's own iteration, so
    # that a triple the writer's walk misses or repeats fails here; the few
    # terms of rule triples put two or more terms in many index leaves
    @settings(max_examples=80)
    @given(st.lists(st.one_of(triples, rule_triples), max_size=25))
    def test_lines_are_the_triples_put_in(self, ts):
        assert write_ntriples(Graph(ts)) == "".join(sorted(
            {"%s %s %s .\n" % t for t in ts}))

    # write_file writes the N-Triples lines one by one, the same bytes
    def test_files_hold_the_writers_text(self, fixture_materialized, tmp_path):
        for name, write in (("kg.nt", write_ntriples), ("kg.ttl", write_turtle)):
            write_file(fixture_materialized, tmp_path / name)
            assert (tmp_path / name).read_bytes() == \
                write(fixture_materialized).encode("utf-8")


class TestTurtle:
    def test_prefix_and_single_triple(self):
        g = parse_turtle(
            "@prefix more: <https://w3id.org/more#> . more:Handgrip a more:TestItem .")
        assert len(g) == 1
        s, p, o = next(iter(g))
        assert s == IRI("https://w3id.org/more#Handgrip")
        assert p == vocab.RDF_TYPE
        assert o == IRI("https://w3id.org/more#TestItem")

    def test_object_list_comma(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> . ex:s ex:p ex:o1 , ex:o2 .")
        assert len(g) == 2
        assert {o for _, _, o in g} == {IRI(EX + "o1"), IRI(EX + "o2")}

    def test_predicate_list_semicolon(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> . ex:s ex:p ex:o ; ex:q ex:r .")
        assert len(g) == 2

    def test_numeric_shorthand(self):
        g = parse_turtle("@prefix ex: <http://example.org/> . ex:s ex:p 42 ; ex:q 1.5 .")
        objs = {o for _, _, o in g}
        assert Literal("42", iri_value(vocab.XSD_INTEGER)) in objs
        assert Literal("1.5", iri_value(vocab.XSD_DECIMAL)) in objs

    def test_lang_and_typed_literals(self):
        g = parse_turtle(
            '@prefix ex: <http://example.org/> . '
            'ex:s ex:p "hi"@en , "7"^^<http://www.w3.org/2001/XMLSchema#integer> , '
            '"x"^^ex:custom .')
        assert len(g) == 3

    # the last three are spelled like Turtle's directives, and read as
    # tags also where a Turtle statement could start with a directive
    @pytest.mark.parametrize("tag", ["en", "de-CH", "en-GB-oxendict", "zh-Hant-1996", "X",
                                     "prefix", "prefix-x", "base"])
    def test_lang_tags_round_trip(self, tag):
        s, p, o = IRI(EX + "s"), IRI(EX + "p"), Literal("hi", lang=tag)
        g = Graph([(s, p, o)])
        assert parse_ntriples(write_ntriples(g)) == g
        assert parse_turtle(write_turtle(g)) == g
        assert _TurtleParser(write_turtle(g)).parse() == g
        assert parse_ntriples("%s\t%s\t%s\t.\r\n" % (s, p, o)) == g
        q = parse_query('SELECT ?s WHERE { ?s ?p ?o . FILTER(?o = "hi"@%s) }' % tag)
        assert evaluate(g, q).rows == [(s,)]

    def test_unknown_prefix_error(self):
        with pytest.raises(ParseError) as e:
            parse_turtle("zzz:a zzz:b zzz:c .")
        assert "zzz" in str(e.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as e:
            parse_turtle("@prefix ex: <http://example.org/> .\nex:s ex:p .")
        assert e.value.line == 2

    def test_empty_graph_writes_prefix_block_only(self):
        out = write_turtle(Graph())
        assert all(line.startswith("@prefix") or not line
                   for line in out.splitlines())

    def test_rdf_type_written_as_a(self):
        g = tg((IRI(EX + "s"), vocab.RDF_TYPE, IRI(EX + "o")))
        body = [line for line in write_turtle(g).splitlines()
                if line and not line.startswith("@prefix")]
        assert " a " in body[0]

    def test_fixture_round_trip(self, fixture_graph):
        assert parse_turtle(write_turtle(fixture_graph)) == fixture_graph

    def test_canonical_turtle_deterministic(self, fixture_graph):
        assert write_turtle(fixture_graph) == write_turtle(fixture_graph.copy())

    @settings(max_examples=60)
    @given(graphs())
    def test_round_trip_property(self, g):
        assert parse_turtle(write_turtle(g)) == g

    @settings(max_examples=30)
    @given(graphs())
    def test_emitted_files_reparse(self, g):
        # self-consistency: whatever we emit must parse without error
        parse_turtle(write_turtle(g))
        parse_ntriples(write_ntriples(g))


# Inputs whose terms are well-formed tokens but invalid terms: an empty
# IRI, an unknown string escape, short \u and \U escapes, code points
# above U+10FFFF and a lone surrogate; in IRIs, escapes that encode a
# space or a character IRIs exclude, a non-\u escape and a short one; in
# a datatype IRI, an escape that encodes a space, and an empty one; raw
# characters that IRIs exclude, in each position and in a datatype IRI;
# a raw line feed inside a short string.  Each must fail at the position of the term's first character.
BAD_TERMS = [
    ('<> <http://e/p> <http://e/o> .', 1),
    ('<http://e/s> <http://e/p> "a\\qb" .', 27),
    ('<http://e/s> <http://e/p> "a\\u00" .', 27),
    ('<http://e/s> <http://e/p> "a\\U0001F6" .', 27),
    ('<http://e/s> <http://e/p> "a\\U00110000" .', 27),
    ('<http://e/s> <http://e/p> "a\\UFFFFFFFF" .', 27),
    ('<http://e/s> <http://e/p> "a\\uD800" .', 27),
    ('<http://a/\\u0020> <http://e/p> <http://e/o> .', 1),
    ('<http://e/s> <http://e/p> <http://a/\\u003E> .', 27),
    ('<http://e/s> <http://e/p> <http://a/\\U0000007C> .', 27),
    ('<http://e/s> <http://e/p> <http://a/\\u005C> .', 27),
    ('<http://e/s> <http://e/p> <http://a/\\q> .', 27),
    ('<http://e/s> <http://e/p> <http://a/\\u00> .', 27),
    ('<http://e/s> <http://e/p> "x"^^<http://a/\\u0020> .', 27),
    ('<http://e/s> <http://e/p> "x"^^<> .', 27),
    ('<http://x/a{b}> <http://e/p> <http://e/o> .', 1),
    ('<http://e/s> <http://e/a|b> <http://e/o> .', 14),
    ('<http://e/s> <http://e/p> <http://x/a}b> .', 27),
    ('<http://e/s> <http://e/p> <http://e/a^b> .', 27),
    ('<http://e/s> <http://e/p> <http://e/a`b> .', 27),
    ('<http://e/s> <http://e/p> <http://e/a\x00b> .', 27),
    ('<http://e/s> <http://e/p> <http://e/a\x01b> .', 27),
    ('<http://e/s> <http://e/p> "x"^^<http://e/a{b> .', 27),
    ('<http://e/s> <http://e/p> "a\nb" .', 27),
]


def _query_patterns(text):
    """The triple patterns of ``text`` as the WHERE block of a query."""
    return parse_query("SELECT ?x WHERE { ?x ?p ?o . %s }" % text).where[1:]


def _rule_patterns(text):
    """The triple patterns of ``text`` as the body of a rule."""
    rule, = parse_rules("r1: %s & ?x ?p ?o => ?x ?p ?o ." % text.rstrip(" ."),
                        include_builtins=False)
    return list(rule.body[:-1])


@pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle,
                                   _query_patterns, _rule_patterns])
def test_iri_escapes_decoded(parse):
    g = parse('<http://a/\\u0041> <http://e/p> "x"^^<http://a/\\U00000042> .')
    assert list(g) == [(IRI("http://a/A"), IRI("http://e/p"),
                        Literal("x", "http://a/B"))]


@pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle,
                                   _query_patterns, _rule_patterns])
def test_iri_with_a_non_ascii_space_parses(parse):
    # U+00A0 is a ucschar, which IRIs allow
    g = parse('<http://a/x\u00a0y> <http://e/p> "x"^^<http://a/\u00a0> .')
    assert list(g) == [(IRI("http://a/x\u00a0y"), IRI("http://e/p"),
                        Literal("x", "http://a/\u00a0"))]


@pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
@pytest.mark.parametrize("text,column", BAD_TERMS)
def test_invalid_term_reports_position(parse, text, column):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (1, column)


# Each row of BAD_TERMS, less its final " .", as line 2 of a document in
# each syntax, at the row's own columns: (parse, template, error class).
EMBEDDINGS = {
    "ntriples": (parse_ntriples, "<http://e/s> <http://e/p> <http://e/o> .\n%s .\n",
                 ParseError),
    "turtle": (parse_turtle, "@prefix e: <http://e/> .\n%s .\ne:s e:p e:o .",
               ParseError),
    "query": (parse_query, "SELECT ?x WHERE { ?x ?p ?o .\n%s .\n}",
              QuerySyntaxError),
    "rule": (lambda text: parse_rules(text, include_builtins=False),
             "r1: ?x ?p ?o &\n%s\n=> ?x ?p ?o .", RuleSyntaxError),
}


@pytest.mark.parametrize("syntax", sorted(EMBEDDINGS))
def test_embedding_of_a_good_row_parses(syntax):
    parse, template, _ = EMBEDDINGS[syntax]
    parse(template % '<http://e/s> <http://e/p> "a\\u0041"')


@pytest.mark.parametrize("syntax", sorted(EMBEDDINGS))
@pytest.mark.parametrize("row,column", BAD_TERMS)
def test_one_term_grammar_reports_position(syntax, row, column):
    parse, template, error = EMBEDDINGS[syntax]
    with pytest.raises(error) as e:
        parse(template % row.rstrip(" ."))
    assert (e.value.line, e.value.column) == (2, column)


def _fuzz_graph():
    s, b = IRI(EX + "s"), BlankNode("b1")
    return tg((s, IRI(EX + "label"), Literal("grip strength, right hand")),
              (s, IRI(EX + "value"), Literal("31.5", iri_value(vocab.XSD_DECIMAL))),
              (s, IRI(EX + "label"), Literal("Handkraft rechts", lang="de")),
              (s, IRI(EX + "next"), b),
              (b, IRI(EX + "next"), s))


# characters that delimit or escape terms, plus two truncated escapes
FUZZ_PIECES = list('<>"\\_:.;,@^ #') + ["\\u00", "\\U0001F6"]


@st.composite
def mutated(draw, doc, pieces=FUZZ_PIECES):
    """``doc`` after 1-3 edits, each inserting, deleting or replacing at one
    position, half of them at a blank, where terms meet."""
    for _ in range(draw(st.integers(1, 3))):
        blanks = [i for i, c in enumerate(doc) if c in " \t\n"]
        i = draw(st.integers(0, len(doc)) if not blanks or draw(st.booleans())
                 else st.sampled_from(blanks))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = "" if op == "delete" else draw(st.sampled_from(pieces))
        doc = doc[:i] + piece + doc[i + (op != "insert"):]
    return doc


FUZZ_QUERY = """PREFIX ex: <http://example.org/>
SELECT ?s (AVG(?v) AS ?avg) WHERE {
  ?s a ex:Test ; ex:value ?v , 31.5 ; ex:label "grip, right"@en .
  FILTER(?v >= "30"^^<http://www.w3.org/2001/XMLSchema#decimal> && ?v < 40)
} GROUP BY ?s ORDER BY DESC(?avg) LIMIT 5
"""

FUZZ_RULES = """# two rules
r1: ?a more:p <http://example.org/b> & ?b more:q "x"@en => ?a more:r ?b .
r2: ?a a more:C => ?a more:v "31.5"^^xsd:decimal & ?a more:w -2 .
"""


@settings(max_examples=300, deadline=None)
@pytest.mark.parametrize("parse,doc,error", [
    (parse_ntriples, write_ntriples(_fuzz_graph()), ParseError),
    (parse_turtle, write_turtle(_fuzz_graph(), PrefixMap({"ex": EX})), ParseError),
    (parse_query, FUZZ_QUERY, QuerySyntaxError),
    (parse_rules, FUZZ_RULES, RuleSyntaxError),
], ids=["ntriples", "turtle", "query", "rules"])
@given(data=st.data())
def test_mutated_input_parses_or_fails_with_position(parse, doc, error, data):
    text = data.draw(mutated(doc))
    try:
        parse(text)
    except error as e:
        assert e.line >= 1 and e.column >= 1


# Canonical lines whose literals hold inner spaces, " ." and \", with a
# language tag, a datatype and blank nodes, and some terms repeated; then
# valid lines in other layouts: tabs, CRLF, leading blanks, a comment, a
# comment after the dot, and two lines ended by a lone CR.
NT_LAYOUTS = """\
<http://e/s> <http://e/label> "grip strength . right hand ." .
<http://e/s> <http://e/quote> "he said \\"hi .\\" and left" .
<http://e/s> <http://e/label> "Handkraft rechts"@de-AT .
<http://e/s> <http://e/value> "31.5"^^<http://www.w3.org/2001/XMLSchema#decimal> .
_:b1 <http://e/next> <http://e/s> .
<http://e/s> <http://e/next> _:b1 .
<http://e/s>\t<http://e/value>\t"7"^^<http://www.w3.org/2001/XMLSchema#integer>\t.
<http://e/t> <http://e/label> "x y" .\r
   _:b1 <http://e/label> "grip strength . right hand ." .
# a comment <http://e/s> <http://e/p> <http://e/o> .
<http://e/t> <http://e/next> <http://e/s> .
<http://e/s> <http://e/p> <http://e/o> . # note
<http://e/u> <http://e/p> <http://e/o> .\r<http://e/u> <http://e/q> <http://e/o> .
"""

# FUZZ_PIECES plus layout: tabs, CR, newlines and a spaced dot
NT_FUZZ_PIECES = FUZZ_PIECES + ["\t", "\r", "\n", " ."]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.line, e.column


def _parse_lines_alone(text):
    """``text`` through the line parser alone."""
    graph = Graph()
    for lineno, line in enumerate(_nt_lines(text), start=1):
        stripped = line.strip(" \t")
        if stripped and not stripped.startswith("#"):
            _nt_parse_line(line, lineno, graph)
    return graph


def test_ntriples_layouts_parse():
    assert len(parse_ntriples(NT_LAYOUTS)) == 13


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"])
def test_ntriples_line_ends_count_lines(eol):
    with pytest.raises(ParseError) as e:
        parse_ntriples("<http://e/s> <http://e/p> <http://e/o> .%s<http://e/s> ." % eol)
    assert (e.value.line, e.value.column) == (2, 14)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_canonical_fast_path_equals_line_parser(data):
    text = data.draw(mutated(NT_LAYOUTS, NT_FUZZ_PIECES))
    assert _outcome(parse_ntriples, text) == _outcome(_parse_lines_alone, text)


@settings(max_examples=100)
@given(graphs())
def test_every_term_is_canonical(g):
    for t in g:
        assert all(CANONICAL_TERM.fullmatch(term) for term in t)


# Valid spellings that are not a term's canonical text: the fast path
# passes them to the line parser, which reads each to its term.
@pytest.mark.parametrize("text,term", [
    ('"a\\u0041"', Literal("aA")),
    ('"x"^^<http://www.w3.org/2001/XMLSchema#string>', Literal("x")),
    ('"a\tb"', Literal("a\tb")),
])
def test_non_canonical_spelling_reads_to_its_term(text, term):
    assert not CANONICAL_TERM.fullmatch(text)
    g = parse_ntriples("<http://e/s> <http://e/p> %s .\n" % text)
    assert list(g) == [(IRI("http://e/s"), IRI("http://e/p"), term)]


# Statements in write_turtle's layout whose literals hold " ;", " ." and
# \", with a language tag, a pname datatype, blank nodes, ``a`` and a bare
# integer, and some terms repeated; then what the layout has no place for:
# a literal holding ", ", a comment line, a second @prefix and a CRLF line.
TTL_LAYOUTS = """\
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

_:b1 ex:next ex:s .
ex:s a ex:Test ;
    ex:label "Handkraft rechts"@de-AT, "grip strength ; right hand ." ;
    ex:note "he said \\"hi .\\" and left", "ends ;" ;
    ex:value "31.5"^^xsd:decimal, 7 .
ex:t ex:next _:b1, ex:s ;
    ex:label "grip strength ; right hand ." .
ex:u ex:label "grip strength, right hand" .
# a comment ex:s ex:p ex:o .
@prefix e: <http://e/> .
e:v a ex:Test ;\r
    ex:value 7 .
"""

# FUZZ_PIECES plus layout: tabs, CR, newlines and the layout's separators
TTL_FUZZ_PIECES = FUZZ_PIECES + ["\t", "\r", "\n", ", ", " ;"]


def test_turtle_layouts_parse():
    g = parse_turtle(TTL_LAYOUTS)
    assert len(g) == 14
    assert g == _TurtleParser(TTL_LAYOUTS).parse()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_canonical_turtle_equals_token_parser(data):
    text = data.draw(mutated(TTL_LAYOUTS, TTL_FUZZ_PIECES))
    assert (_outcome(parse_turtle, text)
            == _outcome(lambda t: _TurtleParser(t).parse(), text))


def _canonical_turtle(last):
    """A document in write_turtle's layout, up to and without ``last``, and
    the document with ``last`` as its last statement."""
    g = Graph(t for t in _fuzz_graph() if ", " not in t[2])
    head = write_turtle(g, PrefixMap({"ex": EX}))
    return head, head + last + "\n"


# Last statements that the line reader hands to the token parser: a literal
# holding ", ", a later @prefix that rebinds a prefix whose names the
# reader has already read, and terms that write_turtle never writes so: a
# pname datatype, a bare integer and an escaped IRI.
@pytest.mark.parametrize("last", [
    'ex:t ex:label "x" ;\n    ex:label "grip strength, right hand", "y" .',
    '@prefix ex: <http://e/> .\nex:s ex:next _:b1 .',
    'ex:t ex:value "31.5"^^ex:dt .',
    'ex:t ex:value 7 .',
    'ex:t ex:next <http://e/\\u0041> .',
])
def test_token_parser_resumes_at_the_statement_it_cannot_split(last):
    head, text = _canonical_turtle(last)
    assert _ttl_read_canonical(text, Graph(), PrefixMap.default()) == len(head)
    assert parse_turtle(text) == _TurtleParser(text).parse()


# The line reader reads all of what write_turtle writes, except a literal
# holding ", ", to the graph that was written.
@settings(max_examples=200, deadline=None)
@given(graphs().filter(lambda g: not any(", " in o for _, _, o in g)))
def test_line_reader_reads_what_write_turtle_writes(g):
    g.add(IRI(EX + "s"), vocab.RDF_TYPE, IRI(EX + "T"))  # written with ``a``
    text, read = write_turtle(g), Graph()
    assert _ttl_read_canonical(text, read, PrefixMap.default()) == len(text)
    assert read == g


# An invalid term on the last line, and ``a`` read as a predicate and then
# found as an object: (last statement, message, line after the head, column).
@pytest.mark.parametrize("last,message,line,column", [
    ('ex:t ex:label "x" ;\n    ex:p "a\\qb" .', "unknown escape sequence", 2, 10),
    ('ex:t a ex:T ;\n    ex:next a .', "expected object, got 'a'", 2, 13),
])
def test_invalid_term_on_the_last_line_raises_there(last, message, line, column):
    head, text = _canonical_turtle(last)
    with pytest.raises(ParseError) as e:
        parse_turtle(text)
    assert str(e.value).startswith(message)
    assert (e.value.line, e.value.column) == (head.count("\n") + line, column)


def test_many_seeded_random_graphs_round_trip():
    rng = random.Random(1234)
    terms = ([IRI(EX + "n%d" % i) for i in range(12)]
             + [Literal("v%d" % i, iri_value(vocab.XSD_DECIMAL)) for i in range(4)]
             + [Literal("s%d" % i) for i in range(4)])
    for _ in range(100):
        g = Graph()
        for _ in range(rng.randint(0, 40)):
            s = terms[rng.randrange(12)]
            p = terms[rng.randrange(12)]
            o = terms[rng.randrange(len(terms))]
            g.add(s, p, o)
        assert parse_ntriples(write_ntriples(g)) == g
        assert parse_turtle(write_turtle(g)) == g
