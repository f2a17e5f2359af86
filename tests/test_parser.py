"""Description-file grammar: parsing, validation errors, serialization."""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import fields, parser
from stratakit.errors import ParseError
from stratakit.fields import GF, QQ
from stratakit.parser import parse, parse_file, serialize

from conftest import FIXTURES, fixture_path

GOOD = """
name demo
field Q
vertices 1 2
arrow a 1 2
module N
  dims 1 1
  map a 2/3
end
"""


def test_parse_basic_fields():
    f = parse(GOOD)
    assert f.name == "demo"
    assert f.field.is_rational
    assert f.vertices == ["1", "2"]
    assert f.arrows == [("a", "1", "2")]
    assert "N" in f.modules


def test_path_text_is_rightmost_first():
    f = parse("field Q\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\n"
              "relation 1*b.a\n")
    # "b.a" means a first, then b: traversal order (a, b)
    assert f.relations == [[(f.field.of(1), ("a", "b"))]]


def test_module_rep_checks_relations():
    f = parse_file(fixture_path("a3line.alg"))
    a = f.build()
    m = f.module_rep(a, "M")
    assert m.dims == (1, 1, 0)
    assert m.relations_hold()


def test_all_fixtures_round_trip():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.alg"))) + \
            sorted(glob.glob(os.path.join(FIXTURES, "*.emb"))):
        with open(path) as fh:
            f = parse(fh.read())
        again = parse(serialize(f))
        assert vars(f) == vars(again), path
        # serialization is a fixed point
        assert serialize(f) == serialize(again), path


def test_serialize_is_canonical():
    f1 = parse("field Q\nvertices 1 2\narrow a 1 2\n"
               "module B\n dims 1 0\nend\nmodule A\n dims 0 1\nend\n")
    f2 = parse("field Q\nvertices 1 2\narrow a 1 2\n"
               "module A\n dims 0 1\nend\nmodule B\n dims 1 0\nend\n")
    assert serialize(f1) == serialize(f2)


def reference_terms(field, text, line_no):
    """parser._parse_terms with the character-by-character tokenizer: a
    sign ends a nonblank chunk, and the signs before a chunk multiply."""
    sign, chunks, cur = 1, [], ""
    for ch in text:
        if ch in "+-" and cur.strip():
            chunks.append((sign, cur.strip()))
            cur = ""
            sign = 1 if ch == "+" else -1
        elif ch in "+-" and not cur.strip():
            sign = sign * (1 if ch == "+" else -1)
        else:
            cur += ch
    if cur.strip():
        chunks.append((sign, cur.strip()))
    if not chunks:
        raise ParseError("empty relation", line_no)
    out = []
    for sgn, chunk in chunks:
        if "*" in chunk:
            coeff_text, path_text = chunk.split("*", 1)
            try:
                coeff = field.parse_scalar(coeff_text)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coefficient {coeff_text!r}", line_no)
        else:
            coeff, path_text = field.one, chunk
        if sgn < 0:
            coeff = field.neg(coeff)
        out.append((coeff, parser._parse_path(path_text, line_no)))
    return out


def _terms_or_error(parse_terms, field, text):
    try:
        return parse_terms(field, text, 7)
    except ParseError as err:
        return str(err), err.line


@settings(max_examples=500)
@given(st.sampled_from([QQ, GF(3)]),
       st.text(alphabet=" +-*./2ab\t", max_size=16))
def test_terms_split_as_the_character_tokenizer_did(field, text):
    # runs of signs, blanks around them, signs inside coefficients such as
    # 3/-4 and empty chunks: the same terms, or the same error and line
    assert (_terms_or_error(parser._parse_terms, field, text)
            == _terms_or_error(reference_terms, field, text))


@pytest.mark.parametrize("text,fragment", [
    ("field Q\nvertices 1\narrow a 1 9\n", "vertex"),
    ("field Q\nvertices 1 1\n", "duplicate"),
    ("field GF 4\nvertices 1\n", "prime"),
    ("field Q\nvertices 1 2\narrow a 1 2\nrelation 1*a.a\n", "compos"),
    ("field Q\nvertices 1 2\narrow a 1 2\nrelation 1*z\n", "unknown"),
    ("field Q\nvertices 1 2\narrow a 1 2\nmodule M\n dims 1\nend\n", "dims"),
    ("vertices 1\n", "field"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        f = parse(text)
        f.build()
    assert fragment.lower() in str(err.value).lower()


@pytest.mark.parametrize("body,fragment,line", [
    (" dims -1 1\nend\n", "must not be negative", 5),
    (" dims 1 1\n map b 1\nend\n", "unknown arrow 'b'", 6),
    (" dims 1 1\n map a 1\n map a 0\nend\n", "second map for arrow 'a'", 7),
    (" dims 1 1\n dims 1 0\nend\n", "second dims line", 6),
    (" dims 1 1\nend\nmodule M\n dims 1 1\nend\n", "second module named", 7),
], ids=["negative_dims", "unknown_arrow", "second_map", "second_dims",
        "second_module"])
def test_module_blocks_drop_or_overwrite_nothing(body, fragment, line):
    with pytest.raises(ParseError) as err:
        parse("field Q\nvertices 1 2\narrow a 1 2\nmodule M\n" + body)
    assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize("p", [65537, 2 ** 61 - 1, 2 ** 16])
def test_large_primes_are_refused_before_any_primality_test(p, monkeypatch):
    # trial division up to sqrt(2^61 - 1) takes over a billion steps
    def no_test(n):
        raise AssertionError("primality tested")

    monkeypatch.setattr(fields, "_is_prime", no_test)
    with pytest.raises(ParseError) as err:
        parse(f"field GF {p}\nvertices 1\n")
    assert "2^16" in str(err.value) and err.value.line == 1


def test_the_largest_prime_below_the_bound_is_accepted():
    assert fields.MAX_PRIME == 2 ** 16
    assert parse("field GF 65521\nvertices 1\n").field.p == 65521


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse("field Q\nvertices 1 2\narrow a 1 2\nrelation 1*z\n")
    assert err.value.line == 4


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        parse_file("/nonexistent/thing.alg")


def test_gf_scalars_parse_to_residues():
    f = parse("field GF 5\nvertices 1\nmodule M\n dims 2\nend\n")
    assert f.field.parse_scalar("7") == 2
    assert f.field.parse_scalar("1/2") == 3


@pytest.mark.parametrize("text,fragment,line", [
    # before, the relation's 1/2 stayed a Fraction and GF(5) raised TypeError
    ("field Q\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\n"
     "relation 1/2*b.a\nfield GF 5\n", "second `field` line", 6),
    # before, the second line replaced the stratifying order
    ("field Q\nvertices 1 2\nvertices 2 1\n", "second `vertices` line", 3),
    # before, the second image overwrote the first
    ("field Q\nvertices 1 2\narrow a 1 2\nembedding\n image a = 1*a\n"
     " image a = 2*a\nend\n", "second image for arrow 'a'", 6),
    # before, a=b a=c gave {a: c, b: a, c: a}
    ("field Q\nvertices 1\narrow a 1 1\narrow b 1 1\narrow c 1 1\n"
     "duality a=b a=c\n", "duality pairs arrow 'a'", 6),
    ("field Q\nvertices 1\narrow a 1 1\narrow b 1 1\narrow c 1 1\n"
     "duality a=b\nduality c=b\n", "duality pairs arrow 'b'", 7),
], ids=["second_field", "second_vertices", "second_image", "duality_remap",
        "duality_remap_across_lines"])
def test_repeated_directives_are_refused(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_a_repeated_or_fixed_duality_pair_is_accepted():
    f = parse("field Q\nvertices 1\narrow a 1 1\narrow b 1 1\narrow c 1 1\n"
              "duality a=b b=a c=c\n")
    assert f.duality == {"a": "b", "b": "a", "c": "c"}
