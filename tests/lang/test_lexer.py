"""Junicon lexer: literals, operators, keywords, native placeholders."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import (
    CSET,
    EOF,
    IDENT,
    INTEGER,
    KEYWORD,
    NATIVE,
    OP,
    REAL,
    RESERVED,
    STRING,
)
from repro.runtime.types import Cset


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestNumbers:
    def test_integers(self):
        assert values("0 42 1000") == [0, 42, 1000]

    def test_reals(self):
        assert values("1.5 0.25") == [1.5, 0.25]
        assert kinds("1.5") == [REAL]

    def test_exponents(self):
        assert values("1e3 2.5e-2") == [1000.0, 0.025]

    def test_radix_literals(self):
        assert values("16rFF 2r101 36rz") == [255, 5, 35]

    def test_bad_radix(self):
        with pytest.raises(LexError):
            tokenize("99r1")

    def test_bad_radix_digits(self):
        with pytest.raises(LexError):
            tokenize("2r9")

    def test_integer_then_dot_method(self):
        # "1." followed by non-digit is integer then dot
        tokens = tokenize("x.f")
        assert [t.kind for t in tokens[:-1]] == [IDENT, OP, IDENT]

    # Superscripts pass str.isdigit but int() and float() reject them;
    # only decimal digits may start or continue a number.
    @pytest.mark.parametrize("source", ["x := \u00b2", ".\u00b2", "1.\u00b2", "1e+\u00b3"])
    def test_non_decimal_digit_is_a_lex_error(self, source):
        with pytest.raises(LexError):
            tokenize(source)

    @pytest.mark.parametrize(
        "source, expected",
        [("1E\u00b2", [1, "E\u00b2"]), ("\u0661\u0662", [12]), ("2r10", [2])],
    )
    def test_only_decimal_digits_scan_as_numbers(self, source, expected):
        assert values(source) == expected


class TestStrings:
    def test_string_literal(self):
        assert values('"hello"') == ["hello"]

    def test_escapes(self):
        assert values(r'"a\nb\t\"q\""') == ["a\nb\t\"q\""]

    def test_hex_escape(self):
        assert values(r'"\x41"') == ["A"]

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')

    def test_cset_literal(self):
        result = values("'abc'")
        assert result == [Cset("abc")]
        assert kinds("'abc'") == [CSET]


class TestIdentifiersAndKeywords:
    def test_identifiers(self):
        assert kinds("foo _bar x1") == [IDENT] * 3

    def test_reserved_words(self):
        assert kinds("if then else while def") == [RESERVED] * 5

    def test_amp_keywords(self):
        tokens = tokenize("&subject &pos")
        assert tokens[0].kind is KEYWORD and tokens[0].value == "subject"
        assert tokens[1].value == "pos"

    def test_amp_alone_is_operator(self):
        tokens = tokenize("a & b")
        assert tokens[1].kind is OP and tokens[1].value == "&"


class TestOperators:
    def test_concurrency_operators(self):
        assert values("<> |<> |>") == ["<>", "|<>", "|>"]

    def test_maximal_munch(self):
        assert values("===") == ["==="]
        assert values("<<=") == ["<<="]
        assert values(":=:") == [":=:"]
        assert values("|||") == ["|||"]

    def test_augmented_assignment(self):
        assert values("+:= ||:= **:=") == ["+:=", "||:=", "**:="]

    def test_native_invocation(self):
        assert values("::") == ["::"]

    def test_section_offsets(self):
        assert values("+: -:") == ["+:", "-:"]

    def test_single_chars(self):
        assert values("( ) [ ] { } ; , @ ! ^ ? \\ /") == list("()[]{};,@!^?\\/")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("`")


class TestCommentsAndLayout:
    def test_comment_to_eol(self):
        assert values("1 # comment\n2") == [1, 2]

    def test_newlines_are_whitespace(self):
        assert values("a\nb") == ["a", "b"]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_token(self):
        assert tokenize("")[-1].kind is EOF


class TestNativeBlocks:
    def test_placeholder_resolves(self):
        tokens = tokenize("\x00k\x00", {"k": "1 + 2"})
        assert tokens[0].kind is NATIVE
        assert tokens[0].value == "1 + 2"

    def test_unknown_placeholder(self):
        with pytest.raises(LexError):
            tokenize("\x00nope\x00", {})

    def test_unterminated_placeholder(self):
        with pytest.raises(LexError):
            tokenize("\x00k", {"k": "x"})


class TestTokenHelpers:
    def test_is_op(self):
        token = tokenize("+")[0]
        assert token.is_op("+")
        assert token.is_op("-", "+")
        assert not token.is_op("-")

    def test_is_reserved(self):
        token = tokenize("while")[0]
        assert token.is_reserved("while")
        assert not token.is_reserved("until")

    def test_repr(self):
        assert "IDENT" in repr(tokenize("x")[0])
