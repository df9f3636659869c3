"""Robustness fuzzing: hostile input must produce clean errors, never
hangs or internal exceptions from the wrong family."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import LanguageError, ReproError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.annotations import find_annotations
from repro.errors import AnnotationError

fuzz = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

printable = st.text(
    alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=60
)

# Every code point, lone surrogates included, with number syntax mixed
# in so digit-like characters land where the number scanner looks.
any_unicode = st.text(
    alphabet=st.one_of(
        st.sampled_from("0123456789.eErR+-"),
        st.characters(categories=["N"]),
        st.characters(exclude_categories=()),
    ),
    max_size=30,
)

token_soup = st.lists(
    st.sampled_from(
        [
            "if", "then", "else", "while", "do", "suspend", "return",
            "def", "f", "x", "(", ")", "{", "}", "[", "]", ";", ",",
            "1", '"s"', "&pos", ":=", "|", "&", "!", "@", "to", "by",
            "<>", "|>", "|<>", "+", "*", "?", "\\", "every", "case",
            "of", ":", "break", "local",
        ]
    ),
    max_size=25,
).map(" ".join)


class TestLexerTotality:
    @given(printable)
    @fuzz
    def test_lexer_terminates_with_tokens_or_language_error(self, text):
        try:
            tokens = tokenize(text)
        except LanguageError:
            return
        assert tokens[-1].kind == "EOF"

    @given(printable)
    @fuzz
    def test_lexer_never_raises_foreign_exceptions(self, text):
        try:
            tokenize(text)
        except ReproError:
            pass

    @given(any_unicode)
    @fuzz
    def test_lexer_total_over_all_of_unicode(self, text):
        try:
            tokenize(text)
        except ReproError:
            pass


class TestParserTotality:
    @given(token_soup)
    @fuzz
    def test_parser_terminates_cleanly(self, source):
        try:
            parse(source)
        except LanguageError:
            pass

    @given(printable)
    @fuzz
    def test_parser_on_arbitrary_text(self, text):
        try:
            parse(text)
        except ReproError:
            pass


class TestMetaparserTotality:
    @given(printable)
    @fuzz
    def test_annotation_scan_terminates(self, text):
        try:
            find_annotations(text)
        except AnnotationError:
            pass

    @given(printable, printable)
    @fuzz
    def test_wrapped_region_always_found_or_rejected(self, before, body):
        if "@<" in before or "@</" in body or '"' in before or "'" in before:
            return
        source = before + '\n@<script lang="junicon">' + body + "@</script>\n"
        try:
            regions = find_annotations(source)
        except AnnotationError:
            return
        # If the body's quotes/comments swallowed the close tag the region
        # may be rejected above; when accepted, it must be the script one.
        if regions:
            assert regions[0].tag == "script"
