"""Lexer for the Junicon dialect.

Hand-written maximal-munch scanner.  Junicon inherits Icon's lexical
shapes: ``&keyword`` keywords, ``'...'`` cset literals, ``"..."`` strings
with the usual escapes, ``16rFF`` radix integers, and ``#`` line comments.
Semicolons separate statements; newlines are whitespace (the brace-based
dialect does not use Icon's line-sensitive semicolon insertion).

Native host regions embedded inside Junicon (``@<script lang="python">``)
are extracted *before* lexing by the annotation metaparser and arrive here
as placeholder tokens via ``native_blocks`` (see
:mod:`repro.lang.annotations`): the placeholder text ``\x00N\x00`` lexes
into a :data:`~repro.lang.tokens.NATIVE` token carrying the host code.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..errors import LexError
from .tokens import (
    CSET,
    EOF,
    IDENT,
    INTEGER,
    KEYWORD,
    MULTI_OPS,
    NATIVE,
    OP,
    REAL,
    RESERVED,
    RESERVED_WORDS,
    SINGLE_OPS,
    STRING,
    Token,
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "e": "\x1b",
}


class Lexer:
    """Tokenize Junicon source text."""

    def __init__(
        self,
        source: str,
        native_blocks: Mapping[str, str] | None = None,
    ) -> None:
        self.source = source
        self.native_blocks = dict(native_blocks or {})
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- driver ---------------------------------------------------------------

    def tokens(self) -> list[Token]:
        return list(self._scan())

    def _scan(self) -> Iterator[Token]:
        text = self.source
        length = len(text)
        while self.pos < length:
            char = text[self.pos]
            if char in " \t\r\n":
                self._advance(1)
                continue
            if char == "#":
                self._skip_comment()
                continue
            if char == "\x00":
                yield self._native()
                continue
            # isdecimal, not isdigit: superscripts and other digit-like
            # characters pass isdigit but int() and float() reject them.
            if char.isdecimal() or (
                char == "." and self.pos + 1 < length and text[self.pos + 1].isdecimal()
            ):
                yield self._number()
                continue
            if char.isalpha() or char == "_":
                yield self._identifier()
                continue
            if char == '"':
                yield self._string('"', STRING)
                continue
            if char == "'":
                yield self._string("'", CSET)
                continue
            if char == "&":
                nxt = text[self.pos + 1] if self.pos + 1 < length else ""
                if nxt.isalpha():
                    yield self._keyword()
                    continue
            yield self._operator()
        yield Token(EOF, None, self.line, self.column)

    # -- pieces ---------------------------------------------------------------

    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_comment(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos] != "\n":
            self._advance(1)

    def _native(self) -> Token:
        line, column = self.line, self.column
        end = self.source.find("\x00", self.pos + 1)
        if end < 0:
            raise LexError("unterminated native placeholder", line, column)
        key = self.source[self.pos + 1: end]
        self._advance(end + 1 - self.pos)
        try:
            code = self.native_blocks[key]
        except KeyError:
            raise LexError(f"unknown native block {key!r}", line, column) from None
        return Token(NATIVE, code, line, column)

    def _number(self) -> Token:
        line, column = self.line, self.column
        text = self.source
        start = self.pos
        while self.pos < len(text) and text[self.pos].isdecimal():
            self._advance(1)
        # Radix literal: 16rFF
        if (
            self.pos < len(text)
            and text[self.pos] in "rR"
            and text[start: self.pos].isdecimal()
            and self.pos + 1 < len(text)
            and text[self.pos + 1].isalnum()
        ):
            radix = int(text[start: self.pos])
            if not 2 <= radix <= 36:
                raise LexError(f"radix {radix} out of range", line, column)
            self._advance(1)
            digits_start = self.pos
            while self.pos < len(text) and text[self.pos].isalnum():
                self._advance(1)
            digits = text[digits_start: self.pos]
            try:
                return Token(INTEGER, int(digits, radix), line, column)
            except ValueError:
                raise LexError(
                    f"bad digits {digits!r} for radix {radix}", line, column
                ) from None
        is_real = False
        if (
            self.pos < len(text)
            and text[self.pos] == "."
            and self.pos + 1 < len(text)
            and text[self.pos + 1].isdecimal()
        ):
            is_real = True
            self._advance(1)
            while self.pos < len(text) and text[self.pos].isdecimal():
                self._advance(1)
        if self.pos < len(text) and text[self.pos] in "eE":
            lookahead = self.pos + 1
            if lookahead < len(text) and text[lookahead] in "+-":
                lookahead += 1
            if lookahead < len(text) and text[lookahead].isdecimal():
                is_real = True
                self._advance(lookahead - self.pos)
                while self.pos < len(text) and text[self.pos].isdecimal():
                    self._advance(1)
        literal = text[start: self.pos]
        if is_real:
            return Token(REAL, float(literal), line, column)
        return Token(INTEGER, int(literal), line, column)

    def _identifier(self) -> Token:
        line, column = self.line, self.column
        text = self.source
        start = self.pos
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self._advance(1)
        word = text[start: self.pos]
        if word in RESERVED_WORDS:
            return Token(RESERVED, word, line, column)
        return Token(IDENT, word, line, column)

    def _string(self, quote: str, kind: str) -> Token:
        line, column = self.line, self.column
        text = self.source
        self._advance(1)
        pieces: list[str] = []
        while True:
            if self.pos >= len(text):
                raise LexError("unterminated string literal", line, column)
            char = text[self.pos]
            if char == quote:
                self._advance(1)
                break
            if char == "\n":
                raise LexError("newline in string literal", line, column)
            if char == "\\":
                self._advance(1)
                if self.pos >= len(text):
                    raise LexError("unterminated escape", line, column)
                escape = text[self.pos]
                if escape == "x":
                    self._advance(1)
                    hex_digits = text[self.pos: self.pos + 2]
                    if len(hex_digits) < 2 or not all(
                        c in "0123456789abcdefABCDEF" for c in hex_digits
                    ):
                        raise LexError("bad \\x escape", self.line, self.column)
                    pieces.append(chr(int(hex_digits, 16)))
                    self._advance(2)
                    continue
                pieces.append(_ESCAPES.get(escape, escape))
                self._advance(1)
                continue
            pieces.append(char)
            self._advance(1)
        value = "".join(pieces)
        if kind is CSET:
            from ..runtime.types import Cset

            return Token(CSET, Cset(value), line, column)
        return Token(STRING, value, line, column)

    def _keyword(self) -> Token:
        line, column = self.line, self.column
        self._advance(1)  # the &
        text = self.source
        start = self.pos
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self._advance(1)
        return Token(KEYWORD, text[start: self.pos], line, column)

    def _operator(self) -> Token:
        line, column = self.line, self.column
        text = self.source
        for op in MULTI_OPS:
            if text.startswith(op, self.pos):
                self._advance(len(op))
                return Token(OP, op, line, column)
        char = text[self.pos]
        if char in SINGLE_OPS:
            self._advance(1)
            return Token(OP, char, line, column)
        raise LexError(f"unexpected character {char!r}", line, column)


def tokenize(source: str, native_blocks: Mapping[str, str] | None = None) -> list[Token]:
    """Tokenize *source*, resolving native placeholders via *native_blocks*."""
    return Lexer(source, native_blocks).tokens()
