"""Reference SQL tokenizer: the per-character scanner the engine used before
its compiled-regex scanner (``repro.sql.lexer``).

It is kept only as the oracle of the differential tests in
``test_sql_lexer.py``: on any input both must give the same tokens (type,
text, value, line, column), or the same ``SqlSyntaxError`` message and
position.
"""

from __future__ import annotations

import decimal

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, Token, TokenType

_TWO_CHAR_OPERATORS = {"<=", ">=", "<>", "!=", "||"}
_ONE_CHAR_OPERATORS = {"=", "<", ">", "+", "-", "*", "/", "%"}
_PUNCT = {"(", ")", ",", ".", ";"}


class Lexer:
    """Single-pass tokenizer over a SQL string."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._text):
                tokens.append(Token(TokenType.EOF, "", line=self._line, column=self._col))
                return tokens
            tokens.append(self._next_token())

    # -- internals -----------------------------------------------------

    def _error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, line=self._line, column=self._col)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _advance(self, count: int = 1) -> str:
        chunk = self._text[self._pos:self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
        self._pos += count
        return chunk

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._text):
            ch = self._peek()
            if ch.isspace():
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text) and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self._pos >= len(self._text):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        line, col = self._line, self._col
        ch = self._peek()
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(line, col)
        if ch.isalpha() or ch == "_":
            return self._lex_word(line, col)
        if ch == '"':
            return self._lex_quoted_identifier(line, col)
        if ch == "'":
            return self._lex_string(line, col)
        two = self._text[self._pos:self._pos + 2]
        if two in _TWO_CHAR_OPERATORS:
            self._advance(2)
            return Token(TokenType.OPERATOR, two, line=line, column=col)
        if ch in _ONE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenType.OPERATOR, ch, line=line, column=col)
        if ch in _PUNCT:
            self._advance()
            return Token(TokenType.PUNCT, ch, line=line, column=col)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_number(self, line: int, col: int) -> Token:
        start = self._pos
        saw_dot = False
        saw_exp = False
        while self._pos < len(self._text):
            ch = self._peek()
            if ch.isdigit():
                self._advance()
            elif ch == "." and not saw_dot and not saw_exp:
                saw_dot = True
                self._advance()
            elif ch in "eE" and not saw_exp and self._pos > start:
                nxt = self._peek(1)
                if nxt.isdigit() or (nxt in "+-" and self._peek(2).isdigit()):
                    saw_exp = True
                    self._advance(2 if nxt in "+-" else 1)
                else:
                    break
            else:
                break
        text = self._text[start:self._pos]
        if saw_exp:
            value: object = float(text)
        elif saw_dot:
            value = decimal.Decimal(text)
        else:
            value = int(text)
        return Token(TokenType.NUMBER, text, value=value, line=line, column=col)

    def _lex_word(self, line: int, col: int) -> Token:
        start = self._pos
        while self._pos < len(self._text) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self._text[start:self._pos]
        upper = text.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, line=line, column=col)
        return Token(TokenType.IDENTIFIER, text, line=line, column=col)

    def _lex_quoted_identifier(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        start = self._pos
        while self._pos < len(self._text) and self._peek() != '"':
            self._advance()
        if self._pos >= len(self._text):
            raise self._error("unterminated quoted identifier")
        text = self._text[start:self._pos]
        self._advance()  # closing quote
        return Token(TokenType.IDENTIFIER, text, line=line, column=col)

    def _lex_string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":  # escaped quote
                    parts.append("'")
                    self._advance(2)
                else:
                    self._advance()
                    break
            else:
                parts.append(ch)
                self._advance()
        value = "".join(parts)
        return Token(TokenType.STRING, value, value=value, line=line, column=col)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    return Lexer(text).tokenize()
