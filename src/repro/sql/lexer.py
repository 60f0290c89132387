"""SQL tokenizer.

Produces a flat list of :class:`Token` objects.  Keywords are recognized
case-insensitively and reported with a dedicated token type so the parser can
match on them directly; identifiers preserve their original text but compare
case-insensitively downstream (the catalog lower-cases names).

The scanner is one compiled regular expression whose top-level alternatives
are numbered groups: each match is one token (with the blanks before it), one
comment, or a run of other whitespace, and ``match.lastindex`` says which.
Positions are 1-based; only ``\\n`` starts a new line, so a column counts
every other character.
"""

from __future__ import annotations

import decimal
import re
from enum import Enum
from typing import NoReturn

from ..errors import SqlSyntaxError


class TokenType(Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "DESC", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
    "OUTER", "CROSS", "ON", "AS", "UNION", "ALL", "AND", "OR", "NOT", "NULL",
    "IS", "IN", "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END",
    "CAST", "CREATE", "REPLACE", "VIEW", "TABLE", "DROP", "INSERT", "INTO",
    "VALUES", "UPDATE", "SET", "DELETE", "PRIMARY", "UNIQUE", "FOREIGN",
    "REFERENCES", "CONSTRAINT", "WITH", "EXPRESSION", "MACROS", "MANY", "ONE",
    "EXACT", "TO", "TRUE", "FALSE", "EXISTS", "IF", "DEFAULT",
}


class Token:
    """A single lexical token with its source position (1-based)."""

    __slots__ = ("type", "text", "value", "line", "column")

    def __init__(self, type: TokenType, text: str, value: object = None,
                 line: int = 0, column: int = 0):
        self.type = type
        self.text = text
        self.value = value
        self.line = line
        self.column = column

    def _key(self) -> tuple:
        return (self.type, self.text, self.value, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r})"


# Group numbers are the token kinds below; nested groups sit inside their
# alternative, so ``lastindex`` is always the alternative's own number.
# Unterminated comments, strings and quoted identifiers still match (their
# closing group is empty) so the error can be raised at end of input.
_SCANNER = re.compile(
    r"""
    [^\S\n]*                                       # blanks before a token
  (?:
    (\s+)                                         # 1 whitespace
  | (--[^\n]*)                                    # 2 line comment
  | (/\*.*?(\*/|\Z))                              # 3 block comment (4: close)
  | ((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)    # 5 number
  | ([^\W\d]\w*)                                  # 6 word
  | ('([^']*(?:''[^']*)*)('?))                    # 7 string (8: body, 9: close)
  | ("([^"]*)("?))                                # 10 quoted identifier
  | (<=|>=|<>|!=|\|\||[-=<>+*/%])                 # 13 operator
  | ([(),.;])                                     # 14 punctuation
  | (.)                                           # 15 anything else
  )
    """,
    re.VERBOSE | re.DOTALL,
)
_WS, _LINE_COMMENT, _BLOCK_COMMENT, _NUMBER, _WORD = 1, 2, 3, 5, 6
_STRING, _QUOTED, _OPERATOR, _PUNCT = 7, 10, 13, 14


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    KEYWORD, IDENTIFIER, NUMBER = TokenType.KEYWORD, TokenType.IDENTIFIER, TokenType.NUMBER
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    for match in _SCANNER.finditer(text):
        kind = match.lastindex
        start = match.start(kind)
        if kind == _WORD:
            word = match.group(_WORD)
            if not word.isascii() and not (word[0].isalpha() or word[0] == "_"):
                # ``\w`` also admits non-decimal numerics ("²", "½").
                _fail(text, f"unexpected character {word[0]!r}", start)
            upper = word.upper()
            if upper in keywords:
                append(Token(KEYWORD, upper, None, line, start - line_start + 1))
            else:
                append(Token(IDENTIFIER, word, None, line, start - line_start + 1))
        elif kind == _WS:
            line, line_start = _advance_lines(text, start, match.end(), line, line_start)
        elif kind == _PUNCT:
            append(Token(TokenType.PUNCT, match.group(_PUNCT), None, line,
                         start - line_start + 1))
        elif kind == _NUMBER:
            number = match.group(_NUMBER)
            if "e" in number or "E" in number:
                value: object = float(number)
            elif "." in number:
                value = decimal.Decimal(number)
            else:
                value = int(number)
            append(Token(NUMBER, number, value, line, start - line_start + 1))
        elif kind == _STRING:
            if not match.group(9):
                _fail(text, "unterminated string literal", len(text))
            value = match.group(8).replace("''", "'")
            append(Token(TokenType.STRING, value, value, line, start - line_start + 1))
            line, line_start = _advance_lines(text, start, match.end(), line, line_start)
        elif kind == _OPERATOR:
            append(Token(TokenType.OPERATOR, match.group(_OPERATOR), None, line,
                         start - line_start + 1))
        elif kind == _LINE_COMMENT:
            pass
        elif kind == _BLOCK_COMMENT:
            if not match.group(4):
                _fail(text, "unterminated block comment", len(text))
            line, line_start = _advance_lines(text, start, match.end(), line, line_start)
        elif kind == _QUOTED:
            if not match.group(12):
                _fail(text, "unterminated quoted identifier", len(text))
            append(Token(IDENTIFIER, match.group(11), None, line, start - line_start + 1))
            line, line_start = _advance_lines(text, start, match.end(), line, line_start)
        else:
            _fail(text, f"unexpected character {match.group(kind)!r}", start)
    append(Token(TokenType.EOF, "", None, line, len(text) - line_start + 1))
    return tokens


def _advance_lines(text: str, start: int, end: int, line: int,
                   line_start: int) -> tuple[int, int]:
    """``(line, line_start)`` after the span ``text[start:end]``."""
    newlines = text.count("\n", start, end)
    if not newlines:
        return line, line_start
    return line + newlines, text.rindex("\n", start, end) + 1


def _fail(text: str, message: str, offset: int) -> NoReturn:
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    raise SqlSyntaxError(message, line=line, column=column)
