"""Unit tests for the SQL tokenizer."""

import decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlSyntaxError
from repro.sql.lexer import Token, TokenType, tokenize
from tests.reference_lexer import tokenize as reference_tokenize


def kinds(sql):
    return [t.type for t in tokenize(sql)[:-1]]


def texts(sql):
    return [t.text for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_ends_with_eof(self):
        tokens = tokenize("select")
        assert tokens[-1].type is TokenType.EOF

    def test_keywords_upper_cased(self):
        assert texts("SeLeCt FrOm") == ["SELECT", "FROM"]

    def test_identifier_preserves_case(self):
        assert texts("MyTable") == ["MyTable"]
        assert kinds("MyTable") == [TokenType.IDENTIFIER]

    def test_key_is_not_reserved(self):
        # the paper's example tables use `key` as a column name
        assert kinds("key") == [TokenType.IDENTIFIER]

    def test_punctuation_and_operators(self):
        assert texts("(a, b) = c;") == ["(", "a", ",", "b", ")", "=", "c", ";"]

    def test_two_char_operators(self):
        assert texts("a <= b >= c <> d != e || f") == [
            "a", "<=", "b", ">=", "c", "<>", "d", "!=", "e", "||", "f",
        ]

    def test_position_tracking(self):
        tokens = tokenize("select\n  x")
        x = tokens[1]
        assert (x.line, x.column) == (2, 3)


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.value == 42 and isinstance(token.value, int)

    def test_decimal_literal_is_exact(self):
        token = tokenize("1.105")[0]
        assert token.value == decimal.Decimal("1.105")

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == decimal.Decimal("0.5")

    def test_scientific_is_float(self):
        token = tokenize("1.5e3")[0]
        assert token.value == 1500.0 and isinstance(token.value, float)

    def test_negative_exponent(self):
        assert tokenize("2E-2")[0].value == 0.02

    def test_number_then_dot_dot_is_not_consumed(self):
        tokens = tokenize("1.5.x")
        assert tokens[0].value == decimal.Decimal("1.5")
        assert tokens[1].text == "."


class TestStrings:
    def test_simple_string(self):
        assert tokenize("'hello'")[0].value == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.IDENTIFIER and token.text == "Weird Name"

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('"oops')


class TestComments:
    def test_line_comment(self):
        assert texts("select -- comment\n x") == ["SELECT", "x"]

    def test_block_comment(self):
        assert texts("select /* multi\nline */ x") == ["SELECT", "x"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select /* oops")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as info:
            tokenize("a\n  @")
        assert info.value.line == 2


class TestHanaExtensionTokens:
    def test_cardinality_words_are_keywords(self):
        assert kinds("many to exact one") == [TokenType.KEYWORD] * 4

    def test_expression_macros_words(self):
        assert texts("with expression macros") == ["WITH", "EXPRESSION", "MACROS"]

    def test_is_keyword_helper(self):
        token = tokenize("select")[0]
        assert token.is_keyword("SELECT") and token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")


class TestToken:
    def test_equality_and_hash_cover_every_field(self):
        a = Token(TokenType.NUMBER, "1", 1, 1, 5)
        assert a == Token(TokenType.NUMBER, "1", 1, 1, 5)
        assert hash(a) == hash(Token(TokenType.NUMBER, "1", 1, 1, 5))
        assert a != Token(TokenType.NUMBER, "1", 1, 1, 6)
        assert a != (TokenType.NUMBER, "1", 1, 1, 5)

    def test_repr(self):
        assert repr(tokenize("select")[0]) == "Token(KEYWORD, 'SELECT')"


class TestErrorPositions:
    """Unterminated regions are reported at end of input; an unexpected
    character at its own position."""

    @pytest.mark.parametrize("sql, message, position", [
        ("select 'a\nbc", "unterminated string literal", (2, 3)),
        ("select 'it''s", "unterminated string literal", (1, 14)),
        ('x "ab\n', "unterminated quoted identifier", (2, 1)),
        ("a /* b\n c", "unterminated block comment", (2, 3)),
        ("/*/", "unterminated block comment", (1, 4)),
        ("a\n\t @", "unexpected character '@'", (2, 3)),
        ("select ½", "unexpected character '½'", (1, 8)),
    ])
    def test_message_and_position(self, sql, message, position):
        with pytest.raises(SqlSyntaxError) as info:
            tokenize(sql)
        assert str(info.value).startswith(message)
        assert (info.value.line, info.value.column) == position


# -- differential tests against the per-character reference scanner ----------


def _outcome(scan, text):
    try:
        return [(t.type, t.text, type(t.value), t.value, t.line, t.column)
                for t in scan(text)]
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _assert_same_as_reference(text):
    try:
        expected = _outcome(reference_tokenize, text)
    except (ValueError, ArithmeticError):
        # The reference crashes on digits that are not decimal ("²", "①"):
        # it starts a number and int()/Decimal()/float() reject it.  The
        # scanner never crashes; it tokenizes or raises SqlSyntaxError.
        _outcome(tokenize, text)
        return
    assert _outcome(tokenize, text) == expected


_FRAGMENTS = [
    "select", "SeLeCt", "from", "where", "null", "key", "x", "_a1", "ſelect",
    "é", "ß", "٣", "½", "²", "1", "42", "007", "1.5", ".5", "1.", "1e5",
    "2E-2", "1.e+3", "e", "E", "'", "''", "'ab c'", '"', '"Q x"', "--", "/*",
    "*/", "*", "/", "-", "+", "%", "<", ">", "=", "!", "|", "||", "<=", "<>",
    "!=", "(", ")", ",", ".", ";", "@", "?", "$", " ", "  ", "\n", "\t", "\r",
    "\x0b", "\u00a0", "\u2028", "'a\nb'", '"q\nr"', "/* c\n */", "-- c\n",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_scanner_matches_reference_on_sql_like_text(text):
    _assert_same_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_scanner_matches_reference_on_arbitrary_text(text):
    _assert_same_as_reference(text)


def test_scanner_matches_reference_on_the_workload_statements():
    from repro.workloads.queries import all_suites

    statements = [q.sql for suite in all_suites().values() for q in suite]
    statements.append(
        "insert into acdoca (acdockey, amount, postingyear) values "
        "(2000, -76056.37, 2024), (2001, +1.5e3, null), (2002, 'it''s', 7)"
    )
    for sql in statements:
        _assert_same_as_reference(sql)
