"""Recursive-descent SQL parser.

Entry points:

- :func:`parse_sql`        — parse a script into a list of statements
- :func:`parse_statement`  — parse exactly one statement
- :func:`parse_expression` — parse a standalone scalar expression
"""

from __future__ import annotations

from ..datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    DataType,
    decimal_type,
    varchar,
)
from ..errors import SqlSyntaxError
from . import ast
from .lexer import Token, TokenType, tokenize

# Type names are ordinary identifiers to the lexer; the parser resolves them.
_SIMPLE_TYPES: dict[str, DataType] = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": BIGINT,
    "DOUBLE": DOUBLE,
    "FLOAT": DOUBLE,
    "DATE": DATE,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
}

_COMPARISON_OPS = {"=", "<", ">", "<=", ">=", "<>", "!="}
_LITERAL_TOKENS = (TokenType.NUMBER, TokenType.STRING)


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, text: str, tokens: list[Token] | None = None,
                 parameterize: bool = False):
        self._tokens = tokenize(text) if tokens is None else tokens
        self._pos = 0
        # Slot map for the plan cache: lexical index of each NUMBER/STRING
        # token among the statement's literal tokens.  Only the Database
        # cache-probe path parses with parameterize=True, so view/macro
        # bodies stored at CREATE VIEW time never carry slots.
        self._param_slots: dict[int, int] = {}
        if parameterize:
            slot = 0
            for index, token in enumerate(self._tokens):
                if token.type in (TokenType.NUMBER, TokenType.STRING):
                    self._param_slots[index] = slot
                    slot += 1

    # -- token helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"{message} (found {token.text!r})", line=token.line, column=token.column
        )

    def _match_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> Token:
        if not self._peek().is_keyword(name):
            raise self._error(f"expected {name}")
        return self._advance()

    def _match_punct(self, text: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.text == text:
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        if not (self._peek().type is TokenType.PUNCT and self._peek().text == text):
            raise self._error(f"expected {text!r}")
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.text
        raise self._error("expected identifier")

    def _expect_integer(self) -> int:
        token = self._peek()
        if token.type is TokenType.NUMBER and isinstance(token.value, int):
            self._advance()
            return token.value
        raise self._error("expected integer literal")

    def _expect_word_key(self) -> None:
        """KEY is non-reserved (VDM tables use it as a column name); match
        it as the identifier following PRIMARY/FOREIGN."""
        token = self._peek()
        if token.type is TokenType.IDENTIFIER and token.text.upper() == "KEY":
            self._advance()
            return
        raise self._error("expected KEY")

    # -- entry points ----------------------------------------------------

    def parse_script(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while self._peek().type is not TokenType.EOF:
            statements.append(self.parse_statement())
            while self._match_punct(";"):
                pass
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("SELECT") or (token.type is TokenType.PUNCT and token.text == "("):
            return self.parse_query()
        raise self._error("expected a statement")

    # -- queries -----------------------------------------------------------

    def parse_query(self) -> ast.Query:
        """query := select_core (UNION ALL select_core)* [ORDER BY ...] [LIMIT ...]"""
        query: ast.Query = self._parse_select_core()
        while self._peek().is_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            right = self._parse_select_core()
            query = ast.SetOp("UNION ALL", query, right)
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        if order_by or limit is not None or offset is not None:
            if isinstance(query, ast.SetOp):
                query = ast.SetOp(query.op, query.left, query.right,
                                  order_by=order_by, limit=limit, offset=offset)
            else:
                assert isinstance(query, ast.Select)
                if query.order_by or query.limit is not None:
                    raise self._error("duplicate ORDER BY / LIMIT")
                query = ast.Select(
                    query.items, query.from_clause, query.where, query.group_by,
                    query.having, order_by, limit, offset, query.distinct,
                )
        return query

    def _parse_select_core(self) -> ast.Query:
        if self._match_punct("("):
            inner = self.parse_query()
            self._expect_punct(")")
            return inner
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        from_clause = None
        if self._match_keyword("FROM"):
            from_clause = self._parse_table_expr()
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            keys = [self._parse_expr()]
            while self._match_punct(","):
                keys.append(self._parse_expr())
            group_by = tuple(keys)
        having = self._parse_expr() if self._match_keyword("HAVING") else None
        return ast.Select(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        # qualified star: ident . *
        if (token.type is TokenType.IDENTIFIER
                and self._peek(1).type is TokenType.PUNCT and self._peek(1).text == "."
                and self._peek(2).type is TokenType.OPERATOR and self._peek(2).text == "*"):
            self._advance()
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(qualifier=token.text))
        expr = self._parse_expr()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    def _parse_order_by(self) -> tuple[ast.OrderItem, ...]:
        if not self._peek().is_keyword("ORDER"):
            return ()
        self._advance()
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._match_punct(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._match_keyword("DESC"):
            ascending = False
        else:
            self._match_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    def _parse_limit_offset(self) -> tuple[int | None, int | None]:
        limit = offset = None
        if self._match_keyword("LIMIT"):
            limit = self._expect_integer()
        if self._match_keyword("OFFSET"):
            offset = self._expect_integer()
        return limit, offset

    # -- FROM clause -------------------------------------------------------

    def _parse_table_expr(self) -> ast.TableExpr:
        expr = self._parse_table_primary()
        while True:
            join = self._try_parse_join(expr)
            if join is None:
                return expr
            expr = join

    def _try_parse_join(self, left: ast.TableExpr) -> ast.JoinClause | None:
        token = self._peek()
        kind: ast.JoinKind | None = None
        cardinality: ast.JoinCardinality | None = None
        if token.is_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            right = self._parse_table_primary()
            return ast.JoinClause(ast.JoinKind.CROSS, left, right)
        if token.is_keyword("CASE") and self._peek(1).is_keyword("JOIN"):
            self._advance()
            self._advance()
            kind = ast.JoinKind.CASE_JOIN
        elif token.is_keyword("INNER"):
            self._advance()
            kind = ast.JoinKind.INNER
            cardinality = self._parse_cardinality_spec()
            self._expect_keyword("JOIN")
        elif token.is_keyword("LEFT"):
            self._advance()
            self._match_keyword("OUTER")
            kind = ast.JoinKind.LEFT_OUTER
            cardinality = self._parse_cardinality_spec()
            self._expect_keyword("JOIN")
        elif token.is_keyword("JOIN"):
            self._advance()
            kind = ast.JoinKind.INNER
        elif token.is_keyword("MANY", "EXACT", "ONE"):
            cardinality = self._parse_cardinality_spec()
            kind = ast.JoinKind.INNER
            self._expect_keyword("JOIN")
        else:
            return None
        right = self._parse_table_primary()
        condition = None
        if self._match_keyword("ON"):
            condition = self._parse_expr()
        elif kind is not ast.JoinKind.CROSS:
            raise self._error("expected ON for join")
        return ast.JoinClause(kind, left, right, condition, cardinality)

    def _parse_cardinality_spec(self) -> ast.JoinCardinality | None:
        """Parse an optional ``MANY TO [EXACT] ONE``-style cardinality (§7.3)."""
        if not self._peek().is_keyword("MANY", "ONE", "EXACT"):
            return None
        left = self._parse_cardinality_bound()
        self._expect_keyword("TO")
        right = self._parse_cardinality_bound()
        return ast.JoinCardinality(left, right)

    def _parse_cardinality_bound(self) -> ast.CardinalityBound:
        if self._match_keyword("MANY"):
            return ast.CardinalityBound.MANY
        if self._match_keyword("EXACT"):
            self._expect_keyword("ONE")
            return ast.CardinalityBound.EXACT_ONE
        self._expect_keyword("ONE")
        return ast.CardinalityBound.ONE

    def _parse_table_primary(self) -> ast.TableExpr:
        if self._match_punct("("):
            # Either a derived table (subquery) or a parenthesized join tree.
            if self._peek().is_keyword("SELECT") or (
                self._peek().type is TokenType.PUNCT and self._peek().text == "("
            ):
                query = self.parse_query()
                self._expect_punct(")")
                alias = self._parse_optional_alias()
                if alias is None:
                    raise self._error("derived table requires an alias")
                return ast.DerivedTable(query, alias)
            inner = self._parse_table_expr()
            self._expect_punct(")")
            return inner
        name = self._parse_table_name()
        alias = self._parse_optional_alias()
        return ast.TableRef(name, alias)

    def _parse_table_name(self) -> str:
        """An identifier with an optional dotted qualifier (`sys.query_log`).

        The dotted pair is one catalog name, not a schema object model —
        the catalog stores the full dotted string.
        """
        name = self._expect_identifier()
        if (
            self._peek().type is TokenType.PUNCT
            and self._peek().text == "."
            and self._peek(1).type is TokenType.IDENTIFIER
        ):
            self._advance()
            name = f"{name}.{self._advance().text}"
        return name

    def _parse_optional_alias(self) -> str | None:
        if self._match_keyword("AS"):
            return self._expect_identifier()
        if self._peek().type is TokenType.IDENTIFIER:
            return self._advance().text
        return None

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        expr = self._parse_and()
        while self._match_keyword("OR"):
            expr = ast.BinaryOp("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self._match_keyword("AND"):
            expr = ast.BinaryOp("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> ast.Expr:
        if self._peek().is_keyword("NOT") and self._peek(1).is_keyword("EXISTS"):
            self._advance()
            return self._parse_exists(negated=True)
        if self._match_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_exists(self, negated: bool) -> ast.Expr:
        self._expect_keyword("EXISTS")
        self._expect_punct("(")
        query = self.parse_query()
        self._expect_punct(")")
        return ast.ExistsExpr(query, negated)

    def _parse_comparison(self) -> ast.Expr:
        expr = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text in _COMPARISON_OPS:
            op = self._advance().text
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, expr, self._parse_additive())
        if token.is_keyword("IS"):
            self._advance()
            negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(expr, negated)
        negated = False
        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True
            token = self._peek()
        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            if self._peek().is_keyword("SELECT"):
                query = self.parse_query()
                self._expect_punct(")")
                return ast.InSubquery(expr, query, negated)
            items = [self._parse_expr()]
            while self._match_punct(","):
                items.append(self._parse_expr())
            self._expect_punct(")")
            return ast.InList(expr, tuple(items), negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.BetweenExpr(expr, low, high, negated)
        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._parse_additive()
            like = ast.BinaryOp("LIKE", expr, pattern)
            return ast.UnaryOp("NOT", like) if negated else like
        return expr

    def _parse_additive(self) -> ast.Expr:
        expr = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text in ("+", "-", "||"):
                op = self._advance().text
                expr = ast.BinaryOp(op, expr, self._parse_multiplicative())
            else:
                return expr

    def _parse_multiplicative(self) -> ast.Expr:
        expr = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text in ("*", "/", "%"):
                op = self._advance().text
                expr = ast.BinaryOp(op, expr, self._parse_unary())
            else:
                return expr

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "-":
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        if token.type is TokenType.OPERATOR and token.text == "+":
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            slot = self._param_slots.get(self._pos)
            self._advance()
            return ast.Literal(token.value, param_slot=slot)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CAST"):
            self._advance()
            self._expect_punct("(")
            operand = self._parse_expr()
            self._expect_keyword("AS")
            target = self._parse_data_type()
            self._expect_punct(")")
            return ast.CastExpr(operand, target)
        if token.is_keyword("EXISTS"):
            return self._parse_exists(negated=False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.type is TokenType.PUNCT and token.text == "(":
            self._advance()
            if self._peek().is_keyword("SELECT"):
                query = self.parse_query()
                self._expect_punct(")")
                return ast.ScalarQuery(query)
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expr()
        raise self._error("expected expression")

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        while self._match_keyword("WHEN"):
            cond = self._parse_expr()
            self._expect_keyword("THEN")
            value = self._parse_expr()
            branches.append((cond, value))
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        else_value = self._parse_expr() if self._match_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.CaseWhen(tuple(branches), else_value)

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self._expect_identifier()
        if self._peek().type is TokenType.PUNCT and self._peek().text == "(":
            return self._parse_call(name)
        if self._match_punct("."):
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text == "*":
                self._advance()
                return ast.Star(qualifier=name)
            column = self._expect_identifier()
            return ast.ColumnName(column, qualifier=name)
        return ast.ColumnName(name)

    def _parse_call(self, name: str) -> ast.Expr:
        self._expect_punct("(")
        distinct = self._match_keyword("DISTINCT")
        args: list[ast.Expr] = []
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            args.append(ast.Star())
        elif not (token.type is TokenType.PUNCT and token.text == ")"):
            args.append(self._parse_expr())
            while self._match_punct(","):
                args.append(self._parse_expr())
        self._expect_punct(")")
        return ast.FunctionCall(name.upper(), tuple(args), distinct)

    def _parse_data_type(self) -> DataType:
        name = self._expect_identifier().upper()
        if name in _SIMPLE_TYPES:
            return _SIMPLE_TYPES[name]
        if name in ("DECIMAL", "NUMERIC"):
            precision, scale = 15, 2
            if self._match_punct("("):
                precision = self._expect_integer()
                scale = 0
                if self._match_punct(","):
                    scale = self._expect_integer()
                self._expect_punct(")")
            return decimal_type(precision, scale)
        if name in ("VARCHAR", "NVARCHAR", "CHAR"):
            length = None
            if self._match_punct("("):
                length = self._expect_integer()
                self._expect_punct(")")
            return varchar(length)
        raise self._error(f"unknown type {name}")

    # -- DDL / DML -----------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        or_replace = False
        if self._match_keyword("OR"):
            self._expect_keyword("REPLACE")
            or_replace = True
        if self._match_keyword("TABLE"):
            return self._parse_create_table()
        if self._match_keyword("VIEW"):
            return self._parse_create_view(or_replace)
        raise self._error("expected TABLE or VIEW after CREATE")

    def _parse_create_table(self) -> ast.CreateTable:
        if_not_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._parse_table_name()
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        constraints: list[ast.TableConstraint] = []
        while True:
            token = self._peek()
            if token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_word_key()
                constraints.append(ast.TableConstraint("PRIMARY KEY", self._parse_name_list()))
            elif token.is_keyword("UNIQUE"):
                self._advance()
                constraints.append(ast.TableConstraint("UNIQUE", self._parse_name_list()))
            else:
                columns.append(self._parse_column_def())
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateTable(name, tuple(columns), tuple(constraints), if_not_exists)

    def _parse_name_list(self) -> tuple[str, ...]:
        self._expect_punct("(")
        names = [self._expect_identifier()]
        while self._match_punct(","):
            names.append(self._expect_identifier())
        self._expect_punct(")")
        return tuple(names)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        data_type = self._parse_data_type()
        nullable = True
        primary_key = False
        unique = False
        while True:
            token = self._peek()
            if token.is_keyword("NOT"):
                self._advance()
                self._expect_keyword("NULL")
                nullable = False
            elif token.is_keyword("NULL"):
                self._advance()
            elif token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_word_key()
                primary_key = True
                nullable = False
            elif token.is_keyword("UNIQUE"):
                self._advance()
                unique = True
            else:
                return ast.ColumnDef(name, data_type, nullable, primary_key, unique)

    def _parse_create_view(self, or_replace: bool) -> ast.CreateView:
        name = self._parse_table_name()
        column_names: tuple[str, ...] = ()
        if self._peek().type is TokenType.PUNCT and self._peek().text == "(":
            column_names = self._parse_name_list()
        self._expect_keyword("AS")
        query = self.parse_query()
        macros: list[ast.ExprMacroDef] = []
        if self._match_keyword("WITH"):
            self._expect_keyword("EXPRESSION")
            self._expect_keyword("MACROS")
            self._expect_punct("(")
            macros.append(self._parse_macro_def())
            while self._match_punct(","):
                macros.append(self._parse_macro_def())
            self._expect_punct(")")
        return ast.CreateView(name, query, column_names, or_replace, tuple(macros))

    def _parse_macro_def(self) -> ast.ExprMacroDef:
        expr = self._parse_expr()
        self._expect_keyword("AS")
        name = self._expect_identifier()
        return ast.ExprMacroDef(name, expr)

    def _parse_drop(self) -> ast.DropStatement:
        self._expect_keyword("DROP")
        if self._match_keyword("TABLE"):
            kind = "TABLE"
        elif self._match_keyword("VIEW"):
            kind = "VIEW"
        else:
            raise self._error("expected TABLE or VIEW after DROP")
        if_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        name = self._parse_table_name()
        return ast.DropStatement(kind, name, if_exists)

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_table_name()
        columns: tuple[str, ...] = ()
        if self._peek().type is TokenType.PUNCT and self._peek().text == "(":
            columns = self._parse_name_list()
        if self._match_keyword("VALUES"):
            rows: list[tuple[ast.Expr, ...]] = []
            rows.append(self._parse_value_row())
            while self._match_punct(","):
                rows.append(self._parse_value_row())
            return ast.Insert(table, columns, tuple(rows))
        query = self.parse_query()
        return ast.Insert(table, columns, query=query)

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self._expect_punct("(")
        values = [self._parse_value()]
        while self._match_punct(","):
            values.append(self._parse_value())
        self._expect_punct(")")
        return tuple(values)

    def _parse_value(self) -> ast.Expr:
        """One VALUES item.  A bare or sign-prefixed NUMBER/STRING/NULL
        followed by ``,`` or ``)`` skips the expression descent; the tree
        is the one :meth:`_parse_expr` builds for it."""
        tokens = self._tokens
        pos = self._pos
        token = tokens[pos]
        sign = None
        if token.type is TokenType.OPERATOR and token.text in ("-", "+"):
            sign = token.text
            pos += 1
            token = tokens[pos]
        if token.type in _LITERAL_TOKENS or token.is_keyword("NULL"):
            follow = tokens[pos + 1]
            if follow.type is TokenType.PUNCT and follow.text in (",", ")"):
                self._pos = pos + 1
                literal = ast.Literal(token.value, param_slot=self._param_slots.get(pos))
                return ast.UnaryOp("-", literal) if sign == "-" else literal
        return self._parse_expr()

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._parse_table_name()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._match_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        name = self._expect_identifier()
        token = self._peek()
        if not (token.type is TokenType.OPERATOR and token.text == "="):
            raise self._error("expected = in assignment")
        self._advance()
        return name, self._parse_expr()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_table_name()
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        return ast.Delete(table, where)


def parse_sql(text: str) -> list[ast.Statement]:
    """Parse a semicolon-separated SQL script."""
    return Parser(text).parse_script()


def parse_statement(text: str, tokens: list[Token] | None = None,
                    parameterize: bool = False) -> ast.Statement:
    """Parse exactly one SQL statement; trailing tokens are an error.

    ``tokens`` reuses a pre-lexed token list (the plan cache tokenizes
    once for shape extraction and parse).  ``parameterize`` tags every
    NUMBER/STRING literal with its lexical slot for generic-plan binding.
    """
    parser = Parser(text, tokens=tokens, parameterize=parameterize)
    statement = parser.parse_statement()
    while parser._match_punct(";"):
        pass
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("unexpected trailing input")
    return statement


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone scalar expression (used by the VDM DSL and tests)."""
    parser = Parser(text)
    expr = parser._parse_expr()
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("unexpected trailing input")
    return expr
