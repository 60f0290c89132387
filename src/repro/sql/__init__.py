"""SQL front end: lexer, parse-tree AST, and recursive-descent parser.

The dialect is a pragmatic subset of ANSI SQL plus the HANA-style extensions
the paper discusses:

- join cardinality specifications (``LEFT OUTER MANY TO ONE JOIN``), §7.3
- ``CASE JOIN`` to declare augmentation-self-join intent, §6.3
- ``ALLOW_PRECISION_LOSS(...)`` wrapper for aggregates, §7.1
- ``WITH EXPRESSION MACROS (expr AS name, ...)`` on ``CREATE VIEW`` and
  ``EXPRESSION_MACRO(name)`` references, §7.2
"""

from .ast import (  # noqa: F401
    Statement,
    Query,
    Select,
    SetOp,
    TableRef,
    DerivedTable,
    JoinClause,
    JoinKind,
    CardinalityBound,
    JoinCardinality,
    SelectItem,
    OrderItem,
    CreateTable,
    CreateView,
    DropStatement,
    Insert,
    Update,
    Delete,
    ColumnDef,
    TableConstraint,
    Expr,
    ColumnName,
    Star,
    Literal,
    BinaryOp,
    UnaryOp,
    FunctionCall,
    CaseWhen,
    CastExpr,
    InList,
    BetweenExpr,
    IsNull,
    ExprMacroDef,
)
from .lexer import Token, TokenType, tokenize  # noqa: F401
from .parser import Parser, parse_sql, parse_statement, parse_expression  # noqa: F401
