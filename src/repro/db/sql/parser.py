"""Recursive-descent parser producing :mod:`repro.db.sql.ast` nodes."""

from __future__ import annotations

from typing import Optional, Union

from repro.db.sql import ast
from repro.db.sql.tokenizer import Token, TokenType, tokenize
from repro.db.types import MISSING
from repro.errors import SQLSyntaxError

_COMPARISON_OPERATORS = {"=", "!=", "<>", "<", "<=", ">", ">="}
_ADDITIVE_OPERATORS = {"+", "-", "||"}
_MULTIPLICATIVE_OPERATORS = {"*", "/", "%"}


class _Parser:
    """Stateful parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._parameter_count = 0

    # -- token-stream helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _check_keyword(self, *names: str) -> bool:
        return self._peek().is_keyword(*names)

    def _match_keyword(self, *names: str) -> bool:
        if self._check_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise SQLSyntaxError(f"expected {name}, found {token.value!r}", token.position)
        return self._advance()

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type in (TokenType.PUNCTUATION, TokenType.OPERATOR) and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        token = self._peek()
        if token.type not in (TokenType.PUNCTUATION, TokenType.OPERATOR) or token.value != value:
            raise SQLSyntaxError(f"expected {value!r}, found {token.value!r}", token.position)
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        # allow non-reserved keywords as identifiers in a few spots
        if token.type is TokenType.KEYWORD and token.value in {"COUNT", "SUM", "AVG", "MIN", "MAX"}:
            self._advance()
            return token.value.lower()
        raise SQLSyntaxError(f"expected identifier, found {token.value!r}", token.position)

    def _expect_integer(self) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER or "." in token.value:
            raise SQLSyntaxError(f"expected integer, found {token.value!r}", token.position)
        self._advance()
        return int(token.value)

    def _expect_number(self) -> float:
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            raise SQLSyntaxError(f"expected number, found {token.value!r}", token.position)
        self._advance()
        return float(token.value)

    def _expect_string(self, what: str) -> str:
        token = self._peek()
        if token.type is not TokenType.STRING:
            raise SQLSyntaxError(
                f"expected {what} string literal, found {token.value!r}", token.position
            )
        self._advance()
        return token.value

    def at_end(self) -> bool:
        """True when only the EOF token remains."""
        return self._peek().type is TokenType.EOF

    # -- statements -------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse a single statement starting at the current position."""
        token = self._peek()
        if token.is_keyword("SELECT"):
            return self._parse_select()
        if token.is_keyword("EXPLAIN"):
            self._advance()
            inner = self.parse_statement()
            if not isinstance(inner, ast.SelectStatement):
                raise SQLSyntaxError("EXPLAIN only supports SELECT statements", token.position)
            return ast.ExplainStatement(statement=inner)
        if token.is_keyword("CREATE"):
            if self._peek(1).is_keyword("INDEX"):
                return self._parse_create_index()
            return self._parse_create_table()
        if token.is_keyword("DROP"):
            return self._parse_drop_table()
        if token.is_keyword("ALTER"):
            return self._parse_alter_table()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("PRAGMA"):
            return self._parse_pragma()
        raise SQLSyntaxError(f"unexpected token {token.value!r}", token.position)

    # -- PRAGMA -----------------------------------------------------------------

    def _parse_pragma(self) -> ast.PragmaStatement:
        self._expect_keyword("PRAGMA")
        name = self._expect_identifier()
        value: str | int | float | None = None
        if self._match_punct("="):
            value = self._parse_pragma_value()
        elif self._match_punct("("):
            value = self._parse_pragma_value()
            self._expect_punct(")")
        return ast.PragmaStatement(name=name.lower(), value=value)

    def _parse_pragma_value(self) -> str | int | float:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            return float(text) if "." in text or "e" in text.lower() else int(text)
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        if token.type is TokenType.KEYWORD:
            # Bare mode words (FULL, OFF, ...) may collide with keywords.
            self._advance()
            return token.value.lower()
        raise SQLSyntaxError(
            f"expected a PRAGMA value, found {token.value!r}", token.position
        )

    # -- SELECT -----------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        distinct = False
        if self._match_keyword("DISTINCT"):
            distinct = True
        elif self._match_keyword("ALL"):
            distinct = False

        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())

        from_table: Optional[ast.TableRef] = None
        from_crowd: Optional[ast.CrowdRelation] = None
        joins: list[ast.Join] = []
        if self._match_keyword("FROM"):
            if self._match_keyword("CROWD"):
                # Open-world relation: SELECT ... FROM CROWD '<predicate>'
                # [WITH COMPLETENESS >= x [AND] BUDGET <= y].  The relation
                # exposes a single column named ``value``; the query's own
                # WHERE/ORDER/LIMIT clauses apply on top as usual.
                predicate = self._expect_string("crowd predicate")
                completeness, budget = self._parse_crowd_constraints()
                from_crowd = ast.CrowdRelation(
                    predicate=predicate, completeness=completeness, budget=budget
                )
            else:
                from_table = self._parse_table_ref()
                joins = self._parse_joins()

        where = self._parse_expression() if self._match_keyword("WHERE") else None

        group_by: list[ast.Expression] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._match_punct(","):
                group_by.append(self._parse_expression())

        having = self._parse_expression() if self._match_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self._match_keyword("LIMIT"):
            limit = self._expect_integer()
            if self._match_keyword("OFFSET"):
                offset = self._expect_integer()

        return ast.SelectStatement(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            from_crowd=from_crowd,
        )

    def _parse_crowd_constraints(self) -> tuple[Optional[float], Optional[float]]:
        """Parse ``WITH COMPLETENESS >= x [AND|,] BUDGET <= y`` (any order)."""
        completeness: Optional[float] = None
        budget: Optional[float] = None
        if not self._match_keyword("WITH"):
            return completeness, budget
        while True:
            token = self._peek()
            if self._match_keyword("COMPLETENESS"):
                if completeness is not None:
                    raise SQLSyntaxError("duplicate COMPLETENESS constraint", token.position)
                self._expect_punct(">=")
                completeness = self._expect_number()
                if not 0.0 <= completeness <= 1.0:
                    raise SQLSyntaxError(
                        f"COMPLETENESS target must be in [0, 1], got {completeness}",
                        token.position,
                    )
            elif self._match_keyword("BUDGET"):
                if budget is not None:
                    raise SQLSyntaxError("duplicate BUDGET constraint", token.position)
                self._expect_punct("<=")
                budget = self._expect_number()  # unsigned: rejects a negative budget
            else:
                raise SQLSyntaxError(
                    f"expected COMPLETENESS or BUDGET, found {token.value!r}",
                    token.position,
                )
            if not (self._match_keyword("AND") or self._match_punct(",")):
                break
        return completeness, budget

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        # qualified star: ident.*
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).value == "."
            and self._peek(2).value == "*"
        ):
            self._advance()
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(table=token.value))
        expression = self._parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return ast.SelectItem(expression, alias)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_identifier()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return ast.TableRef(name=name, alias=alias)

    def _parse_joins(self) -> list[ast.Join]:
        joins: list[ast.Join] = []
        while True:
            kind = None
            if self._check_keyword("JOIN") or self._check_keyword("INNER"):
                self._match_keyword("INNER")
                self._expect_keyword("JOIN")
                kind = "inner"
            elif self._check_keyword("LEFT"):
                self._advance()
                self._match_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "left"
            elif self._check_keyword("CROSS"):
                self._advance()
                self._expect_keyword("JOIN")
                kind = "cross"
            else:
                break
            right = self._parse_table_ref()
            condition = None
            if kind != "cross":
                self._expect_keyword("ON")
                condition = self._parse_expression()
            joins.append(ast.Join(right=right, condition=condition, kind=kind))
        return joins

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        ascending = True
        if self._match_keyword("DESC"):
            ascending = False
        else:
            self._match_keyword("ASC")
        return ast.OrderItem(expression, ascending)

    # -- DDL ---------------------------------------------------------------------

    def _parse_create_table(self) -> ast.CreateTableStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        if_not_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        table = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._parse_column_definition()]
        while self._match_punct(","):
            columns.append(self._parse_column_definition())
        self._expect_punct(")")
        return ast.CreateTableStatement(
            table=table, columns=tuple(columns), if_not_exists=if_not_exists
        )

    def _parse_column_definition(self) -> ast.ColumnDefinition:
        name = self._expect_identifier()
        type_token = self._peek()
        if type_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise SQLSyntaxError(
                f"expected column type, found {type_token.value!r}", type_token.position
            )
        self._advance()
        type_name = type_token.value
        not_null = False
        primary_key = False
        perceptual = False
        default: Optional[ast.Expression] = None
        while True:
            if self._match_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._match_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
            elif self._match_keyword("PERCEPTUAL"):
                perceptual = True
            elif self._match_keyword("FACTUAL"):
                perceptual = False
            elif self._match_keyword("DEFAULT"):
                default = self._parse_expression()
            else:
                break
        return ast.ColumnDefinition(
            name=name,
            type_name=type_name,
            not_null=not_null,
            primary_key=primary_key,
            perceptual=perceptual,
            default=default,
        )

    def _parse_create_index(self) -> ast.CreateIndexStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("INDEX")
        name = None
        if self._peek().type is TokenType.IDENTIFIER and not self._peek().is_keyword("ON"):
            name = self._expect_identifier()
        self._expect_keyword("ON")
        table = self._expect_identifier()
        self._expect_punct("(")
        column = self._expect_identifier()
        self._expect_punct(")")
        return ast.CreateIndexStatement(table=table, column=column, name=name)

    def _parse_drop_table(self) -> ast.DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        table = self._expect_identifier()
        return ast.DropTableStatement(table=table, if_exists=if_exists)

    def _parse_alter_table(self) -> ast.AlterTableAddColumn:
        self._expect_keyword("ALTER")
        self._expect_keyword("TABLE")
        table = self._expect_identifier()
        self._expect_keyword("ADD")
        self._match_keyword("COLUMN")
        column = self._parse_column_definition()
        return ast.AlterTableAddColumn(table=table, column=column)

    # -- DML ---------------------------------------------------------------------

    def _parse_insert(self) -> Union[ast.InsertStatement, ast.InsertFromCrowdStatement]:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        columns: list[str] = []
        if self._match_punct("("):
            columns.append(self._expect_identifier())
            while self._match_punct(","):
                columns.append(self._expect_identifier())
            self._expect_punct(")")
        if self._match_keyword("FROM"):
            # INSERT INTO t (col) FROM CROWD [WHERE '<predicate>'] [WITH ...]
            # — open-world insertion: the crowd enumerates values matching
            # the predicate (defaulting to "<table>.<column>") and each new
            # deduplicated answer becomes a row.
            self._expect_keyword("CROWD")
            predicate: Optional[str] = None
            if self._match_keyword("WHERE"):
                predicate = self._expect_string("crowd predicate")
            if predicate is None:
                predicate = f"{table}.{columns[0]}" if columns else table
            completeness, budget = self._parse_crowd_constraints()
            return ast.InsertFromCrowdStatement(
                table=table,
                columns=tuple(columns),
                crowd=ast.CrowdRelation(
                    predicate=predicate, completeness=completeness, budget=budget
                ),
            )
        self._expect_keyword("VALUES")
        rows: list[tuple[ast.Expression, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self._parse_expression()]
            while self._match_punct(","):
                values.append(self._parse_expression())
            self._expect_punct(")")
            rows.append(tuple(values))
            if not self._match_punct(","):
                break
        return ast.InsertStatement(table=table, columns=tuple(columns), rows=tuple(rows))

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier()
        self._expect_keyword("SET")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self._expect_identifier()
            self._expect_punct("=")
            value = self._parse_expression()
            assignments.append((column, value))
            if not self._match_punct(","):
                break
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        return ast.UpdateStatement(table=table, assignments=tuple(assignments), where=where)

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        return ast.DeleteStatement(table=table, where=where)

    # -- expressions ----------------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp("and", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._match_keyword("NOT"):
            operand = self._parse_not()
            return ast.UnaryOp("not", operand)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()

        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPERATORS:
            self._advance()
            right = self._parse_additive()
            op = "!=" if token.value == "<>" else token.value
            return ast.BinaryOp(op, left, right)

        if token.is_keyword("IS"):
            self._advance()
            negated = self._match_keyword("NOT")
            if self._match_keyword("MISSING"):
                return ast.IsNull(left, negated=negated, missing=True)
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=negated)

        if token.is_keyword("LIKE"):
            self._advance()
            right = self._parse_additive()
            return ast.BinaryOp("like", left, right)

        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self._advance()
            follow = self._peek()
            if follow.is_keyword("LIKE"):
                self._advance()
                right = self._parse_additive()
                return ast.UnaryOp("not", ast.BinaryOp("like", left, right))
            if follow.is_keyword("IN"):
                self._advance()
                return self._parse_in_list(left, negated=True)
            self._advance()
            return self._parse_between(left, negated=True)

        if token.is_keyword("IN"):
            self._advance()
            return self._parse_in_list(left, negated=False)

        if token.is_keyword("BETWEEN"):
            self._advance()
            return self._parse_between(left, negated=False)

        return left

    def _parse_in_list(self, operand: ast.Expression, *, negated: bool) -> ast.InList:
        self._expect_punct("(")
        items = [self._parse_expression()]
        while self._match_punct(","):
            items.append(self._parse_expression())
        self._expect_punct(")")
        return ast.InList(operand, tuple(items), negated=negated)

    def _parse_between(self, operand: ast.Expression, *, negated: bool) -> ast.Between:
        low = self._parse_additive()
        self._expect_keyword("AND")
        high = self._parse_additive()
        return ast.Between(operand, low, high, negated=negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in _ADDITIVE_OPERATORS:
                self._advance()
                right = self._parse_multiplicative()
                left = ast.BinaryOp(token.value, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in _MULTIPLICATIVE_OPERATORS:
                self._advance()
                right = self._parse_unary()
                left = ast.BinaryOp(token.value, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in {"-", "+"}:
            self._advance()
            operand = self._parse_unary()
            if token.value == "-":
                return ast.UnaryOp("neg", operand)
            return operand
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()

        if token.type is TokenType.PARAMETER:
            self._advance()
            parameter = ast.Parameter(self._parameter_count)
            self._parameter_count += 1
            return parameter

        if token.type is TokenType.NUMBER:
            self._advance()
            value = float(token.value) if "." in token.value or "e" in token.value.lower() else int(token.value)
            return ast.Literal(value)

        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)

        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("MISSING"):
            self._advance()
            return ast.Literal(MISSING)

        if token.is_keyword("CASE"):
            return self._parse_case()

        if token.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            self._advance()
            return self._parse_function_call(token.value.lower())

        if token.type is TokenType.IDENTIFIER:
            self._advance()
            name = token.value
            # function call
            if self._peek().value == "(" and self._peek().type is TokenType.PUNCTUATION:
                return self._parse_function_call(name)
            # qualified column reference
            if self._peek().value == "." and self._peek().type is TokenType.PUNCTUATION:
                self._advance()
                column = self._expect_identifier()
                return ast.ColumnRef(name=column, table=name)
            return ast.ColumnRef(name=name)

        if token.value == "(":
            self._advance()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression

        raise SQLSyntaxError(f"unexpected token {token.value!r}", token.position)

    def _parse_function_call(self, name: str) -> ast.FunctionCall:
        self._expect_punct("(")
        distinct = False
        star = False
        args: list[ast.Expression] = []
        if self._peek().value == "*" and self._peek().type is TokenType.OPERATOR:
            self._advance()
            star = True
        elif self._peek().value != ")":
            if self._match_keyword("DISTINCT"):
                distinct = True
            args.append(self._parse_expression())
            while self._match_punct(","):
                args.append(self._parse_expression())
        self._expect_punct(")")
        return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct, star=star)

    def _parse_case(self) -> ast.CaseExpression:
        self._expect_keyword("CASE")
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        default: Optional[ast.Expression] = None
        while self._match_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            value = self._parse_expression()
            branches.append((condition, value))
        if self._match_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        if not branches:
            raise SQLSyntaxError("CASE expression requires at least one WHEN branch")
        return ast.CaseExpression(tuple(branches), default)


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing semicolon is allowed)."""
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser._match_punct(";")
    if not parser.at_end():
        token = parser._peek()
        raise SQLSyntaxError(f"unexpected trailing input {token.value!r}", token.position)
    return statement


def parse_script(sql: str) -> list[tuple[str, ast.Statement]]:
    """Parse a ``;``-separated script into ``(source_text, statement)`` pairs.

    The source text of each statement is recovered from the token positions,
    so callers (e.g. the connection's statement log) can record individual
    statements instead of the whole script.
    """
    parser = _Parser(tokenize(sql))
    pairs: list[tuple[str, ast.Statement]] = []
    while not parser.at_end():
        # Placeholders are numbered per statement, not per script.
        parser._parameter_count = 0
        start = parser._peek().position
        statement = parser.parse_statement()
        end = parser._peek().position
        pairs.append((sql[start:end].strip(), statement))
        while parser._match_punct(";"):
            pass
    return pairs
