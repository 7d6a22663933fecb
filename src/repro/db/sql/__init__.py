"""SQL front end: tokenizer, AST, parser, planner and executor.

The dialect is the subset needed by the paper's workloads:

* ``CREATE TABLE`` / ``DROP TABLE`` / ``ALTER TABLE ... ADD COLUMN``
* ``INSERT INTO ... VALUES``
* ``UPDATE ... SET ... WHERE``
* ``DELETE FROM ... WHERE``
* ``SELECT`` with projections, expression predicates, ``JOIN ... ON``,
  ``GROUP BY`` / ``HAVING``, aggregate functions, ``ORDER BY``,
  ``LIMIT`` / ``OFFSET`` and ``DISTINCT``.

Columns may be declared ``PERCEPTUAL`` which marks them as candidates for
query-driven schema expansion.
"""

from repro.db.sql.parser import parse_script, parse_statement
from repro.db.sql.tokenizer import Token, TokenType, tokenize

__all__ = ["Token", "TokenType", "tokenize", "parse_script", "parse_statement"]
