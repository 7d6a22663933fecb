"""Crowd-enabled relational database substrate.

This subpackage implements the database the paper's schema-expansion layer
sits on: a typed relational store with a SQL front end (tokenizer, parser,
planner, executor) and crowd-backed operators that fill missing values at
query time from a :class:`~repro.db.acquisition.ValueSource`.

Public entry point: :func:`repro.db.connect`, returning a DB-API-2.0-style
:class:`~repro.db.connection.Connection` with cursors, qmark parameter
binding, a prepared-statement cache and a session-scoped crowd context
configured through one typed
:class:`~repro.db.acquisition.AcquisitionPolicy`.
"""

from repro.db.acquisition import (
    AcquisitionPolicy,
    AttributePredictor,
    Dispatch,
    PredictionBatch,
    PredictSpec,
    SamplePlan,
    ValueSource,
    plan_sample,
)
from repro.db.catalog import Catalog
from repro.db.connection import (
    CacheStats,
    Connection,
    Cursor,
    ExpansionHandler,
    SessionContext,
    StatementCache,
    connect,
)
from repro.db.durability import DurabilityManager
from repro.db.schema import AttributeKind, Column, ColumnType, TableSchema
from repro.db.sql.executor import QueryResult, SelectStream
from repro.db.sql.operators import CrowdFillSpec, Operator
from repro.db.storage import Row, TableStorage, ValueProvenance
from repro.db.types import MISSING, Missing, coerce_value, is_missing

__all__ = [
    "AcquisitionPolicy",
    "AttributeKind",
    "AttributePredictor",
    "CacheStats",
    "Catalog",
    "Column",
    "ColumnType",
    "Connection",
    "CrowdFillSpec",
    "Cursor",
    "Dispatch",
    "DurabilityManager",
    "ExpansionHandler",
    "MISSING",
    "Missing",
    "Operator",
    "PredictSpec",
    "PredictionBatch",
    "QueryResult",
    "Row",
    "SamplePlan",
    "SelectStream",
    "SessionContext",
    "StatementCache",
    "TableSchema",
    "TableStorage",
    "ValueProvenance",
    "ValueSource",
    "coerce_value",
    "connect",
    "is_missing",
    "plan_sample",
]
