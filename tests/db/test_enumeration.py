"""Tests for open-world crowd enumeration and the unified acquisition policy.

Covers the whole ``FROM CROWD`` surface: SQL parsing of the enumeration
constraints, the Chao92 stopping rule of ``CrowdEnumerate`` (completeness /
budget / dry-streak), EXPLAIN ANALYZE statistics, the ``INSERT ... FROM
CROWD`` dedup-and-fill path with crowd provenance, determinism across
runtime concurrency levels, SIGKILL crash recovery of enumerated rows, and
the ``AcquisitionPolicy`` / ``PRAGMA acquisition_*`` configuration surface.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.crowd.platform import CrowdPlatform
from repro.crowd.runtime import AcquisitionRuntime
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.db.acquisition import AcquisitionPolicy
from repro.db.connection import Connection, SessionContext, connect
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import ExecutionError, SQLSyntaxError

#: n=20 with 25 answers/batch: the Chao92 stop at >= 0.9 estimated coverage
#: lands at >= 0.9 *true* coverage after 3 batches (deterministic, seed 7).
UNIVERSE = [f"species-{i:02d}" for i in range(20)]


def make_source(seed: int = 7, answers_per_batch: int = 25, **kwargs):
    return SimulatedCrowdValueSource(
        CrowdPlatform(seed=11),
        WorkerPool.build(n_honest=5, seed=3),
        truth={},
        seed=seed,
        universe={"birds": UNIVERSE},
        answers_per_batch=answers_per_batch,
        payment_per_hit=0.05,
        **kwargs,
    )


def make_conn(source=None, session: SessionContext | None = None) -> Connection:
    conn = Connection(session=session)
    if source is not None:
        conn.set_value_source(source)
    conn.run_statement("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
    return conn


class TestParsing:
    def test_select_from_crowd_with_constraints(self):
        statement = parse_statement(
            "SELECT value FROM CROWD 'birds' WITH COMPLETENESS >= 0.9 AND BUDGET <= 2.5"
        )
        assert isinstance(statement, ast.SelectStatement)
        assert statement.from_crowd is not None
        assert statement.from_crowd.predicate == "birds"
        assert statement.from_crowd.completeness == pytest.approx(0.9)
        assert statement.from_crowd.budget == pytest.approx(2.5)

    def test_insert_from_crowd_defaults_predicate_to_table_column(self):
        statement = parse_statement("INSERT INTO birds (name) FROM CROWD")
        assert isinstance(statement, ast.InsertFromCrowdStatement)
        assert statement.crowd.predicate == "birds.name"

    def test_insert_from_crowd_with_where_predicate(self):
        statement = parse_statement(
            "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH BUDGET <= 1.0"
        )
        assert isinstance(statement, ast.InsertFromCrowdStatement)
        assert statement.crowd.predicate == "birds"
        assert statement.crowd.budget == pytest.approx(1.0)

    def test_duplicate_constraint_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement(
                "SELECT value FROM CROWD 'x' WITH COMPLETENESS >= 0.5 AND COMPLETENESS >= 0.9"
            )

    def test_out_of_range_completeness_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT value FROM CROWD 'x' WITH COMPLETENESS >= 1.5")

    def test_plain_insert_still_parses(self):
        statement = parse_statement("INSERT INTO birds (bird_id, name) VALUES (1, 'a')")
        assert isinstance(statement, ast.InsertStatement)


class TestStoppingRules:
    def test_completeness_stop_reaches_true_coverage(self):
        conn = make_conn(make_source())
        cur = conn.execute(
            "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9"
        )
        stats = cur.result.enumeration
        assert stats["stopped_on"] == "completeness"
        # Stopped before exhausting the simulated universe...
        assert stats["batches"] < conn.policy.max_enum_batches
        # ...yet covering >= 0.9 of the true population.
        assert stats["unique_seen"] / len(UNIVERSE) >= 0.9
        assert 0.0 <= stats["est_coverage"] <= 1.0
        assert stats["est_coverage"] >= 0.9
        assert cur.rowcount == stats["rows_enumerated"]

    def test_budget_stop(self):
        conn = make_conn(make_source())
        cur = conn.execute(
            "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH BUDGET <= 0.08"
        )
        stats = cur.result.enumeration
        assert stats["stopped_on"] == "budget"
        assert stats["cost"] <= 0.08 + 1e-9

    def test_session_budget_stops_enumeration(self):
        session = SessionContext(policy=AcquisitionPolicy(max_cost=0.05))
        conn = make_conn(make_source(), session=session)
        cur = conn.execute("INSERT INTO birds (name) FROM CROWD WHERE 'birds'")
        stats = cur.result.enumeration
        assert stats["stopped_on"] == "budget"
        assert session.cost_spent <= 0.05 + 1e-9

    def test_unknown_predicate_dries_out(self):
        conn = make_conn(make_source())
        cur = conn.execute("INSERT INTO birds (name) FROM CROWD WHERE 'no such universe'")
        stats = cur.result.enumeration
        assert cur.rowcount == 0
        assert stats["stopped_on"] == "exhausted"
        assert stats["rows_enumerated"] == 0

    def test_requires_value_source(self):
        conn = make_conn()
        with pytest.raises(ExecutionError, match="value source"):
            conn.execute("INSERT INTO birds (name) FROM CROWD WHERE 'birds'")


class TestInsertFromCrowd:
    def test_rows_get_crowd_provenance_and_fresh_pks(self):
        conn = make_conn(make_source())
        cur = conn.execute(
            "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9"
        )
        assert cur.rowcount > 0
        provenance = conn.execute("PRAGMA column_provenance = 'birds.name'").fetchall()
        assert provenance == [("crowd", cur.rowcount)]
        ids = [row[0] for row in conn.execute("SELECT bird_id FROM birds ORDER BY bird_id")]
        assert ids == list(range(1, cur.rowcount + 1))

    def test_reinsert_dedups_against_existing_rows(self):
        conn = make_conn(make_source())
        sql = "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9"
        first = conn.execute(sql).rowcount
        assert first > 0
        again = conn.execute(sql)
        assert again.rowcount == 0
        assert conn.execute("SELECT count(*) FROM birds").fetchone() == (first,)

    def test_manual_rows_also_dedup(self):
        conn = make_conn(make_source())
        # Pre-seed one species with different case/whitespace: entity
        # resolution must recognise it and not insert a duplicate.
        conn.execute(
            "INSERT INTO birds (bird_id, name) VALUES (100, '  SPECIES-00 ')"
        )
        conn.execute(
            "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9"
        )
        names = [
            row[0].strip().lower()
            for row in conn.execute("SELECT name FROM birds").fetchall()
        ]
        assert names.count("species-00") == 1

    def test_explain_analyze_reports_enumeration_statistics(self):
        conn = make_conn(make_source())
        plan = conn.explain_analyze(
            "SELECT value FROM CROWD 'birds' WITH COMPLETENESS >= 0.9"
        )
        assert "CrowdEnumerate" in plan
        for token in ("rows_enumerated", "unique_seen", "est_total", "est_coverage", "stopped_on"):
            assert token in plan

    def test_select_from_crowd_streams_rows(self):
        conn = make_conn(make_source())
        rows = conn.execute(
            "SELECT value FROM CROWD 'birds' WITH COMPLETENESS >= 0.9 ORDER BY value"
        ).fetchall()
        assert rows == sorted(rows)
        assert len(rows) >= 0.9 * len(UNIVERSE)

    def test_limit_stops_pulling_early(self):
        source = make_source()
        conn = make_conn(source)
        rows = conn.execute("SELECT value FROM CROWD 'birds' LIMIT 3").fetchall()
        assert len(rows) == 3
        # One batch already yields 25 answers, so LIMIT 3 needs exactly one.
        assert source.dispatches == 1


class TestDeterminism:
    def enumerate_with_concurrency(self, max_concurrent_batches: int) -> list[str]:
        conn = make_conn(make_source(seed=42))
        conn.catalog.set_acquisition_runtime(
            AcquisitionRuntime(max_concurrent_batches=max_concurrent_batches)
        )
        conn.execute(
            "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9"
        )
        return [
            row[0] for row in conn.execute("SELECT name FROM birds ORDER BY bird_id")
        ]

    def test_same_seed_same_sequence_at_any_concurrency(self):
        sequences = {
            concurrency: self.enumerate_with_concurrency(concurrency)
            for concurrency in (1, 4, 8)
        }
        assert sequences[1] == sequences[4] == sequences[8]
        assert len(sequences[1]) > 0

    def enumerate_with_seed(self, seed: int) -> list[str]:
        conn = make_conn(make_source(seed=seed))
        conn.execute("INSERT INTO birds (name) FROM CROWD WHERE 'birds'")
        return [
            row[0] for row in conn.execute("SELECT name FROM birds ORDER BY bird_id")
        ]

    def test_different_seeds_differ(self):
        assert self.enumerate_with_seed(1) != self.enumerate_with_seed(2)


class TestAcquisitionPolicy:
    def test_connect_accepts_policy(self):
        policy = AcquisitionPolicy(max_cost=3.0, crowd_batch_size=10, completeness_target=0.8)
        conn = connect(policy=policy)
        assert conn.policy.max_cost == 3.0
        assert conn.policy.crowd_batch_size == 10
        assert conn.policy.completeness_target == pytest.approx(0.8)

    def test_set_policy_replaces_wholesale(self):
        conn = connect()
        conn.set_policy(AcquisitionPolicy(max_cost=1.0))
        assert conn.session.policy.max_cost == 1.0
        assert conn.session.remaining_budget == 1.0
        conn.set_policy(None)
        assert conn.session.policy.max_cost is None
        assert conn.session.remaining_budget is None

    def test_session_completeness_target_is_the_default_for_enumeration(self):
        session = SessionContext(policy=AcquisitionPolicy(completeness_target=0.9))
        conn = make_conn(make_source(), session=session)
        cur = conn.execute("INSERT INTO birds (name) FROM CROWD WHERE 'birds'")
        assert cur.result.enumeration["stopped_on"] == "completeness"

    def test_policy_validation_rejects_bad_values(self):
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(completeness_target=1.5)
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(max_cost=-1.0)
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(enum_dry_batches=0)

    def test_pragma_read_write_round_trip(self):
        conn = connect()
        conn.execute("PRAGMA acquisition_completeness_target = 0.85")
        assert conn.execute("PRAGMA acquisition_completeness_target").fetchone() == (0.85,)
        conn.execute("PRAGMA acquisition_completeness_target = none")
        assert conn.execute("PRAGMA acquisition_completeness_target").fetchone() == (None,)
        conn.execute("PRAGMA acquisition_crowd_write_back = off")
        assert conn.policy.crowd_write_back is False

    def test_pragma_policy_lists_every_knob(self):
        conn = connect()
        rows = dict(conn.execute("PRAGMA acquisition_policy").fetchall())
        assert set(rows) == {f.name for f in fields(AcquisitionPolicy)}

    def test_pragma_rejects_unknown_and_invalid(self):
        conn = connect()
        with pytest.raises(ExecutionError):
            conn.execute("PRAGMA acquisition_no_such_knob = 1")
        with pytest.raises(ExecutionError):
            conn.execute("PRAGMA acquisition_completeness_target = 1.5")
        # A failed write leaves the session untouched.
        assert conn.policy.completeness_target is None

    @pytest.mark.parametrize(
        "sql, knob, value",
        [
            ("PRAGMA acquisition_max_sample = 40", "max_sample", 40),
            ("PRAGMA acquisition_max_sample = 40.0", "max_sample", 40),
            ("PRAGMA acquisition_max_sample = 'none'", "max_sample", None),
            ("PRAGMA acquisition_crowd_batch_size = '25'", "crowd_batch_size", 25),
            ("PRAGMA acquisition_sample_fraction = 1", "sample_fraction", 1.0),
            ("PRAGMA acquisition_max_cost = '2.5'", "max_cost", 2.5),
            ("PRAGMA acquisition_crowd_write_back = 0", "crowd_write_back", False),
            ("PRAGMA acquisition_crowd_write_back = yes", "crowd_write_back", True),
        ],
    )
    def test_pragma_values_are_coerced_to_the_knob_type(self, sql, knob, value):
        conn = connect()
        conn.execute(sql)
        stored = getattr(conn.policy, knob)
        assert stored == value
        assert type(stored) is type(value)

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("PRAGMA acquisition_crowd_batch_size = 2.5", "expects an integer"),
            ("PRAGMA acquisition_crowd_write_back = maybe", "expects a boolean"),
            ("PRAGMA acquisition_cost_ratio = cheap", "expects a number"),
            ("PRAGMA acquisition_min_sample = none", "expects a number"),
            ("PRAGMA acquisition_policy = 1", "read-only"),
        ],
    )
    def test_pragma_rejects_values_of_the_wrong_type(self, sql, message):
        conn = connect()
        before = conn.policy
        with pytest.raises(ExecutionError, match=message):
            conn.execute(sql)
        assert conn.policy == before

    def test_session_exposes_knobs_only_through_its_policy(self):
        import inspect

        params = inspect.signature(SessionContext.__init__).parameters
        assert [name for name in params if name != "self"] == [
            "expansion_handler",
            "value_source",
            "predictor",
            "policy",
        ]
        knobs = {f.name for f in fields(AcquisitionPolicy)}
        exposed = {
            name
            for name, member in inspect.getmembers(SessionContext)
            if isinstance(member, property)
        }
        assert exposed & knobs == set()
        with pytest.raises(TypeError):
            SessionContext(max_cost=1.0)


class TestCrashRecovery:
    def test_sigkill_preserves_enumerated_rows_without_respend(self, tmp_path):
        """SIGKILL after an acknowledged INSERT ... FROM CROWD: recovery must
        restore every enumerated row with crowd provenance, and reading the
        recovered data must never touch the crowd again."""
        db_path = tmp_path / "enum-db"
        script = textwrap.dedent(
            """
            import sys, time
            import repro
            from repro.crowd.platform import CrowdPlatform
            from repro.crowd.sources import SimulatedCrowdValueSource
            from repro.crowd.worker import WorkerPool

            universe = [f"species-{i:02d}" for i in range(20)]
            source = SimulatedCrowdValueSource(
                CrowdPlatform(seed=11), WorkerPool.build(n_honest=5, seed=3),
                truth={}, seed=7, universe={"birds": universe},
                answers_per_batch=25, payment_per_hit=0.05,
            )
            conn = repro.connect(path=sys.argv[1], synchronous="full")
            conn.set_value_source(source)
            conn.execute("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
            cur = conn.execute(
                "INSERT INTO birds (name) FROM CROWD WHERE 'birds' "
                "WITH COMPLETENESS >= 0.9"
            )
            print(f"DONE {cur.rowcount}", flush=True)  # acknowledged & fsynced
            while True:
                time.sleep(1)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script, str(db_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("DONE"), (
                "writer produced no acknowledgement; stderr: "
                + str(process.stderr.read() if process.poll() is not None else "")
            )
            inserted = int(line.split()[1])
            process.send_signal(signal.SIGKILL)
        finally:
            process.kill()
            process.wait(timeout=30)

        assert inserted > 0
        recovered = repro.connect(path=db_path)
        try:
            count = recovered.execute("SELECT count(*) FROM birds").fetchone()[0]
            assert count == inserted
            provenance = recovered.execute("PRAGMA column_provenance = 'birds.name'").fetchall()
            assert provenance == [("crowd", inserted)]
            # Zero re-spend: no value source is configured, so serving the
            # recovered rows cannot dispatch crowd work or charge anything.
            names = recovered.execute("SELECT name FROM birds").fetchall()
            assert len(names) == inserted
            assert recovered.session.cost_spent == 0.0
            # And repeating the INSERT is entirely free: the dispatched
            # batches were journaled in the WAL, so recovery warm-starts
            # the answer cache and the re-run replays every batch without
            # a single platform call — zero rows, zero spend.
            fresh = make_source()
            recovered.set_value_source(fresh)
            again = recovered.execute(
                "INSERT INTO birds (name) FROM CROWD WHERE 'birds' "
                "WITH COMPLETENESS >= 0.9"
            )
            assert again.rowcount == 0
            assert fresh.dispatches == 0
            assert recovered.session.cost_spent == 0.0
        finally:
            recovered.close()

    def test_checkpoint_preserves_enum_batches(self, tmp_path):
        """Checkpointing truncates the WAL; the snapshot must carry the
        journaled enumeration batches so re-runs stay dispatch-free."""
        db_path = tmp_path / "enum-ckpt"
        conn = repro.connect(path=db_path)
        try:
            conn.set_value_source(make_source())
            conn.execute("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
            first = conn.execute(
                "INSERT INTO birds (name) FROM CROWD WHERE 'birds' "
                "WITH COMPLETENESS >= 0.9"
            )
            assert first.rowcount > 0
            conn.execute("PRAGMA wal_checkpoint")
        finally:
            conn.close()

        reopened = repro.connect(path=db_path)
        try:
            fresh = make_source()
            reopened.set_value_source(fresh)
            again = reopened.execute(
                "INSERT INTO birds (name) FROM CROWD WHERE 'birds' "
                "WITH COMPLETENESS >= 0.9"
            )
            assert again.rowcount == 0
            assert fresh.dispatches == 0
            assert reopened.session.cost_spent == 0.0
        finally:
            reopened.close()
