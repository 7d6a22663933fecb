"""Tests for the fluent ExpansionPipeline builder and session budgets."""

from __future__ import annotations

import pytest

from repro.core.policies import ExpansionPolicy, PolicyResult
from repro.db import AcquisitionPolicy, connect
from repro.errors import ExpansionError, UnknownColumnError


class StubPolicy(ExpansionPolicy):
    """Labels every item True at a fixed cost per expansion."""

    def __init__(self, cost: float = 1.0) -> None:
        self.cost = cost
        self.expansions: list[str] = []

    def expand(self, attribute, item_ids, truth) -> PolicyResult:
        self.expansions.append(attribute)
        return PolicyResult(
            attribute=attribute,
            values={item_id: True for item_id in item_ids},
            cost=self.cost,
            minutes=2.0,
            judgments=len(item_ids),
            details={"policy": "stub"},
        )


@pytest.fixture
def conn():
    connection = connect()
    connection.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
    connection.executemany(
        "INSERT INTO movies (movie_id, name) VALUES (?, ?)",
        [(1, "Rocky"), (2, "Psycho"), (3, "Clue")],
    )
    return connection


class TestExpansionPipeline:
    def test_fluent_attach_and_expand(self, conn):
        policy = StubPolicy()
        expander = (
            conn.expansion()
            .with_policy(policy)
            .with_key("movie_id")
            .allow("cult_film")
            .attach()
        )
        rows = conn.execute(
            "SELECT name FROM movies WHERE cult_film = ? ORDER BY movie_id", (True,)
        ).fetchall()
        assert rows == [("Rocky",), ("Psycho",), ("Clue",)]
        assert policy.expansions == ["cult_film"]
        assert expander.reports[0].coverage == 1.0

    def test_allow_list_blocks_other_attributes(self, conn):
        conn.expansion().with_policy(StubPolicy()).with_key("movie_id").allow("cult_film").attach()
        with pytest.raises(UnknownColumnError):
            conn.execute("SELECT name FROM movies WHERE email = ?", ("x",))

    def test_policy_is_required(self, conn):
        with pytest.raises(ExpansionError, match="policy"):
            conn.expansion().with_key("movie_id").attach()

    def test_cost_recorded_in_session_and_ledger(self, conn):
        conn.expansion().with_policy(StubPolicy(cost=2.5)).with_key("movie_id").attach()
        conn.execute("SELECT name FROM movies WHERE cult_film = ?", (True,))
        assert conn.session.cost_spent == pytest.approx(2.5)
        assert conn.session.ledger.total_cost == pytest.approx(2.5)
        assert conn.session.ledger.total_judgments == 3

    def test_budget_stops_expansion(self, conn):
        policy = StubPolicy(cost=2.0)
        conn.set_policy(AcquisitionPolicy(max_cost=3.0))
        conn.expansion().with_policy(policy).with_key("movie_id").attach()
        conn.execute("SELECT name FROM movies WHERE first_attr = ?", (True,))
        conn.execute("SELECT name FROM movies WHERE second_attr = ?", (True,))
        # Two expansions spent $4 > $3: the third is refused.
        with pytest.raises(UnknownColumnError):
            conn.execute("SELECT name FROM movies WHERE third_attr = ?", (True,))
        assert policy.expansions == ["first_attr", "second_attr"]

    def test_budget_of_zero_blocks_immediately(self, conn):
        policy = StubPolicy()
        conn.set_policy(AcquisitionPolicy(max_cost=0.0))
        conn.expansion().with_policy(policy).with_key("movie_id").attach()
        with pytest.raises(UnknownColumnError):
            conn.execute("SELECT name FROM movies WHERE cult_film = ?", (True,))
        assert policy.expansions == []

    def test_concurrent_expansions_of_same_attribute_coalesce(self):
        import threading
        import time

        from repro.db import Catalog, Connection

        class SlowCountingPolicy(StubPolicy):
            def expand(self, attribute, item_ids, truth):
                time.sleep(0.2)
                return super().expand(attribute, item_ids, truth)

        catalog = Catalog()
        connections = [Connection(catalog) for _ in range(3)]
        connections[0].execute("CREATE TABLE t (item_id INTEGER PRIMARY KEY)")
        connections[0].executemany(
            "INSERT INTO t (item_id) VALUES (?)", [(i,) for i in range(1, 50)]
        )
        policy = SlowCountingPolicy(cost=3.0)
        for connection in connections:
            connection.expansion().with_policy(policy).with_key("item_id").attach()

        results: list[tuple] = []
        errors: list[Exception] = []

        def query(connection):
            try:
                results.append(
                    connection.execute(
                        "SELECT count(*) FROM t WHERE cult = ?", (True,)
                    ).fetchone()
                )
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=query, args=(c,)) for c in connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Exactly one connection paid the crowd; every query saw the full result.
        assert policy.expansions == ["cult"]
        assert results == [(49,), (49,), (49,)]
        assert sorted(c.session.cost_spent for c in connections) == [0.0, 0.0, 3.0]

    def test_waiter_recovers_when_owning_expansion_fails(self):
        import threading
        import time

        from repro.db import Catalog, Connection
        from repro.errors import ExpansionError

        class FailingPolicy(ExpansionPolicy):
            def expand(self, attribute, item_ids, truth):
                time.sleep(0.2)
                raise ExpansionError("simulated crowd outage")

        class SlowWorkingPolicy(StubPolicy):
            def expand(self, attribute, item_ids, truth):
                time.sleep(0.05)
                return super().expand(attribute, item_ids, truth)

        catalog = Catalog()
        failing = Connection(catalog)
        working = Connection(catalog)
        failing.execute("CREATE TABLE t (item_id INTEGER PRIMARY KEY)")
        failing.executemany("INSERT INTO t (item_id) VALUES (?)", [(i,) for i in range(1, 20)])
        failing.expansion().with_policy(FailingPolicy()).with_key("item_id").attach()
        working_policy = SlowWorkingPolicy()
        working.expansion().with_policy(working_policy).with_key("item_id").attach()

        outcomes: dict[str, object] = {}

        def run_failing():
            try:
                failing.execute("SELECT count(*) FROM t WHERE cult = ?", (True,))
                outcomes["failing"] = "unexpected success"
            except UnknownColumnError:
                outcomes["failing"] = "unknown-column"

        def run_working():
            time.sleep(0.05)  # let the failing connection claim ownership first
            outcomes["working"] = working.execute(
                "SELECT count(*) FROM t WHERE cult = ?", (True,)
            ).fetchone()

        threads = [threading.Thread(target=run_failing), threading.Thread(target=run_working)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The waiter fell back to its own (working) policy after the owner failed.
        assert outcomes["failing"] == "unknown-column"
        assert outcomes["working"] == (19,)
        assert working_policy.expansions == ["cult"]

    def test_expansion_scan_and_writeback_safe_against_concurrent_writer(self):
        import threading
        import time

        from repro.db import Catalog, Connection

        class SlowStubPolicy(StubPolicy):
            def expand(self, attribute, item_ids, truth):
                time.sleep(0.2)  # crowd-sourcing happens outside the catalog lock
                return super().expand(attribute, item_ids, truth)

        catalog = Catalog()
        expanding = Connection(catalog)
        writing = Connection(catalog)
        expanding.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
        expanding.executemany(
            "INSERT INTO movies (movie_id, name) VALUES (?, ?)",
            [(i, f"m{i}") for i in range(1, 200)],
        )
        expanding.expansion().with_policy(SlowStubPolicy()).with_key("movie_id").attach()

        errors: list[Exception] = []

        def writer():
            try:
                for i in range(200, 600):
                    writing.execute(
                        "INSERT INTO movies (movie_id, name) VALUES (?, ?)", (i, f"m{i}")
                    )
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        def expander():
            try:
                expanding.execute("SELECT name FROM movies WHERE cult_film = ?", (True,))
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=expander), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_build_without_attach_leaves_session_untouched(self, conn):
        expander = conn.expansion().with_policy(StubPolicy()).with_key("movie_id").build()
        assert conn.session.expansion_handler is None
        report = expander.expand_attribute("movies", "cult_film")
        assert report.rows_filled == 3
