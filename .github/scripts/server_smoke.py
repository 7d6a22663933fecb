"""CI smoke test for the served database, exercising the real deployment path.

Unlike ``tests/server/``, which drives :class:`ReproServer` in-process, this
script does exactly what an operator does: start ``python -m repro serve`` as
its own process, point concurrent wire clients at it, send SIGTERM while one
more client sits connected and idle, and check that the drain honoured the
contract — exit code 0, the idle client's next request fails instead of
hanging, directory lock released, every acknowledged statement recovered by
the next opener.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import repro
import repro.client

N_CLIENTS = 16
ROWS_PER_CLIENT = 25


def spawn_server(db_path: str) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--db-path", db_path, "--port", "0"],
        env=dict(os.environ),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise SystemExit("server subprocess never reported its address")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "smokedb")
        proc, host, port = spawn_server(db_path)
        try:
            seed = repro.client.connect(host, port, tenant="smoke")
            seed.execute("CREATE TABLE smoke (client INTEGER, seq INTEGER)")
            seed.close()
            # Connected across the SIGTERM but silent: its connection's
            # thread is blocked reading, and the drain must wake it.
            idle = repro.client.connect(host, port, tenant="smoke-idle", timeout=30.0)

            errors: list[BaseException] = []

            def client_run(idx: int) -> None:
                try:
                    conn = repro.client.connect(host, port, tenant=f"smoke-{idx}")
                    for seq in range(ROWS_PER_CLIENT):
                        conn.execute("INSERT INTO smoke VALUES (?, ?)", (idx, seq))
                    rows = conn.execute(
                        "SELECT COUNT(*) FROM smoke WHERE client = ?", (idx,)
                    ).fetchall()
                    assert rows == [(ROWS_PER_CLIENT,)], rows
                    conn.close()
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_run, args=(i,)) for i in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            if errors:
                raise SystemExit(f"client errors under load: {errors[:3]}")

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
            if code != 0:
                raise SystemExit(f"server exited {code} on SIGTERM, wanted 0")
            try:
                idle.execute("SELECT COUNT(*) FROM smoke")
            except socket.timeout:
                raise SystemExit("the idle client's request hung after the drain")
            except OSError:
                pass  # the drain closed its connection
            else:
                raise SystemExit("the idle client's request was answered after the drain")
            finally:
                idle.close()
        finally:
            if proc.poll() is None:
                proc.kill()

        # Drain released the directory lock and flushed the WAL: reopening
        # in-process recovers every acknowledged row.
        check = repro.connect(path=db_path)
        try:
            total = check.execute("SELECT COUNT(*) FROM smoke").fetchone()[0]
        finally:
            check.close()
        expected = N_CLIENTS * ROWS_PER_CLIENT
        if total != expected:
            raise SystemExit(f"recovered {total} rows, acknowledged {expected}")
        print(
            f"server smoke OK: {N_CLIENTS} clients x {ROWS_PER_CLIENT} inserts, "
            f"clean SIGTERM drain past an idle client, {total} rows recovered"
        )


if __name__ == "__main__":
    main()
