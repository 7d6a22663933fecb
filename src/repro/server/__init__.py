"""Multi-tenant network front-end for the crowd-enabled database.

``repro serve`` turns the in-process engine into a *served* database: one
process owns the database directory (durability lock, WAL, snapshots) and
the catalog-shared :class:`~repro.crowd.runtime.AcquisitionRuntime`, and
many clients talk to it over a length-prefixed JSON wire protocol.  Crowd
answers, the answer cache and in-flight coalescing stay catalog-shared, so
tenant B's repeat of tenant A's crowd query costs zero platform calls —
the cross-query reuse that amortizes HIT spending across "millions of
users" (ROADMAP north star; see ``docs/server.md``).

Layout:

* :mod:`repro.server.protocol` — framing, message schemas, and the typed
  wire-error taxonomy mapped from :mod:`repro.errors`;
* :mod:`repro.server.tenancy` — per-tenant sessions with isolated crowd
  budgets, token-bucket rate limits and usage statistics;
* :mod:`repro.server.server` — the accept loop giving each client
  connection its own thread, which runs that connection's statements on
  the shared catalog under admission control (so each open connection
  holds one thread), draining gracefully on SIGTERM;
* :mod:`repro.server.client` — the synchronous wire client
  (``repro.client.connect(host, port)``) exposing the familiar cursor API.
"""

from repro.server.client import ClientConnection, ClientCursor, connect
from repro.server.server import ReproServer, ServerConfig
from repro.server.tenancy import TenantConfig, TenantRegistry, TenantState

__all__ = [
    "ClientConnection",
    "ClientCursor",
    "ReproServer",
    "ServerConfig",
    "TenantConfig",
    "TenantRegistry",
    "TenantState",
    "connect",
]
