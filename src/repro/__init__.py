"""repro — crowd-enabled databases with query-driven schema expansion.

A from-scratch reproduction of Selke, Lofi and Balke, "Pushing the
Boundaries of Crowd-enabled Databases with Query-driven Schema Expansion"
(PVLDB 5(6), 2012).

Subpackages
-----------
``repro.db``
    Crowd-enabled relational database (DB-API-style connections and
    cursors, SQL front end with qmark parameter binding, MISSING values,
    crowd-backed operators).
``repro.crowd``
    Simulated crowd-sourcing platform (HITs, worker archetypes, quality
    control, cost/time accounting).
``repro.perceptual``
    Perceptual spaces built from rating data (Euclidean-embedding factor
    model, SVD baseline, nearest-neighbour queries).
``repro.learn``
    Machine-learning substrate (SVM/SVR/TSVM, LSI, metrics) — implemented
    on numpy because scikit-learn is not a dependency.
``repro.datasets``
    Synthetic Social-Web corpora standing in for Netflix/IMDb, yelp.com and
    boardgamegeek.com data.
``repro.core``
    The paper's contribution: the perceptual-space predictor behind
    query-driven schema expansion, and questionable-response detection.
``repro.experiments``
    Harness reproducing every table and figure of the evaluation section.

Quickstart
----------
>>> import repro
>>> conn = repro.connect()
>>> cur = conn.cursor()
>>> _ = cur.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
>>> _ = cur.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (1, "Rocky"))
>>> cur.execute("SELECT name FROM movies WHERE movie_id = ?", (1,)).fetchone()
('Rocky',)

Crowd-sourcing hooks are configured per connection through one typed
:class:`~repro.db.acquisition.AcquisitionPolicy`
(``repro.connect(policy=...)`` / ``conn.set_policy(...)`` / ``PRAGMA
acquisition_<knob>``), a value source (``conn.set_value_source(...)``), a
predictor (``conn.set_predictor(...)``) and an expansion handler that adds
the column a query names (``conn.set_expansion_handler(...)``); the SQL
engine then fills the new column itself.  See ``examples/quickstart.py``
for the full end-to-end workflow.
"""

from repro.core import PerceptualPredictor, QuestionableResponseDetector
from repro.crowd import CrowdPlatform, WorkerPool
from repro.db import AcquisitionPolicy, Connection, Cursor, SessionContext, connect
from repro.errors import ReproError
from repro.perceptual import EuclideanEmbeddingModel, PerceptualSpace, RatingDataset, SVDModel

__version__ = "1.3.0"

__all__ = [
    "AcquisitionPolicy",
    "Connection",
    "CrowdPlatform",
    "Cursor",
    "EuclideanEmbeddingModel",
    "PerceptualPredictor",
    "PerceptualSpace",
    "QuestionableResponseDetector",
    "RatingDataset",
    "ReproError",
    "SVDModel",
    "SessionContext",
    "WorkerPool",
    "__version__",
    "connect",
]
