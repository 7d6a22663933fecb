"""Query-driven schema expansion — the paper's core contribution.

A query that references a perceptual attribute the database does not have
yet is answered by the SQL engine itself: the connection's expansion
handler adds the column (initialised to MISSING), the ``CrowdFill``
operator asks the crowd for a small sample through the acquisition
runtime, and the ``PredictFill`` operator trains
:class:`~repro.core.prediction.PerceptualPredictor` (an SVM on
perceptual-space coordinates) on that sample and fills every other tuple.

This package holds the models behind that workflow: the predictor, which
is the one Section 3.4 model (the engine, the experiments and the detector
all train through it), and the identification of questionable HIT
responses (Section 4.4) via
:class:`~repro.core.quality.QuestionableResponseDetector`.
"""

from repro.core.prediction import PerceptualPredictor
from repro.core.quality import QualityFlag, QuestionableResponseDetector

__all__ = [
    "PerceptualPredictor",
    "QualityFlag",
    "QuestionableResponseDetector",
]
