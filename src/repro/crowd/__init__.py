"""Simulated crowd-sourcing platform (CrowdFlower / Mechanical Turk stand-in).

The paper's experiments dispatch HIT groups to a crowd-sourcing service and
measure answer quality, wall-clock time and cost.  This package provides a
discrete-event simulation of such a service with configurable worker
populations (honest workers, spammers, lookup workers), quality-control
policies (country exclusion, gold questions) and the same
accounting the paper reports (judgments per minute, dollars spent).
"""

from repro.crowd.aggregation import MajorityVote, VoteOutcome
from repro.crowd.cost import CostModel, SpendingLedger
from repro.crowd.hit import HIT, Answer, HITGroup, Judgment, Question
from repro.crowd.platform import CrowdPlatform, CrowdRunResult
from repro.crowd.quality_control import CountryFilter, GoldQuestionPolicy, QualityControl
from repro.crowd.runtime import AcquisitionOutcome, AcquisitionRuntime, AnswerCache
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import (
    WorkerArchetype,
    WorkerPool,
    WorkerProfile,
    make_honest_worker,
    make_lookup_worker,
    make_spam_worker,
)

__all__ = [
    "AcquisitionOutcome",
    "AcquisitionRuntime",
    "Answer",
    "AnswerCache",
    "CostModel",
    "CountryFilter",
    "CrowdPlatform",
    "CrowdRunResult",
    "GoldQuestionPolicy",
    "HIT",
    "HITGroup",
    "Judgment",
    "MajorityVote",
    "QualityControl",
    "Question",
    "SimulatedCrowdValueSource",
    "SpendingLedger",
    "VoteOutcome",
    "WorkerArchetype",
    "WorkerPool",
    "WorkerProfile",
    "make_honest_worker",
    "make_lookup_worker",
    "make_spam_worker",
]
