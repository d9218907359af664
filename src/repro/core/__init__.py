"""Core k-SIR machinery: data model, objective, indices and algorithms.

This package contains the paper's primary contribution:

* :mod:`repro.core.element` / :mod:`repro.core.stream` — the social element
  and social stream data model (Section 3.1).
* the sliding window ``W_t``, the active set ``A_t`` and the follower
  view of Section 3.1 live in :mod:`repro.store`.
* :mod:`repro.core.scoring` — semantic, influence and combined
  representativeness scoring with incremental marginal-gain state
  (Section 3.2).
* :mod:`repro.core.ranked_list` — per-topic ranked lists and their
  maintenance over the stream (Section 4.1, Algorithm 1).
* :mod:`repro.core.algorithms` — MTTS, MTTD and the baselines used in the
  paper's efficiency study (Sections 4.2–4.3).
* :mod:`repro.core.processor` — the full query-processing architecture of
  Figure 4 tying everything together.
"""

from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import KSIRQuery, QueryResult
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ElementProfile, KSIRObjective, ScoringConfig, ScoringContext
from repro.core.stream import SocialStream

__all__ = [
    "ElementProfile",
    "KSIRObjective",
    "KSIRProcessor",
    "KSIRQuery",
    "ProcessorConfig",
    "QueryResult",
    "RankedListIndex",
    "ScoringConfig",
    "ScoringContext",
    "SocialElement",
    "SocialStream",
]
