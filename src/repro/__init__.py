"""repro — Semantic and Influence aware k-Representative queries over social streams.

A full reproduction of Wang, Li and Tan, *"Semantic and Influence aware
k-Representative Queries over Social Streams"* (EDBT 2019): the k-SIR query
model, the MTTS and MTTD index-assisted approximation algorithms, every
baseline used in the paper's evaluation, the topic-model substrate, a
synthetic social-stream generator standing in for the paper's proprietary
crawls, and an experiment harness regenerating each table and figure.

Quickstart
----------

>>> from repro import (
...     EngineConfig, KSIREngine, ProcessorConfig, SyntheticStreamGenerator,
... )
>>> generator = SyntheticStreamGenerator.from_profile("twitter-small", seed=7)
>>> dataset = generator.generate()
>>> engine = KSIREngine(dataset.topic_model, EngineConfig(
...     processor=ProcessorConfig(window_length=6 * 3600, bucket_length=900)))
>>> engine.process_stream(dataset.stream)
>>> result = engine.query(dataset.make_query(k=5, keywords=["music"]))
>>> len(result) <= 5
True

The same engine runs sharded (``EngineConfig(backend="sharded")``) or as
a standing-query service (``backend="service"``), and can be persisted
mid-stream with ``engine.save(path)`` / ``KSIREngine.load(path)``.  It
drives one :class:`KSIRProcessor` or one :class:`ClusterCoordinator`
directly (``engine.processor`` / ``engine.coordinator``), with a
:class:`ServiceEngine` over it when serving (``engine.service_engine``).
"""

from repro.api import (
    CheckpointError,
    EngineConfig,
    InferenceConfig,
    KSIREngine,
)
from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ShardPlanner,
    ShardWorker,
    TransportBackend,
    transport_names,
    verify_equivalence,
)
from repro.core.algorithms import (
    CELF,
    GreedySelection,
    MTTD,
    MTTS,
    SieveStreaming,
    TopKRepresentative,
    make_algorithm,
)
from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import KSIRQuery, QueryResult
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ScoringConfig, ScoringContext
from repro.core.stream import SocialStream
from repro.store import ColumnarWindow, ElementStore
from repro.datasets.profiles import DATASET_PROFILES, DatasetProfile
from repro.datasets.synthetic import SyntheticDataset, SyntheticStreamGenerator
from repro.service import (
    QueryRegistry,
    ServiceEngine,
    ServiceMetrics,
    StandingQuery,
    StandingResult,
)
from repro.streams import (
    StreamConfig,
    StreamIngestor,
    StreamMetrics,
    WatermarkTracker,
    inject_disorder,
)
from repro.topics.btm import BitermTopicModel
from repro.topics.inference import TopicInferencer, infer_query_vector
from repro.topics.lda import LatentDirichletAllocation
from repro.topics.model import MatrixTopicModel, TopicModel
from repro.topics.preprocess import Preprocessor, tokenize
from repro.topics.vocabulary import Vocabulary

__version__ = "1.0.0"

__all__ = [
    "BitermTopicModel",
    "CELF",
    "CheckpointError",
    "ClusterConfig",
    "ClusterCoordinator",
    "ColumnarWindow",
    "ElementStore",
    "EngineConfig",
    "InferenceConfig",
    "KSIREngine",
    "TransportBackend",
    "transport_names",
    "DATASET_PROFILES",
    "DatasetProfile",
    "GreedySelection",
    "KSIRObjective",
    "KSIRProcessor",
    "KSIRQuery",
    "LatentDirichletAllocation",
    "MatrixTopicModel",
    "MTTD",
    "MTTS",
    "Preprocessor",
    "ProcessorConfig",
    "QueryRegistry",
    "QueryResult",
    "RankedListIndex",
    "ScoringConfig",
    "ScoringContext",
    "ServiceEngine",
    "ServiceMetrics",
    "ShardPlanner",
    "ShardWorker",
    "SieveStreaming",
    "StandingQuery",
    "StandingResult",
    "SocialElement",
    "SocialStream",
    "StreamConfig",
    "StreamIngestor",
    "StreamMetrics",
    "SyntheticDataset",
    "SyntheticStreamGenerator",
    "TopKRepresentative",
    "TopicInferencer",
    "TopicModel",
    "Vocabulary",
    "WatermarkTracker",
    "infer_query_vector",
    "inject_disorder",
    "make_algorithm",
    "tokenize",
    "verify_equivalence",
    "__version__",
]
