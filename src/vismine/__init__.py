"""vismine: retrieval-augmented human-LLM mining of model-visualization literature.

Three extraction stages (paper screening, figure relevance, four-field
framework labeling) built on BM25 retrieval and a backend-agnostic LLM
gateway, plus a leave-one-out evaluation harness and post-hoc corpus
analytics.
"""

__version__ = "0.1.0"

from .config import build_gateway, load_config, validate_config
from .corpus import ingest_metadata, keyword_prefilter, load_labeled_pool
from .evaluation import find_leakage, run_loo
from .gateway import KeywordStubBackend
from .pipeline import run_pipeline
from .vocab import load_vocabulary
