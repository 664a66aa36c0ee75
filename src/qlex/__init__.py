"""qlex: lexical code retrieval with a q-log deformation of the RSJ-odds IDF.

A baked BM25 score matrix (CSC layout, float32 storage, float64 scoring)
can be moved to any exponent q by a single in-place column rescale; a
label-free predictor picks q from the corpus hapax mass.  The evaluation
harness covers NDCG/MRR/recall, paired bootstrap comparison, exponent
sweeps, df-bin occlusion, and token-budget recall.
"""

from .corpus_io import (Corpus, Document, QrelSet, QuerySet, load_corpus,
                        load_qrels, load_queries)
from .errors import (BuildError, DuplicateIdError, IndexFormatError,
                     ModeMismatchError, ParseError, QlexError, RescaleStateError)
from .evaluation import (DEFAULT_DF_BINS, DEFAULT_Q_GRID, DEFAULT_TOKEN_BUDGETS,
                         BootstrapResult, EvalReport, SweepTable, df_bin_occlusion,
                         eval_mrr, eval_ndcg, eval_recall, paired_bootstrap, q_sweep,
                         recall_at_token_budget, report_to_json, report_to_tsv, sweep_to_csv)
from .index import IndexHeader, SparseScoreIndex, build_index
from .query import RankedList, batch_retrieve, format_trec_run, score_query, top_k
from .stats import CorpusStats, compute_corpus_stats, fit_coefficient, predict_q, recovery
from .storage import INDEX_FORMAT_VERSION, dumps_index, load_index, loads_index, save_index
from .tokenizers import TokenizerMode, default_stopwords, split_identifier, tokenize
from .transforms import (LNQ_GUARD_EPS, build_dph_index, idf_lucene, idf_qlog,
                         ln_q, rescale_index, rescale_index_gamma, rsj_odds)

__version__ = "0.1.0"
