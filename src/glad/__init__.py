"""glad: graph-level anomaly detection.

End-to-end one-class training of message-passing graph encoders with
two readouts (mean pooling and a kernel-based distribution readout),
plus label-free model selection over hyperparameter pools.
"""

from .data import (Graph, GraphDatabase, derive_features, generate_mixhop,
                   load_tu_dataset, make_split, write_tu_dataset)
from .encoder import backprop_block, embed_block
from .errors import (DegenerateInputError, FormatError, GladError, LoadError,
                     MethodError, SplitError)
from .metrics import midrank, roc_auc, wilcoxon_one_sided
from .numkit import ParamSet, init_params, sgd_step
from .pipeline import (BenchmarkParams, EvalReport, PipelineConfig,
                       generate_benchmark, parse_grid_file,
                       parse_pipeline_config, run_pipeline)
from .pooling import NystromMap, median_heuristic, nystrom_fit
from .selection import (SelectionResult, hits, hits_ens, hits_select,
                        mc_select, normalize_rows, select, udr_select)
from .trainer import (CandidatePool, ModelConfig, TrainedCandidate,
                      batch_objective, expand_grid, load_pool, pool_graphs,
                      run_grid, save_pool, score_graphs, train_candidate)
