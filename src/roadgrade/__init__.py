"""Citywide traffic condition grade forecasting.

Multi-graph road similarity construction, SOM-based ordinal grade labeling,
a shared-weight multi-graph GCN with temporal and high-dimensional
multi-head attention, and attention-score-based importance analysis of the
(resolution x graph) feature combinations.
"""

from .data import (Samples, TrafficSeries, enumerate_samples,
                   minmax_normalize, split_anchors)
from .errors import (ConfigError, DataError, DegenerateMarginalsError,
                     DegenerateVarianceError, NumericError, RoadgradeError)
from .explain import (AttentionRecord, aggregate_attention, build_report,
                      combination_importance, decouple, normalize_heatmap)
from .graphs import (GraphSet, RoadNetwork, build_attribute_graph,
                     build_pattern_graph, build_topological,
                     build_weighted_topological, dtw_distance,
                     global_morans_i, local_morans_i, normalize_adjacency,
                     shortest_paths)
from .grading import label_series, ordinalize, som_assign, som_train
from .metrics import accuracy, grade_mae_series, quadratic_weighted_kappa
from .model import (ModelConfig, ModelState, build_combinations,
                    channel_fuse, fc_head, forward, highdim_attention,
                    init_state, load_checkpoint, nll_loss, predict_many,
                    save_checkpoint, shared_gcn_layer, temporal_attention,
                    train)
from .optim import ParamSet, adam_step
from .synth import generate_synthetic
from .tensor import Tensor, concat, grad_check, log_softmax, softmax

__version__ = "0.1.0"
