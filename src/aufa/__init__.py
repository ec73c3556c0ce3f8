"""Cross-site adaptation for functional-connectivity graph classification."""

from .adaptation import (FilterMask, LossWeights, Prediction, classify,
                         confidence_filter, joint_loss, mmd_loss, self_opt_loss)
from .connectome import (ConnectivityMatrix, DataError, Dataset, SiteSpec,
                         SubjectRecord, TimeSeries, load_dataset,
                         load_timeseries, pearson_fcn, save_dataset,
                         synth_multisite)
from .diffkernel import ComputationRecord, Value, backward, finite_diff_check
from .encoder import (AugmentInjection, attention, encode, feed_forward,
                      multi_head_layer, resume)
from .evalreport import (BinaryGraph, ConnectionRanking, MetricsReport,
                         aggregate_attention, auc, betweenness_centrality,
                         binarize_fcn, evaluate_model, export_features,
                         full_report, hard_metrics, linear_probe,
                         local_efficiency)
from .model import (Model, ModelConfig, build_model, clone_model, load_checkpoint,
                    save_checkpoint)
from .trainer import (GammaPolicy, OptimizerState, RunLog, TrainConfig,
                      adam_step, adapt, pretrain, sample_paired_batches,
                      sample_source_batches)

__version__ = "0.1.0"
