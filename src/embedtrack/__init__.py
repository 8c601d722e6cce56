"""Appearance-only multi-object tracking.

Contrastive embedding learning over quasi-dense region pairs, a
bi-directional-softmax association pipeline with backdrop handling, full
CLEAR/IDF1/HOTA evaluation, and a synthetic scenario generator for
desk-scale verification.
"""

from .geometry import BoundingBox, center_distance, iou_matrix, nms
from .similarity import cosine_matrix, masked_bisoftmax
from .contrastive import (
    LossConfig,
    RegionSample,
    SampleBatch,
    assign_samples,
    cross_frame_nn_accuracy,
    loss_total,
    make_toy_problem,
    optimize_embeddings,
    sample_batch,
)
from .tracker import (
    Detection,
    Track,
    Tracker,
    TrackerConfig,
    TrackerState,
    interpolate_tracks,
    merge_tracklets,
    momentum_update,
    run_sequence,
    step,
)
from .metrics import (
    EvalReport,
    ObjectEntry,
    TrackSet,
    clear_mot,
    hota,
    idf1,
    per_class_report,
)
from .synth import (
    Scenario,
    WorldConfig,
    generate,
    iou_baseline_track,
    oracle_tracks,
    subsample,
)
from .config import PROFILE_NAMES, load_profile

__version__ = "0.1.0"
