"""Keypoint toolkit for RECIST-annotated lesion detection.

Lesions annotated with two clinical diameters are modeled as five
keypoints: the four directional extremes plus the geometric center. The
toolkit renders Gaussian heatmap training targets for those keypoints,
scores the two training losses, groups predicted heatmaps back into boxed
detections, fuses flip-augmented results with Soft-NMS, and evaluates
sensitivity at fixed false-positive rates. A seeded synthetic simulator
stands in for a trained network so the whole pipeline can be exercised
closed-loop.
"""

from .dataio import (
    InputFormatError,
    ParseResult,
    RecistAnnotation,
    apply_ct_window,
    parse_annotations,
    read_detections,
    read_heatmaps,
    write_annotations,
    write_detections,
    write_heatmaps,
)
from .evaluation import (
    EvalConfig,
    FrocPoint,
    FrocResult,
    MatchResult,
    Strata,
    froc,
    match_detections,
    stratified_froc,
)
from .fusion import SoftNmsConfig, fuse_tta, soft_nms, unflip_detections
from .geometry import (
    BBox,
    ExtremePoints,
    Point2,
    RecistDiameters,
    bbox_from_extremes,
    extremes_from_recist,
    flip_horizontal,
    iou,
    pad_bbox,
)
from .grouping import (
    Detection,
    Detections,
    GroupingConfig,
    Peaks,
    detect,
    enumerate_quadruples,
    extract_peaks,
    refine_with_offsets,
)
from .losses import (
    FocalParams,
    finite_diff_check,
    focal_loss,
    focal_loss_grad,
    offset_loss,
    offset_loss_grad,
    smooth_l1,
)
from .synthetic import (
    DegradationConfig,
    SyntheticScene,
    flip_scene,
    generate_scene,
    render_scene,
    simulate_heatmaps,
)
from .targets import (
    HeatmapBundle,
    RenderConfig,
    TargetBundle,
    gaussian_radius,
    offset_target,
    render_targets,
)

__version__ = "0.1.0"
