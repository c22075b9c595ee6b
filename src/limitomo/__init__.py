"""Weighted X-ray transform with limited angular data.

Numerical reconstruction operators (filtered back-projection and Lambda
reconstruction, with and without an angular cutoff) together with a
toolkit that predicts where limited-angle streak artifacts appear and
measures how strong they are as a function of the cutoff's vanishing
order.
"""

from .config import ConfigError, RunConfig, load_config, loads_config
from .filters import (
    ReconstructionConfig,
    d_ds,
    filter_chain,
    hilbert,
    neg_d2_ds2,
    reconstruct,
)
from .geometry import (
    AngularWindow,
    ImageGrid,
    Raster,
    SinogramGrid,
    vanishing_order_probe,
)
from .io import read_raster, read_sinogram, write_raster, write_sinogram
from .microlocal import (
    ArtifactLine,
    ArtifactReport,
    StudyRow,
    WavefrontProbe,
    artifact_report,
    default_probe_scales,
    predicted_artifact_lines,
    strength_vs_order_study,
    symbol_eval,
    wavefront_probe,
)
from .phantoms import (
    ClippedDisk,
    Disk,
    EdgeSingularity,
    Ellipse,
    Phantom,
    edge_singularities,
    rasterize,
)
from .pipeline import PipelineError, run_pipeline
from .transforms import Sinogram, WeightFunction, backproject, backproject_windows, forward

__version__ = "0.1.0"

__all__ = [
    "AngularWindow",
    "ArtifactLine",
    "ArtifactReport",
    "ClippedDisk",
    "ConfigError",
    "Disk",
    "EdgeSingularity",
    "Ellipse",
    "ImageGrid",
    "Phantom",
    "PipelineError",
    "Raster",
    "ReconstructionConfig",
    "RunConfig",
    "Sinogram",
    "SinogramGrid",
    "StudyRow",
    "WavefrontProbe",
    "WeightFunction",
    "artifact_report",
    "backproject",
    "backproject_windows",
    "d_ds",
    "default_probe_scales",
    "edge_singularities",
    "filter_chain",
    "forward",
    "hilbert",
    "load_config",
    "loads_config",
    "neg_d2_ds2",
    "predicted_artifact_lines",
    "rasterize",
    "read_raster",
    "read_sinogram",
    "reconstruct",
    "run_pipeline",
    "strength_vs_order_study",
    "symbol_eval",
    "vanishing_order_probe",
    "wavefront_probe",
    "write_raster",
    "write_sinogram",
]
