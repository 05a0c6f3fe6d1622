"""Rotation-invariant point-cloud learning with local-consistent frames."""

from .autodiff import (SGD, NumericError, Parameter, Tensor, backward,
                       cosine_lr, load_checkpoint, no_grad, save_checkpoint)
from .dataset import DatasetSpec, SyntheticDataset, generate_dataset
from .frames import (BisectorIntermediates, DegenerateFrameError, Frame,
                     ProjectedPair, consistency, consistency_loss,
                     gram_schmidt_frame, handcrafted_frame, lcrf_frame,
                     orthogonality_loss)
from .geometry import (DegenerateInputError, PointCloud, Rotation,
                       add_gaussian_noise, apply_rotation, center_and_scale,
                       drop_points, knn_graph, sample_rotation_so3,
                       sample_rotation_z)
from .harness import (Protocol, RunReport, TrainConfig, run_ablation_grid,
                      run_experiment, run_perturbation_sweep)
from .network import (ForwardOutput, FusionModel, ModelConfig, named_config,
                      total_loss)

__version__ = "0.1.0"
