"""Surrogate-label-supervised contrastive pretraining for crystal property
prediction: CIF parsing, periodic crystal graphs, graph augmentations, a
gated graph-convolution encoder on a small autodiff core, four pretraining
objectives, and full training loops."""

from .augment import AugmentConfig, make_views
from .autodiff import Tape, Tensor, backward
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datasets import (DatasetManifest, ManifestRecord, SyntheticConfig,
                       element_frequencies, generate_synthetic_dataset,
                       load_manifest, shannon_entropy)
from .graphs import (CrystalGraph, GraphConfig, build_graph, frac_to_cart,
                     gaussian_expand, neighbor_list)
from .losses import (LossConfig, barlow_twins, build_class_mask, nt_xent, sup_bt,
                     supcon)
from .model import ModelConfig, head_forward, init_params, project
from .structures import CrystalStructure, parse_cif, write_cif
from .train import (Metrics, TrainConfig, adam_step, finetune, load_graph_dataset,
                    pretrain, split_dataset)

__version__ = "0.1.0"
