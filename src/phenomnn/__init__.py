"""Hypergraph node classification via unrolled energy-descent layers.

The library builds clique/star expansion operators from a hypergraph, defines
hypergraph-regularized energies whose preconditioned proximal-gradient steps
act as neural-network layers, differentiates through the unrolled steps with
a from-scratch tape, and trains the whole stack end to end against a node
classification loss.
"""

from .autodiff import Tape, Var, backward, check_gradients
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, make_splits, save_dataset
from .energy import EnergyParams, EnergyValue, Propagation
from .hypergraph import (
    ExpansionOperators,
    Hypergraph,
    HypergraphError,
    build_expansion_operators,
    load_hypergraph,
    parse_hypergraph,
)
from .linalg import EigenResult, extreme_eigenvalue
from .model import (
    Affine,
    Model,
    ModelConfig,
    StepBound,
    forward,
    init_model,
    layer,
    load_checkpoint,
    save_checkpoint,
    step_bound_general,
    step_bound_simple,
)
from .train import Metrics, TrainConfig, TrainingDiverged, adam_step, evaluate, train

__version__ = "0.1.0"
