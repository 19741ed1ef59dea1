"""Hypergraph node classification via unrolled energy-descent layers.

The library builds clique/star expansion operators from a hypergraph, defines
hypergraph-regularized energies whose preconditioned proximal-gradient steps
act as neural-network layers, differentiates through the unrolled steps with
a from-scratch tape, and trains the whole stack end to end against a node
classification loss.
"""

from .autodiff import GradStore, Tape, Var, backward, check_gradients
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, make_splits, save_dataset
from .energy import (
    EnergyParams,
    EnergyValue,
    energy_bruteforce,
    energy_general,
    energy_simple,
    grad_general,
    grad_simple,
    prox_nonneg,
    z_star,
)
from .hypergraph import (
    ExpansionOperators,
    Hypergraph,
    HypergraphError,
    build_clique,
    build_expansion_operators,
    build_star_bipartite,
    build_star_normalized,
    load_hypergraph,
    parse_hypergraph,
    precondition_diag,
    uniform_edge_size,
)
from .linalg import EigenResult, extreme_eigenvalue, spmm, write_matrix_market
from .model import (
    BasePredictor,
    Classifier,
    Model,
    ModelConfig,
    Propagation,
    StepBound,
    forward,
    init_model,
    layer,
    load_checkpoint,
    messagepassing_layer,
    save_checkpoint,
    step_bound_general,
    step_bound_simple,
)
from .train import Metrics, TrainConfig, TrainingDiverged, adam_step, cross_entropy, evaluate, train

__version__ = "0.1.0"
