"""Learning applications: consensus averaging and tree-distributed
neural-network training via upward/downward message passing."""

from nfcsim.learning.consensus import ConsensusState, consensus_step
from nfcsim.learning.neural import (
    FailureModel,
    NeuralTreeNetwork,
    TrainingSample,
    dataset_loss,
    gradient_check,
    nn_train,
)

__all__ = [
    "ConsensusState",
    "consensus_step",
    "FailureModel",
    "NeuralTreeNetwork",
    "TrainingSample",
    "dataset_loss",
    "gradient_check",
    "nn_train",
]
