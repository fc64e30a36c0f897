from .adam import AdamState, adam_step
from .network import Hyper, Network
from .losses import combined_loss, cross_entropy, ncontrast_loss
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "adam_step",
    "Hyper",
    "Network",
    "combined_loss",
    "cross_entropy",
    "ncontrast_loss",
    "load_checkpoint",
    "save_checkpoint",
]
