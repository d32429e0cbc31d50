"""Federated learning over empirical graphs.

Local quadratic models coupled through a weighted graph, solved by
message-passing (synchronous or asynchronous), with tools for learning the
graph from discrepancies, robust aggregation under poisoning, and
differentially private sharing.
"""

from gtvfed.graph import EmpGraph, GraphError, Spectrum, generate, laplacian, spectrum
from gtvfed.localmodel import LocalDataset, QuadLoss, CallableLoss, from_dataset
from gtvfed.gtvmin import GTVMinProblem, solve_direct
from gtvfed.optim import LRSchedule, StopRule, Trace, DivergenceError

__version__ = "0.1.0"

__all__ = [
    "EmpGraph",
    "GraphError",
    "Spectrum",
    "generate",
    "laplacian",
    "spectrum",
    "LocalDataset",
    "QuadLoss",
    "CallableLoss",
    "from_dataset",
    "GTVMinProblem",
    "solve_direct",
    "LRSchedule",
    "StopRule",
    "Trace",
    "DivergenceError",
    "__version__",
]
