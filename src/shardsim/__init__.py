"""Round-based simulator for account placement and migration in sharded
account-based blockchains, with baseline policies, an alignment-driven
scheduler, an epoch-based incentive ledger, and a balanced graph
partitioner."""

from .core import Account, Transaction
from .engine import FinalSummary, Livelock, RoundReport, SimConfig, Simulation, finalize, run
from .workload import SyntheticSpec, generate, load_trace

__all__ = [
    "Account",
    "FinalSummary",
    "Livelock",
    "RoundReport",
    "SimConfig",
    "Simulation",
    "SyntheticSpec",
    "Transaction",
    "finalize",
    "generate",
    "load_trace",
    "run",
]
