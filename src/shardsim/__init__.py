"""Round-based simulator for account placement and migration in sharded
account-based blockchains, with baseline policies, an alignment-driven
scheduler, an epoch-based incentive ledger, and a balanced graph
partitioner."""

from .core import (
    Account,
    AlignmentBook,
    CostModel,
    MigrationOp,
    ShardState,
    Transaction,
    update_alignments,
)
from .engine import FinalSummary, Livelock, RoundReport, SimConfig, Simulation, finalize, run
from .policies import TxPlan, hash_place, should_migrate
from .workload import SyntheticSpec, generate, load_trace

__all__ = [
    "Account",
    "AlignmentBook",
    "CostModel",
    "FinalSummary",
    "Livelock",
    "MigrationOp",
    "RoundReport",
    "ShardState",
    "SimConfig",
    "Simulation",
    "SyntheticSpec",
    "Transaction",
    "TxPlan",
    "finalize",
    "generate",
    "hash_place",
    "load_trace",
    "run",
    "should_migrate",
    "update_alignments",
]
