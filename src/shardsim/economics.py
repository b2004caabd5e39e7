"""Epoch-based fee ledger decoupling fee collection from cash-in.

During an epoch, each shard's leaders lock collected fees into a per-shard
deposit with per-miner contribution accounting.  On epoch change, miners are
reshuffled uniformly at random across shards and cash in the previous
epoch's deposit of their *new* shard, pro rata to their contribution in
their *old* shard.  A naive mode (leaders pocket fees immediately) is kept
for the greedy-miner comparison.

Each fact has one record: the ledger's epoch counter is the epoch of its
deposits and of its assignment, and a deposit's shard is its index in the
ledger's deposit list, so neither a deposit nor an assignment stores either.

The ledger checks none of its inputs: ``Simulation`` builds it from a
``SimConfig`` that ``validate`` accepted, so k and miners_per_shard are
positive and the scheme is one of ``FEE_SCHEMES``.  Every epoch then splits
the k * miners_per_shard miners evenly, every shard has a miner, and every
miner holds a shard in every epoch.  ``credit`` passes ``record_fee`` only a
positive fee and a leader drawn from the shard's own miners.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .core import ShardId, _shuffle

MinerId = str

DECOUPLED = "decoupled"
NAIVE = "naive"
FEE_SCHEMES = (DECOUPLED, NAIVE)


@dataclass
class ShardDeposit:
    """One shard's locked fees in one epoch, with each leader's contribution."""

    total: int = 0
    contributions: dict = field(default_factory=dict)

    def fraction(self, miner: MinerId) -> float:
        if self.total == 0:
            return 0.0
        return self.contributions.get(miner, 0) / self.total


@dataclass(frozen=True)
class EpochAssignment:
    """One epoch's miner-to-shard map; two assignments are equal when their maps are."""

    shard_of: dict  # miner -> shard

    @cached_property
    def _members(self) -> dict:
        """Shard -> its miners in sorted order, built once so that leader
        rotation on every credit is a lookup."""
        members = {}
        for miner in sorted(self.shard_of):
            members.setdefault(self.shard_of[miner], []).append(miner)
        return {s: tuple(m) for s, m in members.items()}

    def miners_of(self, shard: ShardId) -> tuple:
        return self._members[shard]


def miner_ids(k: int, miners_per_shard: int) -> list:
    return [f"m{i:04d}" for i in range(k * miners_per_shard)]


def record_fee(deposit: ShardDeposit, leader: MinerId, fee: int) -> None:
    deposit.contributions[leader] = deposit.contributions.get(leader, 0) + fee
    deposit.total += fee


def rotate_leader(assignment: EpochAssignment, shard: ShardId, round_index: int) -> MinerId:
    """Deterministic round-robin over the shard's miners."""
    miners = assignment.miners_of(shard)
    return miners[round_index % len(miners)]


def shuffle_epoch(miners: list, k: int, epoch: int, seed: int) -> EpochAssignment:
    """Uniform reshuffle into equal-size shard groups (seeded)."""
    per_shard = len(miners) // k
    order = sorted(miners)
    # str seeds hash via sha512 inside Random, stable across interpreter runs
    _shuffle(random.Random(f"epoch:{seed}:{epoch}"), order)
    shard_of = {m: i // per_shard for i, m in enumerate(order)}
    return EpochAssignment(shard_of)


def split_fee(fee: int, shards) -> dict:
    """Equal split of a fee across involved shards, remainder to lowest id.

    Zero shares are dropped: a fee below the shard count, such as a
    cross-shard fee of 1, goes whole to the lowest id, and a fee of 0 to no
    shard; any larger fee gives every shard a share of at least 1.
    """
    if fee < len(shards):
        return {min(shards): fee} if fee else {}
    shards = sorted(shards)
    share, remainder = divmod(fee, len(shards))
    out = dict.fromkeys(shards, share)
    out[shards[0]] += remainder
    return out


def cash_in(
    miner: MinerId,
    prev_deposits: list,
    prev_assignment: EpochAssignment,
    new_assignment: EpochAssignment,
) -> float:
    """Pro-rata payout from the new shard's previous-epoch deposit."""
    old_shard = prev_assignment.shard_of[miner]
    new_shard = new_assignment.shard_of[miner]
    fraction = prev_deposits[old_shard].fraction(miner)
    return fraction * prev_deposits[new_shard].total


class IncentiveLedger:
    """Tracks deposits, assignments, and miner balances across epochs.

    ``epoch`` counts the closed epochs and so numbers the open one;
    ``deposits[s]`` is shard s's deposit in it.
    """

    def __init__(self, k: int, miners_per_shard: int, seed: int, scheme: str = DECOUPLED):
        self.k = k
        self.scheme = scheme
        self.seed = seed
        self.miners = miner_ids(k, miners_per_shard)
        self.epoch = 0
        self.assignment = shuffle_epoch(self.miners, k, 0, seed)
        self.deposits = [ShardDeposit() for _ in range(k)]
        self.balances = {m: 0.0 for m in self.miners}
        self.shard_collected = {s: 0 for s in range(k)}  # lifetime, all schemes
        self.epoch_rows = []  # (epoch, shard, deposit_total, miner, contribution, payout)

    def credit(self, shard: ShardId, round_index: int, fee: int) -> None:
        if fee <= 0:
            return
        leader = rotate_leader(self.assignment, shard, round_index)
        self.shard_collected[shard] += fee
        if self.scheme == NAIVE:
            self.balances[leader] += fee
        record_fee(self.deposits[shard], leader, fee)

    def total_fees(self) -> int:
        return sum(self.shard_collected.values())

    def close_epoch(self) -> None:
        """Shuffle miners and, in decoupled mode, pay out the closed deposits.

        Each miner's row is numbered with the epoch being closed, the ledger's
        epoch before the increment.
        """
        closed = self.epoch
        prev_assignment = self.assignment
        prev_deposits = self.deposits
        self.epoch += 1
        self.assignment = shuffle_epoch(self.miners, self.k, self.epoch, self.seed)
        self.deposits = [ShardDeposit() for _ in range(self.k)]
        for miner in self.miners:
            payout = 0.0
            if self.scheme == DECOUPLED:
                payout = cash_in(miner, prev_deposits, prev_assignment, self.assignment)
                self.balances[miner] += payout
            shard = prev_assignment.shard_of[miner]
            deposit = prev_deposits[shard]
            self.epoch_rows.append(
                (closed, shard, deposit.total, miner, deposit.contributions.get(miner, 0), payout)
            )
