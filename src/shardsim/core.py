"""Domain types shared by every placement policy.

Accounts are identified by opaque hex strings.  The account-to-shard
assignment (phi) is a plain dict that ``Simulation`` owns and admission
rewrites through placements and migrations; shard states track per-round
residual capacity and a rolling per-block load window, whose live block's load
is always capacity_per_round - residual, so admission charges a shard by
lowering its residual and nothing else; the alignment book
accumulates each account's per-shard transaction costs over the same window
in one ring of per-block flat lists of (totals, shard, amount) triples, so
an add allocates no container.  Each triple names the per-shard totals dict
it was added to, so a reset detaches the account's dict, which the eviction
of its earlier triples then drains, instead of scanning the window.

``Transaction`` and ``Account`` are plain records; ``Simulation`` checks their
fields.  ``Transaction`` is slotted, not frozen: a frozen dataclass's
``__init__`` sets each field through ``object.__setattr__``, a cost paid once
per transaction when a trace is loaded or a workload generated.  Nothing
mutates a transaction after construction; it keeps value equality and
``dataclasses.replace``, and is unhashable.
"""

from __future__ import annotations

import gc
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import get_type_hints

AccountId = str
ShardId = int

EOA = "eoa"
CA = "ca"


@dataclass(frozen=True)
class Account:
    id: AccountId
    kind: str = EOA
    size: int = 1


@dataclass(slots=True)
class Transaction:
    tx_id: str
    arrival_index: int
    write_set: tuple
    fee: int = 1
    base_cost: int = 1


@dataclass(frozen=True)
class MigrationOp:
    account: AccountId
    source: ShardId
    dest: ShardId
    cost: int


@dataclass(frozen=True)
class CostModel:
    """Per-shard transaction charges.

    An intra-shard transaction charges base_cost to its single shard; a
    cross-shard transaction charges base_cost * cross_shard_cost to every
    involved shard.
    """

    cross_shard_cost: int = 2

    def per_shard_charge(self, base_cost: int, n_shards: int) -> int:
        if n_shards <= 1:
            return base_cost
        return base_cost * self.cross_shard_cost

    def migration_cost(self, account: Account | None) -> int:
        # EOA moves cost one cross-shard interaction; CA cost scales with size.
        if account is None or account.kind == EOA:
            return self.cross_shard_cost
        return self.cross_shard_cost * account.size


def field_type_error(instance) -> str | None:
    """Name the first dataclass field whose value does not match its type.

    A float field also takes an int, and an ``int | None`` field takes None;
    bool, an int subclass, is refused for an int and an int for a bool.
    Returns None when every field matches.
    """
    for name, hint in get_type_hints(type(instance)).items():
        value = getattr(instance, name)
        if value is None and hint == int | None:
            continue
        kind = int if hint == int | None else hint
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            return f"{name} must be {kind.__name__}, got {value!r}"
    return None


@contextmanager
def collector_paused():
    """Run the block with Python's cyclic garbage collector paused.

    For building large acyclic structures: a trace's transactions, the
    co-occurrence graph and the partition hold no reference cycles, and the
    collections that their allocations triggered each freed 0 objects while
    walking a growing heap.  On exit, also by an exception, a collector that
    was enabled on entry runs one ``gc.collect(1)`` and is enabled again.
    That settling pass moves the block's young survivors to the oldest
    generation at once; without it, the first allocations of the caller's
    next phase, such as the simulation run, would collect them.  A collector
    that was disabled on entry stays disabled and collects nothing, so nested
    pauses settle once, at the outermost.  As a decorator it pauses each call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.collect(1)
            gc.enable()


def _shuffle(rng, items: list) -> None:
    """Shuffle items in place with rng, a ``random.Random``.

    This is the algorithm of ``Random.shuffle`` on Python 3.10 and 3.11,
    written out: Fisher-Yates from the top, each index j <= i drawn by
    rejection over ``rng.getrandbits((i + 1).bit_length())``.  A seeded
    shuffle then depends only on the Mersenne Twister's ``getrandbits``
    words, not on how a Python release implements ``shuffle``, which its
    reproducibility notes do not cover.  The partition's refinement order and
    the fee ledger's epoch assignment both shuffle with it.
    """
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


class ShardState:
    """Per-round residual capacity plus a W-block rolling load window.

    Within a round the live block's load is capacity_per_round - residual, so
    residual is the only per-round state: admission, which checks every
    residual first, charges a shard by lowering it.  advance_block closes the
    live load into a ring of the W - 1 earlier blocks and keeps their sum;
    window_sum adds the live load to that sum.  A shard's index in
    ``Simulation.shards`` is its id.
    """

    __slots__ = ("capacity_per_round", "residual", "_closed", "_closed_sum")

    def __init__(self, capacity_per_round: int, window: int):
        self.capacity_per_round = capacity_per_round
        self.residual = capacity_per_round
        self._closed = deque([0] * (window - 1), maxlen=window - 1)
        self._closed_sum = 0

    @property
    def window_sum(self) -> int:
        return self._closed_sum + self.capacity_per_round - self.residual

    def advance_block(self) -> None:
        closed = self._closed
        if closed:  # empty only when the window is the live block alone
            live = self.capacity_per_round - self.residual
            self._closed_sum += live - closed[0]
            closed.append(live)
        self.residual = self.capacity_per_round


class AlignmentBook:
    """Sliding-window per-shard cost totals of every account.

    One ring of W slots holds the last W blocks' deltas, each slot one flat
    list of (totals, shard, amount) triples in the order they were added,
    where totals is the per-shard dict the amount was added to.
    advance_block subtracts the block that leaves the window from the dicts
    its triples name, so an account whose window empties keeps an empty dict.
    reset detaches an account's dict in O(1): the account's later adds start a
    new one, and the eviction of its earlier triples drains only the old one.
    """

    def __init__(self, window: int):
        self.window = window
        self.block = 0
        self._ring: list[list] = [[] for _ in range(window)]  # block % W -> triples
        self._deltas = self._ring[0]  # the current block's
        self._totals: defaultdict[AccountId, dict[ShardId, int]] = defaultdict(dict)

    def add(self, account: AccountId, shard: ShardId, amount: int) -> None:
        """Add a positive amount toward shard to account's totals.  The callers
        of add and add_each, update_alignments and the engine's one-shard
        admission, add no other."""
        totals = self._totals[account]
        totals[shard] = totals.get(shard, 0) + amount
        self._deltas += (totals, shard, amount)

    def add_each(self, accounts, shard: ShardId, amount: int) -> None:
        """Add one positive amount toward shard to each of accounts, in order:
        the alignment of a transaction whose accounts all run on shard."""
        all_totals = self._totals
        deltas = self._deltas
        for account in accounts:
            totals = all_totals[account]
            totals[shard] = totals.get(shard, 0) + amount
            deltas += (totals, shard, amount)

    def totals(self, account: AccountId) -> dict[ShardId, int]:
        """In-window totals of one account; callers must not mutate them."""
        return self._totals.get(account, {})

    def reset(self, account: AccountId) -> None:
        # Alignment is dropped entirely when the owner migrates.
        self._totals.pop(account, None)

    def advance_block(self) -> None:
        self.block += 1
        slot = self.block % self.window
        triples = iter(self._ring[slot])
        for totals, shard, amount in zip(triples, triples, triples):
            remaining = totals[shard] - amount
            if remaining:
                totals[shard] = remaining
            else:
                del totals[shard]
        self._ring[slot] = self._deltas = []


def update_alignments(
    tx: Transaction, final_shards: frozenset, assignment: dict, cost_model: CostModel,
    book: AlignmentBook,
) -> None:
    """Apply the pairwise alignment rule to tx's executed plan.

    final_shards is the plan's set of final shards and assignment holds every
    write-set account's post-admission shard, so the accounts' shards make up
    final_shards exactly.  Each account's alignment toward every
    counterparty's shard grows by the per-shard charge of the transaction, so
    account a gains charge * |{b != a : shard(b) = s}| toward each shard s; no
    ordered pair of accounts is enumerated.  On one final shard every account
    is there and gains base_cost * (n - 1) toward it through book.add_each,
    which reads no shard of the assignment; the engine admits a transaction
    already placed on one shard with the same call.  No amount added is zero
    or negative.
    """
    write_set = tx.write_set
    if len(final_shards) == 1:
        (own,) = final_shards
        amount = tx.base_cost * (len(write_set) - 1)
        if amount:
            book.add_each(write_set, own, amount)
        return
    add = book.add
    shards = list(map(assignment.__getitem__, write_set))
    count: dict[ShardId, int] = {}
    for shard in shards:
        count[shard] = count.get(shard, 0) + 1
    charge = cost_model.per_shard_charge(tx.base_cost, len(final_shards))
    for acc, own in zip(write_set, shards):
        for shard, n in count.items():
            if shard == own:
                n -= 1
            if n:
                add(acc, shard, charge * n)
