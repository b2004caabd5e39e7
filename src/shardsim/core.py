"""Domain types shared by every placement policy.

Accounts are identified by opaque hex strings.  The account-to-shard
assignment (phi) is a plain dict that ``Simulation`` owns and admission
rewrites through placements and migrations; shard states track per-round
residual capacity and a rolling per-block load window, whose live block's load
is always capacity_per_round - residual, so admission charges a shard by
lowering its residual and nothing else; the alignment book keeps two window
sums per account, its alignment toward its own shard and toward all other
shards, in one ring of per-block flat lists of (sums, own, rest) triples, so
an add allocates no container.  Two sums are exact because every entry in an
account's window was added while the account sat on its current shard: an
account gains alignment only from an admitted transaction, which places
every account it touches, and a migrating account's sums are reset before
that transaction's update.  Each triple names the [own, rest] record it was
added to, so a reset detaches the account's record, which the eviction of
its earlier triples then drains, instead of scanning the window.

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
    live load into a ring of the W - 1 earlier blocks and keeps their sum,
    closed_sum; the window load is closed_sum plus the live load, which the
    engine's LiveLoads reads.  A shard's index in ``Simulation.shards`` is
    its id.
    """

    __slots__ = ("capacity_per_round", "residual", "_closed", "closed_sum")

    def __init__(self, capacity_per_round: int, window: int):
        self.capacity_per_round = capacity_per_round
        self.residual = capacity_per_round
        self._closed = deque([0] * (window - 1), maxlen=window - 1)
        self.closed_sum = 0

    def advance_block(self) -> None:
        closed = self._closed
        if closed:  # empty only when the window is the live block alone
            live = self.capacity_per_round - self.residual
            self.closed_sum += live - closed[0]
            closed.append(live)
        self.residual = self.capacity_per_round


class AlignmentBook:
    """Sliding-window alignment of every account: two sums, toward its own
    shard and toward all other shards.

    The paper's migration rule reads only these two numbers, and they are
    exact because every entry in an account's window was added while it sat
    on its current shard (see the module docstring).  Each account has one
    mutable [own, rest] record.  One ring of W slots holds the last W blocks'
    deltas, each slot one flat list of (sums, own, rest) triples in the order
    they were added, where sums is the record they were added to.
    advance_block subtracts both sides of the block that leaves the window
    from the records its triples name, so an account whose window empties
    keeps [0, 0].  reset detaches an account's record in O(1): the account's
    later adds start a new one, and the eviction of its earlier triples
    drains only the old one.
    """

    def __init__(self, window: int):
        self.window = window
        self.block = 0
        self._ring: list[list] = [[] for _ in range(window)]  # block % W -> triples
        self._deltas = self._ring[0]  # the current block's
        # account -> [own, rest]; a missing account gets a fresh copy of [0, 0]
        self._sums: defaultdict[AccountId, list] = defaultdict([0, 0].copy)

    def add(self, account: AccountId, own: int, rest: int) -> None:
        """Add own and rest, both nonnegative, to account's two sums.
        update_alignments calls it once per account of a multi-shard plan."""
        sums = self._sums[account]
        sums[0] += own
        sums[1] += rest
        self._deltas += (sums, own, rest)

    def add_each(self, accounts, amount: int) -> None:
        """Add one positive amount to the own-shard sum of each of accounts,
        in order: the alignment of a transaction whose accounts all run on
        one shard.  The engine's inline admission and update_alignments'
        one-final-shard branch both call it."""
        all_sums = self._sums
        deltas = self._deltas
        for account in accounts:
            sums = all_sums[account]
            sums[0] += amount
            deltas += (sums, amount, 0)

    def totals(self, account: AccountId) -> list[int] | tuple[int, int]:
        """account's in-window (own, rest) pair, or (0, 0) for an account with
        no record; callers must not mutate it."""
        return self._sums.get(account, (0, 0))

    def reset(self, account: AccountId) -> None:
        # Alignment is dropped entirely when the owner migrates.
        self._sums.pop(account, None)

    def advance_block(self) -> None:
        self.block += 1
        slot = self.block % self.window
        triples = iter(self._ring[slot])
        for sums, own, rest in zip(triples, triples, triples):
            sums[0] -= own
            sums[1] -= rest
        self._ring[slot] = self._deltas = []


def update_alignments(
    tx: Transaction, final_shards: frozenset, assignment: dict, cost_model: CostModel,
    book: AlignmentBook,
) -> None:
    """Apply the pairwise alignment rule to tx's executed plan.

    final_shards is the plan's set of final shards and assignment holds every
    write-set account's post-admission shard, so the accounts' shards make up
    final_shards exactly.  Each account gains the per-shard charge of the
    transaction once per other account, toward that account's shard, so an
    account a whose shard holds m of the n accounts gains charge * (m - 1)
    toward its own shard and charge * (n - m) toward the rest; no ordered pair
    of accounts is enumerated.  On one final shard every account is there and
    gains base_cost * (n - 1) through book.add_each, which reads no shard of
    the assignment; the engine admits a transaction already placed on one
    shard with the same call.  Otherwise book.add runs once per account, and
    the rest amount is positive, since another final shard holds an account.
    """
    write_set = tx.write_set
    if len(final_shards) == 1:
        amount = tx.base_cost * (len(write_set) - 1)
        if amount:
            book.add_each(write_set, amount)
        return
    add = book.add
    shards = list(map(assignment.__getitem__, write_set))
    n = len(shards)
    charge = cost_model.per_shard_charge(tx.base_cost, len(final_shards))
    for acc, own in zip(write_set, shards):
        m = shards.count(own)
        add(acc, charge * (m - 1), charge * (n - m))
