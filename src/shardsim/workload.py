"""Trace ingestion and synthetic workload generation.

Trace files are UTF-8 text, one record per line:

    block tx_id fee acc1,acc2,...

Fields are whitespace-separated, accounts comma-separated hex; an account may
carry a ``|CA`` suffix to mark it as a contract account.  Records are ordered
by (block, file order), which defines the arrival index.

Synthetic generators reproduce the workload characteristics the policies are
designed around: Zipf hot spots, interaction communities, activity bursts,
and purely intra-/cross-shard reference workloads.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .core import CA, EOA, Account, Transaction

GENERATORS = ("all_intra", "all_cross", "zipf_hotspot", "communities", "bursty")

# Top 20% of 1000 accounts draw >= 92% of appearances.  The minimal
# exponent is ~1.28 (see scripts/tune_zipf.py); 1.6 keeps that margin
# across account counts.
DEFAULT_ZIPF_EXPONENT = 1.6

_is_hex = re.compile("[0-9a-fA-F]+").fullmatch


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyWriteSet(ParseError):
    def __init__(self, line_no: int):
        super().__init__(line_no, "record has no accounts")


class InvalidSpec(Exception):
    pass


@dataclass(frozen=True)
class TraceRecord:
    block: int
    tx_id: str
    accounts: tuple
    fee: int
    kind_flags: tuple  # per-account EOA/CA markers, parallel to accounts


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str
    n_accounts: int = 1000
    n_txs: int = 10000
    seed: int = 0
    accounts_per_tx: int = 2
    # all_intra / all_cross: reference hash placement shard count
    k_shards: int = 16
    # zipf_hotspot
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    # communities
    n_communities: int = 50
    p_inter: float = 0.05
    community_zipf_exponent: float = 0.0  # 0 -> uniform community popularity
    # mixture weight of hub traffic (write sets drawn from a global Zipf over
    # all accounts, cutting across communities)
    p_hotspot: float = 0.0
    # bursty
    burst_period: int = 2000
    burst_amplitude: float = 20.0

    def validate(self) -> None:
        if self.generator not in GENERATORS:
            raise InvalidSpec(f"unknown generator {self.generator!r}")
        if self.n_accounts < 2 or self.n_txs < 1:
            raise InvalidSpec("need at least 2 accounts and 1 transaction")
        if not 2 <= self.accounts_per_tx <= self.n_accounts:
            raise InvalidSpec("accounts_per_tx out of range")
        if self.generator in ("all_intra", "all_cross") and self.k_shards < 1:
            raise InvalidSpec("k_shards must be positive")
        if self.generator == "all_cross" and self.k_shards < 2:
            raise InvalidSpec("all_cross needs at least 2 shards")
        if self.generator == "zipf_hotspot" and self.zipf_exponent <= 0:
            raise InvalidSpec("zipf exponent must be positive")
        if self.generator == "communities":
            if not 2 <= self.n_communities <= self.n_accounts // 2:
                raise InvalidSpec("n_communities out of range")
            if not 0.0 <= self.p_inter <= 1.0:
                raise InvalidSpec("p_inter must be a probability")
            if not 0.0 <= self.p_hotspot <= 1.0:
                raise InvalidSpec("p_hotspot must be a probability")
        if self.generator == "bursty":
            if self.burst_period < 1 or self.burst_amplitude < 1.0:
                raise InvalidSpec("burst period >= 1 and amplitude >= 1 required")


def parse_trace_line(line: str, line_no: int) -> TraceRecord:
    parts = line.split()
    if len(parts) != 4:
        raise ParseError(line_no, f"expected 4 fields, got {len(parts)}")
    block_s, tx_id, fee_s, accounts_s = parts
    try:
        block = int(block_s)
        fee = int(fee_s)
    except ValueError as exc:
        raise ParseError(line_no, f"bad integer field: {exc}") from None
    if block < 0 or fee < 0:
        raise ParseError(line_no, "block and fee must be nonnegative")
    accounts = []
    kinds = []
    for token in accounts_s.split(","):
        if not token:
            continue
        if token.endswith("|CA"):
            acc, kind = token[:-3], CA
        else:
            acc, kind = token, EOA
        if not _is_hex(acc):
            raise ParseError(line_no, f"malformed account {token!r}")
        acc = acc.lower()
        if acc not in accounts:
            accounts.append(acc)
            kinds.append(kind)
        elif kind == CA:
            kinds[accounts.index(acc)] = CA
    if not accounts:
        raise EmptyWriteSet(line_no)
    return TraceRecord(block, tx_id, tuple(accounts), fee, tuple(kinds))


def load_trace(path) -> tuple[list[Transaction], dict]:
    """Load a trace file.

    Returns the transactions in arrival order plus the accounts flagged as
    contract accounts ({account: Account(account, CA)}), ready to pass to
    ``Simulation(accounts=...)``.
    """
    records = []
    first_line = {}  # tx_id -> line of its first occurrence
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rec = parse_trace_line(line, line_no)
            first = first_line.setdefault(rec.tx_id, line_no)
            if first != line_no:
                raise ParseError(line_no, f"duplicate tx_id {rec.tx_id!r} (first on line {first})")
            records.append(rec)
    records.sort(key=lambda r: r.block)  # stable: file order within a block
    contracts = {}
    txs = []
    for index, rec in enumerate(records):
        for acc, kind in zip(rec.accounts, rec.kind_flags):
            if kind == CA and acc not in contracts:
                contracts[acc] = Account(acc, CA)
        txs.append(Transaction(rec.tx_id, index, rec.accounts, fee=rec.fee))
    return txs, contracts


def account_id(seed: int, index: int) -> str:
    """Deterministic 32-byte hex account identifier."""
    return hashlib.sha256(f"acct:{seed}:{index}".encode()).hexdigest()


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _hash_buckets(ids, k):
    from .policies import hash_place

    buckets = [[] for _ in range(k)]
    for acc in ids:
        buckets[hash_place(acc, k)].append(acc)
    return buckets


def generate(spec: SyntheticSpec) -> list[Transaction]:
    """Deterministically generate a synthetic transaction list."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    ids = [account_id(spec.seed, i) for i in range(spec.n_accounts)]
    make = {
        "all_intra": _gen_all_intra,
        "all_cross": _gen_all_cross,
        "zipf_hotspot": _gen_zipf,
        "communities": _gen_communities,
        "bursty": _gen_bursty,
    }[spec.generator]
    write_sets = make(spec, rng, ids)
    return [
        Transaction(f"t{index}", index, ws)
        for index, ws in enumerate(write_sets)
    ]


def _gen_all_intra(spec, rng, ids):
    buckets = [b for b in _hash_buckets(ids, spec.k_shards) if len(b) >= spec.accounts_per_tx]
    if not buckets:
        raise InvalidSpec("no shard bucket holds enough accounts; raise n_accounts")
    out = []
    for i in range(spec.n_txs):
        bucket = buckets[i % len(buckets)]
        picks = rng.choice(len(bucket), size=spec.accounts_per_tx, replace=False)
        out.append(tuple(bucket[j] for j in picks))
    return out


def _gen_all_cross(spec, rng, ids):
    buckets = [b for b in _hash_buckets(ids, spec.k_shards) if b]
    if len(buckets) < spec.accounts_per_tx:
        raise InvalidSpec("not enough populated shard buckets; raise n_accounts")
    out = []
    for i in range(spec.n_txs):
        picked = rng.choice(len(buckets), size=spec.accounts_per_tx, replace=False)
        out.append(tuple(buckets[b][rng.integers(len(buckets[b]))] for b in picked))
    return out


class _WeightedSampler:
    """Batched inverse-CDF sampling; much faster than per-draw rng.choice."""

    def __init__(self, rng, weights, batch=65536):
        self._rng = rng
        self._cdf = np.cumsum(weights)
        self._cdf[-1] = 1.0
        self._batch = batch
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def draw(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = np.searchsorted(self._cdf, self._rng.random(self._batch))
            self._pos = 0
        value = int(self._buf[self._pos])
        self._pos += 1
        return value

    def draw_distinct(self, n: int) -> list:
        picks = []
        while len(picks) < n:
            j = self.draw()
            if j not in picks:
                picks.append(j)
        return picks


def _gen_zipf(spec, rng, ids):
    sampler = _WeightedSampler(rng, _zipf_weights(spec.n_accounts, spec.zipf_exponent))
    return [
        tuple(ids[j] for j in sampler.draw_distinct(spec.accounts_per_tx))
        for _ in range(spec.n_txs)
    ]


def _community_slices(n_accounts, n_communities):
    base, extra = divmod(n_accounts, n_communities)
    slices = []
    start = 0
    for c in range(n_communities):
        size = base + (1 if c < extra else 0)
        slices.append(range(start, start + size))
        start += size
    return slices


def _gen_communities(spec, rng, ids):
    slices = _community_slices(spec.n_accounts, spec.n_communities)
    if spec.community_zipf_exponent > 0:
        popularity = _zipf_weights(spec.n_communities, spec.community_zipf_exponent)
    else:
        popularity = np.full(spec.n_communities, 1.0 / spec.n_communities)
    pick_community = _WeightedSampler(rng, popularity)
    hub_sampler = None
    if spec.p_hotspot > 0:
        hub_sampler = _WeightedSampler(rng, _zipf_weights(spec.n_accounts, spec.zipf_exponent))
    out = []
    n = spec.accounts_per_tx
    last_seen: dict = {}
    recency = max(1, spec.n_txs // 25)

    def emit(picks):
        for j in picks:
            last_seen[j] = len(out)
        out.append(tuple(ids[j] for j in picks))

    for _ in range(spec.n_txs):
        if hub_sampler is not None and rng.random() < spec.p_hotspot:
            emit(hub_sampler.draw_distinct(n))
            continue
        c = pick_community.draw()
        members = slices[c]
        if rng.random() < spec.p_inter:
            d = int(rng.integers(spec.n_communities - 1))
            if d >= c:
                d += 1
            # An outsider joins a home-community group: n-1 members plus one
            # account from another community.  Inter-community transactions
            # only involve recently active accounts; a fresh account always
            # makes its first appearance inside its own community.
            horizon = max(0, len(out) - recency)
            active = [j for j in members if last_seen.get(j, -1) >= horizon]
            active_d = [j for j in slices[d] if last_seen.get(j, -1) >= horizon]
            if len(active) >= n - 1 and active_d:
                outsider = active_d[int(rng.integers(len(active_d)))]
                locals_ = set()
                while len(locals_) < n - 1:
                    locals_.add(active[int(rng.integers(len(active)))])
                emit((*sorted(locals_), outsider))
                continue
            # fall through to an intra-community transaction
        size = min(n, len(members))
        picks = set()
        while len(picks) < size:
            picks.add(members[int(rng.integers(len(members)))])
        emit(sorted(picks))
    return out


def _gen_bursty(spec, rng, ids):
    # A rotating hot subset gets its selection weight amplified each period.
    out = []
    n = spec.accounts_per_tx
    hot_size = max(2, spec.n_accounts // 20)
    sampler = None
    current_period = -1
    for i in range(spec.n_txs):
        period = i // spec.burst_period
        if period != current_period:
            current_period = period
            hot_start = (period * hot_size) % spec.n_accounts
            weights = np.full(spec.n_accounts, 1.0)
            for j in range(hot_size):
                weights[(hot_start + j) % spec.n_accounts] = spec.burst_amplitude
            sampler = _WeightedSampler(rng, weights / weights.sum())
        out.append(tuple(ids[j] for j in sampler.draw_distinct(n)))
    return out
