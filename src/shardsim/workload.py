"""Trace ingestion and synthetic workload generation.

Trace files are UTF-8 text, one record per line:

    block tx_id fee acc1,acc2,...

Fields are whitespace-separated, accounts comma-separated hex; an account may
carry a ``|CA`` suffix to mark it as a contract account.  Records are ordered
by (block, file order), which defines the arrival index.  Account ids are
interned per load: every spelling of an account (any letter case, with or
without ``|CA``) becomes one lower-case string object, shared by all of its
transactions.

Synthetic generators reproduce the workload characteristics the policies are
designed around: Zipf hot spots, interaction communities, activity bursts,
and purely intra-/cross-shard reference workloads.  Every workload is a
function of the spec and of PCG64's raw stream for ``spec.seed``, which numpy
keeps stable, not of numpy's bounded-integer code: the generators replay
numpy's draws from the raw words (see ``_Stream``).  Loading a trace and
generating a workload both run with the cyclic collector paused
(``core.collector_paused``): neither builds a reference cycle.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields
from operator import itemgetter

import numpy as np

from .core import CA, EOA, Account, Transaction, collector_paused, field_type_error

# the generators that read SyntheticSpec.k_shards (GENERATORS is at the end)
SHARD_AWARE = ("all_intra", "all_cross")

# Top 20% of 1000 accounts draw >= 92% of appearances.  The minimal
# exponent is ~1.28 (see scripts/tune_zipf.py); 1.6 keeps that margin
# across account counts.
DEFAULT_ZIPF_EXPONENT = 1.6

# Most sampler draws one write set may take in expectation; weights that
# could need more are refused rather than left to run practically forever.
MAX_DRAWS_PER_WRITE_SET = 10**8

_is_hex = re.compile("[0-9a-fA-F]+").fullmatch


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidSpec(Exception):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str
    n_accounts: int = 1000
    n_txs: int = 10000
    seed: int = 0
    accounts_per_tx: int = 2
    # SHARD_AWARE generators: reference hash placement shard count
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
        """Raise InvalidSpec for a field of the wrong type (the rule of
        SimConfig.validate), a negative seed, a non-finite float or a value
        out of range, before any generator runs."""
        wrong_type = field_type_error(self)
        if wrong_type:
            raise InvalidSpec(wrong_type)
        if self.generator not in GENERATORS:
            raise InvalidSpec(f"unknown generator {self.generator!r}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be nonnegative, got {self.seed!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidSpec(f"{f.name} must be finite, got {value!r}")
        if self.n_accounts < 2 or self.n_txs < 1:
            raise InvalidSpec("need at least 2 accounts and 1 transaction")
        if not 2 <= self.accounts_per_tx <= self.n_accounts:
            raise InvalidSpec("accounts_per_tx out of range")
        if self.generator in SHARD_AWARE and self.k_shards < 1:
            raise InvalidSpec("k_shards must be positive")
        if self.generator == "all_cross" and self.k_shards < 2:
            raise InvalidSpec("all_cross needs at least 2 shards")
        hub_traffic = self.generator == "communities" and self.p_hotspot > 0
        if (self.generator == "zipf_hotspot" or hub_traffic) and self.zipf_exponent <= 0:
            raise InvalidSpec("zipf exponent must be positive")
        if self.generator == "communities":
            if self.community_zipf_exponent < 0:
                raise InvalidSpec("community zipf exponent must be nonnegative")
            if not 2 <= self.n_communities <= self.n_accounts // 2:
                raise InvalidSpec("n_communities out of range")
            if not 0.0 <= self.p_inter <= 1.0:
                raise InvalidSpec("p_inter must be a probability")
            if not 0.0 <= self.p_hotspot <= 1.0:
                raise InvalidSpec("p_hotspot must be a probability")
        if self.generator == "bursty":
            if self.burst_period < 1 or self.burst_amplitude < 1.0:
                raise InvalidSpec("burst period >= 1 and amplitude >= 1 required")


def _parse_fields(line: str, line_no: int, tokens: dict) -> tuple:
    """Split one record into (block, tx_id, fee, accounts, contracts).

    ``accounts`` holds the record's distinct lower-case account ids in order
    of first appearance; ``contracts`` those of them that any spelling on the
    line marks ``|CA``.  ``tokens`` caches every raw account token as
    (id, kind) across the lines of one load, so each token is checked once
    and every spelling of an account yields the same id object.
    """
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
    contracts = ()
    for token in accounts_s.split(","):
        try:
            acc, kind = tokens[token]
        except KeyError:
            if not token:
                continue
            if token.endswith("|CA"):
                acc, kind = token[:-3], CA
            else:
                acc, kind = token, EOA
            if not _is_hex(acc):
                raise ParseError(line_no, f"malformed account {token!r}")
            acc = acc.lower()
            # the lower-case unmarked spelling is itself a token meaning (acc, EOA)
            acc = tokens.setdefault(acc, (acc, EOA))[0]
            tokens[token] = acc, kind
        if acc not in accounts:
            accounts.append(acc)
        if kind == CA:
            contracts += (acc,)
    if not accounts:
        raise ParseError(line_no, "record has no accounts")
    if contracts:
        contracts = tuple(acc for acc in accounts if acc in contracts)
    return block, tx_id, fee, tuple(accounts), contracts


def undecodable_line(path) -> tuple[int, str]:
    """(line number, reason) of the first line of path that is not UTF-8.

    Read only after decoding path as UTF-8 text has failed, so the normal
    path pays nothing for it.  Lines split at \\n, \\r or \\r\\n, as
    text mode splits them, and no newline byte occurs inside a UTF-8
    sequence, so the failing line is the one the text read stopped in.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return line_no, f"not UTF-8: {exc}"
    raise ValueError(f"{path} decodes as UTF-8")


@collector_paused()
def load_trace(path) -> tuple[list[Transaction], dict]:
    """Load a trace file.

    Returns the transactions in arrival order plus the accounts flagged as
    contract accounts ({account: Account(account, CA)}), ready to pass to
    ``Simulation(accounts=...)``.  Each account id is one string object,
    shared by every transaction that writes the account.  Duplicate tx_ids
    are checked once every line has parsed, so a malformed line is reported
    before a repeated id.  The load runs with the cyclic collector paused
    (``core.collector_paused``): rows and transactions hold no cycles, and
    the collections the load triggered freed 0 objects.
    """
    rows = []  # (block, tx_id, fee, accounts, contracts) per record
    line_nos = []  # the line of each record
    tokens = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append(_parse_fields(line, line_no, tokens))
                line_nos.append(line_no)
    except UnicodeDecodeError:
        raise ParseError(*undecodable_line(path)) from None
    ids = [row[1] for row in rows]
    if len(set(ids)) != len(ids):  # walk again only to name the first repeat
        first_line = {}  # tx_id -> line of its first occurrence
        for tx_id, line_no in zip(ids, line_nos):
            first = first_line.setdefault(tx_id, line_no)
            if first != line_no:
                raise ParseError(line_no, f"duplicate tx_id {tx_id!r} (first on line {first})")
    rows.sort(key=itemgetter(0))  # stable: file order within a block
    contracts = {}
    txs = []
    for index, (_, tx_id, fee, accounts, marked) in enumerate(rows):
        for acc in marked:
            if acc not in contracts:
                contracts[acc] = Account(acc, CA)
        txs.append(Transaction(tx_id, index, accounts, fee=fee))
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


@collector_paused()
def generate(spec: SyntheticSpec) -> list[Transaction]:
    """Deterministically generate a synthetic transaction list.

    Generation runs with the cyclic collector paused, as ``load_trace`` does:
    the write sets and transactions hold no cycles, and the settling
    collection on exit moves them to the oldest generation before the caller
    builds or runs a ``Simulation``.
    """
    spec.validate()
    ids = [account_id(spec.seed, i) for i in range(spec.n_accounts)]
    write_sets = GENERATORS[spec.generator](spec, _Stream(spec.seed), ids)
    return [Transaction(f"t{index}", index, ws) for index, ws in enumerate(write_sets)]


def _gen_all_intra(spec, rng, ids):
    buckets = [b for b in _hash_buckets(ids, spec.k_shards) if len(b) >= spec.accounts_per_tx]
    if not buckets:
        raise InvalidSpec("no shard bucket holds enough accounts; raise n_accounts")
    out = []
    for i in range(spec.n_txs):
        bucket = buckets[i % len(buckets)]
        picks = sorted(rng.distinct(range(len(bucket)), spec.accounts_per_tx))
        out.append(tuple(bucket[j] for j in picks))
    return out


def _gen_all_cross(spec, rng, ids):
    buckets = [b for b in _hash_buckets(ids, spec.k_shards) if b]
    if len(buckets) < spec.accounts_per_tx:
        raise InvalidSpec("not enough populated shard buckets; raise n_accounts")
    out = []
    for _ in range(spec.n_txs):
        picked = sorted(rng.distinct(range(len(buckets)), spec.accounts_per_tx))
        out.append(tuple(buckets[b][rng.integers(len(buckets[b]))] for b in picked))
    return out


_RAW_BLOCK = 4096  # PCG64 words fetched per refill
_TO_UNIT = 2.0**-53
_SAMPLER_BATCH = 65536  # uniform draws per _WeightedSampler refill


class _Stream:
    """The draws of numpy's ``Generator`` on ``PCG64(seed)``, replayed from its
    raw 64-bit words without numpy's per-call overhead.

    Each method returns exactly what the same call on the ``Generator`` would
    return at the same point of the stream:

    - ``random()`` is ``(word >> 11) * 2**-53``;
    - ``integers(n)``, for 1 <= n <= 2**32, is numpy's 32-bit Lemire rejection
      (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
      2019) on ``next_uint32``, which returns the low half of a fresh word and
      keeps the high half for the next 32-bit draw; ``random()`` leaves the
      kept half alone, and ``integers(1)`` draws nothing;
    - ``random_batch(k)`` is ``random(k)``: the next k words, converted by numpy.

    A test compares the replay with the installed numpy.  ``_gen_communities``
    inlines ``random()`` and ``distinct`` in its loop on the same three
    attributes, and its docstring names the lines that mirror them; a test
    compares that loop with a version that calls these methods.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_half")

    def __init__(self, seed: int):
        self._bitgen = np.random.PCG64(seed)
        self._words = []  # the current block of raw words, as Python ints
        self._pos = 0
        self._half = None  # upper half of a word split by a 32-bit draw

    def random(self) -> float:
        if self._pos == len(self._words):
            self._words = self._bitgen.random_raw(_RAW_BLOCK).tolist()
            self._pos = 0
        self._pos += 1
        return (self._words[self._pos - 1] >> 11) * _TO_UNIT

    def integers(self, n: int) -> int:
        (value,) = self.distinct(range(n), 1)
        return value

    def distinct(self, pool, size: int) -> set:
        """``pool[integers(len(pool))]``, drawn until ``size`` distinct items
        are drawn; ``integers(n)`` is one draw from ``range(n)``.  It keeps the
        stream state in locals while it draws."""
        n = len(pool)
        if n == 1:
            return {pool[0]}
        threshold = (0x100000000 - n) % n  # Lemire accepts a leftover >= this
        words, pos, half = self._words, self._pos, self._half
        chosen = set()
        while len(chosen) < size:
            if half is None:  # next_uint32: a fresh word's low half, keeping the high half
                if pos == len(words):
                    words = self._bitgen.random_raw(_RAW_BLOCK).tolist()
                    pos = 0
                word = words[pos]
                pos += 1
                half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                m = half * n
                half = None
            if m & 0xFFFFFFFF >= threshold:
                chosen.add(pool[m >> 32])
        self._words, self._pos, self._half = words, pos, half
        return chosen

    def random_batch(self, k: int) -> np.ndarray:
        taken = self._words[self._pos : self._pos + k]
        self._pos += len(taken)
        raw = np.array(taken, dtype=np.uint64)
        if len(taken) < k:
            raw = np.concatenate((raw, self._bitgen.random_raw(k - len(taken))))
        return (raw >> np.uint64(11)) * _TO_UNIT


class _WeightedSampler:
    """Batched inverse-CDF sampling; much faster than per-draw rng.choice.

    ``distinct`` is the most distinct indices one ``draw_distinct`` call asks
    for.  Weights whose float CDF reaches fewer indices than that would make
    the call loop forever, and weights that leave almost no mass outside the
    ``distinct - 1`` heaviest indices would make it run practically forever,
    so both are refused before any draw.
    """

    def __init__(self, stream, weights, distinct=1):
        self._stream = stream
        self._cdf = np.cumsum(weights)
        self._cdf[-1] = 1.0
        steps = np.maximum(np.diff(self._cdf, prepend=0.0), 0.0)
        reachable = int(np.count_nonzero(steps))
        if reachable < distinct:
            raise InvalidSpec(
                f"weights reach {reachable} of {len(self._cdf)} accounts, "
                f"fewer than the {distinct} distinct picks asked"
            )
        # Whatever fewer than `distinct` indices are already picked, a draw
        # finds a new one with at least the probability mass outside the
        # distinct - 1 heaviest, so a call takes at most distinct / outside
        # draws in expectation.
        outside = float(np.sort(steps)[: len(steps) - distinct + 1].sum())
        if distinct > MAX_DRAWS_PER_WRITE_SET * outside:
            raise InvalidSpec(
                f"weights leave {outside:.3g} of their mass outside the {distinct - 1} "
                f"heaviest accounts, so a write set of {distinct} could take "
                f"{distinct / outside:.3g} draws, above the bound of "
                f"{MAX_DRAWS_PER_WRITE_SET:.0e}"
            )
        self._buf = []
        self._pos = 0

    def draw(self) -> int:
        if self._pos == len(self._buf):
            u = self._stream.random_batch(_SAMPLER_BATCH)
            self._buf = np.searchsorted(self._cdf, u).tolist()
            self._pos = 0
        value = self._buf[self._pos]
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
    n = spec.accounts_per_tx
    sampler = _WeightedSampler(rng, _zipf_weights(spec.n_accounts, spec.zipf_exponent), n)
    return [tuple(ids[j] for j in sampler.draw_distinct(n)) for _ in range(spec.n_txs)]


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
    """Write sets of interaction communities, with optional hub traffic.

    Each transaction is a hub write set (with probability ``p_hotspot``, drawn
    from a global Zipf over all accounts), an inter-community group (with
    probability ``p_inter``: n-1 recently active members of a popularity-drawn
    home community plus one recently active outsider), or otherwise n
    distinct members of the home community.

    The loop draws in one frame: it keeps the stream's ``_words``, ``_pos``
    and ``_half`` and the community sampler's ``_buf`` and ``_pos`` in locals.
    Its inlined lines replay ``_Stream`` exactly: the hotspot and inter tests
    mirror ``random()``, ``buf[cpos]`` mirrors ``_WeightedSampler.draw``, and
    the intra-community draw mirrors ``distinct`` over the ``range`` of the
    members, taking ``start + (m >> 32)`` for ``members[m >> 32]``.  Around the
    rare paths (a community-sampler refill, an inter-community group, a hub
    write set) it hands the state back to ``_Stream`` and the sampler, which
    draw as they always do, and takes it again afterwards.
    """
    slices = _community_slices(spec.n_accounts, spec.n_communities)
    if spec.community_zipf_exponent > 0:
        popularity = _zipf_weights(spec.n_communities, spec.community_zipf_exponent)
    else:
        popularity = np.full(spec.n_communities, 1.0 / spec.n_communities)
    pick_community = _WeightedSampler(rng, popularity)
    n = spec.accounts_per_tx
    hub_sampler = None
    if spec.p_hotspot > 0:
        weights = _zipf_weights(spec.n_accounts, spec.zipf_exponent)
        hub_sampler = _WeightedSampler(rng, weights, n)
    # per community: first member, member count, picks, Lemire threshold;
    # validate keeps every community at 2 members or more
    intra = [(m.start, len(m), min(n, len(m)), (0x100000000 - len(m)) % len(m)) for m in slices]
    p_hotspot, p_inter = spec.p_hotspot, spec.p_inter
    last_seen = [-1] * spec.n_accounts  # index of each account's latest transaction
    recency = max(1, spec.n_txs // 25)
    bitgen = rng._bitgen
    words, pos, half = rng._words, rng._pos, rng._half
    buf, cpos = pick_community._buf, pick_community._pos
    out = []
    for t in range(spec.n_txs):
        hub = inter = False
        if hub_sampler is not None:  # random() < p_hotspot
            if pos == len(words):
                words, pos = bitgen.random_raw(_RAW_BLOCK).tolist(), 0
            hub = (words[pos] >> 11) * _TO_UNIT < p_hotspot
            pos += 1
        if not hub:
            if cpos == len(buf):  # the sampler refills from the stream
                rng._words, rng._pos = words, pos
                pick_community._pos = cpos
                c = pick_community.draw()
                words, pos = rng._words, rng._pos
                buf, cpos = pick_community._buf, pick_community._pos
            else:
                c = buf[cpos]
                cpos += 1
            if pos == len(words):  # random() < p_inter
                words, pos = bitgen.random_raw(_RAW_BLOCK).tolist(), 0
            inter = (words[pos] >> 11) * _TO_UNIT < p_inter
            pos += 1
        picks = None
        if hub or inter:
            rng._words, rng._pos, rng._half = words, pos, half
            if hub:
                picks = hub_sampler.draw_distinct(n)
            else:
                d = rng.integers(spec.n_communities - 1)
                if d >= c:
                    d += 1
                # An outsider joins a home-community group: n-1 members plus
                # one account from another community.  Inter-community
                # transactions only involve recently active accounts; a fresh
                # account always makes its first appearance inside its own
                # community.
                horizon = max(0, t - recency)
                active = [j for j in slices[c] if last_seen[j] >= horizon]
                active_d = [j for j in slices[d] if last_seen[j] >= horizon]
                if len(active) >= n - 1 and active_d:
                    outsider = active_d[rng.integers(len(active_d))]
                    picks = (*sorted(rng.distinct(active, n - 1)), outsider)
                # else fall through to an intra-community transaction
            words, pos, half = rng._words, rng._pos, rng._half
        if picks is None:  # distinct(members, size)
            start, count, size, threshold = intra[c]
            chosen = set()
            while len(chosen) < size:
                if half is None:
                    if pos == len(words):
                        words, pos = bitgen.random_raw(_RAW_BLOCK).tolist(), 0
                    word = words[pos]
                    pos += 1
                    half = word >> 32
                    m = (word & 0xFFFFFFFF) * count
                else:
                    m = half * count
                    half = None
                if m & 0xFFFFFFFF >= threshold:
                    chosen.add(start + (m >> 32))
            picks = sorted(chosen)
        for j in picks:
            last_seen[j] = t
        out.append(tuple([ids[j] for j in picks]))
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
            sampler = _WeightedSampler(rng, weights / weights.sum(), n)
        out.append(tuple(ids[j] for j in sampler.draw_distinct(n)))
    return out


# name -> generator; SyntheticSpec.validate and the CLI's choices read its keys
GENERATORS = {"all_intra": _gen_all_intra, "all_cross": _gen_all_cross, "zipf_hotspot": _gen_zipf,
              "communities": _gen_communities, "bursty": _gen_bursty}
