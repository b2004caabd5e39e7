"""Trace parsing and synthetic generator tests."""

import hashlib
import signal
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim.core import CA, Account, Transaction
from shardsim.policies import hash_place
from shardsim.workload import (
    DEFAULT_ZIPF_EXPONENT,
    InvalidSpec,
    ParseError,
    SyntheticSpec,
    account_id,
    generate,
    load_trace,
)
from shardsim.workload import _gen_communities, _Stream

from oracles import communities_reference


# ---------------------------------------------------------------------------
# line parsing


def _load(tmp_path, *lines):
    path = tmp_path / "trace.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return load_trace(path)


def test_parse_basic_line(tmp_path):
    # block 5 sorts between blocks 4 and 6
    txs, _ = _load(tmp_path, "6 late 1 aa", "5 tx1 3 00ff,ab12", "4 early 1 bb")
    assert [tx.tx_id for tx in txs] == ["early", "tx1", "late"]
    assert txs[1] == Transaction("tx1", 1, ("00ff", "ab12"), fee=3)


def test_parse_dedups_accounts(tmp_path):
    txs, _ = _load(tmp_path, "0 tx1 0 aa,aa,bb")
    assert txs[0].write_set == ("aa", "bb")


def test_parse_ca_suffix(tmp_path):
    txs, contracts = _load(tmp_path, "0 tx1 0 aa,bb|CA")
    assert txs[0].write_set == ("aa", "bb")
    assert contracts == {"bb": Account("bb", CA)}
    # a repeated account is a contract account if any spelling is marked
    for line in ("0 t0 0 aa,AA|CA", "0 t0 0 aa|CA,AA"):
        txs, contracts = _load(tmp_path, line)
        assert txs[0].write_set == ("aa",)
        assert contracts == {"aa": Account("aa", CA)}


def test_parse_single_account_line_allowed(tmp_path):
    # coinbase-like records have a one-element write set
    txs, _ = _load(tmp_path, "0 cb 0 aa")
    assert txs[0].write_set == ("aa",)


@pytest.mark.parametrize(
    "line",
    [
        "not enough fields",
        "x tx1 0 aa",
        "0 tx1 -1 aa",
        "-2 tx1 0 aa",
        "0 tx1 0 zz!!",
        "0 tx1 0 aa bb cc",
    ],
)
def test_parse_malformed_lines(tmp_path, line):
    # lines 1-6: a comment, a blank line and four good records
    good = ["# trace", ""] + [f"0 g{i} 1 aa" for i in range(4)]
    with pytest.raises(ParseError) as err:
        _load(tmp_path, *good, line)
    assert err.value.line_no == 7


def test_parse_empty_write_set(tmp_path):
    with pytest.raises(ParseError, match="no accounts") as err:
        _load(tmp_path, "0 t0 1 aa", "", "0 tx1 0 ,")
    assert err.value.line_no == 3


def test_load_trace_orders_by_block(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(
        "# comment\n"
        "2 t2 1 aa,bb\n"
        "0 t0 1 cc\n"
        "2 t3 1 dd|CA\n"
        "\n"
        "1 t1 1 ee\n"
    )
    txs, kinds = load_trace(path)
    assert [t.tx_id for t in txs] == ["t0", "t1", "t2", "t3"]
    assert [t.arrival_index for t in txs] == [0, 1, 2, 3]
    assert kinds == {"dd": Account("dd", CA)}


def test_load_trace_interns_every_spelling_of_an_account(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(
        "0 t0 1 ABcd,01\n"
        "0 t1 1 abcd|CA,02\n"
        "1 t2 1 03,aBCd\n"
        "1 t3 1 abcd,ABCD|CA\n"
    )
    txs, contracts = load_trace(path)
    ids = [acc for tx in txs for acc in tx.write_set if acc == "abcd"]
    assert len(ids) == 4 and all(acc is ids[0] for acc in ids)
    assert [tx.write_set for tx in txs] == [
        ("abcd", "01"), ("abcd", "02"), ("03", "abcd"), ("abcd",)
    ]
    assert contracts == {"abcd": Account("abcd", CA)}
    assert contracts["abcd"].id is ids[0]


_HEX = "0123456789abcdef"


@st.composite
def _trace_records(draw):
    """(block, tx_id, fee, [(account, mixed-case spelling, CA marker)])."""
    pool = draw(st.lists(st.text(alphabet=_HEX, min_size=1, max_size=6),
                         min_size=1, max_size=8, unique=True))
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=20))):
        accounts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        tokens = []
        for acc in accounts:
            upper = draw(st.lists(st.booleans(), min_size=len(acc), max_size=len(acc)))
            spelled = "".join(c.upper() if u else c for c, u in zip(acc, upper))
            tokens.append((acc, spelled, draw(st.booleans())))
        block = draw(st.integers(min_value=0, max_value=5))
        records.append((block, f"tx{i}", draw(st.integers(min_value=0, max_value=99)), tokens))
    return records


@given(records=_trace_records())
@settings(max_examples=100, deadline=None)
def test_trace_round_trip(tmp_path_factory, records):
    lines = ["# written by the round-trip test"]
    for block, tx_id, fee, tokens in records:
        spelled = ",".join(s + ("|CA" if ca else "") for _, s, ca in tokens)
        lines.append(f"{block} {tx_id} {fee} {spelled}")
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    txs, contracts = load_trace(path)
    in_order = sorted(records, key=lambda r: r[0])  # stable: file order within a block
    assert txs == [
        Transaction(tx_id, i, tuple(acc for acc, _, _ in tokens), fee=fee)
        for i, (_, tx_id, fee, tokens) in enumerate(in_order)
    ]
    assert contracts == {
        acc: Account(acc, CA) for *_, tokens in records for acc, _, ca in tokens if ca
    }


def test_load_trace_reports_line_number(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 t0 1 aa\nbroken\n")
    with pytest.raises(ParseError) as err:
        load_trace(path)
    assert err.value.line_no == 2


# ---------------------------------------------------------------------------
# spec validation


def test_load_trace_rejects_duplicate_tx_id(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 t0 1 aa\n# comment\n1 t1 1 bb\n2 t0 1 cc\n")
    with pytest.raises(ParseError) as err:
        load_trace(path)
    assert err.value.line_no == 4
    assert "'t0'" in str(err.value) and "line 1" in str(err.value)


def test_unknown_generator_rejected():
    with pytest.raises(InvalidSpec):
        generate(SyntheticSpec(generator="nope"))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(generator="zipf_hotspot", n_accounts=1),
        dict(generator="zipf_hotspot", zipf_exponent=0.0),
        dict(generator="zipf_hotspot", accounts_per_tx=1),
        dict(generator="all_cross", k_shards=1),
        dict(generator="communities", n_communities=1),
        dict(generator="communities", p_inter=1.5),
        dict(generator="communities", p_hotspot=-0.1),
        dict(generator="bursty", burst_amplitude=0.5),
        # communities reads zipf_exponent for its hub traffic when p_hotspot > 0
        dict(generator="communities", p_hotspot=0.1, zipf_exponent=-2.0),
        dict(generator="communities", p_hotspot=0.1, zipf_exponent=0.0),
        dict(generator="communities", community_zipf_exponent=-1.0),
    ],
)
def test_invalid_spec_parameters(kwargs):
    with pytest.raises(InvalidSpec):
        SyntheticSpec(**kwargs).validate()


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("n_txs", dict(generator="all_intra", n_txs=10.0)),
        ("n_accounts", dict(generator="all_intra", n_accounts=10.5)),
        ("k_shards", dict(generator="all_intra", k_shards=2.0)),
        ("accounts_per_tx", dict(generator="zipf_hotspot", accounts_per_tx=2.0)),
        ("burst_period", dict(generator="bursty", burst_period=2.5)),
        ("zipf_exponent", dict(generator="zipf_hotspot", zipf_exponent="1.6")),
        ("seed", dict(generator="zipf_hotspot", seed=-1)),
        ("p_inter", dict(generator="communities", p_inter=True)),
    ],
)
def test_spec_field_of_wrong_type_or_negative_seed_is_refused(field, kwargs):
    # each of these used to crash deep in a generator, or to run
    spec = SyntheticSpec(**{"n_txs": 10, "n_accounts": 100, "n_communities": 10, **kwargs})
    with pytest.raises(InvalidSpec, match=f"^{field} must be "):
        generate(spec)


@contextmanager
def _fails_after(seconds):
    """Turn a hang into a test failure (POSIX main thread)."""
    def timed_out(*_):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(generator="zipf_hotspot", zipf_exponent=float("nan")),
        dict(generator="zipf_hotspot", zipf_exponent=float("inf")),
        dict(generator="bursty", burst_amplitude=float("nan")),
        dict(generator="bursty", burst_amplitude=float("inf")),
        dict(generator="communities", p_hotspot=0.5, zipf_exponent=float("nan")),
        # 2**-60 vanishes next to 1.0: the CDF reaches one of the 3 accounts
        dict(generator="zipf_hotspot", n_accounts=3, accounts_per_tx=3, zipf_exponent=60.0),
        # the CDF reaches all 3, but the third only with probability about 5e-15
        dict(generator="zipf_hotspot", n_accounts=3, accounts_per_tx=3, zipf_exponent=30.0),
    ],
)
def test_specs_that_cannot_fill_a_write_set_are_refused(kwargs):
    # each of these used to make generate loop forever
    with _fails_after(10), pytest.raises(InvalidSpec):
        generate(SyntheticSpec(n_txs=10, **kwargs))


# ---------------------------------------------------------------------------
# generators


def test_generation_is_deterministic():
    spec = SyntheticSpec(generator="communities", n_accounts=100, n_txs=500, seed=7,
                         n_communities=10, p_inter=0.2)
    a = [t.write_set for t in generate(spec)]
    b = [t.write_set for t in generate(spec)]
    assert a == b


def test_different_seeds_differ():
    mk = lambda s: [t.write_set for t in generate(
        SyntheticSpec(generator="zipf_hotspot", n_accounts=100, n_txs=200, seed=s))]
    assert mk(0) != mk(1)


def test_arrival_indices_are_sequential():
    txs = generate(SyntheticSpec(generator="zipf_hotspot", n_accounts=50, n_txs=100, seed=0))
    assert [t.arrival_index for t in txs] == list(range(100))


def test_all_intra_is_pure_under_hash_placement():
    k = 5
    txs = generate(SyntheticSpec(generator="all_intra", n_accounts=200, n_txs=400,
                                 seed=0, k_shards=k))
    for t in txs:
        assert len({hash_place(a, k) for a in t.write_set}) == 1


def test_all_cross_is_pure_under_hash_placement():
    k = 4
    txs = generate(SyntheticSpec(generator="all_cross", n_accounts=200, n_txs=400,
                                 seed=0, k_shards=k))
    for t in txs:
        assert len({hash_place(a, k) for a in t.write_set}) == 2


def test_zipf_top_quintile_dominates():
    # the default exponent concentrates >= 92% of appearances in the top 20%
    spec = SyntheticSpec(generator="zipf_hotspot", n_accounts=1000, n_txs=100_000, seed=0)
    counts = Counter(a for t in generate(spec) for a in t.write_set)
    top = sorted(counts.values(), reverse=True)[: 1000 // 5]
    assert sum(top) / (2 * spec.n_txs) >= 0.92
    assert DEFAULT_ZIPF_EXPONENT == pytest.approx(1.6)


def test_communities_intra_fraction_tracks_p_inter():
    p_inter = 0.1
    spec = SyntheticSpec(generator="communities", n_accounts=2000, n_txs=100_000,
                         seed=3, n_communities=200, p_inter=p_inter)
    members_per = spec.n_accounts // spec.n_communities
    community = {account_id(spec.seed, i): i // members_per
                 for i in range(spec.n_accounts)}
    txs = generate(spec)
    intra = sum(1 for t in txs if len({community[a] for a in t.write_set}) == 1)
    assert intra / len(txs) == pytest.approx(1 - p_inter, abs=0.02)


def test_communities_outsiders_are_already_active():
    spec = SyntheticSpec(generator="communities", n_accounts=300, n_txs=3000,
                         seed=1, n_communities=30, p_inter=0.3)
    members_per = spec.n_accounts // spec.n_communities
    community = {account_id(spec.seed, i): i // members_per
                 for i in range(spec.n_accounts)}
    seen = set()
    for t in generate(spec):
        comms = {community[a] for a in t.write_set}
        if len(comms) > 1:
            # inter-community txs never introduce brand-new accounts
            assert all(a in seen for a in t.write_set)
        seen.update(t.write_set)


def test_hotspot_mixture_crosses_communities():
    base = dict(generator="communities", n_accounts=1000, n_txs=20_000, seed=0,
                n_communities=100, p_inter=0.0)
    plain = generate(SyntheticSpec(**base))
    mixed = generate(SyntheticSpec(**base, p_hotspot=0.3, zipf_exponent=1.2))
    members_per = 10
    community = {account_id(0, i): i // members_per for i in range(1000)}
    n_cross = lambda txs: sum(
        1 for t in txs if len({community[a] for a in t.write_set}) > 1)
    assert n_cross(plain) == 0
    assert n_cross(mixed) > 0.1 * len(mixed)


def test_bursty_rotates_hot_set():
    spec = SyntheticSpec(generator="bursty", n_accounts=400, n_txs=4000, seed=0,
                         burst_period=1000, burst_amplitude=50.0)
    txs = generate(spec)
    hot_of_period = []
    for p in range(4):
        counts = Counter(a for t in txs[p * 1000:(p + 1) * 1000] for a in t.write_set)
        hot_of_period.append({a for a, _ in counts.most_common(10)})
    # consecutive periods heat different accounts
    assert hot_of_period[0] != hot_of_period[1]


def test_write_sets_have_requested_size():
    for n in (2, 3):
        txs = generate(SyntheticSpec(generator="communities", n_accounts=200, n_txs=500,
                                     seed=0, accounts_per_tx=n, n_communities=20,
                                     p_inter=0.2))
        assert all(len(t.write_set) == n for t in txs)


def test_account_id_is_stable():
    assert account_id(0, 0) == (
        "a85b88817133c47a4bfab462758046983bea9785d6c1cd6f03efb40f6dc103d0"
    )
    assert account_id(0, 0) != account_id(0, 1)
    assert account_id(0, 5) != account_id(1, 5)


@given(seed=st.integers(min_value=0, max_value=2 ** 31),
       generator=st.sampled_from(["zipf_hotspot", "communities", "bursty"]))
@settings(max_examples=25, deadline=None)
def test_generators_emit_valid_transactions(seed, generator):
    spec = SyntheticSpec(generator=generator, n_accounts=60, n_txs=80, seed=seed,
                         n_communities=6, p_inter=0.25)
    txs = generate(spec)
    assert len(txs) == 80
    for t in txs:
        assert len(t.write_set) == len(set(t.write_set)) == 2


# ---------------------------------------------------------------------------
# exact replay of numpy's Generator


def test_stream_replays_numpy_generator():
    """The replay must track the installed numpy draw for draw: scalar
    random(), random(k) batches and integers(n) interleaved, with n at the
    edges of numpy's 32-bit Lemire path and in between."""
    seed = 2024
    ref = np.random.default_rng(seed)
    stream = _Stream(seed)
    plan = np.random.default_rng(99)  # chooses the call sequence only
    edges = [1, 2, 3, 399, 2**31 + 1, 2**32 - 1]
    for step in range(30_000):
        op = plan.integers(10)
        if op < 3:
            assert stream.random() == ref.random()
        elif op == 3 and step % 50 == 0:
            k = int(plan.integers(1, 9000))
            assert np.array_equal(stream.random_batch(k), ref.random(k))
        elif op < 7:
            n = edges[plan.integers(len(edges))]
            assert stream.integers(n) == ref.integers(n)
        elif op < 9:
            n = int(plan.integers(1, 2**32))
            assert stream.integers(n) == ref.integers(n)
        else:  # small pools, and pools where Lemire rejects often
            pool = range(int(plan.integers(1, 40)) if step % 2 else edges[plan.integers(len(edges))])
            size = int(plan.integers(1, min(len(pool), 6) + 1))
            expected = set()
            while len(expected) < size:
                expected.add(pool[ref.integers(len(pool))])
            assert stream.distinct(pool, size) == expected
    assert stream.random() == ref.random()


# SHA-256 of generate()'s output; each spec draws from every path of its
# generator.  The zipf_hotspot, communities and bursty digests were recorded
# while those generators still drew through numpy's Generator, and _Stream
# replays those draws exactly.  The all_intra and all_cross digests were
# re-recorded when they moved from Generator.choice to _Stream.distinct.
_PINNED_SPECS = {
    "all_intra": dict(n_accounts=200, n_txs=500, accounts_per_tx=3, k_shards=5),
    "all_cross": dict(n_accounts=200, n_txs=500, accounts_per_tx=3, k_shards=4),
    # > 65,536 draws: the sampler refills its batch
    "zipf_hotspot": dict(n_accounts=300, n_txs=40_000, zipf_exponent=1.1),
    # hub traffic, inter- and intra-community transactions
    "communities": dict(n_accounts=600, n_txs=5000, accounts_per_tx=3, n_communities=30,
                        p_inter=0.2, community_zipf_exponent=0.6, p_hotspot=0.1,
                        zipf_exponent=0.9),
    "bursty": dict(n_accounts=200, n_txs=3000, accounts_per_tx=3, burst_period=700,
                   burst_amplitude=30.0),
}
_PINNED_DIGESTS = {
    ("all_intra", 0): "bc38f6b99f0e63ce4abd90e8a03ac73ffc43a2087fbfd2699ffe59945510a357",
    ("all_intra", 7): "85b5c3a2b041118ab66483827ef21a185d7bf9a607c2f38bb7992fe672bac1d8",
    ("all_cross", 0): "fc8f15315819ff52f23b8b06581c78389c1ae2c575c07878856ac6d43f7f360f",
    ("all_cross", 7): "4bec77f8cd1eabafc464192eecdd5b85718c87592942778168a70940f14fc018",
    ("zipf_hotspot", 0): "a10cf9ceb5d6c8ed40bfb4c8c8304145a2bb5080cf005fc1902c5a14c0b5c7f9",
    ("zipf_hotspot", 7): "5cddb9402a7ad8e3398bf7efd55ec68188f0bdcd0e8fae05a4a90f43ff7cd479",
    ("communities", 0): "7054974c64598ab31334f13c63a6b635e35270cc0d676d6b42b1cd6d959bffbf",
    ("communities", 7): "5655fec03073dd13c1b50498bc1ac3edba04a2bffef526ea06878d1c63914877",
    ("bursty", 0): "7a8ebab74123841469841c54ef4018689a7513c0e5b1733c835af7be3bf38c27",
    ("bursty", 7): "ecf6490d4a2e33742a5fa8c05d03f4715212927df508b6452ea2eb24aa98fd4c",
}


@pytest.mark.parametrize("generator,seed", sorted(_PINNED_DIGESTS))
def test_generated_workloads_are_pinned(generator, seed):
    h = hashlib.sha256()
    for tx in generate(SyntheticSpec(generator, seed=seed, **_PINNED_SPECS[generator])):
        h.update(repr((tx.tx_id, tx.arrival_index, tx.write_set, tx.fee, tx.base_cost)).encode())
    assert h.hexdigest() == _PINNED_DIGESTS[generator, seed]


# ---------------------------------------------------------------------------
# the communities loop, inlined, against the version that draws call by call


class _CountingStream(_Stream):
    """A stream that counts the sampler refills it serves."""

    __slots__ = ("batches",)

    def __init__(self, seed):
        super().__init__(seed)
        self.batches = 0

    def random_batch(self, k):
        self.batches += 1
        return super().random_batch(k)


class _ZeroedWords:
    """PCG64's raw words with every fifth word zeroed.  A zero half-word
    falls below the Lemire threshold of every pool size that is not a power
    of two, so the draws that read one are rejected."""

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._index = 0

    def random_raw(self, size):
        words = self._bitgen.random_raw(size)
        words[np.arange(self._index, self._index + size) % 5 == 0] = 0
        self._index += size
        return words


_REFERENCE_CASES = {
    # 67,500 community picks and about 95,000 hub draws: each sampler fills
    # its 65,536-draw batch twice
    "sampler-refills": dict(n_accounts=600, n_txs=90_000, accounts_per_tx=4, n_communities=40,
                            p_inter=0.1, community_zipf_exponent=0.6, p_hotspot=0.25,
                            zipf_exponent=0.9, seed=11),
    "inter-heavy": dict(n_accounts=300, n_txs=4000, accounts_per_tx=4, n_communities=25,
                        p_inter=0.6, community_zipf_exponent=0.8, p_hotspot=0.1, seed=5),
    # communities of 2 members: an intra-community write set takes both
    "write-set-above-community-size": dict(n_accounts=40, n_txs=3000, accounts_per_tx=3,
                                           n_communities=20, p_inter=0.3, seed=2),
    # communities of 15 members, whose Lemire threshold is 1, drawn from
    # _ZeroedWords: the only case in which the inlined draw rejects
    "lemire-rejects": dict(n_accounts=300, n_txs=3000, accounts_per_tx=3, n_communities=20,
                           p_inter=0.2, p_hotspot=0.1, seed=9),
}


def _both_communities(spec, bitgen=np.random.PCG64):
    """spec's write sets from the inlined loop and from the reference, each
    drawn from a fresh stream on bitgen(seed), and the inlined loop's stream."""
    spec.validate()
    ids = [account_id(spec.seed, i) for i in range(spec.n_accounts)]
    streams = [_CountingStream(spec.seed), _CountingStream(spec.seed)]
    for stream in streams:
        stream._bitgen = bitgen(spec.seed)
    return (_gen_communities(spec, streams[0], ids), communities_reference(spec, streams[1], ids),
            streams[0])


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_communities_matches_stream_reference(case):
    spec = SyntheticSpec("communities", **_REFERENCE_CASES[case])
    bitgen = _ZeroedWords if case == "lemire-rejects" else np.random.PCG64
    got, expected, stream = _both_communities(spec, bitgen)
    assert got == expected
    if case == "sampler-refills":
        assert stream.batches == 4


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 120).flatmap(
        lambda n_accounts: st.fixed_dictionaries(
            dict(
                n_accounts=st.just(n_accounts),
                n_communities=st.integers(2, n_accounts // 2),
                accounts_per_tx=st.integers(2, min(n_accounts, 6)),
                n_txs=st.integers(1, 400),
                p_inter=st.floats(0.0, 1.0),
                p_hotspot=st.sampled_from([0.0, 0.05, 0.4, 1.0]),
                community_zipf_exponent=st.sampled_from([0.0, 0.6, 1.5]),
                zipf_exponent=st.sampled_from([0.5, 0.9, 1.4]),
                seed=st.integers(0, 2**32),
            )
        )
    )
)
def test_communities_matches_stream_reference_on_small_specs(kwargs):
    got, expected, _ = _both_communities(SyntheticSpec("communities", **kwargs))
    assert got == expected
