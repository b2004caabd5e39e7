"""Trace parsing and synthetic generator tests."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim.core import CA, Account, Transaction
from shardsim.policies import hash_place
from shardsim.workload import (
    DEFAULT_ZIPF_EXPONENT,
    EmptyWriteSet,
    InvalidSpec,
    ParseError,
    SyntheticSpec,
    account_id,
    generate,
    load_trace,
    parse_trace_line,
)


# ---------------------------------------------------------------------------
# line parsing


def test_parse_basic_line():
    rec = parse_trace_line("5 tx1 3 00ff,ab12", 1)
    assert rec.block == 5
    assert rec.tx_id == "tx1"
    assert rec.fee == 3
    assert rec.accounts == ("00ff", "ab12")


def test_parse_dedups_accounts():
    rec = parse_trace_line("0 tx1 0 aa,aa,bb", 1)
    assert rec.accounts == ("aa", "bb")


def test_parse_ca_suffix():
    rec = parse_trace_line("0 tx1 0 aa,bb|CA", 1)
    assert rec.kind_flags[1] == CA
    # a repeated account is a contract account if any spelling is marked
    for line in ("0 t0 0 aa,AA|CA", "0 t0 0 aa|CA,AA"):
        assert parse_trace_line(line, 1).kind_flags == (CA,)


def test_parse_single_account_line_allowed():
    # coinbase-like records have a one-element write set
    rec = parse_trace_line("0 cb 0 aa", 1)
    assert rec.accounts == ("aa",)


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
def test_parse_malformed_lines(line):
    with pytest.raises(ParseError) as err:
        parse_trace_line(line, 7)
    assert err.value.line_no == 7


def test_parse_empty_write_set():
    with pytest.raises(EmptyWriteSet):
        parse_trace_line("0 tx1 0 ,", 3)


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
    ],
)
def test_invalid_spec_parameters(kwargs):
    with pytest.raises(InvalidSpec):
        SyntheticSpec(**kwargs).validate()


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
