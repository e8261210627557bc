import hashlib
import itertools
import random
from unittest import mock

import numpy as np
import pytest

from oracles import enumerate_all, flip_edge, has_edge
from tourmat import tournaments
from tourmat.experiments import perm_scan
from tourmat.fields import GF, NotPrimeError, QQ
from tourmat.matrices import WeightSeq, ratio_matrix, tournament_matrix
from tourmat.rng import ByteStream
from tourmat.tournaments import (
    MAX_N,
    BadCongruenceError,
    CodeRangeError,
    InvalidPermutationError,
    ShardRangeError,
    Tournament,
    TooLargeError,
    TournamentParseError,
    VertexCountError,
    VertexRangeError,
    bit_codes,
    code_bits,
    code_range,
    format_tournament,
    n_pairs,
    pair_bits,
    paley,
    parse_tournament,
    random_pair_bits,
    random_tournament,
    transitive,
)


def edge_set(t):
    return set(t.edges())


def test_transitive_reverse_ranked():
    t = transitive(3, (3, 2, 1))
    assert edge_set(t) == {(2, 1), (3, 1), (3, 2)}


def test_transitive_identity_order():
    t = transitive(3, (1, 2, 3))
    assert edge_set(t) == {(1, 2), (1, 3), (2, 3)}


def test_transitive_single_vertex():
    assert list(transitive(1, (1,)).edges()) == []


def test_transitive_rejects_non_permutation():
    with pytest.raises(InvalidPermutationError):
        transitive(3, (1, 2, 2))
    with pytest.raises(InvalidPermutationError):
        transitive(3, (1, 2))


def test_every_pair_oriented_exactly_once():
    for code in enumerate_all(4):
        edges = list(Tournament(4, code).edges())
        assert len({frozenset(e) for e in edges}) == len(edges) == n_pairs(4)
        assert all(has_edge(4, code, i, j) and not has_edge(4, code, j, i) for i, j in edges)


def test_reverse_involution_and_order_reversal():
    t = parse_tournament("n=3:101")
    assert format_tournament(t.reverse()) == "n=3:010"
    assert t.reverse().reverse() == t
    order = (2, 4, 1, 3)
    assert transitive(4, order).reverse() == transitive(4, order[::-1])


def test_flip_edge():
    t = parse_tournament("n=3:000")
    assert format_tournament(Tournament(3, flip_edge(3, t.code, 1, 2))) == "n=3:100"
    assert flip_edge(3, flip_edge(3, t.code, 1, 2), 2, 1) == t.code
    flipped = flip_edge(3, t.code, 2, 3)
    assert bin(t.code ^ flipped).count("1") == 1
    with pytest.raises(ValueError):
        flip_edge(3, t.code, 2, 2)


def test_reverse_commutes_with_flip():
    t = random_tournament(6, 4, 0)
    assert Tournament(6, flip_edge(6, t.code, 2, 5)).reverse().code == \
        flip_edge(6, t.reverse().code, 2, 5)


def test_transitive_has_no_directed_triangle():
    for n in range(3, 7):
        for order in itertools.permutations(range(1, n + 1)):
            code = transitive(n, order).code
            edge = lambda i, j: has_edge(n, code, i, j)  # noqa: E731
            for a, b, c in itertools.combinations(range(1, n + 1), 3):
                cycle = (edge(a, b) and edge(b, c) and edge(c, a)) or (
                    edge(a, c) and edge(c, b) and edge(b, a))
                assert not cycle


def test_random_tournament_deterministic():
    a = random_tournament(10, 123, 7)
    b = random_tournament(10, 123, 7)
    assert a == b


def test_random_tournament_bit_means():
    n, samples = 10, 10000
    counts = [0] * n_pairs(n)
    for i in range(samples):
        code = random_tournament(n, 2024, i).code
        for k in range(n_pairs(n)):
            counts[k] += (code >> k) & 1
    for c in counts:
        assert 0.45 <= c / samples <= 0.55


def test_random_tournament_distinct_indices():
    codes = {random_tournament(10, 5, i).code for i in range(1000)}
    assert len(codes) == 1000


@pytest.mark.parametrize("n", [*range(1, 13), 50, 400])
def test_random_pair_bits_are_the_sampled_tournaments_bits(n):
    """0 pairs at n = 1, pair counts on and off a multiple of 8 (n = 9: 36,
    n = 400: 79,800), from index 0 and from later indices."""
    for start, end in ((0, 3), (5, 7 if n == 400 else 12), (4, 4)):
        bits = random_pair_bits(n, 17, start, end)
        assert bits.dtype == np.uint8 and bits.shape == (end - start, n_pairs(n))
        assert ["".join(map(str, row)) for row in bits] == [
            random_tournament(n, 17, i).bits() for i in range(start, end)]
    for end in (0, 1):
        with pytest.raises(VertexCountError):
            random_pair_bits(0, 17, 0, end)


def test_random_pair_bits_check_n_once_and_build_no_tournament():
    with mock.patch.object(tournaments, "_check_n", wraps=tournaments._check_n) as check, \
            mock.patch.object(tournaments, "Tournament", wraps=tournaments.Tournament) as built:
        bits = random_pair_bits(50, 17, 0, 20)
    assert check.call_count == 1 and built.call_count == 0
    assert (bits == random_pair_bits(50, 17, 0, 20)).all()


@pytest.mark.parametrize("n", (1, 2, 11, 12, 50, 400))
def test_codec_round_trips_against_the_bits_text(n):
    """`code_bits` and `bit_codes` against the text `bin()` builds: codes 0 and
    2**m - 1 and random codes, with pair counts on and off a multiple of 8
    (n = 11: 55, n = 12: 66, n = 400: 79,800)."""
    m = n_pairs(n)
    draw = random.Random(n)
    codes = [0, (1 << m) - 1] + [draw.getrandbits(m) for _ in range(4)]
    text = [Tournament(n, code).bits() for code in codes]
    bits = code_bits(n, codes)
    assert bits.dtype == np.uint8 and bits.shape == (len(codes), m)
    assert ["".join(map(str, row)) for row in bits] == text
    assert bit_codes(bits) == codes
    from_text = np.array([[int(c) for c in t] for t in text], dtype=np.uint8).reshape(len(codes), m)
    assert bit_codes(from_text) == codes
    assert code_bits(n, []).shape == (0, m) and bit_codes(bits[:0]) == []


@pytest.mark.parametrize("n", range(1, 12))
def test_code_bits_of_a_code_range_are_pair_bits(n):
    total = 1 << n_pairs(n)
    for lo, hi in ((0, min(total, 300)), (total - min(total, 70), total),
                   (total // 3, min(total, total // 3 + 50))):
        assert np.array_equal(code_bits(n, range(lo, hi)), pair_bits(n, lo, hi))


def test_constructions_and_builders_do_not_read_the_bits_text():
    """With `Tournament.bits` and `from_bits` raising, the constructions, the
    per-matrix builders and `perm_scan` give what they give unpatched."""
    t = random_tournament(6, 3, 0)
    gf5, q = WeightSeq.of(GF(5), [1, 2, 3, 4, 1, 2]), WeightSeq.of(QQ, [1, 2, 3, 4, 5, 6])

    def outputs():
        scan = perm_scan(t, gf5, mode="sample", sample=30, seed=2)
        return ([transitive(5, (3, 1, 5, 2, 4)), transitive(7), paley(7), paley(11)],
                [f(t, w) for f in (tournament_matrix, ratio_matrix) for w in (gf5, q)],
                scan.records, scan.summary, perm_scan(t, q).records)

    expected = outputs()
    refuse = mock.Mock(side_effect=AssertionError("bit text read"))
    with mock.patch.object(Tournament, "bits", refuse), \
            mock.patch.object(tournaments, "from_bits", refuse):
        assert outputs() == expected
    assert not refuse.called


def test_paley_three_cycle():
    assert edge_set(paley(3)) == {(1, 2), (2, 3), (3, 1)}


def test_paley_seven_regular():
    t = paley(7)
    assert [t.out_degree(v) for v in range(1, 8)] == [3] * 7


@pytest.mark.parametrize("v", (0, 6))
def test_out_degree_refuses_a_vertex_outside_1_to_n(v):
    with pytest.raises(VertexRangeError):
        Tournament(5, 0).out_degree(v)


@pytest.mark.parametrize("build, n", [(transitive, 0), (transitive, MAX_N + 1),
                                      (paley, 4099), (paley, 100003)])
def test_constructions_check_the_vertex_count_before_laying_out_pairs(build, n):
    with mock.patch.object(np, "triu_indices", side_effect=AssertionError("pairs laid out")):
        with pytest.raises(VertexCountError):
            build(n)


def test_paley_rejections():
    with pytest.raises(BadCongruenceError):
        paley(5)
    with pytest.raises(NotPrimeError):
        paley(9)


def test_enumerate_counts():
    assert len(pair_bits(3, *code_range(3))) == 8
    assert len(pair_bits(4, *code_range(4))) == 64


def test_enumerate_shards_partition():
    full = pair_bits(4, *code_range(4))
    sharded = np.concatenate([pair_bits(4, a, b) for a, b in ((0, 20), (20, 50), (50, 64))])
    assert (sharded == full).all()
    assert len({row.tobytes() for row in sharded}) == 64


def test_enumerate_too_large():
    with pytest.raises(TooLargeError):
        code_range(13)


def test_parse_format():
    t = parse_tournament("n=3:110")
    assert edge_set(t) == {(1, 2), (1, 3), (3, 2)}
    for s in ("n=3:110", "n=4:010110", "n=1:"):
        assert format_tournament(parse_tournament(s)) == s
    with pytest.raises(TournamentParseError):
        parse_tournament("n=3:11")
    with pytest.raises(TournamentParseError):
        parse_tournament("n=3:1a0")


def test_code_bounds_checked():
    with pytest.raises(CodeRangeError, match="code 8 out of range for n=3"):
        Tournament(3, 8)
    with pytest.raises(CodeRangeError):
        Tournament(3, -1)
    for start, end in ((5, 9), (6, 2), (-1, 3)):
        with pytest.raises(ShardRangeError, match=f"bad shard \\[{start}, {end}\\) for 8 codes"):
            code_range(3, start, end)
    with pytest.raises(ValueError):
        Tournament(0, 0)


def test_random_tournament_is_the_concatenated_digest_stream():
    n, seed, index = 2048, 5, 3
    key = f"{seed}|tournament|{index}".encode("ascii")
    nbytes = (n_pairs(n) + 7) // 8
    stream = b"".join(hashlib.sha256(key + b"#" + str(c).encode("ascii")).digest()
                      for c in range(nbytes // 32 + 1))
    code = int.from_bytes(stream[:nbytes], "big") >> (8 * nbytes - n_pairs(n))
    assert random_tournament(n, seed, index).code == code


def test_split_draws_read_one_stream():
    sizes = [0, 1, 31, 32, 33, 5, 100, 64, 7]
    pieces = ByteStream(9, "split")
    whole = ByteStream(9, "split").take_bytes(sum(sizes))
    assert b"".join(pieces.take_bytes(k) for k in sizes) == whole
