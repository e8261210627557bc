import hashlib
import itertools

import numpy as np
import pytest

from oracles import enumerate_all, flip_edge, has_edge
from tourmat.fields import NotPrimeError
from tourmat.rng import ByteStream
from tourmat.tournaments import (
    BadCongruenceError,
    CodeRangeError,
    InvalidPermutationError,
    ShardRangeError,
    Tournament,
    TooLargeError,
    TournamentParseError,
    bit_rows,
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
        if end > start:
            assert np.array_equal(
                bits, bit_rows([random_tournament(n, 17, i) for i in range(start, end)]))
    with pytest.raises(ValueError):
        random_pair_bits(0, 17, 0, 1)


def test_paley_three_cycle():
    assert edge_set(paley(3)) == {(1, 2), (2, 3), (3, 1)}


def test_paley_seven_regular():
    t = paley(7)
    assert [t.out_degree(v) for v in range(1, 8)] == [3] * 7


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
