"""Known-answer digests that pin the determinism contract byte for byte.

Each case below produces bytes (a random stream, tournament codes, matrix
CSV, or a full CLI report) and the test compares their SHA-256 with the
digest recorded here.  A refactor of the builders, the elimination kernels
or the verifiers must leave every digest unchanged; a digest that moves
means report bytes moved.
"""

import hashlib

import pytest

from oracles import linear_mix_rows, pair_sum_rows
from tourmat.cli import main
from tourmat.fields import GF, QQ
from tourmat.matrices import (
    DenseMatrix,
    WeightSeq,
    matrix_to_csv,
    ratio_matrix,
    tournament_matrix,
    transitive_matrix,
)
from tourmat.rank import determinant
from tourmat.rng import ByteStream
from tourmat.tournaments import paley, random_tournament

# A rank-deficient Q matrix with fractions and a column that gets no pivot.
RANK_INPUT_Q = """field=Q,rows=4,cols=5
1/2,0,3,-1,2
1,0,6,-2,4
0,0,1/3,5,7
2,0,-1,0,1/5
"""


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _stream_bytes():
    keys = [(0,), (1, "weights", 5), (2**64 - 1, "perm", 3, "x")]
    return b"".join(ByteStream(*key).take_bytes(97) for key in keys)


def _tournament_codes():
    return ",".join(str(random_tournament(n, seed, i).code)
                    for n in range(1, 13) for seed in (0, 7) for i in range(4))


def _builder_csv(field):
    w = WeightSeq.of(field, [1, 2, 3, 4, 6, 7])
    vals = [v.value for v in w.values]
    parts = []
    for t in (random_tournament(6, 11, 0), random_tournament(6, 11, 1)):
        parts.append(matrix_to_csv(tournament_matrix(t, w)))
        mix = DenseMatrix.from_rows(field, linear_mix_rows(t.bits(), vals, 2, 3))
        parts.append(matrix_to_csv(mix))
        parts.append(matrix_to_csv(ratio_matrix(t, w)))
    parts.append(matrix_to_csv(transitive_matrix(w)))
    parts.append(matrix_to_csv(DenseMatrix.from_rows(field, pair_sum_rows(vals))))
    w7 = WeightSeq.of(field, [1, 2, 3, 4, 6, 7, 8])
    parts.append(matrix_to_csv(tournament_matrix(paley(7), w7)))
    return "".join(parts)


LIBRARY_CASES = {
    "bytestream": _stream_bytes,
    "tournament-codes": _tournament_codes,
    "builders-Q": lambda: _builder_csv(QQ),
    "builders-GF5": lambda: _builder_csv(GF(5)),
}

CLI_CASES = {
    "verify-transitive": ["verify", "--theorem", "transitive", "--field", "Q",
                          "--n-range", "3..7", "--trials", "3", "--seed", "5"],
    "verify-reversal": ["verify", "--theorem", "reversal", "--field", "GF(5)",
                        "--n", "5", "--seed", "1"],
    "verify-lipschitz": ["verify", "--theorem", "lipschitz", "--field", "Q",
                         "--n", "7", "--flips", "25", "--seed", "3"],
    # pins the stream order (flipped edge, then the replaced position, then its
    # weight), which the Q case above with weights 1 and 2 does not
    "verify-lipschitz-GF5": ["verify", "--theorem", "lipschitz", "--field", "GF(5)",
                             "--seq", "1,2,3,4,1", "--flips", "300", "--seed", "5"],
    "verify-certify-Q": ["verify", "--theorem", "certify", "--field", "Q",
                         "--n-max", "4", "--z", "2"],
    "verify-certify-GF3": ["verify", "--theorem", "certify", "--field", "GF(3)",
                           "--n-max", "5"],
    # CSV cells: None as an empty cell (first_bad_code), a list joined by ";"
    "verify-certify-GF3-csv": ["verify", "--theorem", "certify", "--field", "GF(3)",
                               "--n-max", "4", "--format", "csv"],
    "verify-constant": ["verify", "--theorem", "constant", "--field", "GF(3)",
                        "--n-range", "2..11", "--value", "2"],
    "verify-ffbound": ["verify", "--theorem", "ffbound", "--field", "GF(3)",
                       "--n-max", "5"],
    "verify-f-ensemble": ["verify", "--theorem", "f-ensemble", "--field", "Q",
                          "--n", "4", "--alpha", "2", "--beta", "1/3", "--seed", "2"],
    "build": ["build", "--tournament", "paley:11", "--field", "GF(7)",
              "--seq", "1,2,3,4,5,6,1,2,3,4,5", "--seed", "0"],
    "minrank-csv": ["minrank", "--field", "GF(3)", "--n", "5", "--seq", "1,2,1,2,1",
                    "--format", "csv", "--seed", "0"],
    "minrank-workers-1": ["minrank", "--field", "Q", "--n", "5", "--seq", "1,2,3,4,5",
                          "--conjecture-c", "1/2", "--workers", "1", "--seed", "0"],
    "minrank-workers-2": ["minrank", "--field", "Q", "--n", "5", "--seq", "1,2,3,4,5",
                          "--conjecture-c", "1/2", "--workers", "2", "--seed", "0"],
    "montecarlo-Q": ["montecarlo", "--field", "Q", "--n", "12", "--samples", "15",
                     "--seq", ",".join("12" * 6), "--seed", "9"],
    "montecarlo-GF3": ["montecarlo", "--field", "GF(3)", "--n", "13", "--samples", "15",
                       "--seq", ",".join("1212121212121"), "--seed", "9", "--format", "csv"],
    "perm-scan": ["perm-scan", "--field", "Q", "--tournament", "random:5",
                  "--seq", "1,2,3,4,5", "--seed", "4"],
    "perm-scan-csv": ["perm-scan", "--field", "Q", "--tournament", "random:5",
                      "--seq", "1,2,3,4,5", "--seed", "4", "--format", "csv"],
    # exhaustive prime-field sweeps: a shard that starts and ends off any
    # batch boundary, weights near a word-size p, and the one- and two-vertex
    # edge cases
    "minrank-GF2-shard": ["minrank", "--field", "GF(2)", "--n", "5", "--seq", "1,1,1,1,1",
                          "--shard", "100:900", "--workers", "2", "--seed", "0"],
    "minrank-word-prime": ["minrank", "--field", "GF(2147483647)", "--n", "5",
                           "--seq", "2147483646,2147483645,2147483646,1,2147483640",
                           "--seed", "0"],
    "minrank-GF3-n1": ["minrank", "--field", "GF(3)", "--n", "1", "--seq", "2", "--seed", "0"],
    "minrank-GF3-n2": ["minrank", "--field", "GF(3)", "--n", "2", "--seq", "1,2", "--seed", "0"],
    "verify-ffbound-GF5": ["verify", "--theorem", "ffbound", "--field", "GF(5)",
                           "--n-max", "5"],
    # certifiability over GF(2), over GF(5) with z != 1, and with z near a
    # word-size p
    "verify-certify-GF2": ["verify", "--theorem", "certify", "--field", "GF(2)",
                           "--n-max", "5"],
    "verify-certify-GF5-z3": ["verify", "--theorem", "certify", "--field", "GF(5)",
                              "--z", "3"],
    "verify-certify-word-prime": ["verify", "--theorem", "certify", "--field", "GF(2147483647)",
                                  "--z", "2147483646", "--n-max", "4"],
    # exhaustive Q sweeps whose entries reach or pass 2**31 - 1: word-size and
    # fractional weights, a weight past 2**63, and a z that vanishes mod
    # 2**31 - 1, so ranks taken mod that prime alone would fall short
    "minrank-Q-word-size": ["minrank", "--field", "Q", "--n", "5",
                            "--seq", "1/2,1/3,2147483647,4294967294,5", "--seed", "0"],
    "minrank-Q-past-63-bits": ["minrank", "--field", "Q", "--n", "5",
                               "--seq", "123456789012345678901,-3,7/5,2,1", "--seed", "0"],
    "verify-certify-Q-word-prime": ["verify", "--theorem", "certify", "--field", "Q",
                                    "--z", "2147483647", "--n-max", "5"],
    # bordered n = 6 sweeps: a CSV shard that starts and ends inside a run of
    # 2**5 codes sharing one block, and two elided Q reports whose children
    # short of full rank mod 2**31 - 1 (768 and 96 codes of rank 5) go on to
    # the Hadamard primes
    "minrank-GF3-shard-off-blocks": ["minrank", "--field", "GF(3)", "--n", "6",
                                     "--seq", "1,2,1,2,1,2", "--shard", "1000:20011",
                                     "--format", "csv", "--seed", "0"],
    "minrank-Q-n6-rank5-768": ["minrank", "--field", "Q", "--n", "6", "--seq", "1,2,2,1,1,1",
                               "--seed", "0"],
    "minrank-Q-n6-signed-rank5-96": ["minrank", "--field", "Q", "--n", "6",
                                     "--seq", "1,1,-1,-1,2,2", "--seed", "0"],
    # 2**21 codes whose cycling weights repeat: 2**12 distinct matrices, min rank 4
    "minrank-GF3-n7-cycling": ["minrank", "--field", "GF(3)", "--n", "7",
                               "--seq", "1,2,1,2,1,2,1", "--seed", "0"],
    # 2**28 codes in 4,096 slices: 2**16 distinct matrices, most runs copying
    # their ranks from a first run in an earlier slice
    "minrank-GF3-n8-cycling": ["minrank", "--field", "GF(3)", "--n", "8",
                               "--seq", "1,2,1,2,1,2,1,2", "--seed", "0"],
    # a CSV shard of 3,000 codes that cross from 13 to 14 digits, whose ranks
    # 8, 9 and 10 mix 8- and 9-byte ",rank,pass" suffixes within one chunk
    "minrank-GF3-n10-csv-digits": ["minrank", "--field", "GF(3)", "--n", "10",
                                   "--seq", "1,2,1,2,1,2,1,2,1,2",
                                   "--shard", "9999999998500:10000000001500",
                                   "--format", "csv", "--seed", "0"],
    # Q Monte Carlo with every rank in the report: n = 50 with the weights of
    # the mc-q-n50 benchmark, whose class pivot leaves 25-wide complements,
    # and n = 80, more than two elimination panels wide
    "montecarlo-Q-n50-full": ["montecarlo", "--field", "Q", "--n", "50", "--samples", "30",
                              "--seq", ",".join("12" * 25), "--seed", "4", "--full-records"],
    "montecarlo-Q-n80-full": ["montecarlo", "--field", "Q", "--n", "80", "--samples", "10",
                              "--seq", ",".join("1234" * 20), "--seed", "6", "--full-records"],
    # GF(p) Monte Carlo on cycling weights, every rank in the report: two
    # equal-weight classes of 200 at n = 400 and of 100 at n = 200 (3 divides
    # 100 - 1), and three classes of 44, 43 and 43 mod a word-size prime
    "montecarlo-GF3-n400-full": ["montecarlo", "--field", "GF(3)", "--n", "400", "--samples", "6",
                                 "--seq", ",".join("12" * 200), "--seed", "5", "--full-records"],
    "montecarlo-GF3-n200-full": ["montecarlo", "--field", "GF(3)", "--n", "200",
                                 "--samples", "12", "--seq", ",".join("12" * 100), "--seed", "7",
                                 "--full-records"],
    "montecarlo-word-prime-n130-full": ["montecarlo", "--field", "GF(2147483647)", "--n", "130",
                                        "--samples", "8",
                                        "--seq", ",".join(str(1 + i % 3) for i in range(130)),
                                        "--seed", "2", "--full-records"],
}

PINNED = {
    "bisect-matrix-sizes-2-4-2": "43219019f689047c9ebf154b475edc760de5611ab32606788da2685f3d4fdbce",
    "bisect-matrix-star5": "e5e67eec39eeb79dbacd0fb388852891e48e7ac6d276c200714427801b32a3a8",
    "build": "b4080daa154c339c7d7051d4988cebd8e8f9e539752620897c8a82a0f666a145",
    "builders-GF5": "3afaac0607327e1f3fcbde775eee7037fb251a99602ffb474eb2245737e7ec1d",
    "builders-Q": "ad16bd6afea9d8218632bde99affb849ea8a766439b2da846e0c05f9bcb3f0dc",
    "bytestream": "97df01570eae3efa18c62587ff9d4993aa02b029aee545febae9d0dcaacdb85e",
    "minrank-GF2-shard": "d68b192154747df607c6fff3ca5cf5b4c330768c9688240c9352e155034513cc",
    "minrank-GF3-n1": "80f9217142fe413b0f7ee216def88053200a1ae6d72e8563fe342c8141477b5d",
    "minrank-GF3-n2": "f5aeb2eacee2aa22740aefb28102266111866f04287ecab6800ed35e298df783",
    "minrank-GF3-n7-cycling": "4c820ef50f8d932a2a97e6a6ccb223adda848da95419f819e8a1f35999dd9867",
    "minrank-GF3-n8-cycling": "0be9cd5be526ae3c66defdfba7988ebb45c0d9bd6ef989befa709fbbb7ee026f",
    "minrank-GF3-n10-csv-digits": (
        "3bfc8a32505ecdd7547281b131864d7c08ee0dd1d3f118ef7f3fdef5843ef348"),
    "minrank-GF3-shard-off-blocks": "d80d82b319bf481a58a9aea0da5015c35c9e0917da140036bcbfcacd39c79411",
    "minrank-Q-n6-rank5-768": "6f8c1ada93a7190b7be3ecbd19b30ed535bfae02a9ef568f1bca3e37f890fc37",
    "minrank-Q-n6-signed-rank5-96": "1a40139dc148a10726fed9a3df416b7655e1f511e54bd3eb2110e054d578db73",
    "minrank-Q-past-63-bits": "b97d1f502791df04c1a730773f31c63eb56af21fe68d81fb963ec3f746588453",
    "minrank-Q-word-size": "9811b30dc5a5776dc3ddf7b1e8823c7e40ce95ae6d10b6d353ce7513aad1e982",
    "minrank-csv": "4b0e36afa2674a367e682f83144cb9ba003f4c463b7a82c577f947f2b2ebca03",
    "minrank-word-prime": "aee44a471e9914a8a2d4193f0ac9dfb973993dde6658e4d3ce20f8e28c0f650b",
    "minrank-workers-1": "8c5262083bc85f1753ee80e6f6753bd2c8aa9d89dfcf15801805e0a368538d99",
    "minrank-workers-2": "8c5262083bc85f1753ee80e6f6753bd2c8aa9d89dfcf15801805e0a368538d99",
    "montecarlo-GF3": "7c56bacb85e8d30e91572de3462136a53a5f97f24c52f2b8ad2e92f9fef42728",
    "montecarlo-GF3-n200-full": "7941f28b08b9129d06ad42c097dbcee804d1976f1c0da1ca0fbc6045adedd7e7",
    "montecarlo-GF3-n400-full": "43cd200c7d4ced9bbc9d8007264a22f6c805e2fc4de3bd5c5093b2a97e26764f",
    "montecarlo-Q": "d8c98cfacdd54d2038feb56aef13afbb738e9a0280204e58e52fed96fc321f29",
    "montecarlo-Q-n50-full": "9589e740c0e68085b19ab1fac26a561c48e309164f920524235d126a5f7322f3",
    "montecarlo-Q-n80-full": "e6ffb1803603c2be432be2a461ec79e9fb85ad6971d2eecdd0162bd50893cec3",
    "montecarlo-word-prime-n130-full": (
        "e339309188ab623e4e551bd2e39442cd76395434c4f46adf2a9a45db75e45152"),
    "perm-scan": "989fb7df3f8372c8ed60047140c210ba059d0ea70f5412d46d858161bf822211",
    "perm-scan-csv": "2262a0e9f2aaea2199c1ea8492db4a30a352f0971774d313c595197a4ad2b5a7",
    "rank": "760a6a3de4873e4d40bd9f584ff5a839da6739d466b2573254b64203a27c0231",
    "tournament-codes": "355fc987e6350fc523591970f191e4151fb3bcf609b85d2c10e4db37e85d58e5",
    "verify-certify-GF2": "daab1251119581643678ac7346e8558cbed61809e9fca8d842ca81d773ab9164",
    "verify-certify-GF3": "be89c65f199c1d044f8ec59e2717805594ff83b27dc6fb930430f6ebd2dd9ee5",
    "verify-certify-GF3-csv": "8569d069789ce71242e598576aae530a48b5d48768c2c14c9019163b311ece58",
    "verify-certify-GF5-z3": "3ec3e02b3c5f56908f63465ba71ca4a4ec3220f06898de887071c251dbc017db",
    "verify-certify-Q": "8e679eb0398abd735f535c9dc12be48ce24c5dc70aa954ae3c8e03203ef82f34",
    "verify-certify-Q-word-prime": "8bdc810537177067ca295593eec39f21a9c12895d749c19193b420418aae308e",
    "verify-certify-word-prime": "a56f68cc9a270aa4807876d93169baa6d733a61f3bef670c379114a8a4ed63f0",
    "verify-constant": "d9b11579ea5a33d2dc5b19b598175433c03438fe03a39c322b8135eae9024437",
    "verify-f-ensemble": "83f5633617610aae6b2c88797f02a9563f32f9bddcdfb7701f76db328c975271",
    "verify-ffbound": "42d736ffc2f2a54a1cd036fd020448a0a491172b051492067241a36cfdefb2e5",
    "verify-ffbound-GF5": "4893c914fb0bda85c8cca8c065e77508c0c27c31d8cb76c02658112b5d09fb40",
    "verify-lipschitz": "f91eea99f1ac3585638044c485f51b923d27f69fb12455514dc6ec9b1746934b",
    "verify-lipschitz-GF5": "a63071523c11d2baa9e50ef210e87227ef5e5c4556cf2213693e520bfda99729",
    "verify-reversal": "3c25fd28dd2436008549253af448e17ec09dce5c156c4fdbcb4ae985a7533827",
    "verify-transitive": "b53d4ce2f72d3d29c72d8d4ec9b5ba41e3cb65f6d77f9f031b920121b173cf93",
}


def _run_cli(argv, out_path):
    code = main(argv + ["--out", str(out_path)])
    assert code == 0
    return out_path.read_bytes()


def _rank_outputs(tmp_path):
    """`rank` on a Q matrix with a skipped column, and on a built GF(p) matrix
    large enough for the vectorized kernel, under its own and another field."""
    q_csv = tmp_path / "q.csv"
    q_csv.write_text(RANK_INPUT_Q)
    big = tmp_path / "big.csv"
    assert main(["build", "--tournament", "transitive:12", "--field", "GF(11)",
                 "--seq", ",".join(["1"] * 12), "--seed", "0", "--out", str(big)]) == 0
    out = b""
    for argv in (["--matrix", str(q_csv)],
                 ["--matrix", str(big)],
                 ["--matrix", str(big), "--field", "GF(2)"]):
        out += _run_cli(["rank", "--seed", "0"] + argv, tmp_path / "rank.json")
    return out


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_digest(name):
    assert sha(LIBRARY_CASES[name]()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_digest(name, tmp_path):
    assert sha(_run_cli(CLI_CASES[name], tmp_path / "report")) == PINNED[name]


def test_rank_digest(tmp_path):
    assert sha(_rank_outputs(tmp_path)) == PINNED["rank"]


FAMILIES = {
    "bisect-matrix-star5": "n=5\n1 2\n1 3\n1 4\n1 5\n",
    # weights 2, 4, 2: the 4-set is tau of both its pairs, so entries 2 and 4 occur
    "bisect-matrix-sizes-2-4-2": "n=5\n1 2\n1 3 4 5\n2 3\n",
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_bisect_matrix_digest(name, tmp_path, capsys):
    """A bisecting family's reduced matrix CSV and its weights line."""
    fam = tmp_path / "family.txt"
    fam.write_text(FAMILIES[name])
    csv = _run_cli(["bisect", "matrix", "--family", str(fam)], tmp_path / "m.csv")
    weights = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("weights:")]
    assert sha(csv + "\n".join(weights).encode()) == PINNED[name]


def test_minrank_worker_count_does_not_move_bytes():
    assert PINNED["minrank-workers-1"] == PINNED["minrank-workers-2"]


# Pins wider than one 32-column elimination panel.  The CSVs are drawn from
# ByteStream, so their bytes are fixed by the keys below.
GF3_DEFICIENT_ROWS, GF3_DEFICIENT_COLS, GF3_DEFICIENT_INNER = 160, 170, 120
WORD_P = 2**31 - 1


def _byte_grid(n_rows, n_cols, *key):
    data = ByteStream(0, "panel-pin", *key).take_bytes(n_rows * n_cols)
    return [list(data[r * n_cols:(r + 1) * n_cols]) for r in range(n_rows)]


def _csv_text(field_spec, rows):
    lines = [f"field={field_spec},rows={len(rows)},cols={len(rows[0])}"]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _gf3_deficient_csv():
    """A 160 x 170 product of 160 x 120 and 120 x 170 factors mod 3, with every
    seventh column zeroed and every eleventh a copy of its left neighbour."""
    left = _byte_grid(GF3_DEFICIENT_ROWS, GF3_DEFICIENT_INNER, "left")
    right = _byte_grid(GF3_DEFICIENT_INNER, GF3_DEFICIENT_COLS, "right")
    rows = [[sum(a * b for a, b in zip(lrow, col)) % 3 for col in zip(*right)]
            for lrow in left]
    for row in rows:
        for c in range(GF3_DEFICIENT_COLS):
            if c % 7 == 3:
                row[c] = 0
            elif c % 11 == 5:
                row[c] = row[c - 1]
    return _csv_text("GF(3)", rows)


def _word_prime_csv():
    """A 130 x 130 matrix mod 2**31 - 1 with entries in [p - 256, p - 1], its
    last ten rows repeating the first ten and column 70 repeating column 69."""
    rows = [[WORD_P - 1 - b for b in row] for row in _byte_grid(130, 130, "word")]
    rows[120:] = [list(row) for row in rows[:10]]
    for row in rows:
        row[70] = row[69]
    return _csv_text(f"GF({WORD_P})", rows)


def _panel_rank_json(text, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(text)
    return _run_cli(["rank", "--matrix", str(path), "--seed", "0"], tmp_path / "rank.json")


def _gf7_determinants():
    """Determinants of 100 x 100 GF(7) tournament matrices, one per line."""
    field = GF(7)
    w = WeightSeq.of(field, [1 + i % 6 for i in range(100)])
    return "".join(f"{determinant(tournament_matrix(random_tournament(100, seed, 0), w)).value}\n"
                   for seed in range(6))


PANEL_CASES = {
    "rank-gf3-deficient-170": lambda tmp_path: _panel_rank_json(_gf3_deficient_csv(), tmp_path),
    "rank-word-prime-130": lambda tmp_path: _panel_rank_json(_word_prime_csv(), tmp_path),
    "montecarlo-GF5-n150": lambda tmp_path: _run_cli(
        ["montecarlo", "--field", "GF(5)", "--n", "150", "--samples", "4",
         "--seq", ",".join(str(1 + i % 4) for i in range(150)), "--seed", "3"],
        tmp_path / "report"),
    "determinant-GF7-n100": lambda tmp_path: _gf7_determinants(),
}

PANEL_PINNED = {
    "determinant-GF7-n100": "412b1636d0fbd1db609d18a4959d3d303ea2cd1f3cc00862bac99dc9b12f0abf",
    "montecarlo-GF5-n150": "bb83c0ab9503bdee819002520c29e090e1cc392d79a4d56794f9c65834f86db8",
    "rank-gf3-deficient-170": "e269028ab8a919f2b655fc7ad2f2174ab94daefe406725e93b5dc59e0166bbe2",
    "rank-word-prime-130": "29f58c739b5d69ec1275b605972b8e0f0d72380dc40f84de57de0c59e2cbf74d",
}


@pytest.mark.parametrize("name", sorted(PANEL_CASES))
def test_multi_panel_digest(name, tmp_path):
    assert sha(PANEL_CASES[name](tmp_path)) == PANEL_PINNED[name]
