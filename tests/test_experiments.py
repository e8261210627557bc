import contextlib
import importlib
import itertools
from fractions import Fraction
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from oracles import enumerate_all, flip_edge, linear_mix_rows, pair_sum_rows
from tourmat import experiments as ex
from tourmat import report as report_mod
from tourmat.fields import GF, QQ, FieldMismatchError
from tourmat.matrices import (
    DenseMatrix,
    LengthMismatchError,
    WeightSeq,
    tournament_matrix,
    transitive_matrix,
)
from tourmat.rank import determinant, rank
from tourmat.report import RecordTable, Report
from tourmat.rng import ByteStream
from tourmat.tournaments import Tournament, random_tournament, transitive

# the package re-exports the function `rank`, which shadows the module attribute
rank_mod = importlib.import_module("tourmat.rank")
matrices_mod = importlib.import_module("tourmat.matrices")


def test_verify_transitive_small_fields():
    for field in (QQ, GF(3), GF(2)):
        rep = ex.verify_transitive(range(3, 7), field, trials=5, seed=1)
        assert rep.passed
        assert rep.summary["checks"] == 4 * 5 * 2


def test_verify_transitive_base_case_rank_at_least_two():
    # any nonzero second and third weights give rank >= 2 at n = 3
    for field in (QQ, GF(3)):
        nonzero = range(1, field.char or 4)
        for a2 in nonzero:
            for a3 in nonzero:
                w = WeightSeq.of(field, [1, a2, a3])
                assert rank(transitive_matrix(w)).rank >= 2


def test_verify_transitive_bad_range():
    with pytest.raises(ex.BadRangeError):
        ex.verify_transitive(range(2, 5), QQ)


def test_verify_transitive_fixed_sequence():
    rep = ex.verify_transitive(range(3, 6), QQ, seed=0, sequence_source=[5, 1, 2])
    assert rep.passed
    assert rep.parameters["sequence_source"] == "fixed"


def test_verify_transitive_fixed_sequence_runs_every_trial():
    """Fixed weights, cycled to each n, run under every trial's seeded vertex
    order: the requested trials are reported and checked."""
    seq = [5, 1, 2]
    rep = ex.verify_transitive(range(3, 5), QQ, trials=5, seed=2, sequence_source=seq)
    assert rep.parameters["trials"] == 5 and rep.summary["checks"] == 2 * 5 * 2
    assert sorted({(rec["n"], rec["trial"]) for rec in rep.records}) == [
        (n, k) for n in (3, 4) for k in range(5)]
    for rec in rep.records:
        n = rec["n"]
        w = WeightSeq.of(QQ, [seq[i % len(seq)] for i in range(n)])
        shuffled = ByteStream(2, "transitive-order", n, rec["trial"]).shuffled(range(n))
        order = [1 + v for v in shuffled]
        t = transitive(n, order if rec["kind"] == "random_order" else range(n, 0, -1))
        assert rec["rank"] == rank(tournament_matrix(t, w)).rank


def test_verify_reversal_exhaustive_n4():
    rep = ex.verify_reversal(WeightSeq.of(QQ, [1, 2, 3, 4]))
    assert rep.passed
    assert rep.summary["checks"] == 64
    assert rep.summary["rank_sum_matrix"] >= 2


def test_verify_reversal_char2_refuses_rank_checks():
    rep = ex.verify_reversal(WeightSeq.of(GF(2), [1, 1, 1]))
    assert rep.parameters["rank_checks"].startswith("refused")
    assert rep.passed  # identity still holds entrywise
    assert all(rec["rank_t"] is None for rec in rep.records)


def test_verify_reversal_explicit_and_sampled_sources():
    w = WeightSeq.of(QQ, [1, 2, 3, 4, 5])
    sampled = ex.verify_reversal(w, tournaments=10, seed=9)
    assert sampled.summary["checks"] == 10 and sampled.passed


def test_verify_lipschitz():
    rep = ex.verify_lipschitz(ex.cycling_weights(GF(5), 6), flips=100, seed=3)
    assert rep.passed


def test_flip_back_restores_rank():
    w = ex.cycling_weights(GF(5), 6)
    t = random_tournament(6, 44, 0)
    base = rank(tournament_matrix(t, w)).rank
    twice = flip_edge(6, flip_edge(6, t.code, 2, 5), 2, 5)
    again = rank(tournament_matrix(Tournament(6, twice), w)).rank
    assert base == again


def test_certifiability_gf3_s4_needs_bigger_minor():
    # with the first five weights equal, the 4x4 leading minor vanishes mod 3
    # (its det is -3 z^4) but the 5x5 one is 4 z^5 != 0
    field = GF(3)
    w = ex._certify_weights(field, 5, 4, field.one)
    for code in enumerate_all(5, 0, 32):
        m = tournament_matrix(Tournament(5, code), w)
        assert determinant(m.principal_submatrix(4)).is_zero()
        assert not determinant(m.principal_submatrix(5)).is_zero()


def test_certifiability_s1_block():
    field = QQ
    w = ex._certify_weights(field, 4, 1, field.scalar(3))
    m = tournament_matrix(random_tournament(4, 6, 0), w)
    assert determinant(m.principal_submatrix(1)).is_zero()
    assert determinant(m.principal_submatrix(2)).value == -9


def test_verify_certifiability_exhaustive_small():
    rep = ex.verify_certifiability(4, [GF(3), GF(5), QQ])
    assert rep.passed
    assert rep.summary["violations"] == 0


def test_verify_certifiability_rejects_zero_z():
    with pytest.raises(ValueError):
        ex.verify_certifiability(3, [GF(3)], z_values=(3,))


def test_verify_constant_seq():
    rep = ex.verify_constant_seq(range(2, 9), [QQ, GF(2), GF(3)])
    assert rep.passed
    by_key = {(rec["n"], rec["field"]): rec for rec in rep.records}
    assert by_key[(4, "Q")]["rank"] == 4
    assert by_key[(4, "GF(3)")]["rank"] == 3  # 3 divides n - 1
    assert by_key[(5, "GF(2)")]["rank"] == 4  # 2 divides n - 1
    assert by_key[(6, "GF(2)")]["rank"] == 6


def test_verify_f_ensemble_matches_reversal_for_identity_mix():
    w = WeightSeq.of(QQ, [1, 2, 3, 4])
    mix_rep = ex.verify_f_ensemble(w, 1, 0)
    rev_rep = ex.verify_reversal(w)
    assert mix_rep.passed and rev_rep.passed
    mix_ranks = [(rec["rank_t"], rec["rank_rev"]) for rec in mix_rep.records]
    rev_ranks = [(rec["rank_t"], rec["rank_rev"]) for rec in rev_rep.records]
    assert mix_ranks == rev_ranks


def test_verify_f_ensemble_degenerate_refused():
    w = WeightSeq.of(QQ, [1, 2, 3, 4])
    with pytest.raises(ex.DegenerateMixError):
        ex.verify_f_ensemble(w, 1, -1)


def test_verify_finite_field_bound():
    rep = ex.verify_finite_field_bound(5, 3)
    assert rep.passed
    assert rep.records[-1]["n"] == 5


@pytest.mark.parametrize("p", [2, 3])
def test_finite_field_bound_reduces_the_code_space_in_chunks(p, monkeypatch):
    """The GF(p) floor ranks each n's codes a few whole runs at a time and
    merges the `minrank_exhaustive` summaries of those shards (min of the
    minima, sum of the violations), which add up to the records of one call
    over the whole code space."""
    whole = ex.verify_finite_field_bound(6, p)
    monkeypatch.setattr(ex, "_SWEEP_CODES", 4)
    with mock.patch.object(ex, "_code_ranks", wraps=ex._code_ranks) as ranked:
        chunked = ex.verify_finite_field_bound(6, p)
    assert list(chunked.records) == list(whole.records)
    assert chunked.summary == whole.summary
    spans = [(row.shape[1], hi - lo)
             for (row, _, lo, hi), in (c.args for c in ranked.call_args_list)]
    assert all(size <= max(4, 1 << (n - 1)) for n, size in spans)
    assert [n for n, _ in spans].count(6) == 2**15 // 32


@pytest.mark.parametrize("p", [2, 3, 5])
def test_finite_field_bound_records_are_the_minrank_summaries(p):
    """Each n's floor record carries the min rank, violation count and bound
    of the exhaustive min-rank search over the same cycling weights."""
    rep = ex.verify_finite_field_bound(6, p)
    assert [rec["n"] for rec in rep.records] == list(range(1, 7))
    for rec in rep.records:
        summary = ex.minrank_exhaustive(ex.cycling_weights(GF(p), rec["n"])).summary
        assert rec["min_rank"] == summary["min_rank"]
        assert rec["violations"] == summary["violations"]
        assert rec["bound"] == summary["ff_bound"]


def test_finite_field_bound_memory_does_not_grow_with_the_code_space():
    """n = 7 has 64 times the codes of n = 6, but the floor holds at most one
    chunk of ranks at a time, so its peak allocation barely moves."""
    def peak(n_max):
        tracemalloc.start()
        try:
            ex.verify_finite_field_bound(n_max, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(7) <= 1.5 * peak(6)


def test_minrank_pinned_regression():
    rep = ex.minrank_exhaustive(WeightSeq.of(QQ, [1, 2, 3]))
    assert rep.summary["min_rank"] == 3  # det = 2*a1*a2*a3 != 0 for every orientation
    assert rep.summary["rank_histogram"] == {"3": 8}


def test_minrank_constant_weights_single_matrix():
    rep = ex.minrank_exhaustive(WeightSeq.of(QQ, [2, 2, 2]))
    assert rep.summary["min_rank"] == 3
    assert rep.summary["argmin_count"] == 8


def test_minrank_shard_invariance():
    w = ex.cycling_weights(GF(3), 4)
    full = ex.minrank_exhaustive(w)
    left = ex.minrank_exhaustive(w, shard=(0, 40))
    right = ex.minrank_exhaustive(w, shard=(40, 64))
    merged_hist: dict = {}
    for rep in (left, right):
        for k, v in rep.summary["rank_histogram"].items():
            merged_hist[k] = merged_hist.get(k, 0) + v
    assert merged_hist == full.summary["rank_histogram"]
    assert min(left.summary["min_rank"], right.summary["min_rank"]) == full.summary["min_rank"]


def test_minrank_workers_do_not_change_bytes():
    w = ex.cycling_weights(GF(3), 4)
    one = ex.minrank_exhaustive(w, workers=1)
    four = ex.minrank_exhaustive(w, workers=4)
    assert one.to_json(full_records=True) == four.to_json(full_records=True)


def test_montecarlo_pinned_pilot():
    # pinned from a pre-registered pilot run of this exact configuration
    rep = ex.montecarlo_rank(ex.cycling_weights(GF(3), 10), 100, seed=7)
    assert rep.summary["min_rank"] == 8
    assert rep.summary["rank_histogram"] == {"8": 2, "9": 36, "10": 62}
    assert rep.summary["bound_vacuous"] is True
    assert rep.passed


def test_montecarlo_repeat_run_byte_identical():
    w = ex.cycling_weights(GF(3), 8)
    a = ex.montecarlo_rank(w, 40, seed=5)
    b = ex.montecarlo_rank(w, 40, seed=5)
    assert a.to_json(full_records=True) == b.to_json(full_records=True)
    c = ex.montecarlo_rank(w, 40, seed=6)
    assert a.to_json() != c.to_json()


def test_montecarlo_worker_invariance():
    w = ex.cycling_weights(GF(3), 8)
    one = ex.montecarlo_rank(w, 30, seed=5, workers=1)
    four = ex.montecarlo_rank(w, 30, seed=5, workers=4)
    assert one.to_json(full_records=True) == four.to_json(full_records=True)


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_montecarlo_ranks_stacks_and_builds_no_matrix_one_by_one(field):
    """Samples are built from stream bits and ranked as stacks: no
    `random_tournament`, per-matrix build, `rank()` or single-matrix
    elimination at n = 50, and the ranks of the per-matrix path."""
    w = ex.cycling_weights(field, 50)
    with _no_per_matrix_names() as (rank_calls, builds), \
            mock.patch.object(ex, "random_tournament", wraps=random_tournament,
                              create=True) as draws, \
            mock.patch.object(matrices_mod, "DenseMatrix",
                              wraps=matrices_mod.DenseMatrix) as dense_builds, \
            mock.patch.object(rank_mod, "_eliminate_mod_p",
                              wraps=rank_mod._eliminate_mod_p) as eliminations:
        rep = ex.montecarlo_rank(w, 30, seed=4)
        counts = (rank_calls.call_count, builds.call_count, draws.call_count,
                  dense_builds.call_count, eliminations.call_count)
    assert counts == (0, 0, 0, 0, 0)
    assert [rec["rank"] for rec in rep.records] == [
        rank(tournament_matrix(random_tournament(50, 4, i), w)).rank for i in range(30)]


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_montecarlo_bytes_do_not_depend_on_batches_or_workers(field):
    """61 samples at n = 50 make three stacks (26, 26, 9); two workers split
    them at 30, inside the second stack."""
    assert ex._BATCH_ENTRIES // 50**2 == 26
    w = ex.cycling_weights(field, 50)
    one = ex.montecarlo_rank(w, 61, seed=8, workers=1)
    two = ex.montecarlo_rank(w, 61, seed=8, workers=2)
    assert one.to_json(full_records=True) == two.to_json(full_records=True)
    assert [rec["rank"] for rec in one.records] == [
        rank(tournament_matrix(random_tournament(50, 8, i), w)).rank for i in range(61)]


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_montecarlo_wide_samples_are_eliminated_one_at_a_time(field):
    """Past 2 * _PANEL columns a stack is eliminated one matrix at a time,
    and the class pivot keeps n = 2 * _PANEL + 2 samples under cycling
    weights off that path: it takes out one class of 33 vertices and ranks
    the batch's 33-wide complements together by `_stack_echelon`, with no
    `_eliminate_mod_p` call.  Over Q the certificate settles every
    complement, all of full rank; with the certificate patched to certify
    nothing, the complements go to `_stack_echelon` mod the first Q prime."""
    n = 2 * rank_mod._PANEL + 2
    w = ex.cycling_weights(field, n)
    with mock.patch.object(rank_mod, "_eliminate_mod_p",
                           wraps=rank_mod._eliminate_mod_p) as eliminations, \
            mock.patch.object(rank_mod, "_stack_echelon",
                              wraps=rank_mod._stack_echelon) as batches:
        rep = ex.montecarlo_rank(w, 5, seed=2)
    ranks = [rank(tournament_matrix(random_tournament(n, 2, i), w)).rank for i in range(5)]
    assert [rec["rank"] for rec in rep.records] == ranks
    assert eliminations.call_count == 0
    shapes = [(c.args[0].shape, c.args[1]) for c in batches.call_args_list]
    if field.char:
        assert shapes == [((33, 33, 5), 3)]
        return
    assert ranks == [n] * 5 and shapes == []
    with mock.patch.object(rank_mod, "_eliminate_mod_p",
                           wraps=rank_mod._eliminate_mod_p) as eliminations, \
            mock.patch.object(rank_mod, "_stack_echelon",
                              wraps=rank_mod._stack_echelon) as batches, \
            mock.patch.object(rank_mod, "_certified_full", return_value=False):
        assert ex.montecarlo_rank(w, 5, seed=2).records == rep.records
    assert eliminations.call_count == 0
    assert [(c.args[0].shape, c.args[1]) for c in batches.call_args_list] == [
        ((33, 33, 5), rank_mod._prime(0))]


def test_montecarlo_q_at_n50_ranks_25_wide_complements():
    """At n = 50 over Q each cycling class has 25 vertices, so every batch
    (26 samples, then 4) is ranked over Q from its 25-wide complements,
    formed in int64 with no `_product_mod`; they are narrower than _CERT_N,
    so `_certified_full` is never asked."""
    w = ex.cycling_weights(QQ, 50)
    with mock.patch.object(rank_mod, "stack_ranks", wraps=rank_mod.stack_ranks) as ranked, \
            mock.patch.object(rank_mod, "_certified_full",
                              wraps=rank_mod._certified_full) as certified, \
            mock.patch.object(rank_mod, "_product_mod", wraps=rank_mod._product_mod) as products:
        rep = ex.montecarlo_rank(w, 30, seed=3)
    assert [c.args[0].shape for c in ranked.call_args_list if c.args[1] == 0] == [
        (26, 25, 25), (4, 25, 25)]
    assert certified.call_count == 0
    assert products.call_count == 0
    assert [rec["rank"] for rec in rep.records] == [
        rank(tournament_matrix(random_tournament(50, 3, i), w)).rank for i in range(30)]


def test_montecarlo_gf3_at_n200_pivots_on_k_minus_1_vertices():
    """At n = 200 over GF(3) each cycling class has k = 100 vertices and 3
    divides k - 1, so the pivot block is 99 of them and each sample's
    complement is 101 wide: one `_product_mod` of 99 terms per batch."""
    w = ex.cycling_weights(GF(3), 200)
    with mock.patch.object(rank_mod, "stack_ranks", wraps=rank_mod.stack_ranks) as ranked, \
            mock.patch.object(rank_mod, "_product_mod", wraps=rank_mod._product_mod) as products:
        rep = ex.montecarlo_rank(w, 3, seed=1)
    assert [c.args[0].shape for c in ranked.call_args_list] == [(1, 101, 101)] * 3
    assert [c.args[0].shape for c in products.call_args_list] == [(1, 101, 99)] * 3
    assert [rec["rank"] for rec in rep.records] == [
        rank(tournament_matrix(random_tournament(200, 1, i), w)).rank for i in range(3)]


def test_montecarlo_char2_refusal():
    rep = ex.montecarlo_rank(ex.cycling_weights(GF(2), 6), 10, seed=1)
    assert rep.parameters["theorem_check"].startswith("refused")
    assert rep.summary["rank_histogram"]  # histogram still produced
    assert rep.passed


def test_perm_scan_constant_weights_single_rank():
    w = WeightSeq.of(QQ, [3, 3, 3, 3])
    rep = ex.perm_scan(random_tournament(4, 2, 0), w, mode="all")
    assert len(rep.summary["distinct_ranks"]) == 1
    assert rep.summary["scanned"] == 24
    assert rep.summary["exploratory"] is True


def test_perm_scan_contains_reversal_rank():
    # the reversed tournament's matrix is the same tournament with permuted
    # weights, so its rank must appear in the full scan
    w = WeightSeq.of(QQ, [1, 2, 3, 4, 7])
    t = random_tournament(5, 3, 1)
    rev_rank = rank(tournament_matrix(t.reverse(), w)).rank
    rep = ex.perm_scan(t, w, mode="all")
    assert rev_rank in rep.summary["distinct_ranks"]


@pytest.mark.parametrize("weights", [
    WeightSeq.of(GF(5), [1, 2, 3, 4, 2, 1]),
    WeightSeq.of(QQ, [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 2,
                      Fraction(2, 3)]),
], ids=["GF5", "Q-fractions"])
def test_perm_scan_matches_each_permuted_matrix(weights):
    """Every rank count and first witness of a full scan, against `rank()` of
    `tournament_matrix` with value k of the weights set to value perm[k] - 1.
    Some witnesses are not involutions, so the inverse permutation fails."""
    t = random_tournament(6, 1, 0)
    rep = ex.perm_scan(t, weights, mode="all")
    perms_by_rank = {}
    for perm in itertools.permutations(range(1, 7)):
        permuted = WeightSeq(weights.field, tuple(weights[p - 1] for p in perm))
        perms_by_rank.setdefault(rank(tournament_matrix(t, permuted)).rank, []).append(list(perm))
    assert len(perms_by_rank) > 1
    assert rep.records == [{"rank": r, "count": len(perms), "witness_perm": perms[0]}
                           for r, perms in sorted(perms_by_rank.items())]
    with pytest.raises(LengthMismatchError):
        ex.perm_scan(random_tournament(5, 7, 0), weights)


def test_perm_scan_limits_and_sampling():
    w = ex.cycling_weights(QQ, 10)
    with pytest.raises(ex.TooManyPermutationsError):
        ex.perm_scan(random_tournament(10, 1, 0), w, mode="all")
    rep = ex.perm_scan(random_tournament(10, 1, 0), w, mode="sample",
                       sample=5, seed=2)
    assert rep.summary["scanned"] == 5


def test_report_json_shape_and_elision():
    rep = Report("demo", {"n": 3}, [{"i": k, "pass": True} for k in range(5)],
                 {"violations": 0})
    doc = json.loads(rep.to_json())
    assert doc["experiment_id"] == "demo"
    assert len(doc["records"]) == 5
    big = Report("demo", {}, [{"i": k} for k in range(5000)], {"violations": 0})
    doc = json.loads(big.to_json())
    assert "records" not in doc and doc["records_elided"] == 5000
    doc = json.loads(big.to_json(full_records=True))
    assert len(doc["records"]) == 5000


def test_report_csv():
    rep = Report("demo", {}, [{"i": 0, "rank": 3, "pass": True},
                              {"i": 1, "rank": 2, "pass": False}], {"violations": 1})
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "i,rank,pass"
    assert lines[2] == "1,2,false"
    assert not rep.passed


def test_record_table_reads_as_a_list_of_dicts():
    """Indexing (negative too), slices, iteration and len of the column table
    give the dicts a list of records would hold, and its ranks are read-only."""
    ranks = np.array([3, 1, 2, 2, 0], dtype=np.int8)
    table = RecordTable(40, ranks, 2)
    dicts = [{"code": 40 + i, "rank": int(r), "pass": int(r) >= 2} for i, r in enumerate(ranks)]
    assert len(table) == 5 and list(table) == dicts
    assert [table[i] for i in range(-5, 5)] == dicts * 2
    assert table[1:4] == dicts[1:4] and table[::-2] == dicts[::-2]
    assert type(table[0]["rank"]) is int and table[-1] == {"code": 44, "rank": 0, "pass": False}
    with pytest.raises(IndexError):
        table[5]
    with pytest.raises(ValueError):
        table.ranks[0] = 7
    ranks[0] = 7  # the caller's array stays writable; the table reads it
    assert table[0]["rank"] == 7


def test_record_table_csv_and_json_match_dict_records(monkeypatch):
    """The same bytes from the table as from its dicts, in chunks of three rows
    (so the last is short) and of one chunk; an elided report never builds a
    record."""
    table = RecordTable(1000, np.array([5, 4, 6, 4, 5, 6, 6, 3], dtype=np.int8), 5)
    as_table = Report("minrank-exhaustive", {}, table, {"violations": 3})
    as_dicts = Report("minrank-exhaustive", {}, list(table), {"violations": 3})
    one_chunk = as_table.to_csv()
    assert one_chunk == as_dicts.to_csv() and one_chunk.startswith("code,rank,pass\n1000,5,true\n")
    monkeypatch.setattr(report_mod, "CSV_CHUNK_ROWS", 3)
    assert len(list(as_table.csv_chunks())) == 1 + 3
    assert as_table.to_csv() == one_chunk == as_dicts.to_csv()
    assert as_table.to_json(full_records=True) == as_dicts.to_json(full_records=True)
    monkeypatch.setattr(report_mod, "RECORD_ELIDE_THRESHOLD", 7)
    with mock.patch.object(RecordTable, "__getitem__", side_effect=AssertionError), \
            mock.patch.object(RecordTable, "__iter__", side_effect=AssertionError):
        assert json.loads(as_table.to_json())["records_elided"] == 8


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, report_mod.CSV_CHUNK_ROWS])
def test_record_table_csv_matches_the_cell_path(monkeypatch, chunk_rows):
    """Derandomized: the table's numpy-built CSV is the text the dict path
    formats cell by cell, for codes that cross powers of ten up to n=9-sized
    codes, one-row tables, rank-0 rows, every int8 rank, and need 0, inside
    and above every rank; every chunk is a str."""
    monkeypatch.setattr(report_mod, "CSV_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(18)
    for lo in (0, 1, 9, 95, 999_990, 2**28 - 3, 2**36 - 5):
        for rows in (1, 23):
            ranks = rng.integers(0, 128, rows).astype(np.int8)
            ranks[::4] = 0
            for need in (0, 5, int(ranks.max()) + 1):
                table = RecordTable(lo, ranks, need)
                chunks = list(Report("minrank-exhaustive", {}, table).csv_chunks())
                assert all(type(c) is str for c in chunks)
                assert len(chunks) == 1 + -(-rows // chunk_rows)
                assert "".join(chunks) == Report("minrank-exhaustive", {}, list(table)).to_csv()


def test_minrank_holds_its_records_as_columns():
    """An exhaustive sweep keeps one int8 rank per code and reduces it to the
    summary: min, argmin count, the first 16 argmins and the histogram."""
    field = GF(3)
    w = ex.cycling_weights(field, 5)
    rep = ex.minrank_exhaustive(w, shard=(3, 1000))
    assert isinstance(rep.records, RecordTable) and rep.records.ranks.dtype == np.int8
    ranks = [rank(tournament_matrix(Tournament(5, c), w)).rank for c in enumerate_all(5, 3, 1000)]
    low = min(ranks)
    argmin = [3 + i for i, r in enumerate(ranks) if r == low]
    assert rep.summary["min_rank"] == low and rep.summary["argmin_count"] == len(argmin)
    assert rep.summary["argmin_codes"] == argmin[:ex.ARGMIN_CODES_KEPT]
    assert rep.summary["rank_histogram"] == {str(r): ranks.count(r) for r in set(ranks)}
    assert [rec["rank"] for rec in rep.records] == ranks


@pytest.mark.parametrize("n, field, shard", [(5, GF(5), (0, 30)), (6, GF(3), None)])
def test_minrank_argmins_scan_in_slices(monkeypatch, n, field, shard):
    """The argmins are found slice by slice: with 5-entry slices the summary is
    the same, whether the argmins are fewer than 16 or the scan stops early,
    and the kept codes come from several slices."""
    w = ex.cycling_weights(field, n)
    whole = ex.minrank_exhaustive(w, shard=shard)
    monkeypatch.setattr(ex, "_SWEEP_CODES", 5)
    sliced = ex.minrank_exhaustive(w, shard=shard)
    assert sliced.summary == whole.summary
    kept = sliced.summary["argmin_codes"]
    assert len({c // 5 for c in kept}) > 1
    assert len(kept) == min(sliced.summary["argmin_count"], ex.ARGMIN_CODES_KEPT)


def test_wall_time_not_serialized():
    rep = ex.verify_reversal(WeightSeq.of(QQ, [1, 2, 3]))
    assert rep.wall_time_s > 0
    assert "wall_time" not in rep.to_json()


def test_counting_weights():
    assert str(ex.counting_weights(QQ, 5)) == "1,2,3,4,5"
    assert str(ex.counting_weights(GF(3), 5)) == "1,2,1,2,1"
    assert str(ex.counting_weights(GF(2), 3)) == "1,1,1"


def test_transitive_matrix_under_any_order_obeys_floor():
    # uses the builder route rather than the reverse-ranked shortcut
    rep = ex.verify_transitive(range(3, 6), GF(7), trials=8, seed=12)
    kinds = {rec["kind"] for rec in rep.records}
    assert kinds == {"reverse_ranked", "random_order"}
    assert rep.passed


def test_explicit_empty_tournament_lists_are_refused():
    """A tournament list is no source; a count of none is an empty run."""
    w = ex.counting_weights(QQ, 4)
    with pytest.raises(ex.TournamentSourceError):
        ex.verify_reversal(w, tournaments=[Tournament(4, 3)])
    with pytest.raises(ex.TournamentSourceError):
        ex.verify_f_ensemble(w, 2, 3, tournaments=iter([]))
    with pytest.raises(ex.EmptyRunError):
        ex.verify_reversal(w, tournaments=0)
    with pytest.raises(ex.EmptyRunError):
        ex.verify_f_ensemble(w, 2, 3, tournaments=-1)


# Sweeps whose multi-batch paths no golden case reaches; each case fits one default batch
_BATCHED_SWEEPS = {
    "transitive": lambda: ex.verify_transitive(range(3, 8), GF(5), trials=7, seed=3),
    "lipschitz": lambda: ex.verify_lipschitz(ex.cycling_weights(GF(3), 7), flips=30, seed=2),
    "reversal-exhaustive": lambda: ex.verify_reversal(ex.counting_weights(GF(5), 5)),
    "reversal-sampled": lambda: ex.verify_reversal(ex.counting_weights(QQ, 7), tournaments=25,
                                                   seed=4),
    "f-ensemble": lambda: ex.verify_f_ensemble(ex.counting_weights(QQ, 5), 2, Fraction(1, 3)),
    "perm-scan": lambda: ex.perm_scan(Tournament(5, 300), ex.counting_weights(GF(7), 5)),
}


@pytest.mark.parametrize("name", sorted(_BATCHED_SWEEPS))
def test_report_bytes_do_not_depend_on_batch_size(monkeypatch, name):
    """Batches of 100 entries (two to eleven tournaments or trials) give the
    report bytes of the default batches, in more stacks."""
    calls = []
    for entries in (ex._BATCH_ENTRIES, 100):
        monkeypatch.setattr(ex, "_BATCH_ENTRIES", entries)
        with mock.patch.object(ex, "stack_ranks", wraps=ex.stack_ranks) as ranked:
            calls.append((_BATCHED_SWEEPS[name]().to_json(full_records=True), ranked.call_count))
    (whole, whole_calls), (small, small_calls) = calls
    same = small == whole  # a bool, so that a failure prints no diff of two long reports
    assert same and small_calls > whole_calls


def test_degenerate_runs_raise_named_errors():
    w = ex.cycling_weights(QQ, 4)
    with pytest.raises(ex.EmptyRunError):
        ex.verify_transitive(range(5, 3), QQ)
    with pytest.raises(ex.EmptyRunError):
        ex.verify_transitive(range(3, 6), QQ, sequence_source=[])
    with pytest.raises(ex.EmptyRunError):
        ex.montecarlo_rank(w, 0, seed=1)
    with pytest.raises(ex.EmptyRunError):
        ex.verify_certifiability(1, [QQ])
    with pytest.raises(ex.BadRangeError):
        ex.verify_lipschitz(ex.cycling_weights(QQ, 1))
    for field in (GF(3), QQ):
        with pytest.raises(ex.BadRangeError):
            ex.minrank_exhaustive(WeightSeq(field, ()))
    with pytest.raises(FieldMismatchError):  # the mix must come from the weights' field
        ex.verify_f_ensemble(w, GF(5).one, 2)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    requested = []

    def __init__(self, max_workers, mp_context=None):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, cpus, expected", [
    (10_000, 2, 2),    # clamped to the CPU count
    (10_000, 64, 20),  # clamped to the number of chunks (one per sample)
    (3, 64, 3),
])
def test_worker_pool_is_clamped(monkeypatch, workers, cpus, expected):
    _RecordingPool.requested = []
    monkeypatch.setattr(ex, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(ex.os, "cpu_count", lambda: cpus)
    w = ex.cycling_weights(GF(3), 6)
    rep = ex.montecarlo_rank(w, 20, seed=3, workers=workers)
    assert _RecordingPool.requested == [expected]
    serial = ex.montecarlo_rank(w, 20, seed=3, workers=1)
    assert rep.to_json(full_records=True) == serial.to_json(full_records=True)


def _report_blas_threads(names):
    """Pool job: the BLAS thread settings the worker process started with."""
    return [os.environ.get(name) for name in names]


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    """Workers are spawned with one OpenBLAS / OpenMP thread each; the parent's
    environment is left as it was."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(ex.os, "cpu_count", lambda: 2)
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
    assert ex._run_chunks(_report_blas_threads, [names, names], 2) == [["1", "1"]] * 2
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "OMP_NUM_THREADS" not in os.environ


@contextlib.contextmanager
def _no_per_matrix_names():
    """Spies on the names `rank` and `tournament_matrix` in `experiments`, which
    no longer imports them: any code there that calls either by name calls a spy."""
    with mock.patch.object(ex, "rank", wraps=rank, create=True) as rank_calls, \
            mock.patch.object(ex, "tournament_matrix", wraps=tournament_matrix,
                              create=True) as builds:
        yield rank_calls, builds


def test_prime_field_sweeps_build_and_rank_no_matrix_one_by_one():
    """Exhaustive sweeps and the five stack verifiers rank stacks over GF(p)
    and over Q alike.  Every per-matrix builder (`tournament_matrix`,
    `transitive_matrix`, `ratio_matrix`) constructs its matrix by the name
    `DenseMatrix` in `matrices`, so a spy on that name counts them all; a
    sweep's weight row, cleared by the classmethod `DenseMatrix.from_rows`, is
    not counted.  No matrix here is wider than one panel, so none is
    eliminated on its own."""
    with _no_per_matrix_names() as (rank_calls, builds), \
            mock.patch.object(matrices_mod, "DenseMatrix",
                              wraps=matrices_mod.DenseMatrix) as dense_builds, \
            mock.patch.object(rank_mod, "_eliminate_mod_p",
                              wraps=rank_mod._eliminate_mod_p) as eliminations:
        ex.minrank_exhaustive(ex.cycling_weights(GF(3), 5))
        ex.verify_finite_field_bound(5, 3)
        assert rank_calls.call_count == 0
        assert builds.call_count == 0
        ex.minrank_exhaustive(ex.counting_weights(QQ, 4))
        assert rank_calls.call_count == 0
        assert builds.call_count == 0
        for field in (GF(3), QQ):
            weights = ex.counting_weights(field, 5)
            assert ex.verify_transitive(range(3, 7), field, trials=3, seed=1).passed
            assert ex.verify_reversal(weights).passed
            assert ex.verify_f_ensemble(weights, 4, 1, tournaments=20, seed=1).passed
            assert ex.verify_lipschitz(weights, flips=20, seed=1).passed
            assert ex.verify_constant_seq(range(2, 8), [field]).passed
            ex.perm_scan(Tournament(5, 300), weights, mode="sample", sample=30, seed=1)
        counts = (rank_calls.call_count, builds.call_count, dense_builds.call_count,
                  eliminations.call_count)
        assert counts == (0, 0, 0, 0)


@pytest.mark.parametrize("field, values, alpha, beta", [
    (GF(2**31 - 1), [2**31 - 2, 5, 2**30, 7, 1], 2**31 - 2, 2**31 - 3),
    (QQ, [2**62, -3, Fraction(2**70, 3), 5, Fraction(1, 7)], 2**40 + 1, Fraction(-1, 9)),
    (QQ, [1, 2, 3, 4, 5], Fraction(1, 2), Fraction(1, 3)),
], ids=["word-prime", "q-past-int64", "q-fractional-mix"])
def test_mix_sweep_matches_matrices_built_one_by_one(field, values, alpha, beta):
    """The stacked mix a W + b L, its reversal a L + b W and the pair-sum law,
    against the oracle's linear-mix rows and `rank()` per tournament, with
    entries and coefficients near p or past 2**63 over Q."""
    weights = WeightSeq.of(field, values)
    vals = [v.value for v in weights.values]
    a, b = field.scalar(alpha).value, field.scalar(beta).value

    def mix_rank(t):
        return rank(DenseMatrix.from_rows(field, linear_mix_rows(t.bits(), vals, a, b))).rank

    rep = ex.verify_f_ensemble(weights, alpha, beta, tournaments=40, seed=2)
    assert rep.passed and len(rep.records) == 40
    for i, rec in enumerate(rep.records):
        t = random_tournament(5, 2, i)
        assert rec["code"] == t.code and rec["identity_ok"] is True
        assert rec["rank_t"] == mix_rank(t)
        assert rec["rank_rev"] == mix_rank(t.reverse())
    assert ex.verify_reversal(weights).summary["rank_sum_matrix"] == rank(
        DenseMatrix.from_rows(field, pair_sum_rows(vals))).rank


def test_batched_sweep_matches_per_matrix_ranks_across_batches():
    """A shard spanning several batches, starting and ending off a boundary."""
    field = GF(5)
    w = ex.counting_weights(field, 6)
    step = ex._BATCH_ENTRIES // 36  # codes per batch at n = 6
    lo, hi = 3 * step - 7, 5 * step + 11
    rep = ex.minrank_exhaustive(w, shard=(lo, hi))
    expected = [rank(tournament_matrix(Tournament(6, c), w)).rank for c in enumerate_all(6, lo, hi)]
    assert [rec["rank"] for rec in rep.records] == expected
    assert [rec["code"] for rec in rep.records] == list(range(lo, hi))


def test_certify_ranks_blocks_and_takes_no_determinant():
    """Certify ranks stacks of s-blocks, then of (s+1)-blocks where the
    s-block falls short, over GF(p) and over Q alike: no per-matrix
    elimination, which every rank and determinant of a matrix runs."""
    with _no_per_matrix_names() as (rank_calls, builds), \
            mock.patch.object(rank_mod, "_eliminate_mod_p",
                              wraps=rank_mod._eliminate_mod_p) as eliminations:
        assert ex.verify_certifiability(5, [GF(3)]).passed
        assert (rank_calls.call_count, builds.call_count, eliminations.call_count) == (0, 0, 0)
        assert ex.verify_certifiability(4, [QQ]).passed
        assert (rank_calls.call_count, builds.call_count, eliminations.call_count) == (0, 0, 0)


def test_certify_ranks_no_empty_stack():
    """The (s+1)-blocks of a batch are ranked only when some s-block falls
    short, so no stack the sweep ranks is empty."""
    with mock.patch.object(ex, "stack_ranks", wraps=ex.stack_ranks) as ranked:
        assert ex.verify_certifiability(5, [QQ, GF(3)]).passed
    assert all(len(c.args[0]) for c in ranked.call_args_list)


# Weights per field under which some leading minors vanish together; with
# the real certify weights no tournament fails.
_FAILING_WEIGHTS = {GF(3): [1, 2, 1, 2, 1], GF(5): [1, 2, 3, 4, 1], QQ: [1, 2, 3, 4, 5]}


def test_certify_failures_match_per_code_determinants(monkeypatch):
    """Violations and first failing codes, across batches of four codes,
    equal a per-code check of the s x s and (s+1) x (s+1) determinants."""
    monkeypatch.setattr(ex, "_certify_weights",
                        lambda field, n, s, z: WeightSeq.of(field, _FAILING_WEIGHTS[field][:n]))
    monkeypatch.setattr(ex, "_BATCH_ENTRIES", 100)  # 4 codes per batch at n = 5
    rep = ex.verify_certifiability(5, list(_FAILING_WEIGHTS))
    expected = []
    for field, values in _FAILING_WEIGHTS.items():
        for n in range(2, 6):
            w = WeightSeq.of(field, values[:n])
            for s in range(1, n):
                bad = [c for c in enumerate_all(n) if all(determinant(
                    tournament_matrix(Tournament(n, c), w).principal_submatrix(k)).is_zero()
                    for k in (s, s + 1))]
                expected.append((str(field), n, s, len(bad), bad[0] if bad else None))
    got = [(rec["field"], rec["n"], rec["s"], rec["violations"], rec["first_bad_code"])
           for rec in rep.records]
    assert got == expected
    assert rep.summary["violations"] == sum(e[3] for e in expected) > 0
    assert all(e[4] is None or e[4] >= 4 for e in expected)  # found past the first batch
