import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec.batching import (REL_IN, REL_INOUT, REL_OUT, REL_SELF, collate,
                              pack_example)
from sessrec.graphs import (build_global_graph, cooccurrence_weights, csr,
                            read_global_graph, write_global_graph)


def pair_weights(sequences, epsilon):
    """cooccurrence_weights of a list of sequences as {(a, b): weight}."""
    a, b, w = cooccurrence_weights(*csr(sequences), epsilon)
    return dict(zip(zip(a.tolist(), b.tolist()), w.tolist()))


def brute_force_pair_weights(sequences, epsilon):
    """Independent oracle: enumerate all (session, i, j) with 0 < j - i <= epsilon
    and tally unordered distinct-item pairs."""
    tally = {}
    for seq in sequences:
        for i in range(len(seq)):
            for j in range(len(seq)):
                if i < j <= i + epsilon and seq[i] != seq[j]:
                    key = frozenset((seq[i], seq[j]))
                    tally[key] = tally.get(key, 0) + 1
    return tally


def session_graph(seq):
    """(nodes, alias, rel) of one sequence, packed and collated on its own."""
    pack = pack_example(tuple(seq), 1, None, 0)
    return pack.frontier_items.tolist(), pack.alias.tolist(), collate([pack]).rel[0]


def session_transitions(rel):
    """Recover the set of directed transitions encoded in the relations."""
    out = set()
    n = len(rel)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = rel[i, j]
            if r == REL_OUT or r == REL_INOUT:
                out.add((i, j))
            elif r == REL_IN:
                out.add((j, i))
    return out


def brute_force_relations(seq):
    """Independent classifier of session-graph relations from the set of
    directed adjacent pairs."""
    nodes = list(dict.fromkeys(seq))
    slot = {v: i for i, v in enumerate(nodes)}
    pairs = {(slot[a], slot[b]) for a, b in zip(seq, seq[1:]) if a != b}
    n = len(nodes)
    rel = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            if i == j:
                rel[i, j] = REL_SELF
            elif (i, j) in pairs and (j, i) in pairs:
                rel[i, j] = REL_INOUT
            elif (i, j) in pairs:
                rel[i, j] = REL_OUT
            elif (j, i) in pairs:
                rel[i, j] = REL_IN
    return nodes, rel


class TestSessionGraph:
    def test_single_item_only_self_loop(self):
        nodes, _, rel = session_graph([4])
        assert nodes == [4]
        assert rel[0, 0] == REL_SELF

    def test_hand_enumerated_relations(self):
        # [v1,v2,v3,v2]: transitions 1->2, 2->3, 3->2
        nodes, _, rel = session_graph([1, 2, 3, 2])
        assert nodes == [1, 2, 3]
        assert rel[1, 2] == REL_INOUT and rel[2, 1] == REL_INOUT
        assert rel[0, 1] == REL_OUT and rel[1, 0] == REL_IN
        assert all(rel[i, i] == REL_SELF for i in range(3))
        assert session_transitions(rel) == {(0, 1), (1, 2), (2, 1)}

    def test_self_adjacent_pair_collapses(self):
        _, _, rel = session_graph([1, 1, 2])
        assert session_transitions(rel) == {(0, 1)}

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            pack_example((), 1, None, 0)

    def test_alias_maps_positions_to_slots(self):
        nodes, alias, _ = session_graph([5, 9, 5, 7])
        assert nodes == [5, 9, 7]
        assert alias == [0, 1, 0, 2]

    @given(st.lists(st.integers(1, 8), min_size=1, max_size=15))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_classifier(self, seq):
        nodes, _, rel = session_graph(seq)
        expect_nodes, expect = brute_force_relations(seq)
        assert nodes == expect_nodes
        assert rel.dtype == expect.dtype and np.array_equal(rel, expect)

    def test_relation_antisymmetry_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            seq = rng.integers(1, 7, size=rng.integers(2, 12)).tolist()
            _, _, rel = session_graph(seq)
            n = len(rel)
            for i in range(n):
                assert rel[i, i] == REL_SELF
                for j in range(n):
                    if i == j:
                        continue
                    assert (rel[i, j] == REL_IN) == (rel[j, i] == REL_OUT)
                    assert (rel[i, j] == REL_INOUT) == (rel[j, i] == REL_INOUT)


class TestGlobalGraph:
    def test_window_counts_epsilon_1(self):
        w = pair_weights([[1, 2, 3], [2, 1, 4]], epsilon=1)
        assert w == {(1, 2): 2, (2, 3): 1, (1, 4): 1}

    def test_window_counts_epsilon_2(self):
        w = pair_weights([[1, 2, 3], [2, 1, 4]], epsilon=2)
        assert w == {(1, 2): 2, (2, 3): 1, (1, 4): 1, (1, 3): 1, (2, 4): 1}

    def test_single_pair(self):
        g = build_global_graph(*csr([[1, 2]]), epsilon=3, top_n=1, num_items=2)
        assert g.neighbors(1) == [(2, 1)]
        assert g.neighbors(2) == [(1, 1)]

    def test_isolated_item_empty_list(self):
        g = build_global_graph(*csr([[1, 1], [2, 3]]), epsilon=2, top_n=5, num_items=3)
        assert g.neighbors(1) == []

    def test_truncation_to_top_n(self):
        seqs = [[1, k] for k in range(2, 17)]  # item 1 co-occurs with 15 others
        g = build_global_graph(*csr(seqs), epsilon=1, top_n=12, num_items=16)
        assert len(g.neighbors(1)) == 12

    def test_tie_break_by_ascending_index(self):
        # weights to 1: item2 x3, item3 x3, item4 x1
        seqs = [[2, 1], [1, 2], [2, 1], [3, 1], [1, 3], [3, 1], [1, 4]]
        g = build_global_graph(*csr(seqs), epsilon=1, top_n=2, num_items=4)
        assert g.neighbors(1) == [(2, 3), (3, 3)]

    def test_unknown_item_rejected(self):
        g = build_global_graph(*csr([[1, 2]]), epsilon=1, top_n=5, num_items=2)
        with pytest.raises(KeyError):
            g.neighbors(3)

    def test_neighbor_order_descending_weight_then_index(self):
        rng = np.random.default_rng(1)
        seqs = [rng.integers(1, 12, size=rng.integers(2, 9)).tolist() for _ in range(30)]
        g = build_global_graph(*csr(seqs), epsilon=3, top_n=6, num_items=11)
        for item in range(1, 12):
            nbrs = g.neighbors(item)
            assert nbrs == sorted(nbrs, key=lambda nw: (-nw[1], nw[0]))

    def test_oracle_equivalence_pretruncation(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n_items = int(rng.integers(3, 31))
            seqs = [rng.integers(1, n_items + 1, size=rng.integers(2, 11)).tolist()
                    for _ in range(int(rng.integers(1, 51)))]
            eps = int(rng.integers(1, 4))
            mine = pair_weights(seqs, eps)
            oracle = brute_force_pair_weights(seqs, eps)
            assert {frozenset(k): v for k, v in mine.items()} == oracle

    def test_pruning_monotonicity(self):
        rng = np.random.default_rng(3)
        seqs = [rng.integers(1, 15, size=8).tolist() for _ in range(40)]
        small = build_global_graph(*csr(seqs), epsilon=2, top_n=3, num_items=14)
        large = build_global_graph(*csr(seqs), epsilon=2, top_n=7, num_items=14)
        for item in range(1, 15):
            kept_small = set(small.neighbors(item))
            kept_large = set(large.neighbors(item))
            assert kept_small <= kept_large

    def test_epsilon_monotonicity(self):
        rng = np.random.default_rng(4)
        seqs = [rng.integers(1, 10, size=9).tolist() for _ in range(25)]
        for eps in (1, 2):
            smaller = set(pair_weights(seqs, eps))
            larger = set(pair_weights(seqs, eps + 1))
            assert smaller <= larger

    def test_weight_symmetry_and_integrality(self):
        rng = np.random.default_rng(5)
        seqs = [rng.integers(1, 8, size=6).tolist() for _ in range(20)]
        g = build_global_graph(*csr(seqs), epsilon=3, top_n=100, num_items=7)
        # with no effective truncation the adjacency must be symmetric
        for item, nbrs in g.neighbors_map.items():
            for nbr, w in nbrs:
                assert w >= 1 and isinstance(w, int)
                assert (item, w) in [(i, ww) for i, ww in g.neighbors_map[nbr]]
                assert item != nbr

    def test_per_node_pruning_may_be_asymmetric(self):
        # hub item 1 drops weak neighbors, which still keep the hub: pruning
        # is per node, so the pruned adjacency is allowed to be one-sided
        seqs = [[1, 2]] * 3 + [[1, 3]] * 2 + [[1, 4]]
        g = build_global_graph(*csr(seqs), epsilon=1, top_n=2, num_items=4)
        kept_by_1 = {n for n, _ in g.neighbors(1)}
        assert kept_by_1 == {2, 3}
        assert g.neighbors(4) == [(1, 1)]  # 4 keeps 1 even though 1 dropped 4

    def test_export_round_trip(self, tmp_path):
        g = build_global_graph(*csr([[1, 2, 3], [2, 1, 4]]), epsilon=2, top_n=12, num_items=4)
        path = tmp_path / "graph.tsv"
        write_global_graph(path, g)
        g2 = read_global_graph(path)
        for table, table2 in ((g.nbr, g2.nbr), (g.weight, g2.weight)):
            assert table2.dtype == table.dtype == np.int64 and np.array_equal(table2, table)
        assert (g2.num_items, g2.epsilon, g2.top_n) == (4, 2, 12)
        assert g2.neighbors(1) == [(2, 2), (3, 1), (4, 1)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tables_hold_brute_force_lists_and_survive_the_file(tmp_path_factory, data):
    n_items = data.draw(st.integers(1, 12))
    seqs = data.draw(st.lists(st.lists(st.integers(1, n_items), min_size=1, max_size=10),
                              min_size=1, max_size=15))
    epsilon, top_n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    g = build_global_graph(*csr(seqs), epsilon=epsilon, top_n=top_n, num_items=n_items)
    assert g.nbr.shape == g.weight.shape == (n_items + 1, top_n)

    path = tmp_path_factory.mktemp("graph") / "global_graph.tsv"
    write_global_graph(path, g)
    g2 = read_global_graph(path)
    for table, table2 in ((g.nbr, g2.nbr), (g.weight, g2.weight)):
        assert table2.dtype == table.dtype == np.int64 and np.array_equal(table2, table)
    assert (g2.num_items, g2.epsilon, g2.top_n) == (n_items, epsilon, top_n)

    assert not g.nbr[0].any() and not g.weight[0].any()
    filled = g.nbr > 0
    # filled slots come first and every empty slot weighs 0: `nbr > 0` is the whole mask
    assert np.array_equal(filled, np.arange(top_n) < filled.sum(axis=1, keepdims=True))
    assert np.all(g.weight[~filled] == 0) and np.all(g.weight[filled] > 0)

    lists = {}
    for pair, w in brute_force_pair_weights(seqs, epsilon).items():
        a, b = tuple(pair)
        lists.setdefault(a, []).append((b, w))
        lists.setdefault(b, []).append((a, w))
    for item in range(1, n_items + 1):
        expect = sorted(lists.get(item, []), key=lambda nw: (-nw[1], nw[0]))[:top_n]
        k = len(expect)
        assert g.nbr[item, :k].tolist() == [n for n, _ in expect]
        assert g.weight[item, :k].tolist() == [w for _, w in expect]
        assert not filled[item, k:].any()
