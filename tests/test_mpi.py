"""Simulated-MPI tests: correctness of collectives and sanity of timing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MpiError
from repro.hardware import build_littlefe_modified
from repro.mpi import (
    MpiWorld,
    allgather,
    allreduce,
    alltoall,
    bcast,
    bytes_of,
    effective_bandwidth,
    gather,
    ping_pong,
    reduce,
    scatter,
)
from repro.network import build_cluster_network


def make_world(ranks=12):
    machine = build_littlefe_modified().machine
    net = build_cluster_network(machine)
    hosts = [n.name for n in machine.nodes for _ in range(n.cores)]
    return MpiWorld(net.fabric, hosts[:ranks])


class TestPointToPoint:
    def test_send_recv_payload(self):
        w = make_world(4)
        w.send(0, 3, {"n": 42})
        assert w.recv(3, 0) == {"n": 42}

    def test_fifo_per_tag(self):
        w = make_world(2)
        w.send(0, 1, "first")
        w.send(0, 1, "second")
        assert w.recv(1, 0) == "first"
        assert w.recv(1, 0) == "second"

    def test_tags_are_independent_queues(self):
        w = make_world(2)
        w.send(0, 1, "a", tag=1)
        w.send(0, 1, "b", tag=2)
        assert w.recv(1, 0, tag=2) == "b"
        assert w.recv(1, 0, tag=1) == "a"

    def test_recv_without_send_raises(self):
        w = make_world(2)
        with pytest.raises(MpiError, match="no message pending"):
            w.recv(1, 0)

    def test_send_to_self_rejected(self):
        w = make_world(2)
        with pytest.raises(MpiError):
            w.send(0, 0, "x")

    def test_clocks_advance_monotonically(self):
        w = make_world(4)
        w.send(0, 1, b"x" * 1024)
        w.recv(1, 0)
        assert w.clocks[0] > 0
        assert w.clocks[1] >= w.clocks[0] * 0.5

    def test_cross_node_slower_than_same_node(self):
        w = make_world(12)
        # ranks 0,1 share the head node; rank 2 is on compute-0-0
        same = w.transfer_time_s(0, 1, 1 << 20)
        cross = w.transfer_time_s(0, 2, 1 << 20)
        assert cross > same

    def test_rank_bounds_checked(self):
        w = make_world(2)
        with pytest.raises(MpiError, match="out of range"):
            w.send(0, 5, "x")

    def test_bytes_of_shapes(self):
        assert bytes_of(b"abcd") == 4
        assert bytes_of("abc") == 3
        assert bytes_of([1.0, 2.0, 3.0]) == 24
        assert bytes_of(3.14) == 8
        import numpy as np

        assert bytes_of(np.zeros(10)) == 80

    @given(
        st.recursive(
            st.one_of(
                st.floats(allow_nan=False),
                st.integers(),
                st.booleans(),
                st.none(),
                st.text(max_size=4),
                st.binary(max_size=4),
                st.builds(bytearray, st.binary(max_size=4)),
                st.integers(0, 5).map(lambda n: _np().zeros(n)),
                st.integers(0, 5).map(lambda n: _np().int32(n)),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=6),
                st.lists(inner, max_size=6).map(tuple),
            ),
            max_leaves=24,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_of_matches_recursive_definition(self, payload):
        """Flat numeric lists take a one-pass path; every payload, nested,
        mixed or carrying ``nbytes``, still sizes as the recursive rule."""
        assert bytes_of(payload) == _recursive_bytes_of(payload)


def _np():
    import numpy as np

    return np


def _recursive_bytes_of(data):
    """``bytes_of`` as first defined: one call per element."""
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, str):
        return len(data.encode())
    if isinstance(data, (list, tuple)):
        return sum(_recursive_bytes_of(x) for x in data)
    if hasattr(data, "nbytes"):
        return int(data.nbytes)
    return 8


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 12])
class TestCollectivesAllSizes:
    def test_bcast(self, p):
        w = make_world(p)
        assert bcast(w, "payload") == ["payload"] * p

    def test_bcast_nonzero_root(self, p):
        w = make_world(p)
        assert bcast(w, 7, root=p - 1) == [7] * p

    def test_reduce_sum(self, p):
        w = make_world(p)
        assert reduce(w, list(range(p)), lambda a, b: a + b) == sum(range(p))

    def test_allreduce_matches_sequential(self, p):
        w = make_world(p)
        out = allreduce(w, [float(i + 1) for i in range(p)], lambda a, b: a + b)
        expected = sum(range(1, p + 1))
        assert all(abs(x - expected) < 1e-9 for x in out)

    def test_gather_rank_order(self, p):
        w = make_world(p)
        assert gather(w, [f"r{i}" for i in range(p)]) == [f"r{i}" for i in range(p)]

    def test_scatter(self, p):
        w = make_world(p)
        assert scatter(w, [i * i for i in range(p)]) == [i * i for i in range(p)]

    def test_allgather_every_rank_complete(self, p):
        w = make_world(p)
        for row in allgather(w, list(range(p))):
            assert row == list(range(p))

    def test_alltoall_transpose(self, p):
        w = make_world(p)
        matrix = [[(i, j) for j in range(p)] for i in range(p)]
        out = alltoall(w, matrix)
        for i in range(p):
            for j in range(p):
                assert out[i][j] == (j, i)


class TestCollectiveCosts:
    def test_allreduce_cost_grows_with_size(self):
        w = make_world(8)
        w.reset_clocks()
        allreduce(w, [[1.0] * 10] * 8, lambda a, b: [x + y for x, y in zip(a, b)])
        small = w.elapsed_s
        w.reset_clocks()
        allreduce(w, [[1.0] * 10000] * 8, lambda a, b: [x + y for x, y in zip(a, b)])
        large = w.elapsed_s
        assert large > small

    def test_barrier_synchronises(self):
        w = make_world(6)
        w.send(0, 1, b"x" * 4096)
        w.recv(1, 0)
        w.barrier()
        assert len(set(w.clocks)) == 1

    def test_traffic_counters(self):
        w = make_world(4)
        w.send(0, 1, b"x" * 100)
        assert w.bytes_sent == 100
        assert w.message_count == 1

    def test_world_needs_attached_hosts(self, littlefe_network):
        with pytest.raises(MpiError, match="not attached"):
            MpiWorld(littlefe_network.fabric, ["ghost-host"])


class TestMicrobenchmarks:
    def test_ping_pong_latency_floor_and_bandwidth_ceiling(self):
        w = make_world(12)
        pts = ping_pong(w, src=2, dst=4, sizes=[8, 1 << 20])
        assert pts[0].round_trip_s < pts[1].round_trip_s
        assert pts[1].bandwidth_bytes_s > pts[0].bandwidth_bytes_s
        # GigE: asymptotic one-way bandwidth below line rate
        assert effective_bandwidth(pts) < 1.25e8

    def test_ping_pong_needs_two_ranks(self):
        with pytest.raises(MpiError):
            ping_pong(make_world(1))

    def test_empty_sweep_rejected(self):
        with pytest.raises(MpiError):
            effective_bandwidth([])


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=25, deadline=None)
def test_property_allreduce_equals_sequential_reduce(p, data):
    values = data.draw(
        st.lists(
            st.integers(min_value=-1000, max_value=1000), min_size=p, max_size=p
        )
    )
    w = make_world(p)
    out = allreduce(w, values, lambda a, b: a + b)
    assert out == [sum(values)] * p


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=15, deadline=None)
def test_property_collective_time_monotone_in_ranks(p):
    """More ranks never makes the same allreduce cheaper."""
    small, big = make_world(p - 1), make_world(p)
    payload = [1.0] * 256
    small.reset_clocks()
    allreduce(small, [payload] * (p - 1), lambda a, b: a)
    big.reset_clocks()
    allreduce(big, [payload] * p, lambda a, b: a)
    assert big.elapsed_s >= small.elapsed_s * 0.5  # allow placement wobble
