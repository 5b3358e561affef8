"""Round-trip properties of the sharded kernel's boundary wire format.

Every frame that crosses a shard boundary travels inside a
:class:`repro.net.batch.BoundaryBatch`; the destination shard rebuilds
the frame from ``decode()``'s rows, so the codec must return exactly the
rows ``ShardRuntime._capture`` staged — values *and* types — both
in-process and after the pickling a worker pipe applies.  CI also runs
this file with ``SDNFV_NO_NUMPY=1`` so the stdlib ``array`` columns are
held to the same oracle as the numpy ones.
"""

import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.batch import BOUNDARY_FIELDS, encode_boundary_events

# Small pools so rows repeat wires, flows and payloads (the dictionary
# tables must dedupe them) while still drawing distinct ones.
hosts = st.sampled_from(["h0", "h1", "h7"])
ports = st.sampled_from(["to-h0", "to-h1", "eth1"])
ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.5.9"])
l4_ports = st.sampled_from([0, 53, 80, 65535])
protocols = st.sampled_from([6, 17])
payloads = st.sampled_from(["", "GET / HTTP/1.1", "x" * 300])
ns = st.integers(min_value=0, max_value=2**63 - 1)

# ``_capture`` encodes a packet's annotations as sorted ``(key, value)``
# pairs, or ``None`` when it carries none; most packets carry none.
annotation_values = st.one_of(st.integers(-2**40, 2**40), st.text(max_size=8),
                              st.booleans(), st.none())
annotations = st.one_of(
    st.none(), st.none(), st.none(),
    st.dictionaries(st.sampled_from(["dscp", "tag", "alarm"]),
                    annotation_values, min_size=1).map(
        lambda found: tuple(sorted(found.items()))))


@st.composite
def boundary_row(draw) -> tuple:
    return (draw(ns), draw(ns), draw(hosts), draw(ports),
            draw(ips), draw(ips), draw(protocols),
            draw(l4_ports), draw(l4_ports),
            draw(st.integers(min_value=1, max_value=9000)),
            draw(payloads), draw(ns), draw(annotations))


rows_strategy = st.lists(boundary_row(), max_size=40)


def assert_same_rows(got: list[tuple], want: list[tuple]) -> None:
    """Equal values and identical types, field by field (``1 == 1.0``
    and ``numpy.int64(1) == 1`` would pass a plain ``==``)."""
    assert type(got) is list
    assert got == want
    for got_row, want_row in zip(got, want):
        assert type(got_row) is tuple
        assert len(got_row) == len(BOUNDARY_FIELDS)
        for field, got_value, want_value in zip(BOUNDARY_FIELDS, got_row,
                                                want_row):
            assert type(got_value) is type(want_value), field
        if want_row[-1] is not None:
            for got_pair, want_pair in zip(got_row[-1], want_row[-1]):
                assert ([type(value) for value in got_pair]
                        == [type(value) for value in want_pair])


class TestBoundaryBatchRoundTrip:
    @given(rows=rows_strategy)
    @example(rows=[])
    @settings(max_examples=200, deadline=None)
    def test_decode_returns_the_rows_exactly(self, rows):
        assert_same_rows(encode_boundary_events(rows).decode(), rows)

    @given(rows=rows_strategy)
    @example(rows=[])
    @settings(max_examples=100, deadline=None)
    def test_pickled_batch_decodes_to_the_same_rows(self, rows):
        batch = encode_boundary_events(rows)
        shipped = pickle.loads(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
        assert_same_rows(shipped.decode(), rows)
        assert shipped.buffer_count() == batch.buffer_count()

    @given(rows=rows_strategy)
    @example(rows=[])
    @settings(max_examples=100, deadline=None)
    def test_buffer_count_is_ten_plus_sparse_annotations(self, rows):
        annotated = any(row[-1] is not None for row in rows)
        batch = encode_boundary_events(rows)
        assert batch.buffer_count() == (11 if annotated else 10)

    @given(rows=rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_side_tables_hold_each_distinct_value_once(self, rows):
        batch = encode_boundary_events(rows)
        assert batch.count == len(rows)
        assert len(batch.wires) == len({row[2:4] for row in rows})
        assert len(batch.flows) == len({row[4:9] for row in rows})
        assert len(batch.payloads) == len({row[10] for row in rows})
