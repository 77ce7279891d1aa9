"""Golden bytes of the WAL and journal record framing.

The hex strings below were recorded from the WAL and journal encoders
before their framing moved into :mod:`repro.utils.recordlog`.  They pin
the on-disk format: a WAL or journal written by an older build must scan
the same, and a new build must write the same bytes.  Both scans are
checked on files built from these bytes — the WAL stops at a torn tail,
the journal skips a corrupt middle record and resynchronizes.
"""

from __future__ import annotations

import pytest

from repro.mutation.wal import WAL_NAME, encode_record, read_wal
from repro.obs.journal import encode_event, scan_journal
from repro.utils.recordlog import unframe

WAL_RECORDS = [
    (
        {"kind": "header", "format": 1, "base_txn": 0},
        "5257414c290000004cef8f717b226b696e64223a22686561646572222c22666f726d6174"
        "223a312c22626173655f74786e223a307d",
    ),
    (
        {
            "kind": "op",
            "txn": 1,
            "table": "T0",
            "op": "append",
            "rows": [{"id": 7, "A1": 0.25, "name": "x"}],
        },
        "5257414c57000000d890c5087b226b696e64223a226f70222c2274786e223a312c227461"
        "626c65223a225430222c226f70223a22617070656e64222c22726f7773223a5b7b226964"
        "223a372c224131223a302e32352c226e616d65223a2278227d5d7d",
    ),
    (
        {"kind": "op", "txn": 1, "table": "T0", "op": "delete", "positions": [3, 5]},
        "5257414c42000000f92634957b226b696e64223a226f70222c2274786e223a312c227461"
        "626c65223a225430222c226f70223a2264656c657465222c22706f736974696f6e7322"
        "3a5b332c355d7d",
    ),
    (
        {"kind": "commit", "txn": 1},
        "5257414c19000000380e5a087b226b696e64223a22636f6d6d6974222c2274786e223a317d",
    ),
]

JOURNAL_EVENTS = [
    (
        {"kind": "query", "seq": 0, "ts": 1.5, "fingerprint": "abc", "rows": 3},
        "5245564a3e000000f9d967c57b2266696e6765727072696e74223a22616263222c226b69"
        "6e64223a227175657279222c22726f7773223a332c22736571223a302c227473223a312e"
        "357d",
    ),
    (
        {
            "kind": "slow_query",
            "seq": 1,
            "ts": 2.0,
            "planner": "tcombined",
            "elapsed_seconds": 0.75,
        },
        "5245564a530000001557c8a87b22656c61707365645f7365636f6e6473223a302e37352c"
        "226b696e64223a22736c6f775f7175657279222c22706c616e6e6572223a2274636f6d62"
        "696e6564222c22736571223a312c227473223a322e307d",
    ),
]


@pytest.mark.parametrize("payload, golden", WAL_RECORDS)
def test_wal_record_bytes(payload, golden):
    record = bytes.fromhex(golden)
    assert encode_record(payload) == record
    assert unframe(b"RWAL", record, 0) == (payload, len(record))
    assert unframe(b"REVJ", record, 0) is None


@pytest.mark.parametrize("payload, golden", JOURNAL_EVENTS)
def test_journal_event_bytes(payload, golden):
    record = bytes.fromhex(golden)
    assert encode_event(payload) == record
    assert unframe(b"REVJ", record, 0) == (payload, len(record))
    assert unframe(b"RWAL", record, 0) is None


def test_wal_scan_stops_at_torn_tail(tmp_path):
    records = [bytes.fromhex(golden) for _payload, golden in WAL_RECORDS]
    intact = b"".join(records)
    torn = records[1][: len(records[1]) // 2]  # a crash mid-append of the next op
    (tmp_path / WAL_NAME).write_bytes(intact + torn)

    state = read_wal(tmp_path)
    assert state.base_txn == 0
    assert [txn.txn for txn in state.committed] == [1]
    assert state.committed[0].ops == [
        {"table": "T0", "op": "append", "rows": [{"id": 7, "A1": 0.25, "name": "x"}]},
        {"table": "T0", "op": "delete", "positions": [3, 5]},
    ]
    assert state.records == 4
    assert state.valid_length == len(intact) == 267
    assert state.tail_bytes == len(torn)


def test_journal_scan_skips_corrupt_middle_record(tmp_path):
    first, second = (bytes.fromhex(golden) for _payload, golden in JOURNAL_EVENTS)
    damaged = bytearray(second)
    damaged[20] ^= 0xFF  # one payload byte: the checksum no longer matches
    path = tmp_path / "events.journal"
    path.write_bytes(first + bytes(damaged) + first + second)

    scan = scan_journal(path)
    assert scan.events == [JOURNAL_EVENTS[0][0], JOURNAL_EVENTS[0][0], JOURNAL_EVENTS[1][0]]
    assert scan.skipped == 1
    assert scan.valid_length == scan.total_length == 2 * len(first) + 2 * len(second)
    assert scan.last_seq == 1
