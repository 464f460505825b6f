"""The append-only JSONL contract (repro.obs.stream) under real processes."""

import json
import multiprocessing
import os

import pytest

from repro.obs.stream import JsonlStream, TraceError

N_WRITERS = 4
N_APPENDS = 200


def _write_records(path, writer, start):
    stream = JsonlStream(path)
    start.wait(timeout=30)  # all writers append at once
    for i in range(N_APPENDS):
        # Varying lengths, some well past a pipe-buffer-sized line.
        pad = "x" * ((writer * 131 + i * 97) % 5000)
        stream.append({"writer": writer, "i": i, "pad": pad})
    stream.close()


@pytest.fixture()
def shared(tmp_path):
    """One stream appended to by several forked processes at once."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    ctx = multiprocessing.get_context("fork")
    path = tmp_path / "shared.jsonl"
    start = ctx.Barrier(N_WRITERS)
    procs = [
        ctx.Process(target=_write_records, args=(path, w, start))
        for w in range(N_WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    return path


class TestJsonlStreamContract:
    def test_concurrent_process_appends_never_tear_a_line(self, shared):
        lines = shared.read_bytes().split(b"\n")
        assert lines.pop() == b""  # the file ends on a whole line
        records = [json.loads(line) for line in lines]
        assert len(records) == N_WRITERS * N_APPENDS
        for writer in range(N_WRITERS):
            # One process's appends land in its own order.
            assert [r["i"] for r in records if r["writer"] == writer] == list(
                range(N_APPENDS)
            )
        follower = JsonlStream(shared)
        assert len(follower.poll()) == N_WRITERS * N_APPENDS
        assert follower.n_corrupt == 0

    def test_strict_read_returns_the_rotated_segment_first(self, shared):
        n_before = N_WRITERS * N_APPENDS
        stream = JsonlStream(shared, max_bytes=shared.stat().st_size + 1)
        stream.append({"writer": "after", "i": 0})  # pushes past: rotates
        stream.append({"writer": "after", "i": 1})
        stream.close()
        assert stream.rotated.exists()
        records, truncated = stream.read()
        assert not truncated
        assert len(records) == n_before + 2
        assert all(r["writer"] != "after" for r in records[:n_before])
        assert records[n_before:] == [
            {"writer": "after", "i": 0}, {"writer": "after", "i": 1},
        ]

    def test_torn_tail_is_dropped_and_flagged(self, shared):
        with open(shared, "ab") as fh:
            fh.write(b'{"writer": 9, "i": ')
        records, truncated = JsonlStream(shared).read()
        assert truncated is True
        assert len(records) == N_WRITERS * N_APPENDS

    def test_interior_corruption_raises(self, shared):
        lines = shared.read_bytes().split(b"\n")
        lines[N_APPENDS] = lines[N_APPENDS][: len(lines[N_APPENDS]) // 2]
        shared.write_bytes(b"\n".join(lines))
        with pytest.raises(TraceError, match=f"line {N_APPENDS + 1}"):
            JsonlStream(shared).read()

    def test_missing_stream_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            JsonlStream(tmp_path / "absent.jsonl").read()
        assert JsonlStream(tmp_path / "absent.jsonl").poll() == []
        assert not os.path.exists(tmp_path / "absent.jsonl")


def test_replayed_batch_is_one_write_equal_to_single_appends(tmp_path, monkeypatch):
    from repro.obs.events import EventLog

    captured = EventLog()  # in memory, as a fanned-out experiment records
    for i in range(1000):
        captured.emit("tick", {"i": i}, {"dur_s": i / 7})
    single = JsonlStream(tmp_path / "single.jsonl")
    for record in captured.records:
        single.append(record)
    writes = []
    real_write = os.write
    monkeypatch.setattr(
        os, "write", lambda fd, data: writes.append(fd) or real_write(fd, data)
    )
    EventLog(tmp_path / "replayed.jsonl").extend(captured.records)
    assert len(writes) == 1
    assert JsonlStream(tmp_path / "replayed.jsonl").read() == single.read()
    assert single.read()[0] == captured.records
