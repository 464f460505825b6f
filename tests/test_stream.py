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
