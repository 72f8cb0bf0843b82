"""Unit tests for the daemon micro-batch coalescer."""

import io
import os

import pytest

from repro.serving import BatchingConfig, iter_batches


class TestBatchingConfig:
    def test_defaults(self):
        config = BatchingConfig()
        assert config.max_batch == 16
        assert config.window_ms == 5.0

    def test_rejects_non_positive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=0)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window_ms"):
            BatchingConfig(window_ms=-1.0)


class TestIterBatches:
    """io.StringIO has no selectable fd, so the coalescer drains it
    greedily — everything buffered joins the batch up to max_batch."""

    def test_empty_stream_yields_nothing(self):
        assert list(iter_batches(io.StringIO(""))) == []

    def test_blank_lines_are_skipped(self):
        stream = io.StringIO("\n\n  \na\n\nb\n")
        assert list(iter_batches(stream)) == [["a", "b"]]

    def test_max_batch_splits_the_stream(self):
        stream = io.StringIO("a\nb\nc\nd\ne\n")
        config = BatchingConfig(max_batch=2, window_ms=0)
        assert list(iter_batches(stream, config)) == [
            ["a", "b"], ["c", "d"], ["e"]]

    def test_max_batch_one_is_serial(self):
        stream = io.StringIO("a\nb\nc\n")
        config = BatchingConfig(max_batch=1, window_ms=0)
        assert list(iter_batches(stream, config)) == [["a"], ["b"], ["c"]]

    def test_eof_flushes_partial_batch(self):
        stream = io.StringIO("a\nb")  # no trailing newline
        assert list(iter_batches(stream)) == [["a", "b"]]

    def test_order_is_preserved(self):
        lines = [f"path-{i}" for i in range(40)]
        stream = io.StringIO("\n".join(lines) + "\n")
        config = BatchingConfig(max_batch=7, window_ms=0)
        flat = [line for batch in iter_batches(stream, config)
                for line in batch]
        assert flat == lines

    def test_pipe_stream_respects_window(self):
        """A real pipe is selectable: with a zero window only already-
        buffered lines join, and the reader blocks for each next batch's
        first line (EOF from the closed write end stops it)."""
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\nb\nc\n")
        config = BatchingConfig(max_batch=16, window_ms=50.0)
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader, config))
        assert batches == [["a", "b", "c"]]


@pytest.mark.parametrize("max_batch", [1, 2, 7, 16])
@pytest.mark.parametrize("lines", [0, 1, 5, 16, 17, 40])
def test_buffered_stream_fills_every_batch_but_the_last(lines, max_batch):
    """A fully buffered stream is cut into full batches of ``max_batch``
    and one final remainder, in arrival order, with nothing dropped."""
    paths = [f"ds-{i}.npz" for i in range(lines)]
    stream = io.StringIO("".join(f"{p}\n" for p in paths))
    batches = list(iter_batches(stream, BatchingConfig(max_batch=max_batch,
                                                       window_ms=0)))
    assert [p for batch in batches for p in batch] == paths
    assert all(len(batch) == max_batch for batch in batches[:-1])
    assert all(0 < len(batch) <= max_batch for batch in batches)
    assert len(batches) == -(-lines // max_batch)
