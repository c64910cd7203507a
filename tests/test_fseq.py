import os
import struct
from datetime import datetime, timezone

import numpy as np
import pytest

from aerotrace.errors import DataError
from aerotrace.fseq import (
    HEADER_SIZE, FseqWriter, chunk_filename, iter_fseq_frames,
    parse_chunk_start, read_fseq_info, write_fseq)
from aerotrace.synth import SceneScript

UTC = timezone.utc


def read_frames(path):
    return np.stack(list(iter_fseq_frames(path)[1]))


def random_frames(rng, n, h, w):
    return rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)


class TestContainer:
    def test_header_layout(self, tmp_path, rng):
        path = tmp_path / "a.fseq"
        frames = random_frames(rng, 3, 730, 1296)
        info = write_fseq(path, frames, fps=10)
        assert (info.width, info.height, info.fps, info.frame_count) == (1296, 730, 10, 3)
        raw = path.read_bytes()
        assert raw[:5] == b"FSEQ1"
        assert struct.unpack("<HHBI", raw[5:HEADER_SIZE]) == (1296, 730, 10, 3)
        assert len(raw) == HEADER_SIZE + 3 * 1296 * 730

    def test_payload_size_formula(self, tmp_path, rng):
        path = tmp_path / "b.fseq"
        frames = random_frames(rng, 3000, 36, 64)
        info = write_fseq(path, frames, fps=10)
        assert info.frame_count == 3000
        assert path.stat().st_size == HEADER_SIZE + 3000 * 64 * 36

    def test_single_frame(self, tmp_path, rng):
        path = tmp_path / "c.fseq"
        write_fseq(path, random_frames(rng, 1, 10, 12), fps=1)
        assert read_fseq_info(path).frame_count == 1

    def test_round_trip_bit_identical(self, tmp_path, rng):
        path = tmp_path / "d.fseq"
        frames = random_frames(rng, 17, 20, 30)
        write_fseq(path, frames, fps=10)
        back = read_frames(path)
        assert np.array_equal(back, frames)

    def test_round_trip_from_generator(self, tmp_path, rng):
        path = tmp_path / "g.fseq"
        frames = random_frames(rng, 4, 6, 7)
        info = write_fseq(path, (f for f in frames), fps=5)
        assert (info.width, info.height, info.fps, info.frame_count) == (7, 6, 5, 4)
        back = read_frames(path)
        assert np.array_equal(back, frames)

    def test_round_trip_non_contiguous_view(self, tmp_path, rng):
        path = tmp_path / "v.fseq"
        big = random_frames(rng, 1, 20, 30)[0]
        view = big[::2, ::2]
        assert not view.flags.c_contiguous
        write_fseq(path, [view, view[::-1]], fps=10)
        back = read_frames(path)
        assert np.array_equal(back, [view, view[::-1]])

    def test_zero_frames_rejected(self, tmp_path):
        path = tmp_path / "z.fseq"
        with pytest.raises(DataError):
            write_fseq(path, (f for f in []), fps=10)
        assert not path.exists()

    def test_streaming_reader(self, tmp_path, rng):
        path = tmp_path / "e.fseq"
        frames = random_frames(rng, 5, 8, 9)
        write_fseq(path, frames, fps=2)
        info, it = iter_fseq_frames(path)
        assert info.fps == 2
        for expected, got in zip(frames, it):
            assert np.array_equal(expected, got)

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "f.fseq"
        write_fseq(path, random_frames(rng, 1, 4, 4), fps=1)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=r"f\.fseq: bad magic b'XSEQ1'$"):
            read_fseq_info(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "g.fseq"
        write_fseq(path, random_frames(rng, 2, 4, 4), fps=1)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(DataError, match=r"g\.fseq: payload is 27 bytes, header implies 32$"):
            read_fseq_info(path)

    def test_file_shrinking_mid_iteration(self, tmp_path, rng):
        path = tmp_path / "s.fseq"
        write_fseq(path, random_frames(rng, 3, 200, 200), fps=1)
        _, frames = iter_fseq_frames(path)
        next(frames)
        os.truncate(path, HEADER_SIZE + 200 * 200 + 1000)
        with pytest.raises(DataError, match=r"s\.fseq: frame 1: read 1000 of 40000 bytes$"):
            next(frames)

    def test_writer_validates_shape(self, tmp_path):
        writer = FseqWriter(tmp_path / "h.fseq", width=4, height=4, fps=1)
        with pytest.raises(DataError):
            writer.add(np.zeros((5, 4), dtype=np.uint8))
        writer.add(np.zeros((4, 4), dtype=np.uint8))
        writer.close()

    def test_dtype_enforced(self, tmp_path):
        writer = FseqWriter(tmp_path / "i.fseq", width=4, height=4, fps=1)
        with pytest.raises(DataError):
            writer.add(np.zeros((4, 4), dtype=np.float32))


class TestFrameCountLimit:
    """The header stores the frame count as a u32."""

    def test_writer_refuses_a_frame_past_the_count(self, tmp_path):
        writer = FseqWriter(tmp_path / "full.fseq", width=4, height=4, fps=1)
        writer.count = 0xFFFFFFFF  # as if that many frames were written
        with pytest.raises(DataError, match="frames"):
            writer.add(np.zeros((4, 4), dtype=np.uint8))
        writer.count = 0
        assert writer.close() == 0  # close checks that no frame bytes were written

    def test_scene_past_the_count_rejected(self):
        assert SceneScript(fps=1, duration_s=0xFFFFFFFF).frame_count == 0xFFFFFFFF
        for fps, duration in ((1, 0xFFFFFFFF + 1), (10, 5e9), (10, 1e308)):
            with pytest.raises(DataError, match="frames"):
                SceneScript(fps=fps, duration_s=duration)


class TestChunkNames:
    def test_round_trip(self):
        start = datetime(2022, 7, 1, 16, 5, 0, tzinfo=UTC)
        name = chunk_filename("node-a", start)
        assert name == "node-a_20220701_160500.fseq"
        assert parse_chunk_start(name) == start

    def test_unparsable_name(self):
        assert parse_chunk_start("scene.fseq") is None

    def test_impossible_date_is_unparsable(self):
        assert parse_chunk_start("node-a_20221399_000000.fseq") is None
