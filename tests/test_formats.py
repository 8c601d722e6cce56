import io
import os

import numpy as np
import pytest

from embedtrack.formats import (
    FormatError,
    atomic_write,
    read_detections,
    read_mot,
    trackset_to_mot_rows,
    write_detections,
    write_mot,
)
from embedtrack.geometry import BoundingBox
from embedtrack.metrics import ObjectEntry, TrackSet
from embedtrack.synth import WorldConfig, generate


class TestDetectionFiles:
    def test_round_trip_exact(self):
        s = generate(WorldConfig(n_identities=3, n_frames=5, dim=8,
                                 sigma_e=0.2, jitter_sigma=0.5, seed=1))
        buf = io.StringIO()
        write_detections(buf, s.detections, 8)
        buf.seek(0)
        dim, frames = read_detections(buf)
        assert dim == 8
        assert sorted(frames) == sorted(s.detections)
        for f in frames:
            for a, b in zip(s.detections[f], frames[f]):
                assert a.box == b.box
                assert a.score == b.score
                assert a.class_id == b.class_id
                assert np.array_equal(a.embedding, b.embedding)

    def test_missing_header(self):
        with pytest.raises(FormatError, match="line 1"):
            read_detections(io.StringIO("0 0 0.5 0 0 1 1\n"))

    def test_bad_header_dimension(self):
        with pytest.raises(FormatError, match="line 1"):
            read_detections(io.StringIO("# embedtrack-detections v1 dim=abc\n"))

    def test_field_count_mismatch_names_line(self):
        text = "# embedtrack-detections v1 dim=2\n0 0 0.5 0 0 1 1 0.1\n"
        with pytest.raises(FormatError, match="line 2: expected 9 fields, got 8"):
            read_detections(io.StringIO(text))

    def test_decreasing_frames_rejected(self):
        text = (
            "# embedtrack-detections v1 dim=1\n"
            "1 0 0.5 0 0 1 1 0.1\n"
            "0 0 0.5 0 0 1 1 0.1\n"
        )
        with pytest.raises(FormatError, match="line 3.*non-decreasing"):
            read_detections(io.StringIO(text))

    def test_invalid_score_wrapped_with_line(self):
        text = "# embedtrack-detections v1 dim=1\n0 0 1.7 0 0 1 1 0.1\n"
        with pytest.raises(FormatError, match="line 2"):
            read_detections(io.StringIO(text))

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# embedtrack-detections v1 dim=1\n"
            "\n"
            "# a comment\n"
            "0 0 0.5 0 0 1 1 0.1\n"
        )
        _, frames = read_detections(io.StringIO(text))
        assert len(frames[0]) == 1

    def test_dimension_mismatch_on_write(self):
        from embedtrack.tracker import Detection

        d = Detection(BoundingBox(0, 0, 1, 1), 0, 0.5, np.ones(3))
        with pytest.raises(ValueError, match="does not match header dim"):
            write_detections(io.StringIO(), {0: [d]}, 5)


class TestMotFiles:
    def make_trackset(self):
        ts = TrackSet()
        ts.add(0, ObjectEntry(1, 0, BoundingBox(0.25, 1.5, 10.75, 20.125)))
        ts.add(0, ObjectEntry(2, 1, BoundingBox(30, 30, 40, 45), visible=False))
        ts.add(2, ObjectEntry(1, 0, BoundingBox(1, 2, 11, 21)))
        return ts

    def test_round_trip_exact(self):
        ts = self.make_trackset()
        buf = io.StringIO()
        write_mot(buf, ts)
        buf.seek(0)
        out = read_mot(buf)
        assert sorted(out.frames) == [0, 2]
        for f in out.frames:
            for a, b in zip(ts.frames[f], out.frames[f]):
                assert a.obj_id == b.obj_id
                assert a.class_id == b.class_id
                assert a.box == b.box
                assert a.visible == b.visible

    def test_rows_sorted_by_frame(self):
        rows = trackset_to_mot_rows(self.make_trackset())
        frames = [int(r.split(",")[0]) for r in rows]
        assert frames == sorted(frames)

    def test_per_row_scores_fill_the_confidence_column(self):
        ts = self.make_trackset()
        scores = {(f, e.obj_id): 0.25 + f + e.obj_id / 8 for f, es in ts.frames.items() for e in es}
        rows = trackset_to_mot_rows(ts, scores=scores)
        got = {(int(r.split(",")[0]), int(r.split(",")[1])): float(r.split(",")[6]) for r in rows}
        assert got == scores

    def test_short_row_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 1"):
            read_mot(io.StringIO("0,1,5,5\n"))

    def test_negative_extent_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            read_mot(io.StringIO("0,1,5,5,-2,10,1,0,1\n"))

    def test_minimal_six_field_rows_accepted(self):
        ts = read_mot(io.StringIO("0,7,1,2,3,4\n"))
        e = ts.frames[0][0]
        assert e.obj_id == 7 and e.class_id == 0 and e.visible

    def test_visibility_zero_marks_invisible(self):
        ts = read_mot(io.StringIO("0,1,0,0,5,5,1.0,0,0.0\n"))
        assert not ts.frames[0][0].visible


class TestAtomicWrite:
    def test_writes_file(self, tmp_path):
        p = tmp_path / "out.txt"
        with atomic_write(str(p)) as fp:
            fp.write("hello\n")
        assert p.read_text() == "hello\n"

    def test_failure_leaves_no_file_or_temp(self, tmp_path):
        p = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(str(p)) as fp:
                fp.write("partial")
                raise RuntimeError("boom")
        assert not p.exists()
        assert os.listdir(tmp_path) == []

    def test_overwrites_existing(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old")
        with atomic_write(str(p)) as fp:
            fp.write("new")
        assert p.read_text() == "new"
