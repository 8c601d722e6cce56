import dataclasses
import gc
import io
import math
import os
import stat
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack import formats
from embedtrack.formats import (
    CHUNK_LINES,
    FormatError,
    atomic_write,
    read_detections,
    read_mot,
    write_detections,
    write_mot,
)
from embedtrack.geometry import BoundingBox, box_array
from embedtrack.metrics import ObjectEntry, TrackSet
from embedtrack.synth import WorldConfig, generate
from embedtrack.tracker import Detection, Frame
from oracles import read_detections_oracle, write_detections_oracle


def row(frame, cls="0", score="0.5", box=("0", "0", "1", "1"), emb=(0.25, -1.5), sep=" "):
    """One detection row; ``emb`` holds the values to hex-encode, or as a
    str the embedding field itself."""
    if not isinstance(emb, str):
        emb = struct.pack(f"<{len(emb)}d", *emb).hex()
    return sep.join([str(frame), cls, score, *box, emb]) + "\n"


HEADER1 = "# embedtrack-detections v2 dim=1\n"
HEADER2 = "# embedtrack-detections v2 dim=2\n"
EMB2 = row(0).split()[7]  # the default embedding field: 32 digits, some of them a-f


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
            read_detections(io.StringIO("# embedtrack-detections v2 dim=abc\n"))

    @pytest.mark.parametrize("dim", [0, -2])
    def test_header_dimension_below_one_rejected(self, dim):
        # a file of empty embeddings would track by boxes alone
        text = f"# embedtrack-detections v2 dim={dim}\n" + row(0, emb=())
        with pytest.raises(FormatError, match="line 1: invalid dimension in header"):
            read_detections(io.StringIO(text))

    def test_field_count_mismatch_names_line(self):
        text = HEADER2 + row(0, emb=())
        with pytest.raises(FormatError, match="line 2: expected 8 fields, got 7"):
            read_detections(io.StringIO(text))

    def test_decreasing_frames_rejected(self):
        text = HEADER1 + row(1, emb=(0.1,)) + row(0, emb=(0.1,))
        with pytest.raises(FormatError, match="line 3.*non-decreasing"):
            read_detections(io.StringIO(text))

    def test_invalid_score_wrapped_with_line(self):
        text = HEADER1 + row(0, score="1.7", emb=(0.1,))
        with pytest.raises(FormatError, match="line 2"):
            read_detections(io.StringIO(text))

    def test_comments_and_blank_lines_ignored(self):
        text = HEADER1 + "\n" + "# a comment\n" + row(0, emb=(0.1,))
        _, frames = read_detections(io.StringIO(text))
        assert len(frames[0]) == 1

    def test_v1_file_refused_at_its_header(self):
        text = "# embedtrack-detections v1 dim=2\n0 0 0.5 0 0 1 1 0.25 -1.5\n"
        with pytest.raises(FormatError) as exc:
            read_detections(io.StringIO(text))
        assert str(exc.value) == ("line 1: this is a v1 detection file, which is no longer read; "
                                  "regenerate it with `embedtrack synth`")
        assert_same_reads(text)

    def test_embedding_field_is_the_hex_of_little_endian_float64(self):
        d = Detection(BoundingBox(0, 0, 1, 1), 0, 0.5, np.array([1.0, -2.0]))
        buf = io.StringIO()
        write_detections(buf, {0: [d]}, 2)
        assert buf.getvalue().splitlines()[1].split()[7] == "000000000000f03f" + "00000000000000c0"

    def test_dimension_mismatch_on_write(self):
        d = Detection(BoundingBox(0, 0, 1, 1), 0, 0.5, np.ones(3))
        with pytest.raises(ValueError, match="does not match header dim"):
            write_detections(io.StringIO(), {0: [d]}, 5)


def read_both(text: str):
    """(kind, value) of the chunked reader and of the line-by-line oracle:
    ("ok", result) or ("error", (exception type, message))."""
    out = []
    for read in (read_detections, read_detections_oracle):
        try:
            out.append(("ok", read(io.StringIO(text))))
        except Exception as exc:  # noqa: BLE001 - the types are compared
            out.append(("error", (type(exc), str(exc))))
    return out


def assert_same_reads(text: str):
    """The chunked reader returns bit-identical frames with the same Python
    types as the line loop, or raises the same exception and message.
    Returns the oracle's outcome."""
    (kind, got), (want_kind, want) = read_both(text)
    assert kind == want_kind, (got, want)
    if kind == "error":
        assert got == want
        return kind, want

    def typed(values):
        return [(type(v), v) for v in values]

    def fields(d):
        return typed((d.class_id, d.score, d.box.x1, d.box.y1, d.box.x2, d.box.y2))

    assert got[0] == want[0]
    assert typed(got[1]) == typed(want[1])
    for f, dets in want[1].items():
        assert len(got[1][f]) == len(dets)
        for a, b in zip(got[1][f], dets):
            assert fields(a) == fields(b)
            assert a.embedding.dtype == b.embedding.dtype and a.embedding.shape == b.embedding.shape
            assert a.embedding.tobytes() == b.embedding.tobytes()
    return kind, want


# token spellings that Python's int()/float() and numpy's parser may treat
# differently; the reader must follow int()/float()
_int_token = st.sampled_from(["{}", "+{}", "0{}", "{}.0", "{}e0", "{}_0", "\uff13", "x{}"])
_float_token = st.sampled_from([
    "{!r}", "+{!r}", "{!r}", "{!r}", "1e999", "-1e999", "nan", "inf", "1_0.5", "0.2_5", "1e-400",
    ".5", "5.", "0x1p-1", "{!r}x", "\uff10.\uff15",
])
_sep = st.sampled_from([" ", " ", "\t", "  ", " \t ", "\x0b", "\xa0"])
# malformed spellings of an embedding field; the reader must refuse each
# the way the line oracle does
_emb_token = st.sampled_from([
    lambda h: h[:-1],  # an odd digit count
    lambda h: h[:-16],  # a value too few
    lambda h: h + h[:16],  # a value too many
    lambda h: "g" + h[1:],
    lambda h: h[:-1] + "\uff10",
    lambda h: h.upper(),
    lambda h: struct.pack("<d", math.nan).hex() + h[16:],
    lambda h: h[:-16] + struct.pack("<d", -math.inf).hex(),
])


@st.composite
def detection_lines(draw, dim):
    """One line of a detection file: usually a valid row whose frame moves
    by the drawn step, sometimes a comment, a blank line or a row with an
    odd token, a wrong field count, a negative extent or a bad score."""
    kind = draw(st.sampled_from(["row"] * 6 + ["odd", "blank", "comment", "count"]))
    if kind == "blank":
        return draw(st.sampled_from(["\n", "   \n", "\t\n"])), 0
    if kind == "comment":
        return draw(st.sampled_from(["# note\n", "  # indented\n", "#\n"])), 0
    step = draw(st.sampled_from([0, 0, 0, 1, 1, 2, -1]))
    n = 3 + max(dim, 0)
    reals = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n))
    score = draw(st.floats(0.0, 1.0))
    x1, y1, w, h = reals[0], reals[1], abs(reals[2]), draw(st.floats(0.0, 50.0))
    tokens = [None, str(draw(st.integers(0, 3))), repr(score), repr(x1), repr(y1), repr(x1 + w), repr(y1 + h),
              struct.pack(f"<{n - 3}d", *reals[3:]).hex()]
    if kind == "odd":
        col = draw(st.integers(1, 7))
        if col == 7:
            tokens[7] = draw(_emb_token)(tokens[7])
        else:
            spelling = draw(_int_token if col == 1 else _float_token)
            tokens[col] = spelling.format(abs(int(float(tokens[col]))) if col == 1 else float(tokens[col]))
    elif kind == "count":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["0.5"]
    return tokens, step


@st.composite
def detection_files(draw):
    dim = draw(st.integers(-1, 3))
    frame = draw(st.integers(0, 5))
    out = [f"# embedtrack-detections v2 dim={dim}\n"]
    for tokens, step in draw(st.lists(detection_lines(dim), max_size=30)):
        if isinstance(tokens, str):
            out.append(tokens)
            continue
        frame = max(frame + step, 0)
        tokens[0] = str(frame)
        sep = draw(_sep)
        out.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens) + "\n")
    return "".join(out)


class TestChunkedReader:
    @given(detection_files(), st.integers(1, 7))
    @settings(max_examples=400, deadline=None)
    def test_equals_line_loop_across_chunks(self, text, chunk):
        with mock.patch.object(formats, "CHUNK_LINES", chunk):
            assert_same_reads(text)

    def two_chunk_file(self, special: str | None = None, at: int = CHUNK_LINES) -> str:
        """CHUNK_LINES + 8 rows in frames 0..; row ``at`` (0-based, so the
        default is the first row of the second chunk) is replaced."""
        lines = [row(i // 64) for i in range(CHUNK_LINES + 8)]
        if special is not None:
            lines[at] = special
        return HEADER2 + "".join(lines)

    @pytest.mark.parametrize("special", [
        "# a comment\n",
        "\n",
        "   \t  \n",
        row(32, sep="\t"),
        "  " + row(32, sep="   ").replace("0.5", "0.5\t \t"),
        row(32, score="+0.5", box=("+3", "0", "4", "1")),
        row("+32", cls="+1"),
        row(32, cls="3_0", box=("1_0.5", "0", "2_0.5", "1")),
        row("３２", cls="\uff11"),
        row(32, box=("0", "1e-400", "1", "1")),
        row(32, emb=(-0.0, 5e-324)),
    ])
    @pytest.mark.parametrize("at", [CHUNK_LINES - 1, CHUNK_LINES])
    def test_accepted_spellings_at_chunk_boundary(self, special, at):
        kind, (dim, frames) = assert_same_reads(self.two_chunk_file(special, at))
        assert kind == "ok" and dim == 2
        rows = special.strip() and not special.strip().startswith("#")
        assert sum(map(len, frames.values())) == CHUNK_LINES + 8 - (not rows)

    @pytest.mark.parametrize("special, message", [
        (row(32, emb=(math.inf, 0.0)), "detection embedding contains non-finite values"),
        (row(32, emb=(0.0, -math.inf)), "detection embedding contains non-finite values"),
        (row(32, emb=(math.nan, 0.0)), "detection embedding contains non-finite values"),
        (row(32, score="nan"), "detection score must be in [0, 1], got nan"),
        (row(32, score="1.5"), "detection score must be in [0, 1], got 1.5"),
        (row(32, emb=()), "expected 8 fields, got 7"),
        (row(32, emb=EMB2[:16] + " " + EMB2[16:]), "expected 8 fields, got 9"),
        (row(32, box=("0", "0", "-1", "1")), "box has negative extent: BoundingBox(x1=0.0, y1=0.0, x2=-1.0, y2=1.0)"),
        (row(32, box=("0", "nan", "1", "1")), "box coordinates must be finite"),
        (row(32, cls="3.0"), "invalid literal for int() with base 10: '3.0'"),
        (row("1e2"), "invalid literal for int() with base 10: '1e2'"),
        (row(32, box=("0", "0", "0x1p-1", "1")), "could not convert string to float: '0x1p-1'"),
        (row(32) .replace("\n", " # note\n"), "expected 8 fields, got 10"),
        (row(30), "frame indices must be non-decreasing"),
        (row(32, emb=EMB2[:-1]), "embedding field has 31 characters, expected 32 hex digits"),
        (row(32, emb=EMB2[:16]), "embedding field has 16 characters, expected 32 hex digits"),
        (row(32, emb=EMB2 + EMB2[:16]), "embedding field has 48 characters, expected 32 hex digits"),
        (row(32, emb=EMB2[:-1] + "g"), "embedding field holds a character other than 0-9 and a-f"),
        (row(32, emb=EMB2[:-1] + "\uff10"), "embedding field holds a character other than 0-9 and a-f"),
        (row(32, emb=EMB2.upper()), "embedding field holds a character other than 0-9 and a-f"),
        # one uppercase hex digit, which bytes.fromhex takes, and one
        # non-ASCII uppercase letter, which it does not
        (row(32, emb=EMB2[:-1] + "F"), "embedding field holds a character other than 0-9 and a-f"),
        (row(32, emb=EMB2[:-1] + "\u00c4"), "embedding field holds a character other than 0-9 and a-f"),
    ])
    @pytest.mark.parametrize("at", [CHUNK_LINES - 1, CHUNK_LINES])
    def test_rejections_name_the_line(self, special, message, at):
        kind, (exc_type, got) = assert_same_reads(self.two_chunk_file(special, at))
        assert kind == "error" and exc_type is FormatError
        assert got.startswith(f"line {at + 2}: {message}")

    def test_frame_decreasing_exactly_across_the_chunk_boundary(self):
        lines = [row(5)] * CHUNK_LINES + [row(4), row(6)]
        kind, (_, message) = assert_same_reads(HEADER2 + "".join(lines))
        assert kind == "error"
        assert message == f"line {CHUNK_LINES + 2}: frame indices must be non-decreasing"

    def test_frame_decrease_that_overflows_int64_differences_rejected(self):
        lines = [row(2**63 - 1), row(-(2**63))]
        kind, (_, message) = assert_same_reads(HEADER2 + "".join(lines))
        assert kind == "error" and message == "line 3: frame indices must be non-decreasing"

    def test_frame_equal_across_the_chunk_boundary_accepted(self):
        lines = [row(5)] * CHUNK_LINES + [row(5), row(6)]
        _, (_, frames) = assert_same_reads(HEADER2 + "".join(lines))
        assert [len(frames[5]), len(frames[6])] == [CHUNK_LINES + 1, 1]

    def test_each_frame_is_one_frame_with_the_gathered_arrays(self):
        """Frame 0 spans the chunk boundary, frame 1 is read by the array
        path and frame 2 by the line loop (numpy does not take ``3_0``)."""
        lines = [row(0)] * 3 + [row(1), row(1, cls="2"), row(2, cls="3_0"), row(2)]
        with mock.patch.object(formats, "CHUNK_LINES", 2):
            _, frames = read_detections(io.StringIO(HEADER2 + "".join(lines)))
        assert {f: len(v) for f, v in frames.items()} == {0: 3, 1: 2, 2: 2}
        for frame in frames.values():
            assert type(frame) is Frame
            want = [box_array(d.box for d in frame), np.array([d.class_id for d in frame]),
                    np.array([d.score for d in frame]), np.array([d.embedding for d in frame])]
            got = [frame._boxes, frame._class_ids, frame._scores, frame._embeddings]
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes()) for a in want]
        assert frames[2]._class_ids.tolist() == [30, 0]

    def test_generated_world_longer_than_one_chunk(self):
        s = generate(WorldConfig(n_identities=40, n_frames=60, dim=8, sigma_e=0.2,
                                 jitter_sigma=0.5, fp_rate=0.1, seed=3))
        assert sum(map(len, s.detections.values())) > CHUNK_LINES
        buf = io.StringIO()
        write_detections(buf, s.detections, 8)
        assert_same_reads(buf.getvalue())

    def test_peak_memory_near_the_size_of_the_result(self, tmp_path):
        """Reading a file of about ten chunks must not hold the whole text
        or a whole-file array: the tracemalloc peak stays within 1.5x of
        what the reader returns. The line-by-line reader this replaced
        peaked at 1.002x on this file, and this one at 1.10x."""
        rng = np.random.default_rng(0)
        n, dim = 20_000, 16
        frames = np.sort(rng.integers(0, n // 50, n))
        xy = rng.uniform(0, 1000, (n, 2))
        wh = rng.uniform(1, 100, (n, 2))
        reals = np.column_stack([rng.uniform(size=n), xy, xy + wh])
        emb = rng.normal(size=(n, dim))
        path = tmp_path / "dets.txt"
        with open(path, "w") as fp:
            fp.write(f"# embedtrack-detections v2 dim={dim}\n")
            for f, r, e in zip(frames.tolist(), reals.tolist(), emb):
                fp.write(f"{f} {f % 3} " + " ".join(map(repr, r)) + " " + e.astype("<f8").tobytes().hex() + "\n")
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with open(path) as fp:
                out = read_detections(fp)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, out[1].values())) == n
        assert peak - base <= 1.5 * (retained - base)


# -0.0, subnormals and values near the float64 range, beside any finite float
_exact_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def exact_frames(draw):
    dim = draw(st.integers(1, 4))
    frames = {}
    for f in draw(st.sets(st.integers(0, 9), max_size=4)):
        frames[f] = []
        for _ in range(draw(st.integers(0, 3))):
            x1, y1 = draw(_exact_floats), draw(_exact_floats)
            box = BoundingBox(x1, y1, x1 + draw(st.floats(0, 1e3)), y1 + draw(st.floats(0, 1e3)))
            if not all(map(math.isfinite, (box.x2, box.y2))):
                continue
            emb = np.array(draw(st.lists(_exact_floats, min_size=dim, max_size=dim)))
            frames[f].append(Detection(box, draw(st.integers(0, 3)), draw(st.floats(0, 1)), emb))
    return dim, frames


class TestDetectionWriter:
    @given(exact_frames())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, case):
        dim, frames = case
        got, want = io.StringIO(), io.StringIO()
        write_detections(got, frames, dim)
        write_detections_oracle(want, frames, dim)
        assert got.getvalue() == want.getvalue()
        _, (_, back) = assert_same_reads(got.getvalue())
        assert {f: len(v) for f, v in back.items()} == {f: len(v) for f, v in frames.items() if v}
        def bits(d):
            b = d.box
            return d.class_id, struct.pack("<5d", d.score, b.x1, b.y1, b.x2, b.y2), d.embedding.tobytes()

        for f, dets in back.items():
            assert list(map(bits, dets)) == list(map(bits, frames[f]))

    def test_matches_the_per_float_writer_byte_for_byte(self):
        box = BoundingBox(np.int64(0), 2, np.float32(10.5), np.float64(20.25))
        dets = {
            3: [Detection(box, np.int64(2), 1, np.arange(4, dtype=np.float32) / 3)],
            0: [Detection(BoundingBox(0, 0, 1, 1), 0, 0.1, np.array([1e-300, -0.0, 1e300, 1 / 3])),
                Detection(BoundingBox(1.5, 2.5, 3.5, 4.5), 1, np.float32(0.7), np.ones(4) * 0.1)],
            1: [],
        }
        got, want = io.StringIO(), io.StringIO()
        write_detections(got, dets, 4)
        write_detections_oracle(want, dets, 4)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().splitlines()[1] == (
            "0 0 0.1 0.0 0.0 1.0 1.0 " + struct.pack("<4d", 1e-300, -0.0, 1e300, 1 / 3).hex())



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
        buf = io.StringIO()
        write_mot(buf, self.make_trackset())
        rows = buf.getvalue().splitlines()
        frames = [int(r.split(",")[0]) for r in rows]
        assert frames == sorted(frames)

    def test_per_row_scores_fill_the_confidence_column(self):
        ts = TrackSet()
        for f, es in self.make_trackset().frames.items():
            for e in es:
                ts.add(f, dataclasses.replace(e, score=0.25 + f + e.obj_id / 8))
        scores = {(f, e.obj_id): e.score for f, es in ts.frames.items() for e in es}
        buf = io.StringIO()
        write_mot(buf, ts)
        rows = buf.getvalue().splitlines()
        got = {(int(r.split(",")[0]), int(r.split(",")[1])): float(r.split(",")[6]) for r in rows}
        assert got == scores

    def test_short_row_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 1"):
            read_mot(io.StringIO("0,1,5,5\n"))

    def test_negative_extent_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            read_mot(io.StringIO("0,1,5,5,-2,10,1,0,1\n"))

    def test_blank_and_comment_lines_skipped(self):
        ts = read_mot(io.StringIO("# frame,id,x,y,w,h\n\n0,7,1,2,3,4\n   \n  # note\n1,7,2,2,3,4\n"))
        assert {f: [e.obj_id for e in es] for f, es in ts.frames.items()} == {0: [7], 1: [7]}

    def test_line_numbers_count_skipped_lines(self):
        with pytest.raises(FormatError, match="line 3"):
            read_mot(io.StringIO("# header\n\n0,1,5,5\n"))

    def test_minimal_six_field_rows_accepted(self):
        ts = read_mot(io.StringIO("0,7,1,2,3,4\n"))
        e = ts.frames[0][0]
        assert e.obj_id == 7 and e.class_id == 0 and e.visible

    def test_repeated_frame_and_id_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 3: duplicate object id 1 in frame 0"):
            read_mot(io.StringIO("0,1,0,0,5,5\n0,2,0,0,5,5\n0,1,9,9,5,5\n"))

    def test_visibility_zero_marks_invisible(self):
        ts = read_mot(io.StringIO("0,1,0,0,5,5,1.0,0,0.0\n"))
        assert not ts.frames[0][0].visible

    @pytest.mark.parametrize("visibility, visible", [("-1", False), ("-0.5", False), ("0", False),
                                                     ("0.25", True), ("1", True)])
    def test_finite_visibility_above_zero_marks_visible(self, visibility, visible):
        ts = read_mot(io.StringIO(f"0,1,0,0,5,5,1.0,0,{visibility}\n"))
        assert ts.frames[0][0].visible is visible

    # a NaN would drop a ground-truth box from both sides of the evaluation
    @pytest.mark.parametrize("visibility", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_visibility_names_its_line(self, visibility):
        text = "0,1,0,0,5,5,1.0,0,1\n" + f"1,1,0,0,5,5,1.0,0,{visibility}\n"
        with pytest.raises(FormatError) as exc:
            read_mot(io.StringIO(text))
        assert str(exc.value) == f"line 2: non-finite visibility {visibility.strip()}"


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

    def test_new_file_gets_the_mode_of_plain_open(self, tmp_path):
        umask = os.umask(0o022)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            with atomic_write(str(tmp_path / "out.txt")) as fp:
                fp.write("x")
        finally:
            os.umask(umask)
        modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("plain.txt", "out.txt")}
        assert modes == {0o644}

    def test_overwrites_existing(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old")
        p.chmod(0o640)
        with atomic_write(str(p)) as fp:
            fp.write("new")
        assert p.read_text() == "new"
        assert stat.S_IMODE(p.stat().st_mode) == 0o640
