"""The one JSONL I/O path (repro.obs.jsonl): sink and reader.

Every observability artifact is written by ``JsonlSink`` and read by
``read_jsonl``; the property below pins the reader's whole contract
over arbitrary mixtures of good and bad lines, in file and tail mode.
"""

import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.jsonl import JsonlError, JsonlSink, read_jsonl, write_jsonl


class TestSink:
    def test_meta_header_then_rows_each_on_disk_before_close(self, tmp_path):
        path = tmp_path / "a.jsonl"
        sink = JsonlSink(str(path), meta={"interval_s": 5.0})
        sink.write({"t": 5.0})
        # Flush per row: a concurrent reader sees whole lines already.
        assert [json.loads(ln) for ln in path.read_text().splitlines()] \
            == [{"meta": {"interval_s": 5.0}}, {"t": 5.0}]
        assert sink.byte_offset() == path.stat().st_size
        sink.write({"t": 10.0})
        sink.close()
        assert sink.written == 2  # the header is not a row
        assert sink.byte_offset() == path.stat().st_size

    def test_no_header_without_meta(self, tmp_path):
        path = tmp_path / "a.jsonl"
        assert write_jsonl(str(path), [{"a": 1}, {"a": 2}]) == 2
        assert path.read_text() == '{"a": 1}\n{"a": 2}\n'

    def test_missing_directory_is_an_oserror(self, tmp_path):
        with pytest.raises(OSError):
            JsonlSink(str(tmp_path / "no" / "dir.jsonl"))


# -- the reader property ------------------------------------------------------

_ROWS = st.dictionaries(st.sampled_from(["t", "kind", "x"]),
                        st.integers(-5, 5) | st.text("ab", max_size=3),
                        max_size=3).map(lambda d: ("row", json.dumps(d)))
_LINES = st.one_of(
    _ROWS,
    st.sampled_from(["", "   "]).map(lambda s: ("blank", s)),
    st.sampled_from(["42", "[1, 2]", '"s"', "null", "1.5"]).map(
        lambda s: ("non-object", s)),
    st.sampled_from(["not json", "{broken", '{"a": 1}}', "}{"]).map(
        lambda s: ("garbage", s)))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINES, max_size=12),
       truncated=st.none() | st.integers(1, 200))
def test_reader_contract_over_arbitrary_line_mixtures(
        tmp_path_factory, lines, truncated):
    """Tolerant reading yields exactly the valid object rows, in
    order; strict reading raises naming the first bad ``path:lineno``
    (or agrees with tolerant when there is none); tail mode agrees
    with file mode and yields a half-written row only once the writer
    completes it."""
    text = "".join(body + "\n" for _kind, body in lines)
    final = json.dumps({"t": 99, "pad": "x" * 20})
    half = final[:1 + truncated % (len(final) - 1)] if truncated else ""
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_text(text + half)

    want = [json.loads(body) for kind, body in lines if kind == "row"]
    assert list(read_jsonl(str(path), tolerant=True)) == want

    kinds = [kind for kind, _body in lines] + (["garbage"] if half else [])
    bad = [i for i, kind in enumerate(kinds, 1)
           if kind in ("non-object", "garbage")]
    if bad:
        with pytest.raises(JsonlError,
                           match=re.escape(f"{path}:{bad[0]}:")) as err:
            list(read_jsonl(str(path), tolerant=False))
        assert isinstance(err.value, ValueError)
    else:
        assert list(read_jsonl(str(path), tolerant=False)) == want

    # Tail mode over the same bytes.  The reader's first sleep happens
    # at end of file with the half row already read and buffered; the
    # writer finishes the row exactly then.
    def writer_finishes_the_row(_seconds):
        if half and os.path.getsize(path) == len(text + half):
            with open(path, "a") as writer:
                writer.write(final[len(half):] + "\n")

    with mock.patch("repro.obs.jsonl.time.sleep", writer_finishes_the_row):
        tailed = list(read_jsonl(str(path), tolerant=True, poll_s=0.5,
                                 idle_polls=2))
    assert tailed == want + ([json.loads(final)] if half else [])


class TestReader:
    def test_require_names_the_missing_keys(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"a": 1, "b": 2}\n{"a": 1}\n')
        assert list(read_jsonl(str(p), True, require=("a", "b"))) \
            == [{"a": 1, "b": 2}]
        with pytest.raises(JsonlError, match=r"r\.jsonl:2.*row lacks b"):
            list(read_jsonl(str(p), False, require=("a", "b")))

    def test_complete_final_line_without_newline_is_a_row(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"a": 1}\n{"a": 2}')
        assert list(read_jsonl(str(p), tolerant=False)) \
            == [{"a": 1}, {"a": 2}]

    def test_missing_file_is_an_oserror(self, tmp_path):
        with pytest.raises(OSError):
            list(read_jsonl(str(tmp_path / "nope.jsonl"), tolerant=True))
