"""The CSV log writer and reader against the per-row writer and the
line-by-line reader they replaced, kept here as references.

``write_log_csv`` formats rows in blocks and ``read_log_csv`` parses the
body with numpy, falling back to its line loop; both must give what the
references give: the same bytes, the same bits (signed zeros included) or
the same error message.
"""

import dataclasses
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab import (
    CSV_HEADER,
    RunLog,
    demo_config,
    harness,
    read_log_csv,
    run_closed_loop,
    write_log_csv,
)

COLUMNS = (
    "t", "y_d", "y_true", "y_meas", "y_hat", "e", "e_o",
    "f_true", "f_hat", "e_f", "s", "u", "g",
)
WIDTH = len(COLUMNS)


def reference_write_log_csv(log, path):
    """One ``%`` per row, in text mode."""
    row_format = ",".join(["%.17g"] * WIDTH) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        columns = [getattr(log, name) for name in COLUMNS]
        for row in zip(*columns):
            fh.write(row_format % row)


def reference_read_log_csv(path):
    """``float`` on every field of every line; blank lines are skipped and
    every value must be finite."""
    rows = array("d")
    blank = []  # per skipped blank line, the count of values read before it
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            values = line.split(",")
            if len(values) != WIDTH:
                if line.isspace():
                    blank.append(len(rows))
                    continue
                raise ValueError(
                    f"{path}, line {lineno}: expected {WIDTH} columns, "
                    f"got {len(values)}"
                )
            try:
                rows.extend(map(float, values))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    finite = np.isfinite(np.frombuffer(rows, dtype=float))
    if not finite.all():
        i = int(np.argmin(finite))
        lineno = i // WIDTH + 2 + sum(n <= i for n in blank)
        name = CSV_HEADER.split(",")[i % WIDTH]
        raise ValueError(f"{path}, line {lineno}: {name} must be finite, got {rows[i]}")
    return np.frombuffer(rows, dtype=float).reshape(-1, WIDTH)


def _log_of(data):
    return RunLog(**{name: data[:, i].copy() for i, name in enumerate(COLUMNS)})


def _rows_of(log):
    return np.column_stack([getattr(log, name) for name in COLUMNS]).reshape(-1, WIDTH)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0,
])


class TestWriter:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 255, 256, 257, 513]) | st.integers(0, 600),
        seed=st.integers(0, 2**32 - 1),
        special_share=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_bytes_equal_the_per_row_writer(self, workdir, n, seed, special_share):
        rng = np.random.default_rng(seed)
        # any bit pattern, subnormals and NaN payloads included, then a
        # share of hand-picked edge values
        data = rng.integers(0, 2**64, size=(n, WIDTH), dtype=np.uint64).view(float)
        mask = rng.random((n, WIDTH)) < special_share
        data[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
        log = _log_of(data)
        ours, theirs = workdir / "ours.csv", workdir / "theirs.csv"
        write_log_csv(log, ours)
        reference_write_log_csv(log, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_run_log_bytes_equal_the_per_row_writer(self, workdir):
        log = run_closed_loop(dataclasses.replace(demo_config(seed=4), horizon=6.0))
        ours, theirs = workdir / "ours.csv", workdir / "theirs.csv"
        write_log_csv(log, ours)
        reference_write_log_csv(log, theirs)
        assert ours.read_bytes() == theirs.read_bytes()


# Arabic-Indic digits, which float() reads
UNICODE_DIGITS = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"
MUTATIONS = (
    "drop-field", "extra-field", "empty-field", "hash", "hash-line",
    "double-quote", "single-quote", "underscore", "space-line", "tab-line",
    "blank-line", "unicode-digit", "unicode-space", "nbsp", "nan", "inf",
    "minus-inf", "overflow", "padded", "plus-sign",
)


def _mutate(lines, kind, row, col):
    """Apply one mutation to ``lines`` (lists of fields) at (row, col)."""
    inserted = {"space-line": "  ", "tab-line": "\t", "blank-line": "", "hash-line": "# note"}
    if kind in inserted:
        lines.insert(row % (len(lines) + 1), [inserted[kind]])
        return
    if not lines:
        return
    fields = lines[row % len(lines)]
    if not fields:
        return
    i = col % len(fields)
    value = fields[i]
    if kind == "drop-field":
        del fields[i]
    elif kind == "extra-field":
        fields.insert(i, "0.5")
    elif kind == "empty-field":
        fields[i] = ""
    elif kind == "hash":
        fields[-1] += " # note"
    elif kind == "double-quote":
        fields[i] = f'"{value}"'
    elif kind == "single-quote":
        fields[i] = f"'{value}'"
    elif kind == "underscore":
        fields[i] = "0_5"
    elif kind == "unicode-digit":
        fields[i] = UNICODE_DIGITS[col % 10] + "." + UNICODE_DIGITS[row % 10]
    elif kind == "unicode-space":
        fields[i] = "\u2003" + value + "\u3000"
    elif kind == "nbsp":
        fields[i] = value + "\xa0"
    elif kind == "nan":
        fields[i] = "nan"
    elif kind == "inf":
        fields[i] = "Infinity"
    elif kind == "minus-inf":
        fields[i] = "-inf"
    elif kind == "overflow":
        fields[i] = "1e400"
    elif kind == "padded":
        fields[i] = " " + value + "  "
    elif kind == "plus-sign":
        fields[i] = "+" + value.lstrip("-")


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
)


@st.composite
def bodies(draw):
    """A body of valid rows with some mutations, joined with a drawn line
    end, with or without a final one."""
    n = draw(st.integers(0, 5))
    lines = [["%.17g" % draw(finite_floats) for _ in range(WIDTH)] for _ in range(n)]
    places = st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 99), st.integers(0, 99))
    for kind, row, col in draw(st.lists(places, max_size=3)):
        _mutate(lines, kind, row, col)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = end.join(",".join(fields) for fields in lines)
    if lines and draw(st.booleans()):
        body += end
    return body


class TestReader:
    @settings(max_examples=400, deadline=None)
    @given(body=bodies())
    def test_matches_the_line_reader(self, workdir, body):
        path = workdir / "body.csv"
        path.write_bytes((CSV_HEADER + "\n" + body).encode("utf-8"))
        assert _outcome(read_log_csv, path) == _outcome(reference_read_log_csv, path)

    @pytest.mark.parametrize(
        "body",
        [b"", b"\n\n", b" \n", b"0.5" + b",0.5" * 12 + b"\n\xff\n", b"0.5" + b",0.5" * 12],
        ids=["empty", "blank-lines", "space-line", "invalid-utf8", "no-final-newline"],
    )
    def test_edge_bodies_match_the_line_reader(self, workdir, body):
        path = workdir / "edge.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\n" + body)
        assert _outcome(read_log_csv, path) == _outcome(reference_read_log_csv, path)

    def test_a_run_log_is_parsed_in_bulk(self, workdir, monkeypatch):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=3.0))
        path = workdir / "run.csv"
        write_log_csv(log, path)

        def unexpected(*args):
            raise AssertionError("a written log fell back to the line loop")

        monkeypatch.setattr(harness, "_read_lines", unexpected)
        assert _rows_of(read_log_csv(path)).tobytes() == _rows_of(log).tobytes()

    def test_empty_body_warns_nothing(self, workdir):
        path = workdir / "header-only.csv"
        path.write_text(CSV_HEADER + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_log_csv(path).n == 0


def _outcome(read, path):
    """The bits ``read`` gives for ``path``, or its error message."""
    try:
        result = read(path)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    rows = result if isinstance(result, np.ndarray) else _rows_of(result)
    return ("rows", rows.shape, rows.tobytes())
