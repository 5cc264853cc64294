"""The CSV log writer and reader against the per-row writer and the
line-by-line reader they replaced, kept here as references.

``write_log_csv`` formats rows in blocks and ``read_log_csv`` parses the
body in one call, falling back to its line loop; both run the body codec
(``format_rows``, ``parse_rows``) of the kernel twin in ``plants.kernels``.
On either twin they must give what the references give: the same bytes,
the same bits (signed zeros included) or the same error message.  A log
is one read-only row block with a view per column, and a write and
read-back gives its rows back bit for bit.
"""

import dataclasses
import io
import math
import struct
import warnings
from array import array
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from loop_runs import DIVERGING_RUNS

from mfclab import (
    CSV_HEADER,
    RunLog,
    _kernels_py,
    demo_config,
    harness,
    plants,
    read_log_csv,
    run_closed_loop,
    write_log_csv,
)

COLUMNS = CSV_HEADER.lower().split(",")  # the names of RunLog's column views
WIDTH = len(COLUMNS)
# ten values before a row's last three, and after a row's first three
TEN = "0," * 10
TEN_TAIL = "".join(f",{i}" for i in range(10)) + "\n"


def reference_write_log_csv(log, path):
    """One ``%`` per row, in text mode."""
    row_format = ",".join(["%.17g"] * WIDTH) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in log.rows:
            fh.write(row_format % tuple(row))


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


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@pytest.fixture
def backend(kernels, monkeypatch):
    """The log codec on one kernel twin; the same for every Hypothesis
    example of a test, so the function scope is safe there."""
    monkeypatch.setattr(plants, "kernels", kernels)
    return kernels


ACROSS_EXAMPLES = [HealthCheck.function_scoped_fixture]  # see ``backend``


SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0,
])


class TestWriter:
    @settings(max_examples=60, deadline=None, suppress_health_check=ACROSS_EXAMPLES)
    @given(
        n=st.sampled_from([0, 1, 255, 256, 257, 513]) | st.integers(0, 600),
        seed=st.integers(0, 2**32 - 1),
        special_share=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_bytes_equal_the_per_row_writer(self, backend, workdir, n, seed, special_share):
        rng = np.random.default_rng(seed)
        # any bit pattern, subnormals and NaN payloads included, then a
        # share of hand-picked edge values
        data = rng.integers(0, 2**64, size=(n, WIDTH), dtype=np.uint64).view(float)
        mask = rng.random((n, WIDTH)) < special_share
        data[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
        log = RunLog(data)
        ours, theirs = workdir / "ours.csv", workdir / "theirs.csv"
        write_log_csv(log, ours)
        reference_write_log_csv(log, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_run_log_bytes_equal_the_per_row_writer(self, backend, workdir):
        log = run_closed_loop(dataclasses.replace(demo_config(seed=4), horizon=6.0))
        ours, theirs = workdir / "ours.csv", workdir / "theirs.csv"
        write_log_csv(log, ours)
        reference_write_log_csv(log, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_rows_of_another_dtype_bytes_equal_the_per_row_writer(self, backend, workdir, dtype):
        rng = np.random.default_rng(5)
        if dtype is np.int64:  # 2**53 + 1 and beyond round to a double
            data = rng.integers(-(2**63), 2**63 - 1, size=(300, WIDTH), dtype=np.int64)
            data[0, :3] = [2**53 + 1, -(2**63), 2**63 - 1]
        else:
            data = rng.standard_normal((300, WIDTH)).astype(np.float32)
            data[0, :4] = [np.float32(0.1), -0.0, np.inf, np.nan]
        log = RunLog(data)
        assert log.rows.dtype == dtype
        ours, theirs = workdir / "ours.csv", workdir / "theirs.csv"
        write_log_csv(log, ours)
        reference_write_log_csv(log, theirs)
        assert ours.read_bytes() == theirs.read_bytes()


# a run, a run of no step, and the runs that diverge, each another way
LAYOUT_RUNS = [
    (dataclasses.replace(demo_config(), horizon=2.0), False, 0.0),
    (dataclasses.replace(demo_config(), horizon=0.0), False, 0.0),
    *DIVERGING_RUNS,
]
LAYOUT_IDS = [
    "demo-2s", "no-step", "diverges-in-rk4", "input-non-finite", "reference",
    "synthetic-law", "synthetic-plant",
]


def assert_one_row_block(log):
    """``log.rows`` is a read-only ``(n, 13)`` float64 array, and each name
    of the CSV header, in header order, is the view of its column."""
    rows = log.rows
    assert (rows.shape, rows.dtype, rows.flags.writeable) == ((log.n, WIDTH), float, False)
    for i, name in enumerate(COLUMNS):
        column = getattr(log, name)
        assert column.__array_interface__ == rows[:, i].__array_interface__, name
        assert np.shares_memory(column, rows) or log.n == 0, name
        with pytest.raises(ValueError, match="read-only"):
            column[:] = 0.0
        with pytest.raises(AttributeError):
            setattr(log, name, column.copy())


class TestLayout:
    def test_a_log_is_its_rows(self):
        assert [f.name for f in dataclasses.fields(RunLog)] == ["rows", "diverged", "meta"]

    @pytest.mark.parametrize("run", LAYOUT_RUNS, ids=LAYOUT_IDS)
    def test_run_and_read_back_hold_one_row_block(self, backend, workdir, run):
        config, oracle_f, f_hat_bias = run
        log = run_closed_loop(config, oracle_f=oracle_f, f_hat_bias=f_hat_bias)
        assert log.n == config.n_records or log.diverged
        assert_one_row_block(log)
        path = workdir / "layout.csv"
        write_log_csv(log, path)
        back = read_log_csv(path)
        assert_one_row_block(back)
        assert back.rows.tobytes() == log.rows.tobytes()

    def test_a_row_buffer_is_taken_without_a_copy(self):
        buffer = array("d", range(2 * WIDTH))
        log = RunLog(buffer)
        assert np.shares_memory(log.rows, np.frombuffer(buffer))
        assert log.y_d.tolist() == [1.0, 1.0 + WIDTH]


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
    @settings(max_examples=400, deadline=None, suppress_health_check=ACROSS_EXAMPLES)
    @given(body=bodies())
    def test_matches_the_line_reader(self, backend, workdir, body):
        path = workdir / "body.csv"
        path.write_bytes((CSV_HEADER + "\n" + body).encode("utf-8"))
        assert _outcome(read_log_csv, path) == _outcome(reference_read_log_csv, path)

    @pytest.mark.parametrize(
        "body",
        [b"", b"\n\n", b" \n", b"0.5" + b",0.5" * 12 + b"\n\xff\n", b"0.5" + b",0.5" * 12],
        ids=["empty", "blank-lines", "space-line", "invalid-utf8", "no-final-newline"],
    )
    def test_edge_bodies_match_the_line_reader(self, backend, workdir, body):
        path = workdir / "edge.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\n" + body)
        assert _outcome(read_log_csv, path) == _outcome(reference_read_log_csv, path)

    def test_a_malformed_line_is_reported_before_an_earlier_non_finite_value(
        self, backend, workdir
    ):
        path = workdir / "two-faults.csv"
        path.write_text(f"{CSV_HEADER}\n{TEN}0,0,inf\n\n{TEN}0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: expected 13 columns, got 12$"):
            read_log_csv(path)
        path.write_text(f"{CSV_HEADER}\n{TEN}0,0,0\n\n{TEN}0,-inf,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: u must be finite, got -inf$"):
            read_log_csv(path)

    def test_a_run_log_is_parsed_in_bulk(self, backend, workdir, monkeypatch):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=3.0))
        path = workdir / "run.csv"
        write_log_csv(log, path)

        def unexpected(*args):
            raise AssertionError("a written log fell back to the line loop")

        monkeypatch.setattr(harness, "_read_lines", unexpected)
        assert read_log_csv(path).rows.tobytes() == log.rows.tobytes()

    def test_empty_body_warns_nothing(self, backend, workdir):
        path = workdir / "header-only.csv"
        path.write_text(CSV_HEADER + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_log_csv(path).n == 0


# tokens around the strict rule: lone signs and points, exponents without
# digits, overflow and underflow, 10k-digit values, NUL, words float()
# reads, whitespace
ODD_TOKENS = st.sampled_from([
    "-", "+", ".", "e", "E5", "1e", "1e+", "+-1", "1e999", "-1e999", "1e-999", "nan",
    "inf", "-Infinity", "", "0x10", "1_0", "\x00", "1\x00", "\x001", " 1", "1 ", "\t",
    "9" * 10_000, "0." + "3" * 10_000, "-" + "1" * 10_000 + "e-9990",
]) | st.text("0123456789.eE+-,\n\r\x00 ", max_size=12)


@st.composite
def texts(draw):
    """Any text, or rows of values near the log's width with a few odd
    tokens, joined with a drawn line end, with or without a final one."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
    widths = st.sampled_from([WIDTH, WIDTH, WIDTH, WIDTH - 1, WIDTH + 1])
    rows = [["%.17g" % draw(finite_floats) for _ in range(n)]
            for n in draw(st.lists(widths, max_size=4))]
    for row, col, token in draw(st.lists(st.tuples(st.integers(), st.integers(), ODD_TOKENS),
                                         max_size=2)):
        if rows:
            fields = rows[row % len(rows)]
            fields[col % len(fields)] = token
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(fields) for fields in rows) + (end if draw(st.booleans()) else "")


class TestBackendsAgree:
    @settings(max_examples=300, deadline=None, suppress_health_check=ACROSS_EXAMPLES)
    @given(body=texts())
    def test_arbitrary_text_reads_alike(self, compiled_kernels, workdir, monkeypatch, body):
        path = workdir / "text.csv"
        path.write_bytes((CSV_HEADER + "\n" + body).encode("utf-8"))
        want = _outcome(reference_read_log_csv, path)
        for module in (_kernels_py, compiled_kernels):
            monkeypatch.setattr(plants, "kernels", module)
            assert _outcome(read_log_csv, path) == want, module.BACKEND_NAME

    def test_strict_rows_parse_in_c(self, compiled_kernels):
        rows = np.array([[0.1, -0.0, 5e-324, *range(10)], [1e308, -2.5, 3.0, *range(10)]])
        text = ("0.10000000000000001,-0,4.9406564584124654e-324" + TEN_TAIL
                + "1e+308,-2.5,3" + TEN_TAIL)
        parsed = compiled_kernels.parse_rows(io.StringIO(text))
        assert parsed == rows.tobytes()
        assert compiled_kernels.parse_rows(io.StringIO("")) == b""

    @pytest.mark.parametrize(
        "text",
        [TEN + "1,2,3", TEN + "1,2,3\n\n", " " + TEN + "1,2,3\n", TEN + "1,2,3 \n",
         TEN + "1,2\n", TEN + "1,2,3,4\n", TEN + "1,2,,3\n", TEN + "1,2,nan\n",
         TEN + "1,2,1e999\n", TEN + "1,2,1e\n", TEN + "1,2,-\n", TEN + "1,2,3\x00\n",
         TEN.replace(",", ";") + "1;2;3\n", TEN + "1,2,\u0661\n"],
    )
    def test_anything_else_is_left_to_the_line_loop_in_c(self, compiled_kernels, text):
        assert compiled_kernels.parse_rows(io.StringIO(text)) is None

    def test_format_rows_reads_its_input_only(self, kernels):
        block = np.array([[0.1, -0.0, *range(11)], [np.nan, 1e300, *range(11)]])
        block.flags.writeable = False
        before = block.tobytes()
        text = kernels.format_rows(block)
        tail = b"".join(b",%d" % i for i in range(11)) + b"\n"
        assert text == b"0.10000000000000001,-0" + tail + b"nan,1.0000000000000001e+300" + tail
        assert block.tobytes() == before

    def test_one_row_is_the_header_width(self, kernels):
        values = np.array([[0.1 * i for i in range(WIDTH - 2)] + [-0.0, 5e-324]])
        text = kernels.format_rows(values)
        assert text.count(b"\n") == 1 and len(text.split(b",")) == WIDTH
        parsed = kernels.parse_rows(io.StringIO(text.decode()))
        assert np.frombuffer(parsed).tobytes() == values.tobytes()
        assert len(CSV_HEADER.split(",")) == _kernels_py._ROW

    @pytest.mark.parametrize(
        "block, error",
        [
            (np.zeros((2, 14))[:, :13], TypeError),  # not C-contiguous
            (np.zeros((2, 13), dtype=np.float32), TypeError),
            (np.zeros((2, 13), dtype=">f8"), TypeError),
            (np.zeros((2, 3)), ValueError),  # 6 values are not whole rows
        ],
        ids=["strided", "float32", "big-endian", "ragged"],
    )
    def test_format_rows_rejects_alike(self, compiled_kernels, block, error):
        for module in (_kernels_py, compiled_kernels):
            with pytest.raises(error) as info:
                module.format_rows(block)
            if module is _kernels_py:
                want = str(info.value)
            assert str(info.value) == want


def _tie(a, j):
    """``a * 2**j``, checked to be an exact tie at 17 digits: its decimal
    expansion has 18 significant digits and the last is a 5."""
    x = math.ldexp(a, j)
    digits = Decimal(x).normalize().as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5, x
    return x


def _around(*values):
    """Each value with its two neighbours, on both sides of zero."""
    near = [math.nextafter(v, d) for v in values for d in (-math.inf, math.inf)]
    return [s * float(v) for v in [*values, *near] for s in (1.0, -1.0)]


# the C writer's fast path takes +-0 and 10**-16 <= |x| < 2**128; each case
# is at a limit of its digits or layout, with its neighbours beyond it
FORMAT_CASES = {
    # odd * 2**j half-way between two 17-digit decimals: to even, either way
    "ties": _around(_tie(4000000000000001, -2), _tie(4000000000000003, -2),
                    _tie(1049, -20), _tie(1, -25), _tie(3, -25), _tie(4503599627370497, -3)),
    # the 17 digits round up to 10**17: the double 1e-14 lies below 10**-14
    "carry": _around(1e-14, 1e-5, 1e-10, 1e20, 0.3, 1e16 - 2.0),
    "layout-k-5-4": _around(1e-4, 1.2345678901234567e-4, 1e-5, 9.87654321e-5),
    "layout-k16-17": _around(1e16, 1.2345678901234567e16, 1e17, 99999999999999984.0, 3e17),
    "range-1e-16": _around(1e-16, 1.0000000000000002e-16, 9.9e-17),
    "range-2**128": _around(2.0**128, 3.4e38, 2.0**127),
    "zero-subnormal-max": _around(0.0, 5e-324, 2.2250738585072009e-308,
                                  2.2250738585072014e-308, 1.7976931348623157e308),
    "powers-of-ten": _around(*(float(f"1e{k}") for k in range(-17, 40))),
    # k is first estimated from the binary exponent, which steps at each
    # power of two; 2**-54 < 1e-16 <= 2**-53 is where the estimate is raised
    "powers-of-two": _around(*(2.0**e for e in range(-55, 129))),
}


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


any_double = st.floats() | st.integers(0, 2**64 - 1).map(_bits_to_float) | st.floats(
    min_value=1e-17, max_value=2.0**129
)


def _token_cases():
    """Tokens at the limits of the C reader's fast path, -?d+(.d*)?([eE][+-]?d{1,3})?
    with 19 significant digits at most and a decimal exponent in [-26, 19],
    and just beyond them."""
    tokens = ["1.", "-0", "0.000", "0", "-0.0e-5", "000", "0e999", "1e5", "1e05", "1e005",
              "1e0005", "1.5E+12", "-2.5e-7", "1e-0001", "1e+000", "0.1",
              "0.30000000000000004", "9007199254740993", "9007199254740995",
              "1.7976931348623157e308", "2.2250738585072011e-308", "4.9e-324"]
    for n in range(1, 22):
        digits = ("123456789" * 3)[:n]
        tokens += [digits, "-" + digits, "00" + digits, "0.00" + digits, digits + "000",
                   digits[0] + "." + digits[1:] + "00", "-" + digits[:-1] + "9e-3"]
    # decimal exponent q = -27/-26 and 19/20, with 1 and 19 significant digits
    tokens += ["1e-26", "1e-27", "1.2345678901234567e-10", "1.23456789012345678e-10",
               "1234567890123456789e-45", "1234567890123456789e-46", "1e19", "1e20",
               "9999999999999999999e19", "9999999999999999999e20", "9999999999999999999",
               "99999999999999999999", "0.0000000000000000000000000001"]
    # within 2**-66 above the midpoint of two doubles: the top 64 bits read
    # as a tie, and only the remainder's sticky bit rounds them up
    tokens += ["7705233693076608500e-22", "6229631909277159982e-22", "9410135702919435571e-13",
               "9668011565518599120e11", "2544586109091622011e10",
               # so close that the quotient by 5**26 reads as a tie: the
               # remainder rounds it up
               "2701693964323170658e-26"]
    # q < 0 reads by Eisel-Lemire: 19-digit roundings of double midpoints
    # whose first product's low 9 bits are all ones, so the second decides,
    # with a carry into the top word (rounding up) and without one
    tokens += ["7.215400323407826738e-4", "5.911534350013039238e-8", "9.364405867994597088e2",
               "7.609624449125756655e4", "6.958328667684435687e-3", "6.864838541790798558e2"]
    # exact dyadic values, where both products stay undecided: the division
    tokens += ["0.03125", "0.0009765625", "3.0517578125e-05", "0.09375", "-1.52587890625e-5",
               "4.76837158203125e-07"]
    # exact ties w * 10**q, q = -1..-4, to even
    tokens += EXACT_TIES
    return tokens


# doubles' midpoints with 1-4 decimals, checked in ``test_limit_cases_are_what_they_say``;
# the products leave every tie undecided; the top word of the first holds
# the 54 bits from bit 63 for the first nine, from bit 62 for the last eight
EXACT_TIES = ["4503599627370496.5", "4503599627370497.5", "-2251799813685248.25",
              "2251799813685248.75", "1125899906842624.125", "-1125899906842625.375",
              "562949953421312.0625", "45035996273704965e-1", "225179981368524825e-2",
              "7586875392583996.5", "4140714565366429.25", "2037730314598460.625",
              "996310220298114.0625", "8414271189354691.5", "-2893537686072820.75",
              "2199101084546992.875", "926008072231623.1875"]


@st.composite
def number_tokens(draw):
    """Decimal tokens of 1-21 digits, with or without a point and an
    exponent of 1-4 digits up to 40."""
    digits = draw(st.text("0123456789", min_size=1, max_size=21))
    dot = draw(st.integers(0, len(digits)))
    token = digits[:dot] + "." + digits[dot:] if draw(st.booleans()) and dot else digits
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        exponent = "%0*d" % (width, draw(st.integers(0, min(40, 10**width - 1))))
        token += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + exponent
    return draw(st.sampled_from(["", "-"])) + token


class TestCFastPaths:
    """The C writer and reader compute most values in 128-bit integers and
    call PyOS_double_to_string / PyOS_string_to_double for the rest; either
    way they must give the bytes of ``%.17g`` and the bits of ``float``."""

    @staticmethod
    def assert_formats_like_percent(kernels, values):
        """``values`` laid out ``WIDTH`` to a row, the last row padded with 0."""
        block = np.zeros(-(-len(values) // WIDTH) * WIDTH)
        block[: len(values)] = values
        lines = kernels.format_rows(block).split(b"\n")
        assert lines.pop() == b""
        assert {len(line.split(b",")) for line in lines} == {WIDTH}
        fields = b",".join(lines).split(b",")
        assert fields[: len(values)] == [b"%.17g" % x for x in values]

    @staticmethod
    def assert_parses_like_float(kernels, tokens):
        """``tokens`` laid out ``WIDTH`` to a row, the last row padded with 0."""
        padded = [*tokens, *["0"] * (-len(tokens) % WIDTH)]
        text = "".join(",".join(padded[i : i + WIDTH]) + "\n"
                       for i in range(0, len(padded), WIDTH))
        parsed = kernels.parse_rows(io.StringIO(text))
        got = [x.hex() for x in np.frombuffer(parsed, dtype=float).tolist()]
        assert dict(zip(tokens, got)) == {t: float(t).hex() for t in tokens}

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(any_double, min_size=1, max_size=50))
    def test_any_double_formats_like_percent(self, compiled_kernels, values):
        self.assert_formats_like_percent(compiled_kernels, values)

    @pytest.mark.parametrize("case", FORMAT_CASES)
    def test_limits_format_like_percent(self, compiled_kernels, case):
        self.assert_formats_like_percent(compiled_kernels, FORMAT_CASES[case])

    def test_limit_cases_are_what_they_say(self):
        assert Decimal(1e-14) < Decimal("1e-14") and b"%.17g" % 1e-14 == b"1e-14"
        assert b"%.17g" % 1e-4 == b"0.0001" and b"e-05" in b"%.17g" % math.nextafter(1e-4, 0)
        assert b"%.17g" % 1e16 == b"10000000000000000" and b"%.17g" % 1e17 == b"1e+17"
        assert 1e-16 < Decimal("1e-16")
        assert len(b"%.17g" % -2.2250738585072014e-308) == 24
        for token in EXACT_TIES:
            x = float(token)
            assert Decimal(token) in {(Decimal(x) + Decimal(math.nextafter(x, d))) / 2
                                      for d in (-math.inf, math.inf)}, token

    def test_limits_parse_like_float(self, compiled_kernels):
        self.assert_parses_like_float(compiled_kernels, _token_cases())

    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(number_tokens(), min_size=1, max_size=30))
    def test_any_token_parses_like_float(self, compiled_kernels, tokens):
        self.assert_parses_like_float(compiled_kernels, tokens)



class TestCContractingBuild:
    """The C writer and reader built for this CPU with contraction asked
    for give the bytes of ``%.17g`` and the bits of ``float`` too, through
    their 128-bit integer paths and their PyOS calls alike."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(any_double, min_size=1, max_size=50))
    def test_any_double_formats_like_percent(self, contracting_kernels, values):
        TestCFastPaths.assert_formats_like_percent(contracting_kernels, values)

    @pytest.mark.parametrize("case", FORMAT_CASES)
    def test_limits_format_like_percent(self, contracting_kernels, case):
        TestCFastPaths.assert_formats_like_percent(contracting_kernels, FORMAT_CASES[case])

    def test_limits_parse_like_float(self, contracting_kernels):
        TestCFastPaths.assert_parses_like_float(contracting_kernels, _token_cases())

    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(number_tokens(), min_size=1, max_size=30))
    def test_any_token_parses_like_float(self, contracting_kernels, tokens):
        TestCFastPaths.assert_parses_like_float(contracting_kernels, tokens)

    def test_run_log_round_trips(self, contracting_kernels, monkeypatch, tmp_path):
        log = run_closed_loop(dataclasses.replace(demo_config(), horizon=4.0))
        want = tmp_path / "reference.csv"
        reference_write_log_csv(log, want)
        monkeypatch.setattr(plants, "kernels", contracting_kernels)
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        assert path.read_bytes() == want.read_bytes()
        assert read_log_csv(path).rows.tobytes() == log.rows.tobytes()


def _outcome(read, path):
    """The bits ``read`` gives for ``path``, or its error message."""
    try:
        result = read(path)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    rows = result if isinstance(result, np.ndarray) else result.rows
    return ("rows", rows.shape, rows.tobytes())
