"""CSV output: the exact '%.17g' encoder, grid and sweep files, atomic writes."""

import math
import os
import stat
import sys
from dataclasses import replace

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings

from nonclass import cli, output, quasiprob


def _texts(values):
    """The text of each value through _g17_rows: the non-zero bytes of its row."""
    return [row[row != 0].tobytes() for row in output._g17_rows(values)]


def _grid_csv_oracle(grid):
    """The grid CSV as the per-value formatter wrote it: the reference bytes."""
    g17 = "{:.17g}".format
    xs = list(map(g17, grid.x_centers().tolist()))
    lines = ["x,y,value"]
    for y, row in zip(grid.y_centers().tolist(), grid.values):
        y = g17(y)
        lines += [f"{x},{y},{v}" for x, v in zip(xs, map(g17, row.tolist()))]
    return ("\n".join(lines) + "\n").encode()


class TestGridEncoding:
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(hs.lists(hs.floats(), min_size=1, max_size=64))
    def test_matches_percent_g17(self, xs):
        assert _texts(np.array(xs)) == [b"%.17g" % x for x in xs]

    @pytest.mark.parametrize(
        "x",
        [
            0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
            math.inf, -math.inf, math.nan,
            # 10^k one ulp either side, across both switches between fixed
            # point and exponent form
            *(np.nextafter(10.0**k, to) for k in (-5, -4, 16, 17) for to in (0.0, math.inf)),
            1e-5, 1e-4, 1e16, 1e17,
            1e-70,  # lies below 10^-70; its 17 digits carry up to 1e-70
            330437076183387.125,  # an exact tie, rounded to even: ...87.12
            1e-280, 1e280, 0.1, 123.0, -2.5e-7,
        ],
    )
    def test_edge_cases(self, x):
        assert _texts(np.array([x])) == [b"%.17g" % x]

    def test_pinned_texts(self):
        assert _texts(np.array([1e-70])) == [b"1e-70"]
        assert _texts(np.array([330437076183387.125])) == [b"330437076183387.12"]
        assert _texts(np.array([0.0, -0.0])) == [b"0", b"-0"]

    def test_every_exponent_of_the_table_range(self):
        # k = floor(log10 |v|) over [-281, 0]: 10^k, one ulp either side,
        # and seeded mantissas, both signs; k = -281 and 0 lie outside the
        # range the tables serve and exercise its edges
        rng = np.random.default_rng(15)
        values = []
        for k in range(-281, 1):
            p = 10.0**k
            values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
            values += (rng.uniform(1.0, 10.0, 40) * p).tolist()
        values = np.array(values)
        values = np.concatenate([values, -values])
        assert _texts(values) == [b"%.17g" % x for x in values.tolist()]

    def test_tables(self):
        quads = output._QUADS.view("S4")
        assert quads[:10000].tolist() == [b"%04d" % q for q in range(10000)]
        assert quads[10000:].tolist() == [(b"%04d" % q).rstrip(b"0") for q in range(10000)]
        exponents = output._EXPONENTS.view("S8").tolist()
        assert exponents == [b""] * 5 + [b"e-%02d" % m for m in range(5, 282)]
        assert len(output._HEADS) == 200

    def test_input_layouts(self):
        rng = np.random.default_rng(16)
        block = rng.uniform(-0.3, 0.3, (7, 9)) * 10.0 ** rng.integers(-12, 0, (7, 9))
        want = [b"%.17g" % x for x in block.ravel().tolist()]
        assert _texts(block) == want
        assert _texts(block.astype(">f8")) == want
        assert _texts(block[:, ::2]) == [b"%.17g" % x for x in block[:, ::2].ravel().tolist()]
        assert _texts(block.T[3]) == [b"%.17g" % x for x in block.T[3].tolist()]

    @pytest.mark.parametrize(
        "x",
        [
            1.0, 1.2345678901234567, -123.456, 1e16, 9.999999999999999e279, 1e300,
            5e-324, -2.2250738585072009e-308, 1e-300, np.nextafter(1e-280, 0.0),
        ],
    )
    def test_outside_the_table_range_formats_one_at_a_time(self, x):
        # the one-at-a-time path writes the text as one run from byte 0;
        # a table row puts the head, the quads and the exponent apart
        want = b"%.17g" % x
        assert output._g17_rows(np.array([x]))[0].tobytes() == want.ljust(output._ROW, b"\0")

    @pytest.mark.parametrize(
        "spec, what, window, res, cutoff",
        [
            ("coherent:re=1.3,im=-0.4+add=2", "q", None, 41, None),
            ("svs:r=0.8,phi=0.3+add=1", "wigner", None, 41, None),
            ("fock:n=3", "q", (-2.0, 3.0, -1.5, 2.5), 37, None),  # straddles 0
            ("fock:n=3", "wigner", (-2.0, 3.0, -1.5, 2.5), 37, None),
            ("coherent:re=1,im=0", "q", (1e-310, 2e-310, 1e-310, 3e-310), 9, None),
            ("fock:n=2", "q", None, 23, 12),
            ("svs:r=0.7,phi=0.2", "wigner", None, 23, 80),
            # past the support radius W is an exact 0: a window wholly
            # beyond it, and one across it
            ("fock:n=3", "wigner", (10.0, 20.0, -20.0, -10.0), 9, None),
            ("fock:n=3", "wigner", (4.0, 12.0, -3.0, 3.0), 21, None),
        ],
    )
    @pytest.mark.parametrize("block_points", [output._BLOCK_POINTS, 7])
    def test_grid_matches_oracle(self, monkeypatch, tmp_path, capsys,
                                 spec, what, window, res, cutoff, block_points):
        monkeypatch.setattr(output, "_BLOCK_POINTS", block_points)
        out = tmp_path / "g.csv"
        argv = ["grid", "--state", spec, "--what", what, "--res", str(res), "--out", str(out)]
        if window is not None:
            argv += ["--window", *map(repr, window)]
        if cutoff is not None:
            argv += ["--cutoff", str(cutoff)]
        assert cli.main(argv) == 0
        state = cli.build_state(replace(cli.parse_state_spec(spec), cutoff_override=cutoff))
        window = window or quasiprob.display_window(state)
        make = quasiprob.q_grid if what == "q" else quasiprob.wigner_grid
        assert out.read_bytes() == _grid_csv_oracle(make(state, window, res))

    def test_signed_zeros(self, tmp_path):
        values = np.array([[0.0, -0.0, 0.25], [-0.0, -1e-300, 0.0]])
        grid = quasiprob.QGrid(-1.0, 2.0, -1.0, 0.5, np.vstack([values, -values[:1]]))
        out = tmp_path / "z.csv"
        output.write_grid(str(out), grid)
        assert out.read_bytes() == _grid_csv_oracle(grid)
        assert b",0\n" in out.read_bytes() and b",-0\n" in out.read_bytes()

    @staticmethod
    def _write_counting(monkeypatch, tmp_path, values):
        """write_grid on a square grid of values: the bytes, and the values _g17_rows encoded."""
        encoded = []
        original = output._g17_rows

        def counting(block):
            encoded.append(np.size(block))
            return original(block)

        monkeypatch.setattr(output, "_g17_rows", counting)
        res = math.isqrt(values.size)
        grid = quasiprob.QGrid(-1.0, 1.0, -2.0, 2.0, values.reshape(res, res))
        out = tmp_path / "p.csv"
        output.write_grid(str(out), grid)
        assert out.read_bytes() == _grid_csv_oracle(grid)
        return out.read_bytes(), sum(encoded)

    @staticmethod
    def _palindrome(n, seed):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal((n + 1) // 2) * 10.0 ** rng.uniform(-9.0, -1.0, (n + 1) // 2)
        return np.concatenate([half, half[: n // 2][::-1]])

    @pytest.mark.parametrize("block_points", [output._BLOCK_POINTS, 7])
    @pytest.mark.parametrize("res", [1, 2, 3, 6, 7, 40])
    def test_palindromes_encode_half(self, monkeypatch, tmp_path, res, block_points):
        # at 7 points a block, a block straddles the middle: one-row blocks
        # of an odd res, and two-row blocks of res 3
        monkeypatch.setattr(output, "_BLOCK_POINTS", block_points)
        values = self._palindrome(res * res, res)
        _, encoded = self._write_counting(monkeypatch, tmp_path, values)
        assert encoded == (res * res + 1) // 2

    @pytest.mark.parametrize("block_points", [output._BLOCK_POINTS, 7])
    def test_palindrome_of_slow_path_values(self, monkeypatch, tmp_path, block_points):
        monkeypatch.setattr(output, "_BLOCK_POINTS", block_points)
        values = self._palindrome(49, 3)
        for i, v in enumerate([1.5, math.nan, 5e-324, -math.inf, 0.0, -0.0]):
            values[2 * i] = values[48 - 2 * i] = v
        values[24] = math.nan  # the middle value is its own mirror
        data, encoded = self._write_counting(monkeypatch, tmp_path, values)
        assert encoded == 25
        assert data.count(b",nan\n") == 3 and data.count(b",1.5\n") == 2

    @pytest.mark.parametrize("flip", ["signed zero", "one ulp"])
    def test_near_palindromes_encode_every_value(self, monkeypatch, tmp_path, flip):
        # bits, not floats, decide: a mirrored (0.0, -0.0) pair compares
        # equal as floats, yet each value needs its own text
        values = self._palindrome(36, 4)
        values[5] = values[30] = 0.0
        values[7] = values[28] = -0.0
        if flip == "signed zero":
            values[30] = -0.0
        else:
            values[11] = np.nextafter(values[24], math.inf)
        assert np.array_equal(values, values[::-1]) == (flip == "signed zero")
        data, encoded = self._write_counting(monkeypatch, tmp_path, values)
        assert encoded == 36
        assert b",0\n" in data and b",-0\n" in data

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        output.write_sweep(str(out), [(0.1, 1, 1.0 / 3.0, None), (2.0, 3, 0.5, 0.25)])
        assert out.read_bytes() == (
            b"x,p,dq_analytic,dq_numeric\n"
            b"0.10000000000000001,1,0.33333333333333331,\n"
            b"2,3,0.5,0.25\n"
        )

    def test_failed_write_leaves_nothing(self, tmp_path):
        def chunks():
            yield b"x,y,value\n"
            raise MemoryError("block")

        out = tmp_path / "g.csv"
        with pytest.raises(MemoryError):
            output._atomic_write(str(out), chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["grid", "--state", "fock:n=1", "--res", "11"],
            ["sweep", "--family", "pac", "--x-min", "0", "--x-max", "1", "--steps", "3"],
        ],
        ids=["grid", "sweep"],
    )
    def test_mode_is_that_of_a_new_file(self, tmp_path, capsys, argv):
        # 0o666 less the umask, as open(path, "wb") makes it, whether the
        # path is new or rewritten
        out = tmp_path / "f.csv"
        umask = os.umask(0o022)
        try:
            for _ in range(2):
                assert cli.main(argv + ["--out", str(out)]) == 0
                assert stat.S_IMODE(out.stat().st_mode) == 0o644
        finally:
            os.umask(umask)
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
