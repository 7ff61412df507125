"""Command-line surface: spec grammar, subcommands, exit codes, files."""

import csv
import json
import math
import sys

import pytest

from nonclass import cli, optimizer, quasiprob, states, verify
from nonclass.analytic import PacParams, PasvParams, pasv_dq, qmax_pac
from nonclass.cli import StateSpec, parse_state_spec, render_state_spec
from nonclass.errors import DomainError, SpecParseError


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "coherent:re=2.0,im=2.0+add=1",
            "svs:r=1.5,phi=-0.25+add=2",
            "fock:n=3",
            "coherent:re=-0.5,im=1e-3",
            "svs:r=0.0,phi=0.0",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_state_spec(text)
        assert parse_state_spec(render_state_spec(spec)) == spec

    def test_scientific_notation(self):
        spec = parse_state_spec("coherent:re=1e2,im=-2.5E-1")
        assert spec.params == {"re": 100.0, "im": -0.25}

    def test_add_defaults_to_zero(self):
        spec = parse_state_spec("fock:n=2")
        assert spec.added_photons == 0
        assert "+add" not in render_state_spec(spec)

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("coherent:re=2", 13),  # missing im, reported at end of text
            ("junk", 4),  # no colon
            ("bogus:x=1", 0),  # unknown family
            ("fock:m=1", 5),  # unknown key, at the chunk
            ("fock:n=1,n=2", 9),  # duplicate, at the second chunk
            ("fock:n=abc", 7),  # bad value, after 'n='
        ],
    )
    def test_error_positions(self, text, pos):
        with pytest.raises(SpecParseError) as exc:
            parse_state_spec(text)
        assert exc.value.position == pos
        assert f"position {pos}" in str(exc.value)

    def test_negative_squeeze_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_state_spec("svs:r=-1,phi=0")


class TestDqCommand:
    def test_json_payload(self, capsys):
        assert cli.main(["dq", "--state", "fock:n=1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "state_spec",
            "dq_numeric",
            "analytic_dq",
            "analytic_source",
            "q_max",
            "beta_max",
            "final_step",
        }
        assert payload["state_spec"] == "fock:n=1"
        assert payload["analytic_source"] == "fock(p=1)"
        want = 1.0 - 1.0 / math.e
        assert abs(payload["dq_numeric"] - want) <= 1e-6
        assert abs(payload["dq_numeric"] - payload["analytic_dq"]) <= 1e-6
        assert abs(payload["q_max"] - 1.0 / (math.pi * math.e)) <= 1e-7
        re, im = payload["beta_max"]
        assert math.hypot(re, im) == pytest.approx(1.0, abs=1e-4)

    def test_text_output(self, capsys):
        assert cli.main(["dq", "--state", "coherent:re=1,im=0"]) == 0
        out = capsys.readouterr().out
        assert "dq_numeric = " in out
        assert "[coherent]" in out
        dq = float(out.split("dq_numeric = ")[1].split()[0])
        assert dq <= 1e-8

    def test_added_squeezed_state_agrees_with_closed_form(self, capsys):
        assert cli.main(["dq", "--state", "svs:r=1,phi=0+add=1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_source"] == "pasv(p=1, r=1.0)"
        want = pasv_dq(PasvParams(p=1, r=1.0))
        assert abs(payload["dq_numeric"] - want) <= 1e-6

    @pytest.mark.parametrize(
        "spec", ["svs:r=1,phi=0+add=120", "svs:r=1,phi=0+add=160", "coherent:re=1,im=0+add=171"]
    )
    def test_many_added_photons(self, capsys, spec):
        # the weights (n+1)...(n+p) and the moment cutoff's terms pass the
        # double range at these p; the search still meets the closed form
        assert cli.main(["dq", "--state", spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["dq_numeric"] - payload["analytic_dq"]) <= 1e-6

    def test_cutoff_below_fock_degree_rejected(self, capsys):
        assert cli.main(["dq", "--state", "fock:n=3", "--cutoff", "2"]) == 64

    def test_parse_error_exit_code(self, capsys):
        assert cli.main(["dq", "--state", "coherent:re=2"]) == 64
        assert "error:" in capsys.readouterr().err

    def test_domain_error_exit_code(self, capsys):
        assert cli.main(["dq", "--state", "svs:r=-1,phi=0"]) == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["dq", "--state", "fock:n=1"],
            ["dq", "--state", "fock:n=1", "--json"],
            # both rows are |1>
            ["sweep", "--family", "fock", "--x-min", "1", "--x-max", "1", "--steps", "2",
             "--numeric"],
        ],
        ids=["text", "json", "sweep"],
    )
    @pytest.mark.parametrize("rel, code", [(1e-5, 2), (1e-7, 0)])
    def test_disagreement_with_closed_form_exit_code(
        self, monkeypatch, capsys, tmp_path, argv, rel, code
    ):
        # |1> peaks at q = 1/(pi e); a numeric q_max more than 1e-6 relative
        # off it is an error, with both values and a hint on stderr
        q = (1.0 + rel) / (math.pi * math.e)
        report = optimizer.NonclassReport(1.0 + 0.0j, q, 1.0 - math.pi * q, 0.0)
        monkeypatch.setattr(optimizer, "maximize_q", lambda state, opts=None: report)
        out = tmp_path / "sweep.csv"
        if argv[0] == "sweep":
            argv = argv + ["--out", str(out)]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert repr(q) in captured.err
            assert repr(1.0 - 1.0 / math.e) in captured.err
            assert "hint:" in captured.err
            assert list(tmp_path.iterdir()) == []
        else:
            assert captured.err == ""
            if argv[0] == "sweep":
                _, rows = read_csv(out)
                assert [float(r[3]) for r in rows] == [1.0 - math.pi * q] * 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            # sizes no allocator grants: each must be refused before anything is built
            (["--state", "fock:n=1", "--cutoff", "10000000000000"], 2),
            (["--state", "coherent:re=1,im=0", "--cutoff", "10000000000000"], 2),
            (["--state", "svs:r=1,phi=0", "--cutoff", "10000000000000"], 2),
            (["--state", "fock:n=10000000000000"], 2),
            (["--state", "coherent:re=1e100,im=0"], 2),
            (["--state", "fock:n=1+add=10000000000000"], 2),
            (["--state", "coherent:re=1e200,im=0"], 64),
        ],
        ids=["fock-override", "coherent-override", "svs-override", "fock-index",
             "coherent-auto", "added-photons", "alpha-overflow"],
    )
    def test_oversized_state_exit_code(self, capsys, argv, code):
        assert cli.main(["dq", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--state", "svs:r=800,phi=0"],
            ["--state", "svs:r=800,phi=0+add=2"],
            ["--state", "svs:r=800,phi=0", "--cutoff", "10"],
        ],
        ids=["auto", "added", "override"],
    )
    def test_squeeze_past_cosh_range_exit_code(self, capsys, argv):
        # cosh 800 overflows a double: the squeeze is refused before it is taken
        assert cli.main(["dq", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: r=800.0 needs a cutoff beyond")

    def test_moment_cutoff_past_the_cap_exit_code(self, capsys):
        # the moment-aware search stops at the cap, so the refusal names the
        # search, not a cutoff the program chose
        assert cli.main(["dq", "--state", "svs:r=4.831454028841108,phi=0+add=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: moment-aware cutoff for r=4.831454028841108, p=1 exceeds 250000"
        )

    def test_norm_check_failure_exit_code(self, capsys):
        # the overlap seed e^{-|alpha|^2/2} underflows and the squared norm
        # misses 1 by 9e-11: an accuracy failure, reported without a traceback
        assert cli.main(["dq", "--state", "coherent:re=38,im=0"]) == 2
        assert "error: squared norm" in capsys.readouterr().err


class TestGridCommand:
    def test_header_shape_and_order(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = cli.main(
            ["grid", "--state", "coherent:re=0,im=0", "--window", "-1", "1", "-1", "1",
             "--res", "5", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "value"]
        assert len(rows) == 25
        # y varies slowest
        ys = [float(r[1]) for r in rows]
        assert ys == sorted(ys)
        xs_first_block = [float(r[0]) for r in rows[:5]]
        assert xs_first_block == sorted(xs_first_block)

    def test_byte_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["grid", "--state", "svs:r=0.8,phi=0.3", "--window",
                "-2", "2", "-2", "2", "--res", "31"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_vacuum_peak_at_origin(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        cli.main(["grid", "--state", "coherent:re=0,im=0", "--window",
                  "-3", "3", "-3", "3", "--res", "121", "--out", str(out)])
        _, rows = read_csv(out)
        vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert vals[(0.0, 0.0)] == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert max(vals.values()) == vals[(0.0, 0.0)]

    def test_photon_added_grid_peak_location(self, tmp_path, capsys):
        # alpha = 2+2i with one added photon: closed-form peak at
        # |beta| = |alpha|(1+sqrt(1+4p/|alpha|^2))/2 along arg(alpha)
        out = tmp_path / "p.csv"
        cli.main(["grid", "--state", "coherent:re=2,im=2+add=1", "--window",
                  "-3", "3", "-3", "3", "--res", "121", "--out", str(out)])
        _, rows = read_csv(out)
        vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        # photon addition kills the vacuum amplitude
        assert vals[(0.0, 0.0)] == 0.0
        (px, py), peak = max(vals.items(), key=lambda kv: kv[1])
        a = math.sqrt(8.0)
        s = math.sqrt(1.0 + 4.0 / 8.0)
        want_r = a * (1.0 + s) / 2.0
        cell = 6.0 / 121.0
        assert math.hypot(px, py) == pytest.approx(want_r, abs=cell)
        assert px == pytest.approx(py, abs=cell)  # along the diagonal
        qmax = qmax_pac(PacParams(p=1, alpha_sq=8.0))
        assert peak == pytest.approx(qmax, rel=1e-3)

    def test_wigner_grid_fock1(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        cli.main(["grid", "--state", "fock:n=1", "--what", "wigner", "--window",
                  "-3", "3", "-3", "3", "--res", "121", "--out", str(out)])
        _, rows = read_csv(out)
        vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert min(vals.values()) == vals[(0.0, 0.0)]
        assert vals[(0.0, 0.0)] == pytest.approx(-2.0 / math.pi, rel=1e-12)

    def test_default_window(self, tmp_path, capsys):
        # no --window: radius 2 sqrt(<n>) + 5 = 9 for |4>, so 3 cells are 6 wide
        out = tmp_path / "d.csv"
        assert cli.main(["grid", "--state", "fock:n=4", "--res", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows[:3]] == [-6.0, 0.0, 6.0]

    def test_unwritable_path_exit_code(self, capsys):
        code = cli.main(["grid", "--state", "fock:n=1", "--out",
                         "/nonexistent/dir/x.csv"])
        assert code == 3

    def test_oversized_resolution_exit_code(self, tmp_path, capsys):
        # a size no allocator grants: refused before the grid is built
        out = tmp_path / "x.csv"
        code = cli.main(["grid", "--state", "fock:n=1", "--res", "1000000", "--out", str(out)])
        assert code == 64
        assert str(quasiprob.MAX_GRID_CELLS) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_window_bound_in_exponent_form(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        code = cli.main(["grid", "--state", "fock:n=1", "--window", "-1e-3", "1", "-1", "1",
                         "--res", "3", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0][0]) == pytest.approx(-1e-3 + (1.0 + 1e-3) / 6.0, rel=1e-15)

    def test_bad_window_exit_code(self, capsys):
        code = cli.main(["grid", "--state", "fock:n=1", "--window",
                         "2", "-2", "-1", "1", "--out", "/tmp/never.csv"])
        assert code == 64

    @pytest.mark.parametrize("position", range(4))
    def test_infinite_window_bound_exit_code(self, tmp_path, capsys, position):
        window = ["0", "1", "0", "1"]
        window[position] = "inf"
        out = tmp_path / "w.csv"
        code = cli.main(["grid", "--state", "fock:n=1", "--window", *window,
                         "--res", "3", "--out", str(out)])
        assert code == 64
        assert "window bounds must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # a width or height past the double range, for both quantities, and a
    # finite width whose corner radius squared overflows
    @pytest.mark.parametrize("what,window", [
        (what, window) for what in ("q", "wigner")
        for window in (["-1e308", "1e308", "-1", "1"], ["-1", "1", "-1e308", "1e308"])
    ] + [("wigner", ["-1e300", "1e300", "-1", "1"])])
    def test_overflowing_window_exit_code(self, tmp_path, capsys, what, window):
        code = cli.main(["grid", "--state", "coherent:re=1,im=0", "--what", what,
                         "--window", *window, "--res", "3", "--out", str(tmp_path / "w.csv")])
        assert code == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert list(tmp_path.iterdir()) == []

    # |beta| ~ 1.3e11 puts the overlap's seed-scale count past int64, and
    # |beta| ~ 6.7e199 puts |beta|^2 past the double range
    @pytest.mark.parametrize("half_width", ["2e11", "1e200"])
    def test_far_window_cells_are_exact_zeros(self, tmp_path, capsys, half_width):
        out = tmp_path / "w.csv"
        code = cli.main(["grid", "--state", "coherent:re=1,im=0", "--what", "q", "--window",
                         "-" + half_width, half_width, "-1", "1", "--res", "3", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        state = cli.build_state(parse_state_spec("coherent:re=1,im=0"))
        for x, y, value in rows:
            if float(x) != 0.0:
                assert value == "0"
            else:
                assert float(value) == quasiprob.q_value(state, complex(float(x), float(y)))
                assert float(value) > 0.0


class TestSweepCommand:
    def test_fock_sweep(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli.main(["sweep", "--family", "fock", "--x-min", "1",
                         "--x-max", "20", "--steps", "20", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "p", "dq_analytic", "dq_numeric"]
        assert [r[0] for r in rows] == [str(k) for k in range(1, 21)]
        dqs = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(dqs, dqs[1:]))
        assert all(r[3] == "" for r in rows)

    def test_fock_sweep_requires_integer_grid(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = cli.main(["sweep", "--family", "fock", "--x-min", "1",
                         "--x-max", "20", "--steps", "7", "--out", str(out)])
        assert code == 64

    def test_pasv_sweep_rows_and_minimum(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--family", "pasv", "--p-list", "1",
                         "--x-min", "0", "--x-max", "3", "--steps", "61",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 61
        for r in rows:
            x = float(r[0])
            want = pasv_dq(PasvParams(p=1, r=math.asinh(math.sqrt(x))))
            assert float(r[2]) == pytest.approx(want, rel=1e-12)
        best = min(rows, key=lambda r: float(r[2]))
        assert abs(float(best[0]) - 1.0 / 3.0) <= 0.05

    def test_pac_sweep_numeric_column(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1",
                         "--x-min", "0.5", "--x-max", "2", "--steps", "4",
                         "--numeric", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        for r in rows:
            assert r[3] != ""
            assert abs(float(r[2]) - float(r[3])) <= 1e-6

    def test_multiple_p_values(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1,3",
                         "--x-min", "0.5", "--x-max", "1.5", "--steps", "3",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert [r[1] for r in rows].count("1") == 3
        assert [r[1] for r in rows].count("3") == 3


    @pytest.mark.parametrize("family", ["fock", "pac", "pasv"])
    @pytest.mark.parametrize("flag,bounds", [("--x-min", ["nan", "3"]),
                                             ("--x-max", ["0", "inf"]),
                                             ("--x-max", ["0", "nan"])])
    def test_non_finite_bound_exit_code(self, tmp_path, capsys, family, flag, bounds):
        code = cli.main(["sweep", "--family", family, "--p-list", "1",
                         "--x-min", bounds[0], "--x-max", bounds[1], "--steps", "3",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} must be finite")
        assert list(tmp_path.iterdir()) == []

    def test_bad_p_list_token(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1,a",
                         "--x-min", "0", "--x-max", "1", "--steps", "3",
                         "--out", str(out)])
        assert code == 64
        assert "position 2" in capsys.readouterr().err


class TestVerifyCommand:
    def test_subset_passes(self, monkeypatch, capsys):
        monkeypatch.setattr(
            verify, "ALL_CHECKS", (verify.check_svs_q_closed_form,)
        )
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "1 checks: 1 passed, 0 failed" in out

    def test_detects_injected_sign_error(self, monkeypatch, capsys):
        build = states.make_squeezed_vacuum

        def corrupted(r, phi, cutoff_override=None):
            st = build(r, phi, cutoff_override)
            amps = st.amplitudes.copy()
            amps[2::4] *= -1.0
            return states.FockState(amplitudes=amps, cutoff=st.cutoff, tail_bound=st.tail_bound)

        monkeypatch.setattr(states, "make_squeezed_vacuum", corrupted)
        monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_svs_q_closed_form,))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "1 checks: 0 passed, 1 failed" in out


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 64

    def test_missing_required_flag(self, capsys):
        assert cli.main(["dq"]) == 64

    def test_console_script_exits_with_the_code_of_main(self, monkeypatch, capsys):
        # the `nonclass` console script runs cli.entry on sys.argv
        monkeypatch.setattr(sys, "argv", ["nonclass", "frobnicate"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 64

    def test_cached_parser_keeps_no_state(self, tmp_path, capsys):
        # each call in this order gives what it gives on a freshly built parser
        calls = [
            ["dq", "--state"],
            ["dq", "--state", "fock:n=1", "--json"],
            ["grid", "--state", "fock:n=1", "--res", "5", "--out", str(tmp_path / "g.csv")],
            ["dq", "--state", "fock:n=1", "--json"],
            ["dq", "--state", "coherent:re=1,im=0.5", "--json", "--tol", "1e-3"],
            ["dq", "--state", "coherent:re=1,im=0.5", "--json"],
        ]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append((cli.main(argv), capsys.readouterr().out))
        assert [code for code, _ in fresh] == [64, 0, 0, 0, 0, 0]
        assert fresh[4] != fresh[5]  # --tol shows in the output
        parser = cli._build_parser()
        assert [(cli.main(argv), capsys.readouterr().out) for argv in calls] == fresh
        assert cli._build_parser() is parser
