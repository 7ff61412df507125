"""Command-line surface: spec grammar, subcommands, exit codes, files."""

import csv
import json
import math
import sys
import time

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings

from nonclass import _kernels, analytic, cli, optimizer, quasiprob, states, verify
from nonclass.analytic import pasv_dq, pasv_qmax, qmax_pac
from nonclass.cli import StateSpec, parse_state_spec, render_state_spec
from nonclass.errors import DomainError, SpecParseError


_FINITE = hs.floats(allow_nan=False, allow_infinity=False)
_ADDED = hs.integers(min_value=0)


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

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(spec=hs.one_of(
        hs.builds(lambda re, im, p: StateSpec("coherent", {"re": re, "im": im}, p),
                  _FINITE, _FINITE, _ADDED),
        hs.builds(lambda r, phi, p: StateSpec("svs", {"r": r, "phi": phi}, p),
                  hs.floats(min_value=0.0, allow_infinity=False), _FINITE, _ADDED),
        hs.builds(lambda n, p: StateSpec("fock", {"n": n}, p), hs.integers(min_value=0), _ADDED),
    ))
    def test_round_trip_over_the_grammar(self, spec):
        text = render_state_spec(spec)
        assert parse_state_spec(text) == spec
        assert render_state_spec(parse_state_spec(text)) == text

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
            ("", 0),  # empty spec
            ("svs:", 4),  # no parameters after the colon
            ("svs:r=1,phi", 8),  # a chunk without '='
        ],
    )
    def test_error_positions(self, capsys, text, pos):
        with pytest.raises(SpecParseError) as exc:
            parse_state_spec(text)
        assert exc.value.position == pos
        assert str(exc.value).endswith(f" (at position {pos})")
        assert cli.main(["dq", "--state", text]) == 64
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_negative_squeeze_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_state_spec("svs:r=-1,phi=0")


# small valid values and the specials -1, inf, nan and 1.5, in every
# argument of a StateSpec built directly, past the grammar's own checks
_SPECIAL = hs.sampled_from([-1, math.inf, math.nan, 1.5])
_REAL = hs.one_of(hs.floats(-2.0, 2.0), _SPECIAL)
_COUNT = hs.one_of(hs.integers(0, 3), _SPECIAL)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spec=hs.one_of(
    hs.builds(lambda re, im, p: StateSpec("coherent", {"re": re, "im": im}, p), _REAL, _REAL, _COUNT),
    hs.builds(lambda r, phi, p: StateSpec("svs", {"r": r, "phi": phi}, p),
              hs.one_of(hs.floats(0.0, 1.0), _SPECIAL), _REAL, _COUNT),
    hs.builds(lambda n, p: StateSpec("fock", {"n": n}, p), _COUNT, _COUNT),
))
def test_both_dq_paths_refuse_the_same_specs(spec):
    # the numeric dq searches cli.build_state's state, the closed form is
    # analytic.reference_dq's: each raises DomainError exactly when the other does
    def refuses(compute):
        try:
            compute()
        except DomainError:
            return True
        return False

    numeric = refuses(lambda: cli.build_state(spec))
    closed_form = refuses(lambda: analytic.reference_dq(spec.family, spec.params, spec.added_photons))
    assert numeric == closed_form


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
        want = pasv_dq(p=1, r=1.0)
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

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-7"])
    def test_bad_tol_exit_code(self, capsys, tol):
        assert cli.main(["dq", "--state", "fock:n=2", f"--tol={tol}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "target_step must be finite and positive" in captured.err

    def test_bad_tol_refused_before_the_state_is_built(self, capsys):
        # r = 5 needs a cutoff past the cap (exit 2 once built)
        assert cli.main(["dq", "--state", "svs:r=5,phi=0", "--tol", "nan"]) == 64
        assert "target_step must be finite and positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "attr, value, text, message",
        [
            ("_search_radius", lambda state: 0.5, "coherent:re=2,im=0", "search boundary"),
            ("_search_radius", lambda state: 1e4, "fock:n=2", "too far apart"),
            ("_MAX_NEWTON_STEPS", 1, "coherent:re=1,im=0", "still above target"),
        ],
        ids=["peak-on-boundary", "rings-too-far-apart", "newton-budget"],
    )
    def test_search_failure_exit_code(self, monkeypatch, capsys, attr, value, text, message):
        # a WindowError or ConvergenceError is a computation error, with no traceback
        monkeypatch.setattr(optimizer, attr, value)
        assert cli.main(["dq", "--state", text, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_sweep_search_failure_writes_no_file(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(optimizer, "_search_radius", lambda state: 0.5)
        out = tmp_path / "pac.csv"
        argv = ["sweep", "--family", "pac", "--p-list", "1", "--x-min", "1", "--x-max", "2",
                "--steps", "3", "--numeric", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "search boundary" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        monkeypatch.setattr(optimizer, "maximize_q", lambda state, target_step: report)
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
            (["--state", "coherent:re=1,im=0+add=10000000000000"], 2),
            (["--state", "svs:r=1,phi=0+add=10000000000000"], 2),
            (["--state", "coherent:re=1e200,im=0"], 64),
            # integers past the double range, once an OverflowError from float()
            (["--state", f"fock:n={10**400}"], 64),
            (["--state", f"coherent:re=1,im=0+add={10**400}"], 64),
            (["--state", "svs:r=1,phi=0", "--cutoff", str(10**400)], 64),
            (["grid", "--state", f"fock:n={10**400}", "--what", "wigner"], 64),
            # each fits a double, their sum does not
            (["--state", f"coherent:re=1,im=0+add={10**308}", "--cutoff", str(10**308)], 2),
            # integers of more digits than Python's int() converts, once a ValueError from it
            (["--state", "fock:n=" + "1" * 5000], 64),
            (["--state", "coherent:re=1,im=0+add=" + "1" * 5000], 64),
            (["--state", "fock:n=-" + "1" * 5000], 64),
            (["sweep", "--family", "pac", "--p-list", "1" * 5000, "--x-min", "0", "--x-max", "1",
              "--steps", "2"], 64),
        ],
        ids=["fock-override", "coherent-override", "svs-override", "fock-index",
             "coherent-auto", "added-photons", "coherent-added-photons",
             "svs-added-photons", "alpha-overflow", "fock-index-past-double",
             "added-photons-past-double", "override-past-double", "grid-fock-index-past-double",
             "cutoff-sum-past-double", "fock-index-past-digit-limit",
             "added-photons-past-digit-limit", "signed-fock-index-past-digit-limit",
             "sweep-p-list-past-digit-limit"],
    )
    def test_oversized_state_exit_code(self, capsys, tmp_path, argv, code):
        argv = [*argv, "--out", str(tmp_path / "g.csv")] if argv[0] in ("grid", "sweep") else ["dq", *argv]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_digit_limit_counts_neither_sign_nor_leading_zeros(self, capsys):
        # a sign is no digit, and int() counts leading zeros against its
        # limit: the parser drops them, so a padded small value is that value
        assert cli.main(["dq", "--state", "fock:n=-" + "1" * 5000]) == 64
        assert "got one of 5000 digits" in capsys.readouterr().err
        assert cli.parse_state_spec("fock:n=+" + "0" * 5000 + "3") == cli.parse_state_spec("fock:n=3")
        assert cli.parse_state_spec("coherent:re=1,im=0+add=" + "0" * 5000) == cli.parse_state_spec(
            "coherent:re=1,im=0+add=0")

    @pytest.mark.parametrize(
        "argv, p",
        [
            (["--state", "svs:r=800,phi=0"], 0),
            (["--state", "svs:r=800,phi=0+add=2"], 2),
            (["--state", "svs:r=800,phi=0", "--cutoff", "10"], 0),
        ],
        ids=["auto", "added", "override"],
    )
    def test_squeeze_past_cosh_range_exit_code(self, capsys, argv, p):
        # cosh 800 overflows a double: the squeeze is refused before it is
        # taken, by the one refusal of a mean photon number past the cap
        assert cli.main(["dq", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: moment-aware cutoff for r=800.0, p={p} exceeds 250000")

    def test_moment_cutoff_past_the_cap_exit_code(self, capsys):
        # the moment-aware search stops at the cap, so the refusal names the
        # search, not a cutoff the program chose
        assert cli.main(["dq", "--state", "svs:r=4.831454028841108,phi=0+add=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: moment-aware cutoff for r=4.831454028841108, p=1 exceeds 250000"
        )

    def test_squeezed_state_past_the_loop_drift(self, capsys):
        # the amplitude loop's drift failed the norm check here (exit 2)
        text = "svs:r=2.49724,phi=3.051618+add=5"
        assert cli.main(["dq", "--state", text, "--json"]) == 0
        q_max = json.loads(capsys.readouterr().out)["q_max"]
        assert abs(q_max - pasv_qmax(p=5, r=2.49724).qmax) <= 1e-6 * q_max

    def test_norm_check_failure_exit_code(self, monkeypatch, capsys):
        # a builder whose amplitudes drift, so the squared norm misses 1 by
        # 2e-10: an accuracy failure, reported without a traceback
        original = states.make_coherent

        def drifted(alpha, cutoff_override=None, p=0):
            st = original(alpha, cutoff_override, p)
            return states.FockState(st.amplitudes * (1.0 - 1e-10), st.tail_bound)

        monkeypatch.setattr(states, "make_coherent", drifted)
        assert cli.main(["dq", "--state", "coherent:re=38,im=0"]) == 2
        assert "error: squared norm" in capsys.readouterr().err

    def test_coherent_state_past_the_loop_underflow(self, capsys):
        # the amplitude loop's seed e^{-|alpha|^2/2} underflowed here and the
        # squared norm missed 1 by 9e-11 (exit 2)
        assert cli.main(["dq", "--state", "coherent:re=38,im=0", "--json"]) == 0
        q_max = json.loads(capsys.readouterr().out)["q_max"]
        assert abs(q_max - qmax_pac(p=0, alpha_sq=38.0**2)) <= 1e-6 * q_max


def _number_state_argvs():
    # the photon-addition pass returned squared norm nan on the first three
    # (its rescaled weights underflowed), then a seeded handful of number
    # states with overrides up to n + 500, and vacua with p up to 20000
    argvs = [
        ["--state", "fock:n=3+add=3000", "--cutoff", "400"],
        ["--state", "coherent:re=0,im=0+add=20000", "--cutoff", "2000"],
        ["--state", "svs:r=0,phi=0+add=5000", "--cutoff", "600"],
    ]
    rng = np.random.default_rng(33)
    for _ in range(4):
        n, p = int(rng.integers(0, 2001)), int(rng.integers(1, 5001))
        argvs.append(["--state", f"fock:n={n}+add={p}", "--cutoff", str(n + int(rng.integers(0, 501)))])
    for family in ("coherent:re=0,im=0", "svs:r=0,phi=0"):
        argvs.append(["--state", f"{family}+add={int(rng.integers(1, 20001))}"])
    return argvs


@pytest.mark.parametrize("argv", _number_state_argvs(), ids=lambda argv: " ".join(argv[1::2]))
def test_photon_added_number_states_meet_the_fock_closed_form(capsys, argv):
    # |n> with p photons added is |n+p>; the CLI's own agreement check has
    # passed on exit 0, and the closed form it used is the Fock one
    assert cli.main(["dq", *argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    spec = parse_state_spec(argv[1])
    dq = analytic.fock_nonclassicality(spec.params.get("n", 0) + spec.added_photons).dq
    q_ref = (1.0 - dq) / math.pi
    assert abs(payload["q_max"] - q_ref) <= 1e-6 * q_ref
    assert abs(payload["analytic_dq"] - dq) <= 1e-12


def _domain_lattice():
    # coherent |alpha| in [0, 400], svs r in [0, 4.4], Fock n <= 2000, p <= 10,
    # with the heaviest corners (|alpha| = 400 and r = 4.4 at p = 10) included
    rng = np.random.default_rng(1010)
    ps = [int(p) for p in rng.integers(0, 11, size=40)]
    phases = [float(x) for x in rng.uniform(-math.pi, math.pi, size=40)]
    ps[13] = ps[26] = 10
    specs = []
    for i, mod in enumerate(np.linspace(0.0, 400.0, 14)):
        alpha = float(mod) * complex(math.cos(phases[i]), math.sin(phases[i]))
        specs.append(StateSpec("coherent", {"re": alpha.real, "im": alpha.imag}, ps[i]))
    for i, r in enumerate(np.linspace(0.0, 4.4, 13), 14):
        specs.append(StateSpec("svs", {"r": float(r), "phi": phases[i]}, ps[i]))
    for i, n in enumerate(np.linspace(0, 2000, 13).round(), 27):
        specs.append(StateSpec("fock", {"n": int(n)}, ps[i]))
    return [render_state_spec(spec) for spec in specs]


def test_every_spec_on_the_domain_lattice_exits_zero(capsys):
    failures = []
    for text in _domain_lattice():
        code = cli.main(["dq", "--state", text, "--json"])
        captured = capsys.readouterr()
        if code != 0:
            failures.append((text, code, captured.err))
    assert failures == []


@pytest.mark.parametrize("text,q_ref", [
    ("coherent:re=1,im=0+add=1000", lambda: qmax_pac(1000, 1.0)),
    ("coherent:re=1,im=0+add=2000", lambda: qmax_pac(2000, 1.0)),
    ("svs:r=0.5,phi=0+add=800", lambda: pasv_qmax(800, 0.5).qmax),
])
def test_many_photons_added_to_a_gaussian_input(capsys, text, q_ref):
    # the raised amplitudes are one log-domain vector, so the low-n mass of a
    # Gaussian input survives a large p; measured within 1.2e-12 relative of
    # the closed form
    assert cli.main(["dq", "--state", text, "--json"]) == 0
    q_max = json.loads(capsys.readouterr().out)["q_max"]
    assert abs(q_max - q_ref()) <= 1e-10 * q_ref()


@pytest.mark.parametrize("text, r, p", [
    ("svs:r=0.5,phi=0+add=2000", 0.5, 2000),
    ("svs:r=1,phi=0+add=3000", 1.0, 3000),
    ("svs:r=0.1,phi=0+add=5000", 0.1, 5000),
])
def test_squeezed_input_past_the_former_p_bound(capsys, text, r, p):
    # the former build lost the input's underflowed tail here and exited 2 on
    # the agreement check; raised in the log domain, q_max measured within
    # 8.9e-12 relative of the closed form
    assert cli.main(["dq", "--state", text, "--json"]) == 0
    q_max = json.loads(capsys.readouterr().out)["q_max"]
    assert abs(q_max - pasv_qmax(p, r).qmax) <= 1e-10 * q_max


class TestGridCommand:
    @pytest.mark.parametrize("state", ["svs:r=5,phi=0", "fock:n=2"])
    @pytest.mark.parametrize(
        "flags", [["--res", "5000"], ["--window", "0", "0", "-1", "1"]], ids=["res", "window"]
    )
    def test_bad_res_or_window_refused_before_the_state(self, tmp_path, capsys, state, flags):
        # svs r = 5 needs a cutoff past the limit, so building it first
        # would exit 2 where the flag is at fault
        out = tmp_path / "g.csv"
        assert cli.main(["grid", "--state", state, *flags, "--out", str(out)]) == 64
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        qmax = qmax_pac(p=1, alpha_sq=8.0)
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

    # a width or height past the double range, for both quantities
    @pytest.mark.parametrize("what,window", [
        (what, window) for what in ("q", "wigner")
        for window in (["-1e308", "1e308", "-1", "1"], ["-1", "1", "-1e308", "1e308"])
    ])
    def test_overflowing_window_exit_code(self, tmp_path, capsys, what, window):
        code = cli.main(["grid", "--state", "coherent:re=1,im=0", "--what", what,
                         "--window", *window, "--res", "3", "--out", str(tmp_path / "w.csv")])
        assert code == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert list(tmp_path.iterdir()) == []

    # |beta| ~ 1.3e11 puts the overlap's seed-scale count past int64, and
    # |beta| ~ 6.7e199 puts |beta|^2 past the double range
    @pytest.mark.parametrize("what,half_width", [
        ("q", "2e11"), ("q", "1e200"), ("wigner", "2e11"), ("wigner", "1e300"),
    ])
    def test_far_window_cells_are_exact_zeros(self, tmp_path, capsys, what, half_width):
        out = tmp_path / "w.csv"
        code = cli.main(["grid", "--state", "coherent:re=1,im=0", "--what", what, "--window",
                         "-" + half_width, half_width, "-1", "1", "--res", "3", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        state = cli.build_state(parse_state_spec("coherent:re=1,im=0"))
        for x, y, value in rows:
            beta = complex(float(x), float(y))
            if beta.real != 0.0:
                assert value == "0"
            elif what == "q":
                assert float(value) == quasiprob.q_value(state, beta)
                assert float(value) > 0.0
            else:
                assert float(value) == _kernels.wigner_values(state.amplitudes, np.array([beta]))[0]
                assert float(value) > 0.0

    # the display windows reach corner radii 32.5 and 30.7
    @pytest.mark.parametrize("spec", ["coherent:re=9,im=0", "fock:n=70"])
    def test_wigner_on_the_display_window_of_a_large_state(self, tmp_path, capsys, spec):
        out = tmp_path / "w.csv"
        code = cli.main(["grid", "--state", spec, "--what", "wigner", "--res", "41",
                         "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        values = np.array([float(r[2]) for r in rows])
        assert values.size == 41 * 41
        assert np.all(np.abs(values) <= 2.0 / math.pi)


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
            want = pasv_dq(p=1, r=math.asinh(math.sqrt(x)))
            assert float(r[2]) == pytest.approx(want, rel=1e-12)
        best = min(rows, key=lambda r: float(r[2]))
        assert abs(float(best[0]) - 1.0 / 3.0) <= 0.05

    def test_pasv_sweep_large_p(self, tmp_path, capsys):
        # at p = 2000 the closed form reads dq = 0.9297 at sinh^2 r = 100,
        # not the 1 of a normalization overflowed to inf
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--family", "pasv", "--p-list", "1000,2000",
                         "--x-min", "100", "--x-max", "101", "--steps", "2",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        large = [float(r[2]) for r in rows if r[1] == "2000"]
        assert len(large) == 2 and all(0.92 < dq < 0.94 for dq in large)

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

    @pytest.mark.parametrize("flags, message", [
        (["--p-list", "1", "--x-min", "0", "--x-max", "1", "--steps", "1"],
         "sweep needs at least 2 steps"),
        (["--p-list", "1", "--x-min", "2", "--x-max", "1", "--steps", "3"],
         "x_min must not exceed x_max"),
        (["--p-list", ",", "--x-min", "0", "--x-max", "1", "--steps", "3"],
         "p_list must be non-empty for pac sweeps"),
    ], ids=["one-step", "reversed-range", "empty-p-list"])
    def test_bad_sweep_grid_exit_code(self, tmp_path, capsys, flags, message):
        code = cli.main(["sweep", "--family", "pac", *flags, "--out", str(tmp_path / "s.csv")])
        assert code == 64
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_rows_are_computed_while_the_file_is_open(self, tmp_path, capsys, monkeypatch):
        # each row goes from its closed form to the file as it is computed:
        # the writer's temporary file exists at every row
        seen = []

        def checked_dq(*args):
            seen.append(any(tmp_path.glob(".nonclass-*.tmp")))
            return checked(*args)

        checked = cli._checked_dq
        monkeypatch.setattr(cli, "_checked_dq", checked_dq)
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1,2", "--x-min", "0",
                         "--x-max", "1", "--steps", "3", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        assert seen == [True] * 6
        _, rows = read_csv(out)
        assert len(rows) == 6

    def test_checks_come_before_the_file_opens(self, tmp_path, capsys):
        # a bad argument is a usage error even when --out could not be opened
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1", "--x-min", "2",
                         "--x-max", "1", "--steps", "3", "--out", str(tmp_path / "no" / "s.csv")])
        assert code == 64
        assert capsys.readouterr().err == "error: x_min must not exceed x_max\n"
        # with good arguments, the missing directory is an I/O error
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1", "--x-min", "1",
                         "--x-max", "2", "--steps", "3", "--out", str(tmp_path / "no" / "s.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_bad_p_list_token(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1,a",
                         "--x-min", "0", "--x-max", "1", "--steps", "3",
                         "--out", str(out)])
        assert code == 64
        assert "position 2" in capsys.readouterr().err

    def test_oversized_sweep_exit_code(self, tmp_path, capsys):
        # a row count no allocator grants: refused before any row is built
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--family", "pac", "--p-list", "1,2", "--x-min", "0",
                         "--x-max", "1", "--steps", str(cli.MAX_SWEEP_ROWS // 2 + 1),
                         "--out", str(out)])
        assert code == 64
        assert str(cli.MAX_SWEEP_ROWS) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        code = cli.main(["sweep", "--family", "pac", "--x-min", "0", "--x-max", "1",
                         "--steps", "1000000000000", "--out", str(out)])
        assert code == 64
        # a photon count no closed form walks: refused before its moments are
        # walked, with dq's exit code for a state past the cap
        start = time.perf_counter()
        code = cli.main(["sweep", "--family", "pac", "--p-list", "10000000000000", "--x-min", "1",
                         "--x-max", "2", "--steps", "2", "--out", str(out)])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.endswith("exceeds the limit 250000 of the closed forms\n")
        assert list(tmp_path.iterdir()) == []

    def test_moment_walk_limit(self, tmp_path, capsys, monkeypatch):
        # each pac or pasv row walks p moment ratios in a Python loop; a
        # sweep whose rows walk more than the limit in all is refused
        # before any row is computed
        out = tmp_path / "s.csv"
        start = time.perf_counter()
        code = cli.main(["sweep", "--family", "pac", "--p-list", "250000", "--x-min", "1",
                         "--x-max", "2", "--steps", "401", "--out", str(out)])
        assert code == 64 and time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: sweep walks 100250000 moment ratios (steps x the sum of --p-list), "
            f"above the limit of {cli.MAX_SWEEP_MOMENTS}\n")
        assert list(tmp_path.iterdir()) == []
        # the limit itself is accepted, and a Fock sweep walks no moments
        monkeypatch.setattr(cli, "MAX_SWEEP_MOMENTS", 12)
        for family, p_list, want in (("pasv", "1,2,3", 0), ("pac", "1,2,4", 64), ("fock", "7", 0)):
            code = cli.main(["sweep", "--family", family, "--p-list", p_list, "--x-min", "0",
                             "--x-max", "1", "--steps", "2", "--out", str(out)])
            assert code == want, family
            assert out.exists() == (want == 0)
            out.unlink(missing_ok=True)

    @pytest.mark.parametrize("x_min, x_max", [("9999999999999998", "1e16"), ("1e307", "1.7e308")])
    def test_far_fock_sweep(self, tmp_path, capsys, x_min, x_max):
        # p ln p - p - ln p! read dq 1 and 0 at the first pair and let an
        # OverflowError escape at the second; dq is 1 - 1/sqrt(2 pi n) to
        # 1e-17 relative this far out
        out = tmp_path / "f.csv"
        code = cli.main(["sweep", "--family", "fock", "--x-min", x_min, "--x-max", x_max,
                         "--steps", "2", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [float(x_min), float(x_max)]
        for _, n, dq, numeric in rows:
            want = 1.0 - 1.0 / math.sqrt(2.0 * math.pi * float(n))
            assert float(dq) == pytest.approx(want, rel=1e-15) and numeric == ""


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
            return states.FockState(amps, st.tail_bound)

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
